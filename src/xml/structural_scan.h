// SIMD/SWAR structural scanning: the per-byte front of the SAX parser.
//
// In the simdjson style, the input is classified in 16–64-byte blocks
// *once*, producing a sparse index of the structural characters the
// tokenizer dispatches on — '<', '>', '&', the two quote kinds and NUL
// (always a fatal input error). The tokenizer (xml::SaxParser) then walks
// the index instead of re-scanning bytes with memchr/byte loops: finding
// the next tag, the end of a quoted attribute value, or the "-->" / "]]>"
// / "?>" terminator becomes a walk over index entries, of which a typical
// XML document has ~5–15 per 100 bytes. Newlines are deliberately NOT
// indexed: line/column accounting is lazy (computed with memchr only when
// an error message needs it), so marking every newline would just bloat
// the index and slow every walk.
//
// Implementation families, selected at build time (see StructuralScanKind):
//   * SSE2  — x86-64 baseline; 16-byte blocks, one PCMPEQB per class,
//     OR-combined into a single PMOVMSKB bitmask per block. When the
//     build supports per-function target attributes, an AVX2 twin
//     (32-byte blocks) is also compiled and chosen once at runtime via
//     __builtin_cpu_supports, so the binary stays baseline-portable;
//   * NEON  — aarch64; same shape with vceqq_u8 and a bit-narrowing fold;
//   * SWAR  — portable fallback; 8-byte registers, exact byte-equality
//     bit tricks, no intrinsics.
// Configuring with -DTWIGM_FORCE_SCALAR_SCAN=ON forces the SWAR path on
// any architecture so CI keeps both paths green. ScanStructuralScalar (a
// plain byte loop) is always compiled: it is the differential-test oracle
// and the denominator of bench_rawscan's speedup ratio.
//
// Chunked input: the scan is stateless per byte (every structural class is
// a single-byte test), so arbitrary chunk splits need no carry — callers
// simply scan each newly appended region [from, to) of their buffer and
// append the marks. Cross-chunk *constructs* (a tag split over two reads)
// are the tokenizer's job; it keeps a cursor into the index and resumes
// its walk there, which stays valid because marks are absolute buffer
// positions. A NUL is a mark like the others, so the tokenizer's walks
// stop at it by class; nothing needs a separate pass to find it.

#ifndef TWIGM_XML_STRUCTURAL_SCAN_H_
#define TWIGM_XML_STRUCTURAL_SCAN_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace twigm::xml {

/// Structural character classes. Values are the low 3 bits of a mark.
enum class StructClass : uint8_t {
  kLt = 0,      // '<'
  kGt = 1,      // '>'
  kAmp = 2,     // '&'
  kDQuote = 3,  // '"'
  kSQuote = 4,  // '\''
  kNul = 5,     // '\0'  (never legal in XML; the parser rejects it)
};

/// Sparse index of the structural characters of a byte buffer. Each mark
/// packs (position << 3) | class; marks are strictly ascending by
/// position, so a reader walks them front to back.
struct StructuralIndex {
  std::vector<uint64_t> marks;

  static constexpr size_t npos = ~size_t{0};

  void Clear() { marks.clear(); }

  static size_t PosOf(uint64_t mark) { return static_cast<size_t>(mark >> 3); }
  static StructClass ClassOf(uint64_t mark) {
    return static_cast<StructClass>(mark & 7);
  }

  /// Index of the first mark at position >= from (marks.size() if none).
  size_t LowerBound(size_t from) const;

  /// Drops all marks below `cut` and rebases the rest by -cut (the caller
  /// erased the first `cut` bytes of its buffer). Returns the number of
  /// marks dropped, so callers can rebase their indices into `marks`.
  size_t DropBelowAndRebase(size_t cut);
};

/// Appends the structural marks of buf[from, to) to *out, positions
/// absolute within `buf`. Marks must be appended in buffer order: `from`
/// must be >= the position after the last existing mark. This is the
/// build-time-selected fast implementation (SSE2/NEON, or SWAR under
/// TWIGM_FORCE_SCALAR_SCAN).
void ScanStructural(std::string_view buf, size_t from, size_t to,
                    StructuralIndex* out);

/// Reference implementation: a plain one-byte-at-a-time loop. Always
/// available regardless of the build-time dispatch; used as the
/// differential oracle and as bench_rawscan's baseline.
void ScanStructuralScalar(std::string_view buf, size_t from, size_t to,
                          StructuralIndex* out);

/// Name of the selected fast path: "avx2", "sse2", "neon" or "swar".
const char* StructuralScanKind();

/// True when ScanStructural uses real vector instructions (false for the
/// SWAR fallback and under TWIGM_FORCE_SCALAR_SCAN).
bool StructuralScanIsSimd();

}  // namespace twigm::xml

#endif  // TWIGM_XML_STRUCTURAL_SCAN_H_
