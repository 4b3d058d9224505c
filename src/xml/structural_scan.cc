#include "xml/structural_scan.h"

#include <algorithm>
#include <cstdlib>

#if !defined(TWIGM_FORCE_SCALAR_SCAN)
#if defined(__SSE2__) || (defined(_M_X64) && !defined(_M_ARM64EC))
#define TWIGM_SCAN_SSE2 1
#include <immintrin.h>
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#define TWIGM_SCAN_NEON 1
#include <arm_neon.h>
#endif
#endif  // !TWIGM_FORCE_SCALAR_SCAN

namespace twigm::xml {

namespace {

// Byte -> structural class + 1; 0 means "not structural". A 256-entry
// table keeps classification branch-free in the scalar loop and in the
// per-hit decoding of the vector paths.
struct ClassTable {
  uint8_t v[256] = {};
  constexpr ClassTable() {
    v[static_cast<unsigned char>('<')] =
        static_cast<uint8_t>(StructClass::kLt) + 1;
    v[static_cast<unsigned char>('>')] =
        static_cast<uint8_t>(StructClass::kGt) + 1;
    v[static_cast<unsigned char>('&')] =
        static_cast<uint8_t>(StructClass::kAmp) + 1;
    v[static_cast<unsigned char>('"')] =
        static_cast<uint8_t>(StructClass::kDQuote) + 1;
    v[static_cast<unsigned char>('\'')] =
        static_cast<uint8_t>(StructClass::kSQuote) + 1;
    v[0] = static_cast<uint8_t>(StructClass::kNul) + 1;
  }
};
constexpr ClassTable kClassTable;

inline uint64_t MakeMark(size_t pos, uint8_t class_plus_one) {
  return (static_cast<uint64_t>(pos) << 3) |
         static_cast<uint64_t>(class_plus_one - 1);
}

// Tail/reference loop shared by every implementation.
inline void ScanBytes(const unsigned char* base, size_t from, size_t to,
                      StructuralIndex* out) {
  for (size_t i = from; i < to; ++i) {
    const uint8_t c = kClassTable.v[base[i]];
    if (c != 0) out->marks.push_back(MakeMark(i, c));
  }
}

// Scratch segmentation shared by the vector paths: hits are decoded into a
// stack buffer with unchecked stores and appended to the mark vector in one
// bulk insert per segment — one capacity check per ~2KB of input instead of
// one per structural character (XML is 10–20% structural, so the per-hit
// push_back branch dominated the scan otherwise).
constexpr size_t kSegBytes = 1920;  // multiple of 64; bounds tmp usage

// Decode the set bits of a 64-bit hit mask for the block at `i` into
// `tmp[c...]`, ascending. The per-hit class re-read (base[pos] + the class
// table) stays in L1: the block was just scanned and the table is 256B.
inline size_t DecodeHits(const unsigned char* base, size_t i, uint64_t mask,
                         uint64_t* tmp, size_t c) {
  while (mask != 0) {
    const unsigned bit = static_cast<unsigned>(__builtin_ctzll(mask));
    const size_t pos = i + bit;
    tmp[c++] = MakeMark(pos, kClassTable.v[base[pos]]);
    mask &= mask - 1;
  }
  return c;
}

#if defined(TWIGM_SCAN_SSE2)

// Two pairs of classes share a comparison with a neighbour that differs
// in one low bit: '&' 0x26 / '\'' 0x27 via (x|1)==0x27 and '<' 0x3C /
// '>' 0x3E via (x|2)==0x3E. 4 compares + 2 ORs per block instead of 6
// compares.

void ScanSse2(const unsigned char* base, size_t from, size_t to,
              StructuralIndex* out) {
  const __m128i one = _mm_set1_epi8(1);
  const __m128i two = _mm_set1_epi8(2);
  const __m128i amp_sq = _mm_set1_epi8('\'');
  const __m128i lt_gt = _mm_set1_epi8('>');
  const __m128i dq = _mm_set1_epi8('"');
  const __m128i nul = _mm_setzero_si128();
  uint64_t tmp[kSegBytes];  // worst case: every byte structural
  size_t i = from;
  while (i + 64 <= to) {
    size_t seg_end = i + kSegBytes;
    if (seg_end > to) seg_end = to;
    size_t c = 0;
    for (; i + 64 <= seg_end; i += 64) {
      // Classify 64 bytes into one combined bitmask (4 blocks, one
      // PMOVMSKB per block).
      uint64_t mask = 0;
      for (int b = 0; b < 4; ++b) {
        const __m128i block = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(base + i + b * 16));
        __m128i hits = _mm_cmpeq_epi8(_mm_or_si128(block, one), amp_sq);
        hits = _mm_or_si128(
            hits, _mm_cmpeq_epi8(_mm_or_si128(block, two), lt_gt));
        hits = _mm_or_si128(hits, _mm_cmpeq_epi8(block, dq));
        hits = _mm_or_si128(hits, _mm_cmpeq_epi8(block, nul));
        mask |= static_cast<uint64_t>(
                    static_cast<uint32_t>(_mm_movemask_epi8(hits)))
                << (b * 16);
      }
      c = DecodeHits(base, i, mask, tmp, c);
    }
    out->marks.insert(out->marks.end(), tmp, tmp + c);
  }
  ScanBytes(base, i, to, out);
}

#if defined(__GNUC__)

// AVX2 variant of the same kernel: 32-byte blocks, two VPMOVMSKB per 64
// bytes. Compiled with a per-function target attribute so the translation
// unit itself stays baseline SSE2; selected once at startup via
// __builtin_cpu_supports, so a binary built on an AVX2 host still runs
// (on the SSE2 kernel) anywhere x86-64.
__attribute__((target("avx2"))) void ScanAvx2(const unsigned char* base,
                                              size_t from, size_t to,
                                              StructuralIndex* out) {
  const __m256i one = _mm256_set1_epi8(1);
  const __m256i two = _mm256_set1_epi8(2);
  const __m256i amp_sq = _mm256_set1_epi8('\'');
  const __m256i lt_gt = _mm256_set1_epi8('>');
  const __m256i dq = _mm256_set1_epi8('"');
  const __m256i nul = _mm256_setzero_si256();
  uint64_t tmp[kSegBytes];  // worst case: every byte structural
  size_t i = from;
  while (i + 64 <= to) {
    size_t seg_end = i + kSegBytes;
    if (seg_end > to) seg_end = to;
    size_t c = 0;
    for (; i + 64 <= seg_end; i += 64) {
      uint64_t mask = 0;
      for (int b = 0; b < 2; ++b) {
        const __m256i block = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(base + i + b * 32));
        __m256i hits =
            _mm256_cmpeq_epi8(_mm256_or_si256(block, one), amp_sq);
        hits = _mm256_or_si256(
            hits, _mm256_cmpeq_epi8(_mm256_or_si256(block, two), lt_gt));
        hits = _mm256_or_si256(hits, _mm256_cmpeq_epi8(block, dq));
        hits = _mm256_or_si256(hits, _mm256_cmpeq_epi8(block, nul));
        mask |= static_cast<uint64_t>(
                    static_cast<uint32_t>(_mm256_movemask_epi8(hits)))
                << (b * 32);
      }
      c = DecodeHits(base, i, mask, tmp, c);
    }
    out->marks.insert(out->marks.end(), tmp, tmp + c);
  }
  ScanBytes(base, i, to, out);
}

#define TWIGM_SCAN_AVX2_DISPATCH 1
#endif  // GCC/Clang target attribute support

bool ScanHasAvx2() {
#if defined(TWIGM_SCAN_AVX2_DISPATCH)
  // TWIGM_SCAN_KIND=sse2 pins the baseline kernel; used by CI to exercise
  // the SSE2 path on AVX2 hosts (checked once, first call wins).
  static const bool has = [] {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read once under the magic-static
    // guard, before any worker threads exist; nothing in the process setenvs.
    const char* env = std::getenv("TWIGM_SCAN_KIND");
    if (env != nullptr && std::string_view(env) == std::string_view("sse2")) {
      return false;
    }
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has;
#else
  return false;
#endif
}

void ScanFast(const unsigned char* base, size_t from, size_t to,
              StructuralIndex* out) {
#if defined(TWIGM_SCAN_AVX2_DISPATCH)
  if (ScanHasAvx2()) {
    ScanAvx2(base, from, to, out);
    return;
  }
#endif
  ScanSse2(base, from, to, out);
}

#elif defined(TWIGM_SCAN_NEON)

void ScanFast(const unsigned char* base, size_t from, size_t to,
              StructuralIndex* out) {
  const uint8x16_t lt = vdupq_n_u8('<');
  const uint8x16_t gt = vdupq_n_u8('>');
  const uint8x16_t amp = vdupq_n_u8('&');
  const uint8x16_t dq = vdupq_n_u8('"');
  const uint8x16_t sq = vdupq_n_u8('\'');
  const uint8x16_t nul = vdupq_n_u8(0);
  uint64_t tmp[kSegBytes];  // worst case: every byte structural
  size_t i = from;
  while (i + 16 <= to) {
    size_t seg_end = i + kSegBytes;
    if (seg_end > to) seg_end = to;
    size_t c = 0;
    for (; i + 16 <= seg_end; i += 16) {
      const uint8x16_t block = vld1q_u8(base + i);
      uint8x16_t hits = vceqq_u8(block, lt);
      hits = vorrq_u8(hits, vceqq_u8(block, gt));
      hits = vorrq_u8(hits, vceqq_u8(block, amp));
      hits = vorrq_u8(hits, vceqq_u8(block, dq));
      hits = vorrq_u8(hits, vceqq_u8(block, sq));
      hits = vorrq_u8(hits, vceqq_u8(block, nul));
      // Narrow each byte lane to 4 bits: a 64-bit word with nibble n
      // nonzero iff lane n hit (the standard NEON movemask substitute).
      const uint8x8_t narrowed = vshrn_n_u16(vreinterpretq_u16_u8(hits), 4);
      uint64_t mask = vget_lane_u64(vreinterpret_u64_u8(narrowed), 0);
      while (mask != 0) {
        const unsigned bit =
            static_cast<unsigned>(__builtin_ctzll(mask)) >> 2;
        const size_t pos = i + bit;
        tmp[c++] = MakeMark(pos, kClassTable.v[base[pos]]);
        mask &= ~(uint64_t{0xF} << (bit << 2));
      }
    }
    out->marks.insert(out->marks.end(), tmp, tmp + c);
  }
  ScanBytes(base, i, to, out);
}

#else  // SWAR fallback

// SWAR byte-equality: a word whose high bit is set in exactly the bytes of
// `word` equal to the (broadcast) target byte. Note this is NOT the classic
// `(x - kLo) & ~x & kHi` trick — that one lets the subtraction borrow out
// of a matching byte and false-positive on a neighbouring byte equal to
// target+1 (e.g. '=' right after '<'). Masking the high bits first keeps
// the carry chain inside each byte, making the test exact.
inline uint64_t HasByte(uint64_t word, uint64_t broadcast) {
  constexpr uint64_t kLow7 = 0x7F7F7F7F7F7F7F7FULL;
  constexpr uint64_t kHi = 0x8080808080808080ULL;
  const uint64_t x = word ^ broadcast;
  const uint64_t nonzero = ((x & kLow7) + kLow7) | x;  // high bit: byte != 0
  return ~nonzero & kHi;
}

void ScanFast(const unsigned char* base, size_t from, size_t to,
              StructuralIndex* out) {
  constexpr uint64_t kLo = 0x0101010101010101ULL;
  uint64_t tmp[kSegBytes];  // worst case: every byte structural
  size_t i = from;
  while (i + 8 <= to) {
    size_t seg_end = i + kSegBytes;
    if (seg_end > to) seg_end = to;
    size_t c = 0;
    for (; i + 8 <= seg_end; i += 8) {
      uint64_t word;
      __builtin_memcpy(&word, base + i, 8);
      uint64_t hits = HasByte(word, kLo * '<');
      hits |= HasByte(word, kLo * '>');
      hits |= HasByte(word, kLo * '&');
      hits |= HasByte(word, kLo * '"');
      hits |= HasByte(word, kLo * '\'');
      hits |= HasByte(word, 0);
      while (hits != 0) {
        // Hits carry the high bit of each matching byte; bytes are
        // little-endian, so ctz/8 is the byte offset of the lowest match.
        const unsigned byte =
            static_cast<unsigned>(__builtin_ctzll(hits)) >> 3;
        const size_t pos = i + byte;
        tmp[c++] = MakeMark(pos, kClassTable.v[base[pos]]);
        hits &= hits - 1;
      }
    }
    out->marks.insert(out->marks.end(), tmp, tmp + c);
  }
  ScanBytes(base, i, to, out);
}

#endif

}  // namespace

size_t StructuralIndex::LowerBound(size_t from) const {
  return static_cast<size_t>(
      std::lower_bound(marks.begin(), marks.end(),
                       static_cast<uint64_t>(from) << 3) -
      marks.begin());
}

size_t StructuralIndex::DropBelowAndRebase(size_t cut) {
  if (cut == 0) return 0;
  const size_t first = LowerBound(cut);
  const uint64_t delta = static_cast<uint64_t>(cut) << 3;
  const size_t n = marks.size() - first;
  for (size_t k = 0; k < n; ++k) marks[k] = marks[first + k] - delta;
  marks.resize(n);
  return first;
}

void ScanStructural(std::string_view buf, size_t from, size_t to,
                    StructuralIndex* out) {
  const unsigned char* base = reinterpret_cast<const unsigned char*>(
      buf.data());
  if (to > buf.size()) to = buf.size();
  if (from >= to) return;
  ScanFast(base, from, to, out);
}

void ScanStructuralScalar(std::string_view buf, size_t from, size_t to,
                          StructuralIndex* out) {
  const unsigned char* base = reinterpret_cast<const unsigned char*>(
      buf.data());
  if (to > buf.size()) to = buf.size();
  if (from >= to) return;
  ScanBytes(base, from, to, out);
}

const char* StructuralScanKind() {
#if defined(TWIGM_SCAN_SSE2)
  return ScanHasAvx2() ? "avx2" : "sse2";
#elif defined(TWIGM_SCAN_NEON)
  return "neon";
#else
  return "swar";
#endif
}

bool StructuralScanIsSimd() {
#if defined(TWIGM_SCAN_SSE2) || defined(TWIGM_SCAN_NEON)
  return true;
#else
  return false;
#endif
}

}  // namespace twigm::xml
