// On-disk layout of the persistent structural index (DESIGN.md §15).
//
// A single file holds everything needed to re-answer XP{/,//,*,[]} queries
// over an ingested document without re-parsing it:
//
//   FileHeader | SectionEntry[section_count] | section payloads...
//
// Every element gets a (pre, post, level, symbol) label — XISS/R-style
// region encoding: `a` is an ancestor of `d` iff pre(a) < pre(d) and
// post(a) > post(d); `a` is the parent iff additionally
// level(a) + 1 == level(d). `pre` doubles as the element's streaming
// NodeId (pre-order, first element = 1), so indexed results are directly
// comparable with the streaming machines' match sets.
//
// Payloads are column-ordered arrays (one section per column) so an
// IndexReader can expose zero-copy views straight into the mapping. The
// local facts follow XISS/R's separate attribute and value tables keyed by
// pre: per-attribute-name postings of pre ids with their value spans, and
// one direct-text span per element. All section offsets are 8-byte aligned
// (mmap'd columns are dereferenced in place; unaligned loads would be UB).
// Integers are host-endian: the index is a same-machine cache, not an
// interchange format, and the header magic + version gate refuse anything
// else.
//
// Validation contract: IndexReader::Open checks magic, version, the header
// CRC, the CRC of the section table, each section's payload CRC, and the
// structural sanity of every cross-reference (postings ranges, blob
// offsets, label ranges) before returning — a corrupt or truncated file
// fails closed with a Status, never a crash
// (tests/index_reader_corruption_test.cc).

#ifndef TWIGM_INDEX_INDEX_FORMAT_H_
#define TWIGM_INDEX_INDEX_FORMAT_H_

#include <cstddef>
#include <cstdint>

namespace twigm::index {

/// First bytes of every index file: a fixed signature that names the file
/// type. Its trailing '1' is not a version; FileHeader::version is the one
/// version gate, and every layout change bumps kFormatVersion.
inline constexpr char kMagic[8] = {'T', 'W', 'G', 'M', 'I', 'D', 'X', '1'};

inline constexpr uint32_t kFormatVersion = 2;

/// Section payload alignment within the file.
inline constexpr size_t kSectionAlignment = 8;

/// Hard cap on the section table (fail-closed bound for corrupt counts).
inline constexpr uint32_t kMaxSections = 64;

/// Deepest level the u16 level column holds; the builder refuses deeper
/// documents.
inline constexpr uint32_t kMaxLevel = UINT16_MAX;

/// Largest text or attribute-value blob the u32 offset columns address;
/// the builder refuses larger ones.
inline constexpr uint64_t kMaxBlobBytes = UINT32_MAX;

enum class SectionId : uint32_t {
  /// xml::TagInterner::Serialize bytes: the dense SymbolId dictionary
  /// shared by element tags and attribute names.
  kDictionary = 1,
  /// uint32_t[element_count]: post-order label, indexed by pre - 1.
  kPost = 2,
  /// uint16_t[element_count]: depth (root = 1), indexed by pre - 1.
  kLevel = 3,
  /// uint32_t[element_count]: tag SymbolId, indexed by pre - 1.
  kSymbol = 4,
  /// uint64_t[element_count]: byte offset of the element's '<' in the
  /// canonical (UTF-8) stream, indexed by pre - 1.
  kByteOffset = 5,
  /// PostingsRange[symbol_count]: per-symbol slice of kPostingsData.
  kPostingsIndex = 6,
  /// uint32_t[]: pre ids, ascending within each symbol's slice.
  kPostingsData = 7,
  /// uint32_t[element_count + 1]: monotone offsets into kTextBlob; the
  /// direct text of element pre is [offsets[pre - 1], offsets[pre]).
  kTextOffsets = 8,
  /// Direct-text bytes of every element, in pre order.
  kTextBlob = 9,
  /// PostingsRange[symbol_count]: per-attribute-name slice of kAttrPre.
  kAttrIndex = 10,
  /// uint32_t[attribute_count]: pre ids of the elements carrying each
  /// name, strictly ascending within the name's slice.
  kAttrPre = 11,
  /// uint32_t[attribute_count + 1]: monotone offsets into kAttrBlob; the
  /// value of attribute k (position k in kAttrPre) is
  /// [offsets[k], offsets[k + 1]).
  kAttrValueOffsets = 12,
  /// Attribute-value bytes, grouped by name and in pre order within one.
  kAttrBlob = 13,
};

/// Number of distinct sections a version-2 file carries.
inline constexpr uint32_t kSectionCount = 13;

struct FileHeader {
  char magic[8];
  uint32_t version;
  uint32_t section_count;
  uint64_t element_count;
  uint64_t symbol_count;
  /// Canonical bytes ingested to build the index (for build-GB/s stats and
  /// size ratios; not needed for evaluation).
  uint64_t document_bytes;
  /// CRC-32 of the SectionEntry table that follows the header.
  uint32_t table_crc32;
  /// CRC-32 of every header byte before this field.
  uint32_t header_crc32;
};
static_assert(sizeof(FileHeader) == 48, "FileHeader layout is part of the format");

/// Bytes of the header that header_crc32 covers.
inline constexpr size_t kHeaderCrcBytes = offsetof(FileHeader, header_crc32);
static_assert(kHeaderCrcBytes + sizeof(uint32_t) == sizeof(FileHeader));

struct SectionEntry {
  uint32_t id;       // SectionId
  uint32_t crc32;    // CRC-32 of the payload bytes
  uint64_t offset;   // from file start; multiple of kSectionAlignment
  uint64_t size;     // payload bytes (excluding padding)
};
static_assert(sizeof(SectionEntry) == 24,
              "SectionEntry layout is part of the format");

/// Slice of a postings array owned by one symbol, in elements (not bytes).
struct PostingsRange {
  uint64_t begin;
  uint64_t count;
};
static_assert(sizeof(PostingsRange) == 16);

/// CRC-32 (IEEE, reflected) over `size` bytes. `seed` chains partial
/// computations: pass the previous return value to continue. On x86-64
/// CPUs with PCLMULQDQ, spans of 64 bytes or more are folded with
/// carry-less multiplies; tails and other CPUs use slice-by-8 tables. The
/// kernel is chosen once per process, and every kernel returns the same
/// value on every host.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

namespace detail {

/// Portable slice-by-8 kernel.
uint32_t Crc32Slice8(const void* data, size_t size, uint32_t seed);
/// True when this build and CPU can run the folding kernel.
bool Crc32HasClmul();
/// PCLMULQDQ folding kernel (slice-by-8 for the tail). Call only when
/// Crc32HasClmul() is true.
uint32_t Crc32Clmul(const void* data, size_t size, uint32_t seed);

}  // namespace detail

}  // namespace twigm::index

#endif  // TWIGM_INDEX_INDEX_FORMAT_H_
