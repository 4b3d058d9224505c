// Tag-name dictionary: maps tag bytes to dense, stable SymbolIds.
//
// The SAX parser interns every element name it sees and stamps the symbol
// into the TagToken it emits; query machines intern their label strings
// into the same dictionary once at bind time. From then on, per-event
// dispatch is integer comparison (or a postings-vector lookup) instead of
// string hashing — see DESIGN.md §10.
//
// Implementation: open-addressing hash table (power-of-two sized, linear
// probing) over name views that point into a chunked character arena, so
// views returned by name() stay valid for the interner's lifetime and
// across parse-buffer compaction. Symbols are never reused or reordered;
// the table only grows. A streaming document's distinct-tag count is small
// (tens to hundreds), so the steady state is all hits: one hash, one probe,
// one byte-compare per start tag, zero allocations. The hit path is inline
// and hashes and compares names with a few word loads instead of byte
// loops or library calls; only a miss leaves the header.

#ifndef TWIGM_XML_TAG_INTERNER_H_
#define TWIGM_XML_TAG_INTERNER_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "xml/sax_event.h"

namespace twigm::xml {

namespace internal {

inline uint64_t Load64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline uint32_t Load32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace internal

/// Byte equality of two equally long names without a library call: tag
/// names are short, so word loads (overlapping at the tail, never past
/// the end) beat memcmp's call overhead.
inline bool SameNameBytes(const char* a, const char* b, size_t n) {
  using internal::Load32;
  using internal::Load64;
  if (n >= 8) {
    for (size_t i = 0; i + 8 < n; i += 8) {
      if (Load64(a + i) != Load64(b + i)) return false;
    }
    return Load64(a + n - 8) == Load64(b + n - 8);
  }
  if (n >= 4) {
    return Load32(a) == Load32(b) && Load32(a + n - 4) == Load32(b + n - 4);
  }
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

inline bool SameName(std::string_view a, std::string_view b) {
  return a.size() == b.size() && SameNameBytes(a.data(), b.data(), a.size());
}

class TagInterner {
 public:
  TagInterner();
  TagInterner(const TagInterner&) = delete;
  TagInterner& operator=(const TagInterner&) = delete;

  /// Returns the symbol for `name`, creating one on first sight. The bytes
  /// are copied into the interner's arena, so `name` may point anywhere
  /// (e.g. into a parse buffer about to be compacted).
  SymbolId Intern(std::string_view name) {
    const uint64_t hash = Hash(name);
    size_t slot;
    const SymbolId sym = Probe(name, hash, &slot);
    return sym != kNoSymbol ? sym : Insert(name, hash, slot);
  }

  /// Returns the symbol for `name`, or kNoSymbol if it was never interned.
  SymbolId Find(std::string_view name) const {
    size_t slot;
    return Probe(name, Hash(name), &slot);
  }

  /// The interned bytes for `id`. Valid for the interner's lifetime.
  std::string_view name(SymbolId id) const { return names_[id]; }

  /// Number of distinct names interned. Symbols are 0..size()-1.
  size_t size() const { return names_.size(); }

  // There is deliberately no Clear(): symbols must stay stable across
  // documents because machines bind their query labels once at Create and
  // Reset() paths retain the binding.

  /// Appends the dictionary to `out` in symbol order: u32 count, then per
  /// symbol u32 length + raw bytes (host endianness). This is the on-disk
  /// tag dictionary of the persistent structural index (src/index/): a
  /// dictionary written after ingesting a document and loaded back yields
  /// the *same* SymbolId for every name, so on-disk label columns and
  /// postings keyed by symbol stay valid across processes.
  void Serialize(std::string* out) const;

  /// Rebuilds a dictionary previously produced by Serialize. Requires an
  /// empty interner (symbols are dense from 0, so loading into a non-empty
  /// one would renumber). Fails closed on truncated or malformed input and
  /// on duplicate or invalid (empty) names; on failure the interner may
  /// hold a prefix of the dictionary and must be discarded.
  Status Load(std::string_view bytes);

 private:
  // Multiply-fold of the name's length and bytes, read as at most a few
  // (overlapping) words.
  static uint64_t Hash(std::string_view name) {
    using internal::Load32;
    using internal::Load64;
    const char* p = name.data();
    const size_t n = name.size();
    uint64_t h = n;
    if (n >= 8) {
      for (size_t i = 0; i + 8 < n; i += 8) h = Mix(h ^ Load64(p + i));
      h ^= Load64(p + n - 8);
    } else if (n >= 4) {
      h ^= (static_cast<uint64_t>(Load32(p)) << 8) ^
           (static_cast<uint64_t>(Load32(p + n - 4)) << 32);
    } else if (n > 0) {
      h ^= (static_cast<uint64_t>(static_cast<unsigned char>(p[0])) << 8) |
           (static_cast<uint64_t>(static_cast<unsigned char>(p[n / 2]))
            << 16) |
           (static_cast<uint64_t>(static_cast<unsigned char>(p[n - 1]))
            << 24);
    }
    return Mix(h);
  }
  static uint64_t Mix(uint64_t x) {
    x *= 0x9E3779B97F4A7C15ull;
    return x ^ (x >> 32);
  }

  // The symbol of `name`, or kNoSymbol with *slot set to the empty table
  // slot where it would go.
  SymbolId Probe(std::string_view name, uint64_t hash, size_t* slot) const {
    const size_t mask = table_.size() - 1;
    size_t i = hash & mask;
    while (true) {
      const uint32_t entry = table_[i];
      if (entry == 0) break;
      const SymbolId sym = entry - 1;
      if (hashes_[sym] == hash && SameName(names_[sym], name)) return sym;
      i = (i + 1) & mask;
    }
    *slot = i;
    return kNoSymbol;
  }

  SymbolId Insert(std::string_view name, uint64_t hash, size_t slot);
  void Grow();
  const char* ArenaCopy(std::string_view name);

  // Slot values are symbol+1 so 0 means empty. Power-of-two sized.
  std::vector<uint32_t> table_;
  std::vector<std::string_view> names_;   // indexed by SymbolId, into arena
  std::vector<uint64_t> hashes_;          // cached per symbol, for rehashing
  std::vector<std::unique_ptr<char[]>> arena_;
  size_t arena_used_ = 0;   // bytes used in the current (last) chunk
  size_t arena_cap_ = 0;    // capacity of the current chunk
};

}  // namespace twigm::xml

#endif  // TWIGM_XML_TAG_INTERNER_H_
