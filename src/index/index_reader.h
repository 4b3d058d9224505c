// IndexReader — zero-copy, validated view over a persistent structural
// index file (index_format.h, DESIGN.md §15).
//
// Open() memory-maps the file read-only and validates it completely before
// returning: magic, version, checksummed section table, per-section payload
// CRCs, and every structural cross-reference (column sizes vs the header's
// element count, postings ranges and pre ids, text/attr blob offsets,
// label ranges and tree shape, dictionary round-trip). A truncated,
// corrupt, or wrong-version file yields a descriptive non-OK Status — never
// a crash and never a reader that can read out of bounds later. After Open
// succeeds, every accessor is a pointer into the mapping (columns,
// postings, blobs); nothing is copied except the tag dictionary, which is
// rebuilt into a TagInterner so query labels resolve to the same dense
// SymbolIds the builder assigned.

#ifndef TWIGM_INDEX_INDEX_READER_H_
#define TWIGM_INDEX_INDEX_READER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "index/index_format.h"
#include "xml/sax_event.h"
#include "xml/tag_interner.h"

namespace twigm::index {

class IndexReader {
 public:
  /// Maps `path` and validates it (see file comment). The mapping lives for
  /// the reader's lifetime.
  static Result<std::unique_ptr<IndexReader>> Open(const std::string& path);

  /// Validates an in-memory image (takes ownership of the bytes). Same
  /// checks as Open; used by tests to exercise corruption handling without
  /// touching the filesystem.
  static Result<std::unique_ptr<IndexReader>> OpenBytes(std::string bytes);

  IndexReader(const IndexReader&) = delete;
  IndexReader& operator=(const IndexReader&) = delete;
  ~IndexReader();

  uint64_t element_count() const { return elements_; }
  uint64_t symbol_count() const { return symbols_; }
  uint64_t document_bytes() const { return document_bytes_; }
  /// Total bytes of the backing file / image.
  uint64_t file_bytes() const { return size_; }

  // --- label columns, indexed by pre - 1 (pre in [1, element_count]) ----
  const uint32_t* post() const { return post_; }
  const uint32_t* level() const { return level_; }
  const uint32_t* symbol() const { return symbol_; }
  const uint64_t* byte_offset() const { return offset_; }

  /// Deepest level of any element (the root is level 1; 0 when empty).
  /// Open() checks that the level column describes a tree, so every level
  /// lies in [1, max_depth()].
  uint32_t max_depth() const { return max_depth_; }

  /// Pre id of the last element in `pre`'s subtree: the subtree is exactly
  /// the pre ids (pre, pre_end(pre)]. Open() checks pre <= pre_end <=
  /// element_count().
  uint32_t pre_end(uint32_t pre) const {
    return post_[pre - 1] + level_[pre - 1] - 1;
  }

  /// XISS/R containment: is `a` a proper ancestor of `d`?
  bool IsAncestor(uint32_t a, uint32_t d) const {
    return a < d && post_[a - 1] > post_[d - 1];
  }

  struct U32Span {
    const uint32_t* data = nullptr;
    size_t size = 0;
    const uint32_t* begin() const { return data; }
    const uint32_t* end() const { return data + size; }
  };

  /// Pre ids of all elements whose tag is `sym`, ascending. Empty for
  /// symbols never used as an element tag (e.g. attribute names).
  U32Span postings(xml::SymbolId sym) const {
    if (sym >= symbols_) return U32Span{};
    const PostingsRange& range = postings_index_[sym];
    return U32Span{postings_data_ + range.begin,
                   static_cast<size_t>(range.count)};
  }

  /// The element's direct text (concatenation of character data
  /// immediately inside it); empty when it had none. O(log #text-entries).
  std::string_view DirectText(uint32_t pre) const;

  /// One stored attribute.
  struct AttrFact {
    xml::SymbolId name_symbol = xml::kNoSymbol;
    std::string_view value;
  };

  /// Attributes of element `pre` in document order, as a [begin, end)
  /// index range for use with attr_at(). O(log #attr-entries).
  void AttrRange(uint32_t pre, size_t* begin, size_t* end) const;

  // Raw fact arrays, for callers that sweep elements in ascending pre
  // order and keep their own monotone cursor instead of binary-searching
  // per element (IndexedEvaluator's candidate filter).
  const TextEntry* text_index() const { return text_index_; }
  size_t text_entry_count() const { return text_entries_; }
  std::string_view text_at(const TextEntry& entry) const {
    return std::string_view(text_blob_ + entry.offset, entry.length);
  }
  const AttrEntry* attr_index() const { return attr_index_; }
  size_t attr_entry_count() const { return attr_entries_; }
  AttrFact attr_at(size_t i) const {
    const AttrEntry& e = attr_index_[i];
    return AttrFact{e.name_symbol,
                    std::string_view(attr_blob_ + e.offset, e.length)};
  }

  /// The shared tag/attribute-name dictionary, rebuilt from the file.
  const xml::TagInterner& dictionary() const { return dictionary_; }
  /// Symbol of `name`, or xml::kNoSymbol if the corpus never saw it.
  xml::SymbolId FindSymbol(std::string_view name) const {
    return dictionary_.Find(name);
  }

 private:
  IndexReader() = default;

  /// Points the typed views at `data_` and runs full validation.
  Status Attach();

  // Backing storage: exactly one of mapping / owned bytes.
  const char* data_ = nullptr;
  uint64_t size_ = 0;
  void* mapping_ = nullptr;  // munmap'd when non-null
  std::string owned_;        // OpenBytes keeps the image here

  uint64_t elements_ = 0;
  uint64_t symbols_ = 0;
  uint64_t document_bytes_ = 0;
  uint32_t max_depth_ = 0;

  const uint32_t* post_ = nullptr;
  const uint32_t* level_ = nullptr;
  const uint32_t* symbol_ = nullptr;
  const uint64_t* offset_ = nullptr;
  const PostingsRange* postings_index_ = nullptr;
  const uint32_t* postings_data_ = nullptr;
  const TextEntry* text_index_ = nullptr;
  size_t text_entries_ = 0;
  const char* text_blob_ = nullptr;
  const AttrEntry* attr_index_ = nullptr;
  size_t attr_entries_ = 0;
  const char* attr_blob_ = nullptr;

  xml::TagInterner dictionary_;
};

}  // namespace twigm::index

#endif  // TWIGM_INDEX_INDEX_READER_H_
