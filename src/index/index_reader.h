// IndexReader — zero-copy, validated view over a persistent structural
// index file (index_format.h, DESIGN.md §15).
//
// Open() memory-maps the file read-only and validates it completely before
// returning: magic, version, header CRC, checksummed section table,
// per-section payload CRCs, and every structural cross-reference (column
// sizes vs the header's element count, postings ranges and pre ids,
// text/attribute-value offsets, label ranges and tree shape, dictionary
// round-trip). A truncated,
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
  /// Payload bytes of one section (padding excluded).
  uint64_t section_bytes(SectionId id) const {
    return section_bytes_[static_cast<uint32_t>(id)];
  }

  // --- label columns, indexed by pre - 1 (pre in [1, element_count]) ----
  const uint32_t* post() const { return post_; }
  const uint16_t* level() const { return level_; }
  const uint32_t* symbol() const { return symbol_; }
  const uint64_t* byte_offset() const { return offset_; }

  /// Deepest level of any element (the root is level 1; 0 when empty).
  /// Open() checks that the level column describes a tree, so every level
  /// lies in [1, max_depth()].
  uint32_t max_depth() const { return max_depth_; }

  /// The post and level columns by value. A join holds them in locals, so
  /// its stores (some through char-typed flags, which may alias anything)
  /// do not make it reload the reader's pointers.
  struct Labels {
    const uint32_t* post = nullptr;
    const uint16_t* level = nullptr;
    /// Pre id of the last element in `pre`'s subtree: the subtree is
    /// exactly the pre ids (pre, pre_end(pre)]. Open() checks pre <=
    /// pre_end <= element_count().
    uint32_t pre_end(uint32_t pre) const {
      return post[pre - 1] + level[pre - 1] - 1;
    }
  };
  Labels labels() const { return Labels{post_, level_}; }

  /// As Labels::pre_end.
  uint32_t pre_end(uint32_t pre) const { return labels().pre_end(pre); }

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
  /// immediately inside it); empty when it had none. O(1).
  std::string_view DirectText(uint32_t pre) const {
    return std::string_view(text_blob_ + text_offsets_[pre - 1],
                            text_offsets_[pre] - text_offsets_[pre - 1]);
  }

  /// The elements that carry one attribute name: their pre ids, strictly
  /// ascending, and the value each one gives the attribute.
  struct AttrPostings {
    const uint32_t* pre = nullptr;
    size_t size = 0;
    const uint32_t* value_offsets = nullptr;  // size + 1 monotone offsets
    const char* blob = nullptr;
    /// Value of the attribute on element pre[k].
    std::string_view value(size_t k) const {
      return std::string_view(blob + value_offsets[k],
                              value_offsets[k + 1] - value_offsets[k]);
    }
  };

  /// Postings of attribute name `name`; empty for names no element carries
  /// as an attribute (e.g. tags, or xml::kNoSymbol).
  AttrPostings attributes(xml::SymbolId name) const {
    if (name >= symbols_) return AttrPostings{};
    const PostingsRange& range = attr_index_[name];
    return AttrPostings{attr_pre_ + range.begin,
                        static_cast<size_t>(range.count),
                        attr_value_offsets_ + range.begin, attr_blob_};
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
  uint64_t section_bytes_[kSectionCount + 1] = {};  // by SectionId

  const uint32_t* post_ = nullptr;
  const uint16_t* level_ = nullptr;
  const uint32_t* symbol_ = nullptr;
  const uint64_t* offset_ = nullptr;
  const PostingsRange* postings_index_ = nullptr;
  const uint32_t* postings_data_ = nullptr;
  const uint32_t* text_offsets_ = nullptr;
  const char* text_blob_ = nullptr;
  const PostingsRange* attr_index_ = nullptr;
  const uint32_t* attr_pre_ = nullptr;
  const uint32_t* attr_value_offsets_ = nullptr;
  const char* attr_blob_ = nullptr;

  xml::TagInterner dictionary_;
};

}  // namespace twigm::index

#endif  // TWIGM_INDEX_INDEX_READER_H_
