// IndexBuilder — one streaming pass over an XML document that persists a
// structural index (DESIGN.md §15).
//
// The builder wires a SaxParser through the standard ByteSource input API
// (Consume/Pump; chunks may split anywhere) and, per element, records the
// (pre, post, level, symbol) label, the byte offset of its start tag, its
// direct text (concatenation of character data immediately inside it, the
// value value-predicates compare against), and its attributes. Tag names
// AND attribute names share the parser's TagInterner, whose dense
// SymbolIds become the on-disk dictionary verbatim — loading the index
// back yields the same symbol for every name (see
// xml::TagInterner::Serialize).
//
// After the last chunk, Serialize/WriteFile emit the single-file format of
// index_format.h: versioned header, checksummed section table,
// column-ordered label arrays, per-symbol postings lists sorted by
// pre-order, per-element direct-text spans, and per-attribute-name
// postings with their value spans.
//
//   IndexBuilder builder;
//   TWIGM_RETURN_IF_ERROR(builder.Pump(&source));
//   TWIGM_RETURN_IF_ERROR(builder.WriteFile("corpus.twgmidx"));

#ifndef TWIGM_INDEX_INDEX_BUILDER_H_
#define TWIGM_INDEX_INDEX_BUILDER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "index/index_format.h"
#include "xml/byte_source.h"
#include "xml/sax_event.h"
#include "xml/sax_parser.h"

namespace twigm::index {

class IndexBuilder {
 public:
  explicit IndexBuilder(xml::SaxParserOptions sax = xml::SaxParserOptions());
  ~IndexBuilder();  // out of line: Handler is incomplete here
  IndexBuilder(const IndexBuilder&) = delete;
  IndexBuilder& operator=(const IndexBuilder&) = delete;

  /// Ingests one chunk of the document (chunk.last declares end of input).
  /// Errors (malformed XML, more elements than 32-bit pre ids label,
  /// nesting deeper than kMaxLevel) are sticky.
  Status Consume(const xml::InputChunk& chunk);

  /// Pulls chunks from `source` until it is exhausted or a chunk fails.
  Status Pump(xml::ByteSource* source);

  /// Serializes the index image. Requires a completed document (a last
  /// chunk was consumed without error) whose text and attribute values
  /// each fit the u32 blob offsets (kMaxBlobBytes). `out` is sized once
  /// and every section is written straight into its aligned final offset;
  /// header and section table go in last, with the CRCs of the written
  /// bytes.
  Status Serialize(std::string* out) const;

  /// Serialize + write to `path` (atomic enough for our purposes: written
  /// to the final name in one stream; callers wanting crash-safety should
  /// write to a temp name and rename).
  Status WriteFile(const std::string& path) const;

  /// Elements labeled so far.
  uint64_t element_count() const { return static_cast<uint64_t>(post_.size()); }
  /// Distinct names interned so far (tags + attribute names).
  uint64_t symbol_count() const;
  /// Canonical bytes ingested so far.
  uint64_t document_bytes() const;
  /// True once the last chunk was consumed successfully.
  bool finished() const { return finished_; }

 private:
  class Handler;

  void OnStart(const xml::TagToken& tag,
               const std::vector<xml::Attribute>& attrs);
  void OnEnd();
  void OnText(std::string_view text);

  std::unique_ptr<Handler> handler_;
  std::unique_ptr<xml::SaxParser> parser_;
  uint64_t construct_offset_ = 0;  // parser-stamped offset of each construct
  Status error_;                   // sticky
  bool finished_ = false;

  // Label columns, indexed by pre - 1.
  std::vector<uint32_t> post_;
  std::vector<uint16_t> level_;
  std::vector<uint32_t> symbol_;
  std::vector<uint64_t> offset_;

  uint32_t post_counter_ = 0;

  // Open-element stack: pre ids plus each element's direct-text
  // accumulator (pooled by depth; text may interleave with children).
  struct OpenElement {
    uint32_t pre = 0;
    size_t depth = 0;  // index into text_pool_
  };
  std::vector<OpenElement> open_;
  std::vector<std::string> text_pool_;

  // Direct text. One span per element, indexed by pre - 1: reserved at
  // the start tag and filled at the end tag, when the text (appended to
  // text_blob_ then) is complete. Length 0 means none. Serialize gathers
  // the blob into pre order.
  struct Span {
    uint64_t offset = 0;
    uint64_t length = 0;
  };
  std::vector<Span> text_spans_;
  std::string text_blob_;

  // Attributes, grouped by name as the parser reports them, so each
  // name's pre ids and values are already in pre order and Serialize
  // copies each group whole.
  struct AttrGroup {
    std::vector<uint32_t> pre;
    std::vector<uint32_t> value_end;  // into `values`
    std::string values;
  };
  std::vector<AttrGroup> attr_groups_;  // indexed by name symbol
  uint64_t attr_count_ = 0;
  uint64_t attr_value_bytes_ = 0;
};

}  // namespace twigm::index

#endif  // TWIGM_INDEX_INDEX_BUILDER_H_
