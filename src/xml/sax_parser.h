// Incremental (push-model) SAX parser for XML 1.0, written from scratch.
//
// This is the library's substitute for Expat (which the paper uses): a
// non-validating, streaming parser that accepts input in arbitrary chunks
// and calls its `StreamEventSink` (xml/sax_event.h) as soon as complete
// constructs are available. It supports:
//   * elements with attributes (single or double quoted),
//   * character data with the predefined entities (&amp; &lt; &gt; &apos;
//     &quot;) and decimal/hex character references,
//   * CDATA sections, comments, processing instructions,
//   * an XML declaration and a (skipped) DOCTYPE with internal subset,
// and enforces the well-formedness rules a streaming processor needs:
// matching tags, a single root element, no markup outside the root, valid
// names, and no duplicate attributes. Errors carry line/column positions.
//
// Input front door (DESIGN.md §12): bytes enter through the unified
// ByteSource API — Consume(InputChunk) or Pump(ByteSource*); ParseAll is a
// one-shot convenience over Consume. The front end makes the stream
// *canonical* before the tokenizer sees it: UTF-8 and UTF-16 (LE/BE) byte
// order marks are detected, UTF-16 input is transcoded to UTF-8, NUL bytes
// and character references to non-XML characters are rejected, and an XML
// declaration anywhere but the (post-BOM) start of the document is an
// error. Chunks may split anywhere — mid-tag, mid-BOM, mid-UTF-16 unit.
//
// Scanning (stage 1): a SIMD/SWAR structural pass (xml/structural_scan.h)
// classifies each appended region once, producing a sparse index of '<',
// '>', '&', quotes and NUL. Build-time ISA dispatch;
// -DTWIGM_FORCE_SCALAR_SCAN forces the portable SWAR path, and
// SaxParserOptions::force_scalar_scan selects the byte-loop reference
// scanner at runtime (differential tests).
//
// Tokenizing (stage 2): one forward walk over the index. Each mark is
// classified exactly once; a construct left incomplete at the end of the
// buffered input keeps its walk state (mark cursor, construct kind, open
// quote, DOCTYPE bracket depth) and resumes there on the next Consume, so
// chunked input costs the same linear work as one whole-document call.
//
// Events (stage 3): the parser assigns each element its level (open-tag
// depth, root = 1) and pre-order id itself and calls the one sink directly.
// The sink's EventFilter, read once per document, names the events it
// reads; the parser skips the start/end calls of the other elements and,
// unless the sink reads text, every Text call. Skipped constructs are still
// checked, counted and given byte offsets, so errors, ids, levels and
// offsets do not depend on the filter.
//
// Hot path: every element name is interned into a TagInterner and events
// carry the resulting SymbolId (TagToken). Attribute names and values are
// delivered as string_views into the parse buffer (or, for values with
// entity references, into a reused decode buffer) — no per-event string
// copies. The steady state per event is allocation-free; see DESIGN.md §10.

#ifndef TWIGM_XML_SAX_PARSER_H_
#define TWIGM_XML_SAX_PARSER_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "xml/byte_source.h"
#include "xml/sax_event.h"
#include "xml/structural_scan.h"
#include "xml/tag_interner.h"

namespace twigm::xml {

/// Tuning knobs for the parser.
struct SaxParserOptions {
  /// Maximum element nesting depth before the parser reports an error.
  int max_depth = 20000;
  /// Maximum bytes the parser may buffer for a single incomplete construct
  /// (unterminated tag, CDATA section, comment, text run). A malicious or
  /// broken stream that never closes a construct would otherwise grow the
  /// internal buffer without bound; exceeding the limit is reported as an
  /// error with line/column like other well-formedness failures. Enforced
  /// on the *canonical* buffer — after BOM stripping and UTF-16→UTF-8
  /// transcoding, which can expand input by up to 1.5× — so a transcoded
  /// stream cannot smuggle past the cap. 0 disables the limit.
  uint64_t max_buffer_bytes = uint64_t{1} << 30;  // 1 GiB
  /// When true, structural scanning uses the one-byte-at-a-time reference
  /// loop instead of the build-selected SIMD/SWAR kernel. The two must be
  /// indistinguishable through the event stream (asserted by the
  /// conformance differential fuzz); exists only for those tests and for
  /// bench_rawscan's baseline.
  bool force_scalar_scan = false;
};

/// Push-model SAX parser. Typical use:
///
///   MySink sink;  // an xml::StreamEventSink
///   SaxParser parser(&sink);
///   while (have more bytes)
///     TWIGM_RETURN_IF_ERROR(parser.Consume({chunk, /*last=*/false}));
///   TWIGM_RETURN_IF_ERROR(parser.Consume({{}, /*last=*/true}));
///
/// or, pulling from a ByteSource: TWIGM_RETURN_IF_ERROR(parser.Pump(&src));
class SaxParser {
 public:
  /// `sink` must outlive the parser. Does not take ownership.
  explicit SaxParser(StreamEventSink* sink,
                     SaxParserOptions options = SaxParserOptions());

  SaxParser(const SaxParser&) = delete;
  SaxParser& operator=(const SaxParser&) = delete;

  /// THE byte entry point: appends one chunk of the document (through the
  /// encoding front end), processes every construct that is now complete,
  /// and — when chunk.last — verifies the document ended cleanly (all tags
  /// closed, a root element present) and fires EndDocument. Returns the
  /// first error encountered; after an error the parser is poisoned and
  /// further calls return the same error.
  Status Consume(const InputChunk& chunk);

  /// Pulls chunks from `source` until it is exhausted or a chunk fails.
  Status Pump(ByteSource* source);

  /// Convenience: Consume({doc, last=true}) on a fresh document.
  Status ParseAll(std::string_view doc) { return Consume({doc, true}); }

  /// Rewinds the parser for a new document: clears parse state (position,
  /// open tags, encoding detection, structural index, sticky error) while
  /// *retaining* allocated capacity — the input buffer, scratch buffers,
  /// index and open-tag stack keep their storage, and the tag interner
  /// keeps every symbol it has assigned (machines bind label symbols once
  /// at Create; they must survive Reset).
  void Reset();

  /// 1-based position of the next unconsumed byte (for error reporting).
  /// Positions are in the canonical (UTF-8, post-BOM) stream. Line/column
  /// tracking is lazy — these accessors (like error formatting) catch up
  /// on demand, which is why they are non-const.
  size_t line() {
    SyncLocation(pos_);
    return line_;
  }
  size_t column() {
    SyncLocation(pos_);
    return column_;
  }

  /// Total canonical bytes consumed so far (BOM excluded; UTF-16 input is
  /// counted after transcoding to UTF-8).
  size_t bytes_consumed() const { return bytes_consumed_; }

  /// Elements started / ended in the current document, whether or not the
  /// sink read their events. The last id assigned is elements_started().
  NodeId elements_started() const { return next_id_; }
  NodeId elements_ended() const { return next_id_ - open_tags_.size(); }

  /// The tag dictionary this parser stamps into its TagTokens. Query
  /// machines intern their label strings here at bind time so per-event
  /// dispatch is symbol comparison. Valid for the parser's lifetime; never
  /// cleared, not even by Reset().
  TagInterner* interner() { return &interner_; }
  const TagInterner* interner() const { return &interner_; }

  /// Optional: before calling the sink for a construct, the parser stores
  /// the construct's starting byte offset into `*slot` (one store per
  /// construct, whether the sink reads it or not). XPathStreamProcessor
  /// points this at its shared stream-offset word so machines can stamp
  /// MatchInfo::byte_offset and trace events. Null (default) disables the
  /// store.
  void set_offset_slot(uint64_t* slot) { offset_slot_ = slot; }

  /// Optional: accumulates the wall time of the structural scan (stage 1)
  /// into `*slot`, in nanoseconds — one timer per Consume, never per event.
  /// Processors point this at their Instrumentation's obs::Stage::kScan
  /// slot. Null (default) disables the timer.
  void set_scan_timer_slot(uint64_t* slot) { scan_timer_slot_ = slot; }

 private:
  enum class Encoding : uint8_t { kUnknown, kUtf8, kUtf16Le, kUtf16Be };

  // --- encoding front end ---------------------------------------------
  // Routes raw chunk bytes into the canonical buffer_: BOM sniffing,
  // UTF-16 transcoding (with cross-chunk code-unit/surrogate carry), then
  // structural-scans whatever was appended.
  Status Ingest(std::string_view bytes, bool last);
  Status DecodeUtf16(std::string_view bytes);
  // Scans buffer_[scanned_end_, size) into index_.
  void ScanAppended();
  // Error at the first NUL byte at or after pos_ (advances position to it
  // first).
  Status NulError();

  // --- tokenizer (stage 2) ---------------------------------------------
  // The tokenizer never consumes past the first NUL, whose consumption is
  // the error of NulError(): a NUL is a mark, so every mark walk stops at
  // it by class, and the DOCTYPE byte walk stops at it too. So pos_ is at
  // most the first NUL's position, and pos_ is at a NUL exactly when
  // everything before the first NUL has been consumed.
  bool AtNul() const {
    return pos_ < buffer_.size() && buffer_[pos_] == '\0';
  }
  // End-of-document checks + EndDocument (consuming a last=true chunk).
  Status FinishInput();
  // Consumes as many complete constructs from buffer_ as possible,
  // resuming the construct left pending by the previous call.
  Status Drain();
  // Decides which "<!" construct starts at pos_ and sets pending_ (kNone
  // while too few bytes are buffered to tell). Drain classifies every
  // other construct from its first two bytes itself.
  Status ClassifyDeclaration();
  // Each Walk* advances mark_cursor_ over the pending construct's marks.
  // They return the position of the mark that completes the construct,
  // or npos if the buffered input ends first (the walk state is kept).
  size_t WalkText();
  size_t WalkStartTag(bool* lt_in_tag);
  size_t WalkToGt();
  // First '>' at or after `min_gt` whose preceding bytes equal `close`
  // ("--", "]]" or "?").
  size_t WalkToTerminator(size_t min_gt, std::string_view close);
  size_t WalkDoctype();
  // Emits the text run [pos_, lt) as character data; `has_amp` (from the
  // mark walk) selects the entity-decoding slow path.
  Status EmitText(size_t lt, bool has_amp);
  Status ConsumeStartTag(size_t gt);
  Status ConsumeEndTag(size_t gt);
  Status ConsumeComment(size_t gt);
  Status ConsumeCdata(size_t gt);
  Status ConsumePi(size_t gt);
  // Decodes entities/char-refs in `raw` into `out`. `context` names the
  // construct for error messages ("character data", "attribute value").
  Status DecodeEntities(std::string_view raw, const char* context,
                        std::string* out);
  // Cold: every well-formedness check ends here on failure, so marking it
  // lets the compiler lay the hot paths out straight.
  [[gnu::cold]] Status ErrorHere(const std::string& msg);
  // Brings line_/column_ up to buffer position `to` (>= loc_pos_),
  // counting newlines with memchr. Lazy: runs only for error messages,
  // the line()/column() accessors and buffer compaction — never on the
  // per-construct hot path.
  void SyncLocation(size_t to);
  // Drops the consumed prefix of buffer_ once it dominates the buffer.
  void Compact();
  // Moves the parse cursor to `to`, counting the bytes consumed.
  void Advance(size_t to) {
    bytes_consumed_ += to - pos_;
    pos_ = to;
  }

  // Reads the sink's EventFilter for the document about to start.
  void ReadFilter();
  // Whether the sink reads the events of element `sym` (its filter).
  bool ReadsElement(SymbolId sym) const {
    return sym < read_size_ ? read_elements_[sym] != 0 : read_other_;
  }

  StreamEventSink* sink_;
  SaxParserOptions options_;
  TagInterner interner_;

  std::string buffer_;   // canonical (UTF-8) unconsumed input
  size_t pos_ = 0;       // parse cursor within buffer_
  uint64_t* offset_slot_ = nullptr;  // see set_offset_slot
  size_t line_ = 1;
  size_t column_ = 1;
  size_t loc_pos_ = 0;  // buffer position line_/column_ refer to
  size_t bytes_consumed_ = 0;

  uint64_t* scan_timer_slot_ = nullptr;  // see set_scan_timer_slot

  // Structural index over buffer_[0, scanned_end_).
  StructuralIndex index_;
  size_t scanned_end_ = 0;

  // Stage-2 walk state. mark_cursor_ is the first mark not yet classified:
  // with no construct pending it is the first mark at or after pos_;
  // while a construct is pending it sits inside that construct, and the
  // fields below summarize the marks already passed.
  enum class Construct : uint8_t {
    kNone,  // pos_ starts a construct not yet classified
    kText,
    kStartTag,
    kEndTag,
    kComment,
    kCdata,
    kPi,
    kDoctype,
  };
  size_t mark_cursor_ = 0;
  Construct pending_ = Construct::kNone;
  bool text_has_amp_ = false;  // kText: an '&' was passed
  // kStartTag: class of the quote opening the value being walked, or
  // kNoQuote between values.
  static constexpr uint8_t kNoQuote = 0xFF;
  uint8_t tag_quote_ = kNoQuote;
  // kDoctype: bytes already scanned (offset from pos_), the '[' ']'
  // nesting depth there, and the literal the scan is inside: the open
  // quote ('"' or '\''), '-' inside a "<!-- -->" comment, '?' inside a
  // "<? ?>" PI, or 0 outside any (brackets and '>' inside a literal are
  // not structure). DOCTYPE brackets are not marks, so this walk is over
  // bytes; keeping its offset makes it linear across chunks too.
  size_t doctype_scanned_ = 0;
  int doctype_depth_ = 0;
  char doctype_literal_ = 0;
  // kStartTag: the quoted values passed so far, as offsets from pos_, with
  // whether each holds a '<' (an error) or an '&' (needs decoding). The
  // attribute parser takes them in order instead of re-walking the marks.
  struct ValueSpan {
    size_t open;   // offset of the opening quote
    size_t close;  // offset of the closing quote
    bool has_lt;
    bool has_amp;
  };
  std::vector<ValueSpan> tag_values_;

  // Encoding front end state.
  Encoding encoding_ = Encoding::kUnknown;
  unsigned char sniff_[3] = {};  // undecided potential-BOM prefix bytes
  size_t sniff_len_ = 0;
  bool have_pending_u16_byte_ = false;
  unsigned char pending_u16_byte_ = 0;   // half of a split UTF-16 unit
  uint32_t pending_high_surrogate_ = 0;  // 0 = none

  std::vector<SymbolId> open_tags_;  // interned names of open elements
  NodeId next_id_ = 0;               // pre-order id of the last element

  // The sink's EventFilter for the current document, unpacked (see
  // ReadFilter); the defaults read everything.
  const uint8_t* read_elements_ = nullptr;
  size_t read_size_ = 0;
  bool read_other_ = true;
  bool read_text_ = true;
  bool seen_root_ = false;
  bool started_ = false;
  bool finished_ = false;
  Status error_;  // sticky error state

  std::string text_scratch_;             // reused text decode buffer
  std::string attr_decode_buf_;          // reused attr-value decode buffer
  std::vector<Attribute> attr_scratch_;  // reused attribute list
  // Attribute values that needed entity decoding are parked in
  // attr_decode_buf_ during the attribute loop; because that buffer may
  // reallocate while later values append to it, the final string_views are
  // patched in afterwards from these (attr index, offset, length) records.
  struct AttrFixup {
    size_t attr_index;
    size_t offset;
    size_t length;
  };
  std::vector<AttrFixup> attr_fixups_;
};

/// Returns true iff `name` is a valid XML element/attribute name under this
/// parser's (slightly relaxed, byte-oriented) rules.
bool IsValidXmlName(std::string_view name);

}  // namespace twigm::xml

#endif  // TWIGM_XML_SAX_PARSER_H_
