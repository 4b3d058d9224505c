// Event model for streaming XML processing.
//
// Two layers:
//   * `SaxHandler` — raw SAX callbacks emitted by `SaxParser` (src/xml/
//     sax_parser.h): start/end element with attributes, character data,
//     comments, processing instructions.
//   * `StreamEventSink` + `EventDriver` — the paper's *modified SAX events*
//     (section 2): startElement(tag, level, id) / endElement(tag, level),
//     where `level` is the node's depth in the XML tree (root = 1) and `id`
//     is a unique identifier assigned in document order (pre-order). All
//     query machines consume this layer.
//
// Tags travel as `TagToken`: the tag bytes plus the dense `SymbolId` the
// parser's TagInterner assigned to that tag name. Machines bind their query
// labels to the same interner and dispatch on the symbol alone — one
// postings-vector lookup per event, never a byte compare (DESIGN.md §10).

#ifndef TWIGM_XML_SAX_EVENT_H_
#define TWIGM_XML_SAX_EVENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/instrumentation.h"

namespace twigm::xml {

/// Dense id of an interned tag name (see xml::TagInterner). Stable for the
/// interner's lifetime: the same tag bytes always map to the same symbol.
using SymbolId = uint32_t;

/// "No symbol": a name the interner never saw (TagInterner::Find), or a
/// symbol slot not yet filled.
inline constexpr SymbolId kNoSymbol = ~SymbolId{0};

/// A tag name as it travels through the event layer: the bytes plus the
/// producer's interned symbol. Machines match on `symbol` only; `text` is
/// for consumers that keep names (DOM, index, routing).
struct TagToken {
  std::string_view text;
  SymbolId symbol = kNoSymbol;

  constexpr TagToken() = default;
  constexpr TagToken(std::string_view t, SymbolId s) : text(t), symbol(s) {}
};

/// A single element attribute, with its value already entity-decoded. The
/// views point into the producer's buffers and are valid only for the
/// duration of the callback — consumers that keep attributes copy them
/// (see xml::OwnedAttribute in dom.h).
struct Attribute {
  std::string_view name;
  std::string_view value;
};

/// Raw SAX callbacks. Default implementations ignore every event so
/// subclasses override only what they need.
class SaxHandler {
 public:
  virtual ~SaxHandler() = default;

  virtual void OnStartDocument() {}
  virtual void OnEndDocument() {}
  /// `tag` and `attrs` are only valid for the duration of the call.
  virtual void OnStartElement(const TagToken& tag,
                              const std::vector<Attribute>& attrs) {
    (void)tag;
    (void)attrs;
  }
  virtual void OnEndElement(const TagToken& tag) { (void)tag; }
  /// Character data (entity-decoded). May be delivered in multiple pieces.
  virtual void OnCharacters(std::string_view text) { (void)text; }
  virtual void OnComment(std::string_view text) { (void)text; }
  virtual void OnProcessingInstruction(std::string_view target,
                                       std::string_view data) {
    (void)target;
    (void)data;
  }
};

/// Node identifier: position in document order (pre-order), starting at 1.
using NodeId = uint64_t;

/// The paper's modified SAX event stream. TwigM, the filter engine and the
/// baselines implement this interface.
class StreamEventSink {
 public:
  virtual ~StreamEventSink() = default;

  /// startElement(tag, level, id). `attrs` carries the element's attributes
  /// so attribute predicates can be evaluated immediately (footnote 2 of the
  /// paper: the implementation supports attributes as well as elements).
  virtual void StartElement(const TagToken& tag, int level, NodeId id,
                            const std::vector<Attribute>& attrs) = 0;

  /// endElement(tag, level).
  virtual void EndElement(const TagToken& tag, int level) = 0;

  /// Character data of the current node, used by value predicates.
  /// `level` is the level of the innermost open element.
  virtual void Text(std::string_view text, int level) { (void)text; (void)level; }

  /// End of stream.
  virtual void EndDocument() {}
};

/// Adapts raw SAX callbacks into modified SAX events: assigns levels
/// (root = 1) and pre-order node ids (first element = 1), then forwards to a
/// `StreamEventSink`.
class EventDriver : public SaxHandler {
 public:
  /// `sink` must outlive the driver. Does not take ownership.
  explicit EventDriver(StreamEventSink* sink) : sink_(sink) {}

  /// Optional observability: with an Instrumentation attached the driver
  /// accumulates the kDrive stage (its whole dispatch, inclusive) and the
  /// kMachine stage (the sink call, inclusive of emission). Null detaches.
  void set_instrumentation(obs::Instrumentation* instr) { instr_ = instr; }

  void OnStartElement(const TagToken& tag,
                      const std::vector<Attribute>& attrs) override {
    obs::TimerScope drive(
        instr_ != nullptr ? instr_->stage_slot(obs::Stage::kDrive) : nullptr);
    ++level_;
    ++next_id_;
    obs::TimerScope machine(instr_ != nullptr
                                ? instr_->stage_slot(obs::Stage::kMachine)
                                : nullptr);
    sink_->StartElement(tag, level_, next_id_, attrs);
  }

  void OnEndElement(const TagToken& tag) override {
    obs::TimerScope drive(
        instr_ != nullptr ? instr_->stage_slot(obs::Stage::kDrive) : nullptr);
    {
      obs::TimerScope machine(instr_ != nullptr
                                  ? instr_->stage_slot(obs::Stage::kMachine)
                                  : nullptr);
      sink_->EndElement(tag, level_);
    }
    --level_;
  }

  void OnCharacters(std::string_view text) override {
    if (level_ > 0) {
      obs::TimerScope drive(instr_ != nullptr
                                ? instr_->stage_slot(obs::Stage::kDrive)
                                : nullptr);
      obs::TimerScope machine(instr_ != nullptr
                                  ? instr_->stage_slot(obs::Stage::kMachine)
                                  : nullptr);
      sink_->Text(text, level_);
    }
  }

  void OnEndDocument() override { sink_->EndDocument(); }

  /// Number of elements seen so far.
  NodeId element_count() const { return next_id_; }

  /// Rewinds level/id assignment for a new document. The attached sink and
  /// instrumentation stay bound.
  void Reset() {
    level_ = 0;
    next_id_ = 0;
  }

 private:
  StreamEventSink* sink_;
  obs::Instrumentation* instr_ = nullptr;
  int level_ = 0;
  NodeId next_id_ = 0;
};

}  // namespace twigm::xml

#endif  // TWIGM_XML_SAX_EVENT_H_
