// Event model for streaming XML processing: the paper's *modified SAX
// events* (section 2), startElement(tag, level, id) / endElement(tag,
// level), where `level` is the node's depth in the XML tree (root = 1) and
// `id` is a unique identifier assigned in document order (pre-order).
//
// `StreamEventSink` is the one event interface. SaxParser (src/xml/
// sax_parser.h) assigns levels and ids itself and calls its sink directly,
// one virtual call per event. A sink may declare, once per document, which
// events it reads (`EventFilter`: a per-symbol element filter plus whether
// it reads text); the parser then skips the calls nobody reads. TwigM
// declares its label symbols (DESIGN.md §10).
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

/// Node identifier: position in document order (pre-order), starting at 1.
using NodeId = uint64_t;

/// Which events a sink reads, declared once per document (DESIGN.md §10).
/// The parser skips the start and end calls of elements the sink does not
/// read and, unless `text` is set, every Text call. Everything else still
/// happens for every construct: well-formedness checks, id and level
/// assignment, byte offsets. So each event a sink does read carries exactly
/// the id, level and offset an all-events sink would see with it.
struct EventFilter {
  /// elements[s] != 0: the sink reads the start and end events of symbol s.
  std::vector<uint8_t> elements;
  /// Whether the sink reads symbols at or past elements.size(), i.e. those
  /// interned after the filter was built.
  bool other_elements = true;
  /// Whether the sink reads character data.
  bool text = true;

  bool ReadsElement(SymbolId s) const {
    return s < elements.size() ? elements[s] != 0 : other_elements;
  }
};

/// The one event interface: the paper's modified SAX events (section 2),
/// startElement(tag, level, id) / endElement(tag, level), where `level` is
/// the element's depth (root = 1) and `id` its pre-order position (first
/// element = 1), plus character data and the document hooks. SaxParser
/// assigns levels and ids itself and calls its sink directly; TwigM, the
/// fragment recorder, the filter engine, the DOM and index builders and the
/// baselines all implement this interface. Every callback defaults to a
/// no-op, so a sink overrides only what it reads.
class StreamEventSink {
 public:
  virtual ~StreamEventSink() = default;

  /// Which events this sink reads; null (the default) reads everything.
  /// The parser asks once per document, before that document's first
  /// event, and keeps the pointer until the document ends: the filter must
  /// stay valid and unchanged that long.
  virtual const EventFilter* event_filter() const { return nullptr; }

  /// Start of a document (before any other event of it).
  virtual void StartDocument() {}

  /// startElement(tag, level, id). `attrs` carries the element's attributes
  /// so attribute predicates can be evaluated immediately (footnote 2 of the
  /// paper: the implementation supports attributes as well as elements).
  /// `tag` and `attrs` are only valid for the duration of the call.
  virtual void StartElement(const TagToken& /*tag*/, int /*level*/,
                            NodeId /*id*/,
                            const std::vector<Attribute>& /*attrs*/) {}

  /// endElement(tag, level).
  virtual void EndElement(const TagToken& /*tag*/, int /*level*/) {}

  /// Character data (entity-decoded) of the innermost open element, at its
  /// `level`. A run may be delivered in several pieces.
  virtual void Text(std::string_view /*text*/, int /*level*/) {}

  virtual void Comment(std::string_view /*text*/) {}
  virtual void ProcessingInstruction(std::string_view /*target*/,
                                     std::string_view /*data*/) {}

  /// End of stream.
  virtual void EndDocument() {}
};

/// The raw-SAX name of the one sink; the benchmark harness (perfbench/)
/// still names it.
using SaxHandler = StreamEventSink;

/// Forwards every event to a sink and counts the elements it passes. Only
/// the benchmark harness (perfbench/) uses it, to count elements beside a
/// sink; the parser itself assigns levels and ids.
class EventDriver final : public StreamEventSink {
 public:
  /// `sink` must outlive the driver. Does not take ownership.
  explicit EventDriver(StreamEventSink* sink) : sink_(sink) {}

  void StartDocument() override { sink_->StartDocument(); }
  void StartElement(const TagToken& tag, int level, NodeId id,
                    const std::vector<Attribute>& attrs) override {
    ++elements_;
    sink_->StartElement(tag, level, id, attrs);
  }
  void EndElement(const TagToken& tag, int level) override {
    sink_->EndElement(tag, level);
  }
  void Text(std::string_view text, int level) override {
    sink_->Text(text, level);
  }
  void Comment(std::string_view text) override { sink_->Comment(text); }
  void ProcessingInstruction(std::string_view target,
                             std::string_view data) override {
    sink_->ProcessingInstruction(target, data);
  }
  void EndDocument() override { sink_->EndDocument(); }

  /// Number of elements passed since construction or the last Reset.
  NodeId element_count() const { return elements_; }
  void Reset() { elements_ = 0; }

 private:
  StreamEventSink* sink_;
  NodeId elements_ = 0;
};

/// Times a sink for the stage ledger (obs/instrumentation.h): forwards each
/// event to `sink`, accumulating obs::Stage::kDrive around the forward and
/// obs::Stage::kMachine around the sink's own call, and declares the sink's
/// filter as its own, so the parser skips the same events with timing on
/// as off. Processors put it in front of their sink only when an
/// Instrumentation is attached; without one the parser calls the sink
/// directly and nothing is timed.
class StageTimedSink final : public StreamEventSink {
 public:
  /// Neither is owned; both must outlive this object. A null `instr`
  /// times nothing.
  StageTimedSink(StreamEventSink* sink, obs::Instrumentation* instr)
      : sink_(sink),
        drive_(instr != nullptr ? instr->stage_slot(obs::Stage::kDrive)
                                : nullptr),
        machine_(instr != nullptr ? instr->stage_slot(obs::Stage::kMachine)
                                  : nullptr) {}

  const EventFilter* event_filter() const override {
    return sink_->event_filter();
  }
  void StartDocument() override { sink_->StartDocument(); }
  void StartElement(const TagToken& tag, int level, NodeId id,
                    const std::vector<Attribute>& attrs) override {
    obs::TimerScope drive(drive_);
    obs::TimerScope machine(machine_);
    sink_->StartElement(tag, level, id, attrs);
  }
  void EndElement(const TagToken& tag, int level) override {
    obs::TimerScope drive(drive_);
    obs::TimerScope machine(machine_);
    sink_->EndElement(tag, level);
  }
  void Text(std::string_view text, int level) override {
    obs::TimerScope drive(drive_);
    obs::TimerScope machine(machine_);
    sink_->Text(text, level);
  }
  void Comment(std::string_view text) override { sink_->Comment(text); }
  void ProcessingInstruction(std::string_view target,
                             std::string_view data) override {
    sink_->ProcessingInstruction(target, data);
  }
  void EndDocument() override { sink_->EndDocument(); }

 private:
  StreamEventSink* sink_;
  uint64_t* drive_;
  uint64_t* machine_;
};

}  // namespace twigm::xml

#endif  // TWIGM_XML_SAX_EVENT_H_
