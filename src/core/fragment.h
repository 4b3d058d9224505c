// XML-fragment result delivery (footnote 3 of the paper: "Our
// implementation returns XML fragments instead of node ids").
//
// `FragmentRecorder` sits between the parser and a query machine: it
// forwards every modified-SAX event and, for each element the machine
// reports as a *candidate* (MatchObserver::OnCandidate), re-serializes the
// element's subtree while it streams past. The machine's candidate and
// result callbacks pass through to the downstream observer unchanged; when
// the machine proves a candidate is a result, the buffered fragment is
// additionally handed to the observer via OnFragment — still incrementally:
// a fragment is delivered at max(candidate subtree fully parsed, membership
// proven).
//
// Fragment capture is enabled per processor: XPathStreamProcessor::Create
// inserts a recorder when the observer's wants_fragments() returns true.
//
// Memory note: buffering undecided candidates is inherent to returning
// fragments from a stream (every fragment-producing engine pays it); the
// recorder's footprint is included in its stats and fragments of candidates
// that never become results are dropped as soon as that is knowable (at the
// latest at end of document).

#ifndef TWIGM_CORE_FRAGMENT_H_
#define TWIGM_CORE_FRAGMENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/result_sink.h"
#include "xml/sax_event.h"

namespace twigm::core {

/// Collects result fragments (and their ids) into a vector — the common
/// observer for fragment mode in tests and demos.
class VectorFragmentSink : public MatchObserver {
 public:
  struct Item {
    xml::NodeId id;
    std::string xml;
  };

  bool wants_fragments() const override { return true; }

  void OnResult(const MatchInfo& match) override { ids_.push_back(match.id); }

  void OnFragment(xml::NodeId id, std::string_view xml) override {
    items_.push_back(Item{id, std::string(xml)});
  }

  /// Completed fragments, in delivery order.
  const std::vector<Item>& items() const { return items_; }
  /// Result ids, in emission order (emission may precede fragment
  /// completion).
  const std::vector<xml::NodeId>& ids() const { return ids_; }

 private:
  std::vector<Item> items_;
  std::vector<xml::NodeId> ids_;
};

/// Event tee that records candidate subtrees and pairs them with results.
/// Wire-up (done by XPathStreamProcessor::Create when fragment capture is
/// on):
///   parser -> recorder (StreamEventSink) -> machine
///   The recorder reads every event (no EventFilter), so the machine
///   behind it is handed every event too.
///   machine's MatchObserver = recorder; recorder forwards to the user's
///   observer and adds OnFragment deliveries.
class FragmentRecorder : public xml::StreamEventSink, public MatchObserver {
 public:
  /// `out` receives the pass-through candidate/result callbacks plus
  /// completed fragments. Not owned.
  explicit FragmentRecorder(MatchObserver* out) : out_(out) {}

  /// The machine events are forwarded to; must be set before streaming.
  void set_machine(xml::StreamEventSink* machine) { machine_ = machine; }

  // StreamEventSink (from the parser):
  void StartElement(const xml::TagToken& tag, int level, xml::NodeId id,
                    const std::vector<xml::Attribute>& attrs) override;
  void EndElement(const xml::TagToken& tag, int level) override;
  void Text(std::string_view text, int level) override;
  void EndDocument() override;

  // MatchObserver (from the machine):
  void OnCandidate(xml::NodeId id) override;
  void OnResult(const MatchInfo& match) override;

  /// Clears all buffered state for a new document.
  void Reset();

  /// Peak bytes held in fragment buffers (candidates + completed,
  /// undecided).
  uint64_t peak_buffered_bytes() const { return peak_buffered_bytes_; }

 private:
  // An in-flight recording of one candidate's subtree.
  struct Recording {
    xml::NodeId id = 0;
    int level = 0;  // the candidate element's own level
    std::string buffer;
  };

  void AppendToActive(std::string_view text);
  void NoteBuffered();

  xml::StreamEventSink* machine_ = nullptr;
  MatchObserver* out_;

  // Candidate ids announced during the current StartElement call.
  std::vector<xml::NodeId> announced_;
  bool in_start_ = false;

  // Active recordings, innermost last (LIFO by nesting).
  std::vector<Recording> active_;
  // Completed fragments awaiting a result decision.
  std::unordered_map<xml::NodeId, std::string> completed_;
  // Results whose fragment is still being recorded (emitted at their start
  // tag: predicate-free queries, early decisions).
  std::unordered_set<xml::NodeId> pending_results_;

  uint64_t buffered_bytes_ = 0;
  uint64_t peak_buffered_bytes_ = 0;
};

}  // namespace twigm::core

#endif  // TWIGM_CORE_FRAGMENT_H_
