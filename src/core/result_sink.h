// Match delivery: the unified observer interface for query results.
//
// Engines report three things about a match's lifecycle, all through one
// `MatchObserver`:
//   * OnCandidate(id) — the element was just recorded as a *possible*
//     result (pushed into the return node's candidate set), before its
//     membership is decided;
//   * OnResult(MatchInfo) — membership proven; carries the node id, the
//     stream byte offset at which the proof happened, and the machine node
//     that proved it. Engines emit as soon as membership is decided (the
//     streaming requirement of section 1) and report each result exactly
//     once. byte_offset - (the offset at OnCandidate time) is the result's
//     emission latency in bytes;
//   * OnFragment(id, xml) — only when the observer opts in via
//     wants_fragments(): the re-serialized subtree of a result element
//     (footnote 3 of the paper), delivered at max(subtree fully parsed,
//     membership proven).
//
// `VectorResultSink` and `CountingResultSink` are the common adapters.

#ifndef TWIGM_CORE_RESULT_SINK_H_
#define TWIGM_CORE_RESULT_SINK_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "xml/sax_event.h"

namespace twigm::core {

/// Everything an engine knows about a proven match.
struct MatchInfo {
  /// Pre-order node id of the result element.
  xml::NodeId id = 0;
  /// Byte offset (in the input stream) of the SAX construct whose
  /// processing proved the match; 0 when the machine is fed events directly
  /// without a stream position source.
  uint64_t byte_offset = 0;
  /// Dense MachineNode::id of the machine node that emitted (the query's
  /// return node); -1 when not applicable.
  int query_node = -1;
};

/// Receives candidate announcements, proven results, and (optionally)
/// result fragments. Only OnResult is mandatory.
class MatchObserver {
 public:
  virtual ~MatchObserver() = default;

  /// The element became a possible result; membership is not yet decided.
  /// Called before OnResult for the same id (in the same event for a
  /// predicate-free query, where candidacy and membership coincide).
  virtual void OnCandidate(xml::NodeId id) { (void)id; }

  /// Membership proven. Each result id is reported exactly once.
  virtual void OnResult(const MatchInfo& match) = 0;

  /// Return true to receive OnFragment calls. Checked once, at processor
  /// construction: fragment capture costs buffering of undecided candidate
  /// subtrees, so it is strictly opt-in.
  virtual bool wants_fragments() const { return false; }

  /// The re-serialized subtree of result `id` (elements, attributes,
  /// escaped text; comments/PIs/CDATA sectioning are not preserved).
  /// Called once per result, only when wants_fragments() returned true.
  virtual void OnFragment(xml::NodeId id, std::string_view xml) {
    (void)id;
    (void)xml;
  }
};

/// Collects results into a vector (in emission order).
class VectorResultSink : public MatchObserver {
 public:
  void OnResult(const MatchInfo& match) override {
    ids_.push_back(match.id);
    matches_.push_back(match);
  }

  const std::vector<xml::NodeId>& ids() const { return ids_; }
  std::vector<xml::NodeId> TakeIds() { return std::move(ids_); }
  /// Full per-result info (byte offsets, emitting machine nodes).
  const std::vector<MatchInfo>& matches() const { return matches_; }

 private:
  std::vector<xml::NodeId> ids_;
  std::vector<MatchInfo> matches_;
};

/// Counts results without storing them (for benchmarks).
class CountingResultSink : public MatchObserver {
 public:
  void OnResult(const MatchInfo& match) override {
    (void)match;
    ++count_;
  }

  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
};

}  // namespace twigm::core

#endif  // TWIGM_CORE_RESULT_SINK_H_
