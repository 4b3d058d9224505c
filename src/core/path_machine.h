// PathM — streaming machine for linear queries XP{/,//,*} (section 3.1).
//
// The machine is a chain of nodes, one stack of levels each. An element is
// pushed onto node v's stack iff some entry of ρ(v)'s stack satisfies ζ(v);
// entries pop at the element's end event. Because there are no predicates,
// membership is decided the moment an element reaches the return node's
// stack, so results are emitted immediately at startElement — the earliest
// point possible (fully incremental, unlike TwigM which must wait for
// predicate resolution).
//
// Events dispatch through per-symbol postings of chain positions built by
// BindInterner(); wildcard positions are always tried. Same-event pushes
// cannot enable each other (edge distances are ≥ 1), so trying the label
// group before the wildcard group is equivalent to one chain-order scan.

#ifndef TWIGM_CORE_PATH_MACHINE_H_
#define TWIGM_CORE_PATH_MACHINE_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "core/streaming_machine.h"
#include "xpath/query_tree.h"

namespace twigm::core {

/// The PathM machine. Only accepts linear queries (no predicates).
///
/// Earliest-query-answering (set_decisions): PathM is already fully
/// incremental — results emit at startElement, so every gap is 0 — but kOn
/// still uses the table's kUseless facts to skip stack state for subtrees
/// that cannot reach the return node.
class PathMachine final : public StreamingMachine {
 public:
  /// Fails with NotSupported if `query` has predicates or value tests.
  static Result<std::unique_ptr<PathMachine>> Create(
      const xpath::QueryTree& query, MatchObserver* observer);

  // StreamEventSink:
  void StartElement(const xml::TagToken& tag, int level, xml::NodeId id,
                    const std::vector<xml::Attribute>& attrs) override;
  void EndElement(const xml::TagToken& tag, int level) override;
  void EndDocument() override;

  void Reset() override;

 private:
  PathMachine(MachineGraph graph, MatchObserver* observer);

  void BuildPostings(size_t symbol_count) override;

  // δs / δe for the node at chain position i.
  void TryStartPosition(size_t i, int level, xml::NodeId id);
  void PopPosition(size_t i, int level);

  // chain_[i] is the machine node at spine position i (root first);
  // stacks_[i] its stack of levels.
  std::vector<const MachineNode*> chain_;
  std::vector<std::vector<int>> stacks_;

  // Symbol dispatch: postings_[s] lists the chain positions whose label has
  // symbol s; wildcard_positions_ is always tried. Built by BindInterner.
  std::vector<std::vector<size_t>> postings_;
  std::vector<size_t> wildcard_positions_;

  uint64_t live_entries_ = 0;
};

}  // namespace twigm::core

#endif  // TWIGM_CORE_PATH_MACHINE_H_
