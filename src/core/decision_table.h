// Static decision tables: per-(machine-node, DTD-element) certainty facts
// compiled by the analyzer (analysis::CompileDecisionTable) and consulted by
// the machines on every event (DESIGN.md §13).
//
// A NodeDecision answers, for "an element with tag e just bound at machine
// node v", the three certainty questions of the earliest-query-answering
// lattice:
//   * implied  — which of v's branch obligations is the DTD guaranteed to
//                satisfy by the time e closes (implied_mask bits, plus
//                kValueImplied for v's value test);
//   * refuted  — can v's obligations *never* be met below e (kRefuted);
//   * useless  — can no output decision be made anywhere below e (kUseless).
// Everything not implied or refuted is *open* and resolved dynamically.
//
// The type lives in core (like LevelBounds) so the machines can hold tables
// without depending on the analysis layer; the compiler lives in
// src/analysis/decision_analysis.h. The same advisory contract as level
// bounds applies: facts are conservative for documents valid w.r.t. the
// analyzed DTD. On invalid documents kOn may emit early matches the pop
// rule would have rejected (or miss skipped ones). Where validity cannot be
// assumed, install no table (null): a machine treats it like a zero-fact
// table, which degrades every mode to the purely dynamic cascade — exact
// on any well-formed document.

#ifndef TWIGM_CORE_DECISION_TABLE_H_
#define TWIGM_CORE_DECISION_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace twigm::core {

/// How a machine acts on certainty.
enum class EarlyDecisionMode : uint8_t {
  /// The paper's behaviour: decide everything at endElement. Default.
  kOff = 0,
  /// Track certainty and record the earliest-provable point of every match
  /// (EngineStats gap counters / the emission-gap histogram) but act at the
  /// normal time — output is byte-identical to kOff on valid documents.
  /// This is the measurement baseline the kOn gap is compared against.
  kObserve,
  /// Act at the first certain event: emit matches as soon as all remaining
  /// obligations are implied, skip pushes whose obligations are refuted or
  /// whose subtree cannot decide anything. Same match id multiset as kOff
  /// on valid documents; every offset is ≤ the kOff offset.
  kOn,
};

/// One row cell: the static facts for (machine node, element tag).
struct NodeDecision {
  /// Branch bits of the node's required_mask certain to be satisfied once
  /// an element with this tag closes (on DTD-valid documents).
  uint64_t implied_mask = 0;
  uint8_t flags = 0;

  static constexpr uint8_t kRefuted = 1;       // obligations can never hold
  static constexpr uint8_t kUseless = 2;       // no output decision below
  static constexpr uint8_t kValueImplied = 4;  // value test statically true

  bool refuted() const { return (flags & kRefuted) != 0; }
  bool useless() const { return (flags & kUseless) != 0; }
  bool value_implied() const { return (flags & kValueImplied) != 0; }
  bool is_default() const { return implied_mask == 0 && flags == 0; }
};

/// Dense (node × element) fact matrix. Element ids are the analyzer's dense
/// DTD element ids; machines map event SymbolIds onto them once per
/// set_decisions call (unknown tags fall back to the all-open default).
class DecisionTable {
 public:
  DecisionTable() = default;
  DecisionTable(size_t node_count, std::vector<std::string> element_names)
      : node_count_(node_count),
        element_names_(std::move(element_names)),
        rows_(node_count_ * element_names_.size()) {}

  size_t node_count() const { return node_count_; }
  size_t element_count() const { return element_names_.size(); }
  const std::vector<std::string>& element_names() const {
    return element_names_;
  }

  NodeDecision& at(size_t node, size_t elem) {
    return rows_[node * element_names_.size() + elem];
  }
  const NodeDecision& at(size_t node, size_t elem) const {
    return rows_[node * element_names_.size() + elem];
  }

  bool empty() const { return rows_.empty(); }

  /// Number of non-default cells — the "facts computed" figure exported as
  /// analysis.decision_facts. Tables are small (|Q| × |Σ_DTD|), so the scan
  /// is fine at export time.
  uint64_t facts() const {
    uint64_t n = 0;
    for (const NodeDecision& d : rows_) {
      if (!d.is_default()) ++n;
    }
    return n;
  }

 private:
  size_t node_count_ = 0;
  std::vector<std::string> element_names_;
  std::vector<NodeDecision> rows_;
};

}  // namespace twigm::core

#endif  // TWIGM_CORE_DECISION_TABLE_H_
