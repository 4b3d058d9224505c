// Static analysis over compiled queries: prove work away before streaming.
//
// Three cooperating passes, all *conservative* — they only claim a fact
// when it holds on every document (DTD passes: every document valid w.r.t.
// the analyzed DTD):
//
//   1. Tree-pattern minimization. A predicate branch implied by a sibling
//      branch or by the query's own output-path continuation is removed
//      (simulation/homomorphism redundancy test — cf. Hachicha & Darmont's
//      tree-pattern survey). Shrinks |Q| before machine construction; the
//      result set is provably unchanged because the removed branch is
//      entailed by what remains.
//
//   2. DTD-aware satisfiability & level bounds. A fixpoint over the
//      DtdStructure element graph computes, per query node, the set of
//      elements it can bind and the document-level window in which it can
//      do so. An empty set anywhere makes the query statically
//      unsatisfiable (rejected with a diagnostic); the windows become
//      core::LevelRange vectors that machines use to skip impossible
//      pushes.
//
//   3. Containment. QueryContains(A, B) runs the classic tree-pattern
//      homomorphism test (sound, incomplete — containment for XP{/,//,*,[]}
//      is coNP-hard, cf. Genevès' logics survey): true means every result
//      of B is a result of A on every document. AnalyzeQuerySet uses mutual
//      containment to group equivalent queries; only one representative per
//      class runs, the rest share its matches by result forwarding.

#ifndef TWIGM_ANALYSIS_QUERY_ANALYSIS_H_
#define TWIGM_ANALYSIS_QUERY_ANALYSIS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/dtd_structure.h"
#include "common/status.h"
#include "core/level_bounds.h"
#include "core/machine_builder.h"
#include "xpath/query_tree.h"

namespace twigm::analysis {

struct AnalyzerOptions {
  /// DTD summary; null skips satisfiability and level-bound derivation.
  /// Not owned; must outlive any use of the analysis results.
  const DtdStructure* dtd = nullptr;
};

/// Result of analyzing one query.
struct QueryAnalysis {
  /// False iff the DTD proves the query can never match; `diagnostic` then
  /// says which step is infeasible and why.
  bool satisfiable = true;
  std::string diagnostic;
  /// Canonical minimized query text (== canonical original when nothing was
  /// removed). Parse/compile this for evaluation.
  std::string minimized;
  /// Predicate branches removed by minimization.
  size_t branches_removed = 0;
};

/// Analyzes one query: minimization, then (with a DTD) satisfiability.
QueryAnalysis AnalyzeQuery(const xpath::QueryTree& query,
                           const AnalyzerOptions& options);

/// Conservative containment: true ⇒ every result of `sub` is a result of
/// `super` on every document (never claims containment that doesn't hold;
/// may miss containments — homomorphism is incomplete for this fragment).
bool QueryContains(const xpath::QueryTree& super, const xpath::QueryTree& sub);

/// Result of analyzing a whole query set (FilterEngine::Create runs this
/// when given a DTD).
struct QuerySetAnalysis {
  struct PerQuery {
    bool satisfiable = true;
    std::string diagnostic;
    std::string minimized;
    size_t branches_removed = 0;
    /// Index of the equivalence-class representative whose results this
    /// query shares (== its own index when it runs itself).
    size_t forwarded_to = 0;
  };
  std::vector<PerQuery> queries;

  size_t unsatisfiable = 0;       // statically rejected
  size_t forwarded = 0;           // equivalent, share a representative
  size_t branches_minimized = 0;  // total across queries
  /// unsatisfiable + forwarded: queries that cost nothing per event.
  size_t pruned() const { return unsatisfiable + forwarded; }
};

/// Analyzes every query. Fails on the first syntactically-invalid query
/// (the error names its index, like FilterEngine::Create).
Result<QuerySetAnalysis> AnalyzeQuerySet(
    const std::vector<std::string>& queries, const AnalyzerOptions& options);

/// Elements reachable from any element of `from` in exactly (`exact` true)
/// or at least `k` child steps. Characteristic vectors over dtd element
/// ids; building block for level-bound fixpoints over machine graphs and
/// the filter engine's step trie.
std::vector<bool> ReachableFromSet(const DtdStructure& dtd,
                                   const std::vector<bool>& from, int k,
                                   bool exact);

/// Intersects `structural` with the document-depth range of the elements
/// in `feasible`; LevelRange::Nothing() when `feasible` is empty.
core::LevelRange IntersectDepthRange(const DtdStructure& dtd,
                                     const std::vector<bool>& feasible,
                                     core::LevelRange structural);

/// Level windows for a machine graph evaluated from the document root.
/// Indexed by dense machine-node id; infeasible nodes get
/// LevelRange::Nothing() (sound only on DTD-valid documents).
core::LevelBounds ComputeMachineLevelBounds(const core::MachineGraph& graph,
                                            const DtdStructure& dtd);

/// Variant for a machine anchored below an external context (the filter
/// engine's predicate tails): `context_feasible` is the element set the
/// anchor can bind (characteristic vector over dtd element ids) and
/// `context_bounds` its level window.
core::LevelBounds ComputeMachineLevelBounds(
    const core::MachineGraph& graph, const DtdStructure& dtd,
    const std::vector<bool>& context_feasible,
    core::LevelRange context_bounds);

}  // namespace twigm::analysis

#endif  // TWIGM_ANALYSIS_QUERY_ANALYSIS_H_
