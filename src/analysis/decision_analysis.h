// Earliest-query-answering decision tables (DESIGN.md §13).
//
// For every (machine node v, DTD element e) pair, the compiler derives
// facts that hold the moment an element named e opens and binds at v,
// before any of e's content has streamed:
//
//   * implied_mask — predicate branches of v that every valid completion of
//     e is guaranteed to satisfy: the branch's subtree is anchored on a
//     *required* descendant chain (content particles with repetition
//     one/plus, intersected across choice alternatives) whose own
//     obligations — attribute tests on #REQUIRED/#FIXED declarations,
//     value tests on element-only content — are themselves certain.
//   * kValueImplied — v's value test passes on every valid instance of e
//     (e admits no character data and the test accepts empty text).
//   * kRefuted — some obligation of v is impossible below e: a branch
//     whose every DTD-reachable binding is itself refuted, a value test
//     that cannot pass without character data, or an attribute test
//     against an attribute the DTD never declares for its element.
//   * kUseless — no output chain can complete below e (the spine child has
//     no reachable, non-refuted, output-possible binding), so an entry at
//     v would exist only to be discarded.
//
// Facts trust the DTD exactly as level bounds do: sound on valid
// documents, advisory otherwise. Where validity cannot be assumed, install
// no table (InstallDecisionTable(nullptr)) under kOn/kObserve: machines
// then run the purely dynamic certainty cascade, which is exact on any
// well-formed input.

#ifndef TWIGM_ANALYSIS_DECISION_ANALYSIS_H_
#define TWIGM_ANALYSIS_DECISION_ANALYSIS_H_

#include "analysis/dtd_structure.h"
#include "core/decision_table.h"
#include "core/machine_builder.h"

namespace twigm::core {
class XPathStreamProcessor;
}  // namespace twigm::core

namespace twigm::analysis {

/// Compiles the per-(machine-node, element) decision table for `graph`
/// against `dtd`. The table indexes elements by the DtdStructure's dense
/// ids; machines map tag symbols onto them via the table's element names.
core::DecisionTable CompileDecisionTable(const core::MachineGraph& graph,
                                         const DtdStructure& dtd);

/// Compiles a table for `processor`'s machine graph and installs it. The
/// machine runs in the mode chosen by the processor's
/// EvaluatorOptions::enable_early_decisions.
void EnableEarlyDecisions(core::XPathStreamProcessor* processor,
                          const DtdStructure& dtd);

}  // namespace twigm::analysis

#endif  // TWIGM_ANALYSIS_DECISION_ANALYSIS_H_
