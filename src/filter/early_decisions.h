// Earliest-query-answering for the shared-prefix filter engine.
//
// Two compiled artifacts (DESIGN.md §13):
//
//   * a trie decision table — per (step-trie node, DTD element) a kUseless
//     flag meaning "a push here can never matter below this element": the
//     node accepts no query, anchors no predicate tail, and no descendant
//     trie node that does is DTD-reachable below the element. The engine
//     skips such pushes in kOn mode, shrinking the active-node set.
//   * per-tail decision tables — the machine-level tables of
//     analysis::CompileDecisionTable for every demultiplexed predicate
//     tail, so tail machines emit and drop candidates at the first certain
//     event.
//
// Both trust the DTD exactly as level bounds do (sound on valid documents).
// FilterEngine::Create compiles and installs both when it is given a DTD
// and EvaluatorOptions::enable_early_decisions is not kOff.

#ifndef TWIGM_FILTER_EARLY_DECISIONS_H_
#define TWIGM_FILTER_EARLY_DECISIONS_H_

#include "analysis/dtd_structure.h"
#include "core/decision_table.h"
#include "filter/filter_index.h"

namespace twigm::filter {

/// Compiles the per-(trie-node, element) table for `index` against `dtd`.
/// Only the kUseless flag is populated; rows are indexed by trie node id.
core::DecisionTable CompileTrieDecisions(const FilterIndex& index,
                                         const analysis::DtdStructure& dtd);

}  // namespace twigm::filter

#endif  // TWIGM_FILTER_EARLY_DECISIONS_H_
