// Statistics for the shared-prefix filter engine (src/filter/).
//
// `FilterIndexStats` is filled at compile time by FilterIndex::Build and
// quantifies how much of the query set the step trie shares: when queries
// overlap, `trie_node_count` is (much) smaller than `total_steps`, and
// per-event work tracks the former. `FilterRuntimeStats` is maintained by
// FilterEngine and records per-event active-stack counts — the number of
// trie nodes with a non-empty stack is the shared-machine analogue of the
// per-query live-entry counts in core::EngineStats. `AnalysisStats` records
// what a FilterEngine built with a DTD pruned before streaming.

#ifndef TWIGM_FILTER_FILTER_STATS_H_
#define TWIGM_FILTER_FILTER_STATS_H_

#include <cstddef>
#include <cstdint>

namespace twigm::filter {

/// Construction-time sharing statistics (FilterIndex::stats()).
struct FilterIndexStats {
  size_t query_count = 0;
  size_t linear_query_count = 0;    // fully shared: run entirely in the trie
  size_t tail_query_count = 0;      // shared trunk + per-query tail machine
  size_t unshared_query_count = 0;  // predicate on the first step: no trunk
  /// Location steps inserted into the trie across all queries (linear
  /// spines plus predicate-query trunks), counting repeats.
  size_t total_steps = 0;
  /// Distinct trie nodes. Sharing means trie_node_count < total_steps.
  size_t trie_node_count = 0;
};

/// Runtime statistics (FilterEngine::runtime_stats()).
struct FilterRuntimeStats {
  uint64_t start_events = 0;
  uint64_t end_events = 0;
  uint64_t trie_pushes = 0;
  uint64_t trie_pops = 0;
  uint64_t results = 0;  // across queries, trie accepts + tail emissions

  /// Trie nodes with a non-empty stack, sampled after every start event.
  uint64_t peak_active_nodes = 0;
  uint64_t sum_active_nodes = 0;  // average = sum / start_events

  /// Live trie stack entries (tail-machine entries are counted by the tail
  /// machines' own EngineStats).
  uint64_t peak_trie_entries = 0;
  /// Predicate tails currently receiving events, sampled per start event.
  uint64_t peak_engaged_tails = 0;

  /// Qualifying trie pushes skipped because the decision table proved no
  /// accept or anchor can complete below the opening element (kOn mode).
  uint64_t trie_pushes_skipped = 0;
};

/// What the DTD analysis bought (FilterEngine::analysis_stats(); all zero
/// for an engine built without a DTD).
struct AnalysisStats {
  size_t queries_total = 0;
  size_t queries_unsatisfiable = 0;
  size_t queries_forwarded = 0;
  size_t branches_minimized = 0;
  /// Trie / machine nodes whose level window actually constrains
  /// (min > 1 or a finite max) — a proxy for how much push work the DTD
  /// proofs can skip.
  size_t bounded_trie_nodes = 0;
  size_t bounded_machine_nodes = 0;
  /// Non-default earliest-decision facts installed into the runtime (trie
  /// kUseless cells + tail-machine table cells); 0 when
  /// enable_early_decisions is kOff.
  size_t decision_facts = 0;

  size_t queries_pruned() const {
    return queries_unsatisfiable + queries_forwarded;
  }
};

}  // namespace twigm::filter

#endif  // TWIGM_FILTER_FILTER_STATS_H_
