// Analyzed multi-query evaluation: run the static analyzer (src/analysis/)
// over a query set, then stream only what survives.
//
// AnalyzedEngine is a front end over FilterEngine (shared-prefix trie) that
// applies the analyzer's three passes before any byte of the document is
// parsed:
//
//   * unsatisfiable queries (DTD proof) are dropped — they cost nothing per
//     event and simply never produce results;
//   * equivalent queries (mutual containment) collapse to one
//     representative; the representative's matches fan out to the whole
//     class through a remapping sink, so the outer sink still sees every
//     original query index;
//   * minimized query texts replace the originals (fewer machine nodes,
//     same results), and — given a DTD — per-node level windows are pushed
//     into the trie and the tail machines so structurally impossible
//     pushes are skipped.
//
// Correctness contract: on any document valid w.r.t. the analyzed DTD, the
// engine emits exactly the same (query_index, id) result set as an
// unanalyzed MultiQueryProcessor over the original query texts (emission
// order and MatchInfo byte offsets may differ). Without a DTD, the
// minimization and equivalence passes alone preserve that contract on
// every well-formed document. When the analyzer prunes *every* query, the
// stream is not parsed at all — Consume/Pump become no-ops (and parse
// errors are then not reported).

#ifndef TWIGM_FILTER_ANALYZED_ENGINE_H_
#define TWIGM_FILTER_ANALYZED_ENGINE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/dtd_structure.h"
#include "analysis/query_analysis.h"
#include "common/status.h"
#include "core/evaluator.h"
#include "filter/filter_engine.h"

namespace twigm::filter {

class AnalyzedEngine {
 public:
  struct Options {
    /// DTD summary for satisfiability, level windows and (when
    /// evaluator.enable_early_decisions is on) decision tables; null skips
    /// them all (the rewrite passes still run). Not owned; must outlive
    /// the engine.
    const analysis::DtdStructure* dtd = nullptr;
    /// Forwarded to the inner engine.
    core::EvaluatorOptions evaluator;
  };

  /// What the analysis bought, for reporting/benchmarks.
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
    /// Non-default earliest-decision facts installed into the runtime
    /// (trie kUseless cells + tail-machine table cells); 0 when
    /// enable_early_decisions is kOff or no DTD was given.
    size_t decision_facts = 0;

    size_t queries_pruned() const {
      return queries_unsatisfiable + queries_forwarded;
    }
  };

  /// Analyzes and compiles. `sink` must outlive the engine; not owned.
  /// Fails on the first syntactically-invalid query.
  static Result<std::unique_ptr<AnalyzedEngine>> Create(
      const std::vector<std::string>& queries,
      core::MultiQueryResultSink* sink, const Options& options);
  static Result<std::unique_ptr<AnalyzedEngine>> Create(
      const std::vector<std::string>& queries,
      core::MultiQueryResultSink* sink) {
    return Create(queries, sink, Options());
  }

  AnalyzedEngine(const AnalyzedEngine&) = delete;
  AnalyzedEngine& operator=(const AnalyzedEngine&) = delete;

  /// Consumes one chunk (chunk.last declares end of input).
  Status Consume(const xml::InputChunk& chunk);

  /// Pulls chunks from `source` until it is exhausted or a chunk fails.
  Status Pump(xml::ByteSource* source);

  /// Clears runtime state for a new document (the analysis is reused).
  void Reset();

  /// Number of *original* queries (the outer index space of the sink).
  size_t query_count() const { return analysis_.queries.size(); }
  uint64_t total_results() const { return total_results_; }

  const analysis::QuerySetAnalysis& analysis() const { return analysis_; }
  const AnalysisStats& analysis_stats() const { return stats_; }

  /// The inner runtime actually streaming; null when every query was
  /// pruned.
  const FilterEngine* filter_engine() const { return filter_.get(); }

  /// Exports the analysis accounting (prefix "analysis.") and the inner
  /// engine's runtime counters into `registry` (same contract as
  /// FilterEngine::ExportMetrics).
  void ExportMetrics(obs::MetricsRegistry* registry) const;

 private:
  // Fans one inner (post-analysis) query's results out to its whole
  // equivalence class in the outer index space.
  class RemapSink : public core::MultiQueryResultSink {
   public:
    explicit RemapSink(AnalyzedEngine* owner) : owner_(owner) {}
    void OnResult(size_t query_index, const core::MatchInfo& match) override {
      for (size_t outer : owner_->fanout_[query_index]) {
        ++owner_->total_results_;
        owner_->sink_->OnResult(outer, match);
      }
    }

   private:
    AnalyzedEngine* owner_;
  };

  AnalyzedEngine() = default;

  void InstallFilterBounds(const analysis::DtdStructure& dtd);

  core::MultiQueryResultSink* sink_ = nullptr;
  analysis::QuerySetAnalysis analysis_;
  AnalysisStats stats_;

  // fanout_[inner] = outer query indices sharing inner's results.
  std::vector<std::vector<size_t>> fanout_;
  std::unique_ptr<RemapSink> remap_;
  std::unique_ptr<FilterEngine> filter_;
  uint64_t total_results_ = 0;
};

}  // namespace twigm::filter

#endif  // TWIGM_FILTER_ANALYZED_ENGINE_H_
