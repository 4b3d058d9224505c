// Union queries: `//a/b | //c[d]` — XPath 1.0's top-level `|` operator.
//
// The branches compile into one FilterEngine, so the document is parsed
// once and branches share their common location steps; results are the set
// union: an element matched by several branches is reported exactly once,
// the first time any branch proves it.

#ifndef TWIGM_FILTER_UNION_QUERY_H_
#define TWIGM_FILTER_UNION_QUERY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/evaluator.h"
#include "core/multi_query.h"
#include "core/result_sink.h"
#include "filter/filter_engine.h"

namespace twigm::filter {

/// Splits `query` on top-level '|' into branch texts. A query without '|'
/// yields one branch. Fails on empty branches or lexing errors.
Result<std::vector<std::string>> SplitUnionQuery(std::string_view query);

/// A compiled union query bound to a result sink.
class UnionQueryProcessor {
 public:
  /// Compiles every branch of `query`. Also accepts branch-free queries
  /// (degenerates to a single-query engine plus dedup). `observer` not
  /// owned.
  static Result<std::unique_ptr<UnionQueryProcessor>> Create(
      std::string_view query, core::MatchObserver* observer,
      core::EvaluatorOptions options = core::EvaluatorOptions());

  UnionQueryProcessor(const UnionQueryProcessor&) = delete;
  UnionQueryProcessor& operator=(const UnionQueryProcessor&) = delete;

  /// Consumes one chunk (chunk.last declares end of input).
  Status Consume(const xml::InputChunk& chunk) {
    return engine_->Consume(chunk);
  }

  void Reset();

  size_t branch_count() const { return engine_->query_count(); }

  /// Results emitted so far (after set-union deduplication).
  uint64_t results() const { return dedup_.results; }

 private:
  // Drops ids already reported by another branch. Pre-order ids are dense,
  // so an epoch-stamped array indexed by id marks them: emitted iff the
  // stamp equals the current epoch, cleared by bumping the epoch.
  struct DedupSink : core::MultiQueryResultSink {
    void OnResult(size_t query_index, const core::MatchInfo& match) override;
    core::MatchObserver* out = nullptr;
    std::vector<uint32_t> stamp;
    uint32_t epoch = 1;
    uint64_t results = 0;
  };

  UnionQueryProcessor() = default;

  DedupSink dedup_;
  std::unique_ptr<FilterEngine> engine_;
};

}  // namespace twigm::filter

#endif  // TWIGM_FILTER_UNION_QUERY_H_
