// stream_book: the paper's scenario. One operation feeds one Book document,
// chunked, through Consume to a standing XPathStreamProcessor (kAuto) for
// one Fig. 6 query; operations cycle through Q1-Q10 and the corpus. Parsing
// is most of each operation; TwigM adds to it on Q5-Q10.
#include <algorithm>

#include "baselines/dom_eval.h"
#include "core/evaluator.h"
#include "data/datasets.h"
#include "perfbench.h"
#include "xml/dom.h"
#include "xpath/query_tree.h"

namespace perfbench {
namespace {

using twigm::Result;
using twigm::Status;
namespace core = twigm::core;

constexpr int kDocuments = 128;  // a round of 1280 operations covers each
                                 // (document, query) pair once
constexpr int kLayerRounds = 5;
constexpr size_t kLinearQueries = 4;   // Q1-Q4: XP{/,//,*}, PathM under kAuto

struct Standing {
  core::CountingResultSink sink;
  std::unique_ptr<core::XPathStreamProcessor> proc;
};

Result<std::unique_ptr<Standing>> MakeStanding(const std::string& query,
                                               core::EngineKind engine) {
  auto s = std::make_unique<Standing>();
  core::EvaluatorOptions options;
  options.engine = engine;
  auto proc = core::XPathStreamProcessor::Create(query, &s->sink, options);
  if (!proc.ok()) return proc.status();
  s->proc = std::move(proc).value();
  return s;
}

// Feeds one document and returns its result count (or the failing Status).
Result<uint64_t> Feed(Standing* s, const std::vector<std::string_view>& chunks,
                      Tracer* tracer, uint64_t op) {
  const uint64_t before = s->sink.count();
  s->proc->Reset();
  for (std::string_view chunk : chunks) {
    ScopedSpan span(tracer, "core.consume", op);
    TWIGM_RETURN_IF_ERROR(s->proc->Consume({chunk, false}));
  }
  {
    ScopedSpan span(tracer, "core.consume", op);
    TWIGM_RETURN_IF_ERROR(s->proc->Consume({{}, true}));
  }
  return s->sink.count() - before;
}

class StreamBook : public Workload {
 public:
  const char* name() const override { return "stream_book"; }

  Status Prepare(uint64_t seed) override {
    Result<std::vector<std::string>> docs =
        GenerateBookCorpus(seed, kDocuments);
    if (!docs.ok()) return docs.status();
    docs_ = std::move(docs).value();
    queries_.clear();
    for (const twigm::data::QuerySpec& q : twigm::data::BookQueries()) {
      queries_.push_back(q.text);
    }
    chunks_.clear();
    for (const std::string& doc : docs_) chunks_.push_back(SplitChunks(doc));
    // Reference counts from the DOM oracle, one DOM per document.
    std::vector<twigm::xpath::QueryTree> trees;
    for (const std::string& q : queries_) {
      auto tree = twigm::xpath::QueryTree::Parse(q);
      if (!tree.ok()) return tree.status();
      trees.push_back(std::move(tree).value());
    }
    expected_.assign(docs_.size(), std::vector<uint64_t>(queries_.size()));
    for (size_t d = 0; d < docs_.size(); ++d) {
      auto dom = twigm::xml::DomDocument::Parse(docs_[d]);
      if (!dom.ok()) return dom.status();
      for (size_t q = 0; q < trees.size(); ++q) {
        auto ids = twigm::baselines::EvaluateOnDom(trees[q], dom.value());
        if (!ids.ok()) return ids.status();
        expected_[d][q] = ids.value().size();
      }
    }
    return Status::Ok();
  }

  Status SetUp(Tracer* tracer) override {
    ScopedSpan span(tracer, "core.create", 0);
    standing_.clear();
    for (const std::string& q : queries_) {
      auto s = MakeStanding(q, core::EngineKind::kAuto);
      if (!s.ok()) return s.status();
      standing_.push_back(std::move(s).value());
    }
    return Status::Ok();
  }

  int SetUpRepeats() const override { return 1000; }

  size_t CycleLength() const override {
    return docs_.size() * queries_.size();
  }

  size_t Rounds() const override { return 18; }

  OpOutcome RunOp(size_t i, Tracer* tracer) override {
    const size_t q = i % queries_.size();
    const size_t d = (i / queries_.size()) % docs_.size();
    ScopedSpan span(tracer, "op", i);
    Result<uint64_t> n = Feed(standing_[q].get(), chunks_[d], tracer, i);
    return OpOutcome{docs_[d].size(), n.ok() && n.value() == expected_[d][q]};
  }

  std::vector<std::string_view> Documents() const override {
    return std::vector<std::string_view>(docs_.begin(), docs_.end());
  }

  // core layer: every query processor minus the dispatch prefix over the
  // same bytes, split into PathM-class (Q1-Q4) and TwigM-class (Q5-Q10)
  // queries, plus Q1-Q4 forced onto TwigM. The prefix is timed right before
  // the processors on each document, so a slow phase of the host hits both
  // sides of the subtraction alike.
  Status MeasureLayers(Tracer*, Report* out) override {
    std::vector<std::unique_ptr<Standing>> forced;
    for (size_t q = 0; q < kLinearQueries; ++q) {
      auto s = MakeStanding(queries_[q], core::EngineKind::kTwigM);
      if (!s.ok()) return s.status();
      forced.push_back(std::move(s).value());
    }
    const size_t nq = queries_.size();
    const size_t nd = docs_.size();
    XmlPrefixTimer prefix;
    std::vector<std::vector<double>> dispatch(nd);
    std::vector<uint64_t> elements(nd);
    // times[d][k]: k < nq the kAuto processors, then the forced ones.
    std::vector<std::vector<std::vector<double>>> times(
        nd, std::vector<std::vector<double>>(nq + kLinearQueries));
    double results = 0;
    uint64_t peak_state = 0;
    for (int r = 0; r < kLayerRounds; ++r) {
      for (size_t d = 0; d < nd; ++d) {
        Result<double> dp = prefix.DispatchNs(docs_[d], &elements[d]);
        if (!dp.ok()) return dp.status();
        dispatch[d].push_back(dp.value());
        for (size_t k = 0; k < nq + kLinearQueries; ++k) {
          Standing* s = k < nq ? standing_[k].get() : forced[k - nq].get();
          const size_t q = k < nq ? k : k - nq;
          const int64_t t0 = NowNs();
          Result<uint64_t> n = Feed(s, chunks_[d], nullptr, 0);
          times[d][k].push_back(static_cast<double>(NowNs() - t0));
          if (!n.ok()) return n.status();
          if (n.value() != expected_[d][q]) {
            out->Fail("core.results_per_op: count differs from reference");
          }
          if (r == 0 && k < nq) results += static_cast<double>(n.value());
          peak_state = std::max(peak_state, s->proc->stats().peak_state_bytes);
        }
      }
    }
    double dispatch_ns = 0, total_elements = 0;
    for (size_t d = 0; d < nd; ++d) {
      dispatch_ns += Min(dispatch[d]);
      total_elements += static_cast<double>(elements[d]);
    }
    auto self_ns = [&](size_t from, size_t to) {
      double sum = 0;
      for (size_t d = 0; d < nd; ++d) {
        for (size_t k = from; k < to; ++k) sum += Min(times[d][k]);
      }
      const double n = static_cast<double>(to - from);
      return (sum - n * dispatch_ns) / (n * total_elements);
    };
    out->Add("core.pathm_self_ns_per_element", self_ns(0, kLinearQueries),
             "ns");
    out->Add("core.twigm_self_ns_per_element", self_ns(kLinearQueries, nq),
             "ns");
    out->Add("core.twigm_linear_self_ns_per_element",
             self_ns(nq, nq + kLinearQueries), "ns");
    out->Add("core.results_per_op",
             results / static_cast<double>(nd * nq), "count");
    out->Add("core.peak_state_bytes", static_cast<double>(peak_state),
             "bytes");
    return Status::Ok();
  }

 private:
  std::vector<std::string> docs_;
  std::vector<std::vector<std::string_view>> chunks_;
  std::vector<std::string> queries_;
  std::vector<std::vector<uint64_t>> expected_;  // [doc][query]
  std::vector<std::unique_ptr<Standing>> standing_;
};

}  // namespace

std::unique_ptr<Workload> MakeStreamBook() {
  return std::make_unique<StreamBook>();
}

}  // namespace perfbench
