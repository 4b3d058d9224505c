// index_book: writes beside reads. Set-up ingests the Book corpus
// (IndexBuilder::Consume, Serialize, IndexReader::OpenBytes per document);
// one operation then runs the ten Book queries (IndexedEvaluator Create +
// Evaluate) over one stored document. No parsing happens in the timed loop.
#include <map>

#include "core/evaluator.h"
#include "data/datasets.h"
#include "index/index_builder.h"
#include "index/index_reader.h"
#include "index/indexed_evaluator.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using twigm::Result;
using twigm::Status;
namespace core = twigm::core;
namespace index = twigm::index;

constexpr int kDocuments = 64;  // the first 64 of stream_book's corpus
constexpr int kLayerRounds = 3;

class IndexBook : public Workload {
 public:
  const char* name() const override { return "index_book"; }

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
    // Reference counts from the streaming processors.
    expected_.assign(docs_.size(), std::vector<uint64_t>(queries_.size()));
    for (size_t q = 0; q < queries_.size(); ++q) {
      core::CountingResultSink sink;
      auto proc = core::XPathStreamProcessor::Create(queries_[q], &sink);
      if (!proc.ok()) return proc.status();
      for (size_t d = 0; d < docs_.size(); ++d) {
        const uint64_t before = sink.count();
        proc.value()->Reset();
        TWIGM_RETURN_IF_ERROR(proc.value()->Consume({docs_[d], true}));
        expected_[d][q] = sink.count() - before;
      }
    }
    return Status::Ok();
  }

  Status SetUp(Tracer* tracer) override {
    readers_.clear();
    image_bytes_ = 0;
    for (size_t d = 0; d < docs_.size(); ++d) {
      index::IndexBuilder builder;
      {
        ScopedSpan span(tracer, "index.build", d);
        for (std::string_view chunk : chunks_[d]) {
          TWIGM_RETURN_IF_ERROR(builder.Consume({chunk, false}));
        }
        TWIGM_RETURN_IF_ERROR(builder.Consume({{}, true}));
      }
      std::string image;
      {
        ScopedSpan span(tracer, "index.serialize", d);
        TWIGM_RETURN_IF_ERROR(builder.Serialize(&image));
      }
      image_bytes_ += image.size();
      ScopedSpan span(tracer, "index.open", d);
      auto reader = index::IndexReader::OpenBytes(std::move(image));
      if (!reader.ok()) return reader.status();
      readers_.push_back(std::move(reader).value());
    }
    return Status::Ok();
  }

  int SetUpRepeats() const override { return 1; }

  size_t CycleLength() const override { return docs_.size(); }

  size_t Rounds() const override { return 15; }

  OpOutcome RunOp(size_t i, Tracer* tracer) override {
    const size_t d = i % docs_.size();
    ScopedSpan span(tracer, "op", i);
    bool ok = true;
    for (size_t q = 0; q < queries_.size(); ++q) {
      Result<uint64_t> n = Query(d, q, tracer, i, nullptr);
      ok = ok && n.ok() && n.value() == expected_[d][q];
    }
    return OpOutcome{docs_[d].size(), ok};
  }

  std::vector<std::string_view> Documents() const override {
    return std::vector<std::string_view>(docs_.begin(), docs_.end());
  }

  Status MeasureLayers(Tracer* tracer, Report* out) override {
    const size_t first_span = tracer->size();
    for (int r = 0; r < kLayerRounds; ++r) {
      TWIGM_RETURN_IF_ERROR(SetUp(tracer));
    }
    double doc_bytes = 0;
    for (const std::string& doc : docs_) {
      doc_bytes += static_cast<double>(doc.size());
    }
    const size_t nd = docs_.size();
    const size_t nq = queries_.size();
    std::vector<uint64_t> touched(nd * nq, 0);
    double postings = 0, results = 0;
    for (int r = 0; r < kLayerRounds; ++r) {
      for (size_t d = 0; d < nd; ++d) {
        for (size_t q = 0; q < nq; ++q) {
          index::IndexedEvaluator::Stats stats;
          Result<uint64_t> n = Query(d, q, tracer, d, &stats);
          if (!n.ok()) return n.status();
          if (n.value() != expected_[d][q]) {
            out->Fail("index: result count differs from reference");
          }
          uint64_t& first = touched[d * nq + q];
          if (r == 0) {
            first = stats.postings_touched;
            postings += static_cast<double>(stats.postings_touched);
            results += static_cast<double>(stats.results);
          } else if (stats.postings_touched != first) {
            out->Fail("index: postings touched differ between rounds");
          }
        }
      }
    }
    std::map<std::string, double> spans = tracer->SelfNs(first_span);
    const double docs_built = static_cast<double>(nd) * kLayerRounds;
    const double queries = static_cast<double>(nd * nq) * kLayerRounds;
    out->Add("index.build_mb_s",
             doc_bytes * kLayerRounds / spans["index.build"] * 1e3,
             "MB/s");
    out->Add("index.serialize_ms_per_doc",
             spans["index.serialize"] / docs_built / 1e6, "ms");
    out->Add("index.open_ms_per_doc",
             spans["index.open"] / docs_built / 1e6, "ms");
    out->Add("index.image_bytes_per_doc_byte",
             static_cast<double>(image_bytes_) / doc_bytes, "ratio");
    out->Add("index.plan_us_per_query",
             spans["index.create"] / queries / 1e3, "us");
    out->Add("index.join_us_per_query",
             spans["index.evaluate"] / queries / 1e3, "us");
    out->Add("index.postings_touched_per_query",
             postings / static_cast<double>(nd * nq), "count");
    out->Add("index.results_per_posting", results / postings, "ratio");
    return Status::Ok();
  }

 private:
  // Plans and evaluates query `q` over stored document `d`.
  Result<uint64_t> Query(size_t d, size_t q, Tracer* tracer, uint64_t op,
                         index::IndexedEvaluator::Stats* stats) {
    std::unique_ptr<index::IndexedEvaluator> evaluator;
    {
      ScopedSpan span(tracer, "index.create", op);
      auto made = index::IndexedEvaluator::Create(queries_[q],
                                                  readers_[d].get());
      if (!made.ok()) return made.status();
      evaluator = std::move(made).value();
    }
    core::CountingResultSink sink;
    {
      ScopedSpan span(tracer, "index.evaluate", op);
      TWIGM_RETURN_IF_ERROR(evaluator->Evaluate(&sink));
    }
    if (stats != nullptr) *stats = evaluator->stats();
    return sink.count();
  }

  std::vector<std::string> docs_;
  std::vector<std::vector<std::string_view>> chunks_;
  std::vector<std::string> queries_;
  std::vector<std::vector<uint64_t>> expected_;  // [doc][query]
  std::vector<std::unique_ptr<index::IndexReader>> readers_;
  uint64_t image_bytes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeIndexBook() {
  return std::make_unique<IndexBook>();
}

}  // namespace perfbench
