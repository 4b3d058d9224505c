// Indexed vs streaming execution on the Figure 7 corpora: builds a
// persistent structural index once per dataset (cold ingest: parse + label
// + serialize + mmap reload), then compares warm indexed re-query against
// re-streaming the document for every query.
//
// The interesting regime is *stored* corpora queried repeatedly: streaming
// pays the full parse on every query, the index pays it once at build time
// and afterwards touches only the relevant postings. scripts/bench_gate.py
// requires the warm indexed re-query to beat re-streaming by >= 10x on the
// Book corpus predicate queries Q5-Q10, with identical match counts.
//
// Protocol per query: one warm-up Evaluate (scratch vectors reach
// capacity), then 5 rounds of one full TwigM re-streaming run (create +
// parse + emit, the steady cost of answering the query without an index)
// followed by one timed warm Evaluate, so both halves of a round see the
// same host phase. The record holds the median times and, as `speedup`,
// the median of the per-round ratios. Run with `--json BENCH_indexed.json`
// for machine-readable records.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "core/result_sink.h"
#include "index/index_builder.h"
#include "index/index_reader.h"
#include "index/indexed_evaluator.h"

namespace twigm::bench {
namespace {

constexpr int kRounds = 5;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

struct BuiltIndex {
  std::unique_ptr<index::IndexReader> reader;
  double build_seconds = 0;
  uint64_t index_bytes = 0;
};

// Cold ingest: one chunked pass over the document into the builder plus
// serialization — everything between "file on disk" and "queryable index".
BuiltIndex BuildIndex(const std::string& doc) {
  BuiltIndex built;
  Stopwatch sw;
  index::IndexBuilder builder;
  constexpr size_t kChunk = 1 << 16;
  for (size_t pos = 0; pos < doc.size(); pos += kChunk) {
    const size_t len = std::min(kChunk, doc.size() - pos);
    Status s = builder.Consume({std::string_view(doc).substr(pos, len), false});
    if (!s.ok()) {
      std::fprintf(stderr, "FATAL: %s\n", s.ToString().c_str());
      return built;
    }
  }
  if (!builder.Consume({std::string_view(), true}).ok()) return built;
  std::string image;
  if (!builder.Serialize(&image).ok()) return built;
  built.build_seconds = sw.ElapsedSeconds();
  built.index_bytes = image.size();
  Result<std::unique_ptr<index::IndexReader>> reader =
      index::IndexReader::OpenBytes(std::move(image));
  if (!reader.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", reader.status().ToString().c_str());
    return built;
  }
  built.reader = std::move(reader).value();
  return built;
}

struct QueryCell {
  bool ok = false;
  double indexed_ms = 0;
  double stream_ms = 0;
  double speedup = 0;  // median of the per-round stream/indexed ratios
  uint64_t indexed_results = 0;
  uint64_t stream_results = 0;
  uint64_t postings_touched = 0;
  uint64_t join_steps = 0;
};

QueryCell MeasureQuery(const index::IndexReader& reader,
                       const std::string& query, const std::string& doc) {
  QueryCell cell;
  Result<std::unique_ptr<index::IndexedEvaluator>> eval =
      index::IndexedEvaluator::Create(query, &reader);
  if (!eval.ok()) return cell;

  core::CountingResultSink warmup;
  if (!eval.value()->Evaluate(&warmup).ok()) return cell;
  std::vector<double> indexed_ms, stream_ms, ratios;
  for (int round = 0; round < kRounds; ++round) {
    const RunResult run = RunSystem(System::kTwigM, query, doc);
    if (!run.status.ok()) return cell;
    cell.stream_results = run.results;
    core::CountingResultSink sink;
    Stopwatch sw;
    if (!eval.value()->Evaluate(&sink).ok()) return cell;
    const double seconds = sw.ElapsedSeconds();
    cell.indexed_results = sink.count();
    indexed_ms.push_back(seconds * 1e3);
    stream_ms.push_back(run.seconds * 1e3);
    ratios.push_back(seconds > 0 ? run.seconds / seconds : 0);
  }
  cell.indexed_ms = Median(indexed_ms);
  cell.stream_ms = Median(stream_ms);
  cell.speedup = Median(ratios);
  cell.postings_touched = eval.value()->stats().postings_touched;
  cell.join_steps = eval.value()->stats().join_steps;
  cell.ok = true;
  return cell;
}

int Main() {
  struct DatasetRef {
    const char* name;
    const std::string& (*get)();
    const std::vector<data::QuerySpec>& (*queries)();
    int first_query;  // 0-based index into queries()
  };
  // Book runs the gated predicate set Q5-Q10; the other corpora run their
  // predicate queries too (recorded, gated only for count equality).
  const DatasetRef datasets[] = {
      {"Book", &BookDataset, &data::BookQueries, 4},
      {"Benchmark", &AuctionDataset, &data::AuctionQueries, 3},
      {"Protein", &ProteinDataset, &data::ProteinQueries, 4},
  };

  for (const DatasetRef& dataset : datasets) {
    const std::string& doc = dataset.get();
    const BuiltIndex built = BuildIndex(doc);
    if (built.reader == nullptr) return 1;
    const double build_gb_per_sec =
        built.build_seconds > 0 ? doc.size() / built.build_seconds / 1e9 : 0;
    std::printf(
        "%s: %zu bytes, index %llu bytes (%.2fx), built in %.3fs "
        "(%.3f GB/s)\n",
        dataset.name, doc.size(),
        static_cast<unsigned long long>(built.index_bytes),
        static_cast<double>(built.index_bytes) / doc.size(),
        built.build_seconds, build_gb_per_sec);

    BenchRecord build_record;
    build_record.bench = "indexed_build";
    build_record.params = {{"dataset", dataset.name}};
    build_record.wall_ms = built.build_seconds * 1e3;
    build_record.metrics = {
        {"document_bytes", static_cast<double>(doc.size())},
        {"index_bytes", static_cast<double>(built.index_bytes)},
        {"build_gb_per_sec", build_gb_per_sec},
    };
    BenchJson::Get().Add(std::move(build_record));

    std::printf("%-6s %12s %12s %9s %10s\n", "query", "indexed ms",
                "stream ms", "speedup", "results");
    const std::vector<data::QuerySpec>& queries = dataset.queries();
    for (size_t qi = static_cast<size_t>(dataset.first_query);
         qi < queries.size(); ++qi) {
      const data::QuerySpec& spec = queries[qi];
      const QueryCell cell = MeasureQuery(*built.reader, spec.text, doc);
      if (!cell.ok) {
        std::printf("%-6s (skipped: unsupported)\n", spec.name.c_str());
        continue;
      }
      std::printf("%-6s %12.4f %12.4f %8.1fx %10llu  (%llu postings, %llu steps)\n",
                  spec.name.c_str(), cell.indexed_ms, cell.stream_ms,
                  cell.speedup,
                  static_cast<unsigned long long>(cell.indexed_results),
                  static_cast<unsigned long long>(cell.postings_touched),
                  static_cast<unsigned long long>(cell.join_steps));
      if (cell.indexed_results != cell.stream_results) {
        std::fprintf(
            stderr, "FATAL: %s/%s match count mismatch (%llu vs %llu)\n",
            dataset.name, spec.name.c_str(),
            static_cast<unsigned long long>(cell.indexed_results),
            static_cast<unsigned long long>(cell.stream_results));
        return 1;
      }

      BenchRecord record;
      record.bench = "indexed_vs_stream";
      record.params = {{"dataset", dataset.name}, {"query", spec.name}};
      record.wall_ms = cell.indexed_ms;
      record.metrics = {
          {"indexed_ms", cell.indexed_ms},
          {"stream_ms", cell.stream_ms},
          {"speedup", cell.speedup},
          {"results_indexed", static_cast<double>(cell.indexed_results)},
          {"results_stream", static_cast<double>(cell.stream_results)},
          {"postings_touched", static_cast<double>(cell.postings_touched)},
          {"join_steps", static_cast<double>(cell.join_steps)},
      };
      BenchJson::Get().Add(std::move(record));
    }
  }
  return 0;
}

}  // namespace
}  // namespace twigm::bench

int main(int argc, char** argv) {
  twigm::bench::BenchJson::Get().StripJsonFlag(&argc, argv);
  const int rc = twigm::bench::Main();
  twigm::bench::BenchJson::Get().Write();
  return rc;
}
