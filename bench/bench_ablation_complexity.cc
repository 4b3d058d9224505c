// Complexity sanity checks for Theorem 4.4, O((|Q| + R·B)·|Q|·|D|), plus
// microbenchmarks of the library's hot kernels:
//   * time vs. document depth R (fixed |D|): deep-recursion documents;
//   * time vs. query size |Q| (fixed document);
//   * SAX parsing throughput (the |D| factor's constant);
//   * candidate-set union (the B factor's constant).

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/twig_machine.h"
#include "xml/sax_event.h"
#include "xml/sax_parser.h"

namespace twigm::bench {
namespace {

// A document of `total` elements arranged as chains of depth `depth`
// hanging under a root: |D| constant, R varies.
std::string DepthControlledDoc(int total, int depth) {
  std::string doc = "<r>";
  int emitted = 0;
  while (emitted < total) {
    const int chain = std::min(depth, total - emitted);
    for (int i = 0; i < chain; ++i) doc += "<a>";
    doc += "<c/>";
    for (int i = 0; i < chain; ++i) doc += "</a>";
    emitted += chain + 1;
  }
  doc += "</r>";
  return doc;
}

void BM_TimeVsDepth(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const std::string doc = DepthControlledDoc(40000, depth);
  for (auto _ : state) {
    const RunResult result = RunSystem(System::kTwigM, "//a[c]//c", doc);
    if (!result.status.ok()) {
      state.SkipWithError(result.status.ToString().c_str());
      return;
    }
    state.counters["results"] =
        benchmark::Counter(static_cast<double>(result.results));
  }
}
BENCHMARK(BM_TimeVsDepth)->RangeMultiplier(4)->Range(4, 1024)
    ->Unit(benchmark::kMillisecond);

// Query-size sweep: //a//a//...//a (k steps) over a deep a-chain.
void BM_TimeVsQuerySize(benchmark::State& state) {
  const int steps = static_cast<int>(state.range(0));
  std::string query;
  for (int i = 0; i < steps; ++i) query += "//a";
  std::string doc;
  const int depth = 400;
  for (int i = 0; i < depth; ++i) doc += "<a>";
  for (int i = 0; i < depth; ++i) doc += "</a>";
  for (auto _ : state) {
    const RunResult result = RunSystem(System::kTwigM, query, doc);
    if (!result.status.ok()) {
      state.SkipWithError(result.status.ToString().c_str());
      return;
    }
  }
}
BENCHMARK(BM_TimeVsQuerySize)->DenseRange(1, 13, 3)
    ->Unit(benchmark::kMillisecond);

// SAX throughput on the Book dataset (discarding events).
void BM_SaxThroughput(benchmark::State& state) {
  const std::string& doc = BookDataset();
  xml::StreamEventSink null_sink;
  for (auto _ : state) {
    xml::SaxParser parser(&null_sink);
    if (!parser.ParseAll(doc).ok()) {
      state.SkipWithError("parse failed");
      return;
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(doc.size()));
}
BENCHMARK(BM_SaxThroughput)->Unit(benchmark::kMillisecond);

// Candidate-set union kernel.
void BM_UnionSortedIds(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<xml::NodeId> interleaved_a;
  std::vector<xml::NodeId> interleaved_b;
  for (size_t i = 0; i < n; ++i) {
    interleaved_a.push_back(2 * i);
    interleaved_b.push_back(2 * i + 1);
  }
  for (auto _ : state) {
    std::vector<xml::NodeId> dst = interleaved_a;
    benchmark::DoNotOptimize(
        core::UnionSortedIds(interleaved_b, &dst));
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * n));
}
BENCHMARK(BM_UnionSortedIds)->Range(64, 65536);

// Append-only fast path of the union (the common case in document order).
void BM_UnionSortedIdsFastPath(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<xml::NodeId> low;
  std::vector<xml::NodeId> high;
  for (size_t i = 0; i < n; ++i) {
    low.push_back(i);
    high.push_back(n + i);
  }
  for (auto _ : state) {
    std::vector<xml::NodeId> dst = low;
    benchmark::DoNotOptimize(core::UnionSortedIds(high, &dst));
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * n));
}
BENCHMARK(BM_UnionSortedIdsFastPath)->Range(64, 65536);

}  // namespace
}  // namespace twigm::bench

BENCHMARK_MAIN();
