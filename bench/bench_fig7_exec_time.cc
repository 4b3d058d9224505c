// Figure 7 (a,b,c): query execution time for all systems on the Book,
// Benchmark (auction) and Protein datasets, over the Figure 6 query sets.
//
// Each google-benchmark entry is one (dataset, query, system) cell of the
// figure; unsupported combinations are skipped with an explanatory message,
// mirroring the paper's missing bars ("Systems that are not shown in the
// legend do not support this query"). A Figure 6 query listing is printed
// at startup.
//
// Expected shape (paper, section 5.2): LazyDFA (XMLTK) fastest on the
// linear queries Q1–Q4; TwigM fastest elsewhere and stable everywhere;
// NaiveEnum (XSQ) and DomEval (Galax) degrade — dramatically so on the
// recursive Book data where candidates have multiple pattern matches.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "data/datasets.h"
#include "obs/instrumentation.h"

namespace twigm::bench {
namespace {

struct DatasetRef {
  const char* name;
  const std::string& (*get)();
  const std::vector<data::QuerySpec>& (*queries)();
};

const DatasetRef kDatasets[] = {
    {"Book", &BookDataset, &data::BookQueries},
    {"Benchmark", &AuctionDataset, &data::AuctionQueries},
    {"Protein", &ProteinDataset, &data::ProteinQueries},
};

constexpr System kSystems[] = {System::kTwigM, System::kLazyDfa,
                               System::kNaiveEnum, System::kDomEval};

void RunCell(benchmark::State& state, const DatasetRef& dataset,
             const data::QuerySpec& query, System system) {
  const std::string& doc = dataset.get();
  for (auto _ : state) {
    const RunResult result = RunSystem(system, query.text, doc);
    if (!result.status.ok()) {
      state.SkipWithError(result.status.ToString().c_str());
      return;
    }
    state.counters["results"] =
        benchmark::Counter(static_cast<double>(result.results));
    state.counters["state_KB"] = benchmark::Counter(
        static_cast<double>(result.state_bytes) / 1024.0);
    BenchRecord record;
    record.bench = "fig7_exec_time";
    record.params = {{"dataset", dataset.name},
                     {"query", query.name},
                     {"system", SystemName(system)}};
    record.wall_ms = result.seconds * 1e3;
    record.metrics = {
        {"results", static_cast<double>(result.results)},
        {"state_bytes", static_cast<double>(result.state_bytes)},
        {"doc_bytes", static_cast<double>(doc.size())}};
    BenchJson::Get().Add(std::move(record));
  }
  state.counters["MB/s"] = benchmark::Counter(
      static_cast<double>(doc.size()) / 1048576.0,
      benchmark::Counter::kIsIterationInvariantRate);
}

// ---------------------------------------------------------------------------
// Instrumentation overhead. Three variants stream the same Book query:
//   handwired  — parser -> TwigMachine (the parser's one sink) bound to its
//                interner, no processor wrapper (the shape the engine had
//                before the observability layer, on the same symbol
//                dispatch every processor runs);
//   obs_off    — XPathStreamProcessor with instrumentation == nullptr;
//   obs_on     — processor with a live Instrumentation (for reference only).
// Every iteration runs all three, each iteration starting from the next
// variant in turn, and records the three times together, so a host phase
// change lands on all variants alike. scripts/bench_gate.py takes the
// median of the per-iteration obs_off/handwired ratios and fails if the
// null-instrumentation path costs more than 5%.

constexpr char kOverheadQuery[] = "//section[title]//figure";
constexpr int kOverheadIterations = 11;

enum Variant { kHandwired, kObsOff, kObsOn, kVariantCount };
constexpr const char* kVariantNames[] = {"handwired", "obs_off", "obs_on"};

// Streams `doc` once through `variant`; only the Consume calls are timed.
Status TimeVariant(int variant, const xpath::QueryTree& tree,
                   const std::string& doc, double* wall_ms,
                   uint64_t* results) {
  core::CountingResultSink sink;
  auto stream = [&](auto& consumer) {
    Stopwatch sw;
    Status s = consumer.Consume({doc, false});
    if (s.ok()) s = consumer.Consume({std::string_view(), true});
    *wall_ms = sw.ElapsedSeconds() * 1e3;
    *results = sink.count();
    return s;
  };
  if (variant == kHandwired) {
    Result<std::unique_ptr<core::TwigMachine>> machine =
        core::TwigMachine::Create(tree, &sink);
    if (!machine.ok()) return machine.status();
    xml::SaxParser parser(machine.value().get());
    machine.value()->BindInterner(parser.interner());
    return stream(parser);
  }
  obs::Instrumentation instr;
  core::EvaluatorOptions options;
  options.instrumentation = variant == kObsOn ? &instr : nullptr;
  Result<std::unique_ptr<core::XPathStreamProcessor>> proc =
      core::XPathStreamProcessor::Create(kOverheadQuery, &sink, options);
  if (!proc.ok()) return proc.status();
  return stream(*proc.value());
}

void BM_Overhead(benchmark::State& state) {
  const std::string& doc = BookDataset();
  Result<xpath::QueryTree> tree = xpath::QueryTree::Parse(kOverheadQuery);
  if (!tree.ok()) {
    state.SkipWithError(tree.status().ToString().c_str());
    return;
  }
  int first = 0;
  for (auto _ : state) {
    double wall_ms[kVariantCount];
    uint64_t results[kVariantCount];
    for (int k = 0; k < kVariantCount; ++k) {
      const int variant = (first + k) % kVariantCount;
      const Status s = TimeVariant(variant, tree.value(), doc,
                                   &wall_ms[variant], &results[variant]);
      if (!s.ok()) {
        state.SkipWithError(s.ToString().c_str());
        return;
      }
    }
    if (results[kObsOff] != results[kHandwired] ||
        results[kObsOn] != results[kHandwired]) {
      state.SkipWithError("overhead variants disagree on the result count");
      return;
    }
    BenchRecord record;
    record.bench = "fig7_exec_time";
    record.params = {{"group", "overhead"},
                     {"dataset", "Book"},
                     {"first", kVariantNames[first]}};
    record.wall_ms = wall_ms[kObsOff];
    record.metrics = {{"handwired_ms", wall_ms[kHandwired]},
                      {"obs_off_ms", wall_ms[kObsOff]},
                      {"obs_on_ms", wall_ms[kObsOn]},
                      {"results", static_cast<double>(results[kHandwired])},
                      {"doc_bytes", static_cast<double>(doc.size())}};
    BenchJson::Get().Add(std::move(record));
    first = (first + 1) % kVariantCount;
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          kVariantCount * static_cast<int64_t>(doc.size()));
}

void RegisterOverhead() {
  benchmark::RegisterBenchmark("Overhead/Book", BM_Overhead)
      ->Unit(benchmark::kMillisecond)
      ->Iterations(kOverheadIterations);
}

void RegisterAll() {
  for (const DatasetRef& dataset : kDatasets) {
    for (const data::QuerySpec& query : dataset.queries()) {
      for (System system : kSystems) {
        const std::string name = std::string("Fig7/") + dataset.name + "/" +
                                 query.name + "/" + SystemName(system);
        benchmark::RegisterBenchmark(
            name.c_str(),
            [&dataset, &query, system](benchmark::State& state) {
              RunCell(state, dataset, query, system);
            })
            ->Unit(benchmark::kMillisecond)
            ->Iterations(1);
      }
    }
  }
}

void PrintFigure6() {
  std::printf("Figure 6: query sets\n");
  for (const DatasetRef& dataset : kDatasets) {
    for (const data::QuerySpec& query : dataset.queries()) {
      std::printf("  %-10s %-5s %-18s %s\n", dataset.name,
                  query.name.c_str(), query.language.c_str(),
                  query.text.c_str());
    }
  }
  std::printf("\n");
}

}  // namespace
}  // namespace twigm::bench

int main(int argc, char** argv) {
  twigm::bench::BenchJson::Get().StripJsonFlag(&argc, argv);
  twigm::bench::PrintFigure6();
  twigm::bench::RegisterAll();
  twigm::bench::RegisterOverhead();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  twigm::bench::BenchJson::Get().Write();
  benchmark::Shutdown();
  return 0;
}
