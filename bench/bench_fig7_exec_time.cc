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
// Instrumentation-overhead pair. Three variants stream the same Book query:
//   handwired  — parser -> driver -> TwigMachine bound to the parser's
//                interner, no processor wrapper (the shape the engine had
//                before the observability layer, on the same symbol
//                dispatch every processor runs);
//   obs_off    — XPathStreamProcessor with instrumentation == nullptr;
//   obs_on     — processor with a live Instrumentation (for reference only).
// scripts/check_obs_overhead.py compares obs_off against handwired and fails
// if the null-instrumentation path regresses by more than 5%.

constexpr char kOverheadQuery[] = "//section[title]//figure";

void AddOverheadRecord(const char* variant, double wall_ms, uint64_t results,
                       size_t doc_bytes) {
  BenchRecord record;
  record.bench = "fig7_exec_time";
  record.params = {
      {"group", "overhead"}, {"dataset", "Book"}, {"variant", variant}};
  record.wall_ms = wall_ms;
  record.metrics = {{"results", static_cast<double>(results)},
                    {"doc_bytes", static_cast<double>(doc_bytes)}};
  BenchJson::Get().Add(std::move(record));
}

void BM_OverheadHandwired(benchmark::State& state) {
  const std::string& doc = BookDataset();
  Result<xpath::QueryTree> tree = xpath::QueryTree::Parse(kOverheadQuery);
  if (!tree.ok()) {
    state.SkipWithError(tree.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    core::CountingResultSink sink;
    Result<std::unique_ptr<core::TwigMachine>> machine =
        core::TwigMachine::Create(tree.value(), &sink);
    if (!machine.ok()) {
      state.SkipWithError(machine.status().ToString().c_str());
      return;
    }
    xml::EventDriver driver(machine.value().get());
    xml::SaxParser parser(&driver);
    machine.value()->BindInterner(parser.interner());
    Stopwatch sw;
    Status s = parser.Consume({doc, false});
    if (s.ok()) s = parser.Consume({std::string_view(), true});
    const double wall_ms = sw.ElapsedSeconds() * 1e3;
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
    AddOverheadRecord("handwired", wall_ms, sink.count(), doc.size());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(doc.size()));
}

void BM_OverheadProcessor(benchmark::State& state, bool instrumented) {
  const std::string& doc = BookDataset();
  for (auto _ : state) {
    core::CountingResultSink sink;
    obs::Instrumentation instr;
    core::EvaluatorOptions options;
    options.engine = core::EngineKind::kTwigM;
    options.instrumentation = instrumented ? &instr : nullptr;
    Result<std::unique_ptr<core::XPathStreamProcessor>> proc =
        core::XPathStreamProcessor::Create(kOverheadQuery, &sink, options);
    if (!proc.ok()) {
      state.SkipWithError(proc.status().ToString().c_str());
      return;
    }
    Stopwatch sw;
    Status s = proc.value()->Consume({doc, false});
    if (s.ok()) s = proc.value()->Consume({std::string_view(), true});
    const double wall_ms = sw.ElapsedSeconds() * 1e3;
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
    AddOverheadRecord(instrumented ? "obs_on" : "obs_off", wall_ms,
                      sink.count(), doc.size());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(doc.size()));
}

void RegisterOverheadPair() {
  benchmark::RegisterBenchmark("Overhead/handwired", BM_OverheadHandwired)
      ->Unit(benchmark::kMillisecond)
      ->Iterations(5);
  benchmark::RegisterBenchmark(
      "Overhead/obs_off",
      [](benchmark::State& state) { BM_OverheadProcessor(state, false); })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(5);
  benchmark::RegisterBenchmark(
      "Overhead/obs_on",
      [](benchmark::State& state) { BM_OverheadProcessor(state, true); })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(5);
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
  twigm::bench::RegisterOverheadPair();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  twigm::bench::BenchJson::Get().Write();
  benchmark::Shutdown();
  return 0;
}
