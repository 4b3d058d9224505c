// Hot-path microbenchmark: events/sec and steady-state allocations per
// event for TwigM over the Figure 7 workloads and for the shared-prefix
// FilterEngine over a synthesized filtering workload.
//
// Protocol per cell: build the processor once, stream the document once to
// reach steady state (pools, interner, and stack capacity warm), then
// Reset() and re-stream — three timed passes (best-of) for events/sec and
// one counted pass for heap allocations, measured through the linked
// alloc hook (src/obs/alloc_hook.h). `scripts/bench_gate.py` gates on
// the resulting BENCH_hotpath.json: steady-state allocations must be 0 on
// every cell, and with parent-commit records given, no cell's median
// events/sec may fall more than 5% below the parent's.
//
// Run with `--json BENCH_hotpath.json` for machine-readable records.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/decision_analysis.h"
#include "analysis/dtd_structure.h"
#include "bench/bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/evaluator.h"
#include "core/multi_query.h"
#include "data/book.h"
#include "data/datasets.h"
#include "dtd/dtd_parser.h"
#include "filter/filter_engine.h"
#include "obs/alloc_hook.h"
#include "xml/sax_event.h"
#include "xml/sax_parser.h"

namespace twigm::bench {
namespace {

constexpr int kTimedPasses = 3;

struct CellResult {
  double best_seconds = 0;
  uint64_t events = 0;        // startElement + endElement per pass
  uint64_t results = 0;       // per pass
  uint64_t steady_allocs = 0; // operator-new calls during the counted pass

  double events_per_sec() const {
    return best_seconds > 0 ? static_cast<double>(events) / best_seconds : 0;
  }
  double allocs_per_event() const {
    return events > 0
               ? static_cast<double>(steady_allocs) / static_cast<double>(events)
               : 0;
  }
};

// Counts modified-SAX events of a document (for engines whose stats do not
// expose event totals). Cached per dataset by the callers.
uint64_t CountDocumentEvents(const std::string& doc) {
  class Counter : public xml::StreamEventSink {
   public:
    void StartElement(const xml::TagToken&, int, xml::NodeId,
                      const std::vector<xml::Attribute>&) override {
      ++events;
    }
    void EndElement(const xml::TagToken&, int) override { ++events; }
    void Text(std::string_view, int) override {}
    void EndDocument() override {}
    uint64_t events = 0;
  };
  Counter counter;
  xml::EventDriver driver(&counter);
  xml::SaxParser parser(&driver);
  Status s = parser.Consume({doc, false});
  if (s.ok()) s = parser.Consume({std::string_view(), true});
  if (!s.ok()) {
    std::fprintf(stderr, "event count parse failed: %s\n",
                 s.ToString().c_str());
    std::exit(1);
  }
  return counter.events;
}

void AddRecord(const char* group, const char* dataset,
               const std::string& workload, const CellResult& cell) {
  BenchRecord record;
  record.bench = "hotpath";
  record.params = {
      {"group", group}, {"dataset", dataset}, {"workload", workload}};
  record.wall_ms = cell.best_seconds * 1e3;
  record.metrics = {
      {"events", static_cast<double>(cell.events)},
      {"events_per_sec", cell.events_per_sec()},
      {"results", static_cast<double>(cell.results)},
      {"steady_allocs", static_cast<double>(cell.steady_allocs)},
      {"allocs_per_event", cell.allocs_per_event()}};
  BenchJson::Get().Add(std::move(record));
}

void PrintCell(const char* group, const char* dataset,
               const std::string& workload, const CellResult& cell) {
  std::printf("%-7s %-9s %-28s %9.2f ms  %12.0f ev/s  %6llu allocs\n", group,
              dataset, workload.c_str(), cell.best_seconds * 1e3,
              cell.events_per_sec(),
              static_cast<unsigned long long>(cell.steady_allocs));
}

// ---------------------------------------------------------------------------
// TwigM over the Figure 7 (dataset, query) cells.

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

bool RunTwigCell(const DatasetRef& dataset, const data::QuerySpec& query,
                 CellResult* out) {
  const std::string& doc = dataset.get();
  core::CountingResultSink sink;
  Result<std::unique_ptr<core::XPathStreamProcessor>> proc =
      core::XPathStreamProcessor::Create(query.text, &sink);
  if (!proc.ok()) {
    std::fprintf(stderr, "skip %s/%s: %s\n", dataset.name, query.name.c_str(),
                 proc.status().ToString().c_str());
    return false;
  }
  core::XPathStreamProcessor& p = *proc.value();

  auto stream_once = [&]() -> Status {
    Status s = p.Consume({doc, false});
    if (s.ok()) s = p.Consume({std::string_view(), true});
    return s;
  };

  // Warm pass: grows pools/stacks/interner to their steady-state footprint.
  Status s = stream_once();
  for (int i = 0; s.ok() && i < kTimedPasses; ++i) {
    p.Reset();
    Stopwatch sw;
    s = stream_once();
    const double seconds = sw.ElapsedSeconds();
    if (out->best_seconds == 0 || seconds < out->best_seconds) {
      out->best_seconds = seconds;
    }
  }
  if (s.ok()) {
    p.Reset();
    const uint64_t before = obs::AllocHookNewCalls();
    s = stream_once();
    out->steady_allocs = obs::AllocHookNewCalls() - before;
  }
  if (!s.ok()) {
    std::fprintf(stderr, "run %s/%s failed: %s\n", dataset.name,
                 query.name.c_str(), s.ToString().c_str());
    return false;
  }
  out->events = p.stats().start_events + p.stats().end_events;
  out->results = p.stats().results;
  return true;
}

// ---------------------------------------------------------------------------
// Earliest-query-answering cells: TwigM over the predicate-heavy Book
// queries in each EarlyDecisionMode, with decision tables compiled from the
// Book DTD. Reports the emission-gap counters alongside throughput so
// scripts/bench_gate.py can gate the gap reduction and the live candidate
// high-water mark.

struct EarlyStats {
  double gap_mean_bytes = 0;
  uint64_t gap_max_bytes = 0;
  uint64_t early_emitted = 0;
  uint64_t early_dropped = 0;
  uint64_t states_skipped = 0;
  uint64_t peak_candidates = 0;
};

const char* ModeName(core::EarlyDecisionMode mode) {
  switch (mode) {
    case core::EarlyDecisionMode::kOff: return "off";
    case core::EarlyDecisionMode::kObserve: return "observe";
    case core::EarlyDecisionMode::kOn: return "on";
  }
  return "?";
}

bool RunEarlyCell(const analysis::DtdStructure& dtds,
                  core::EarlyDecisionMode mode, const data::QuerySpec& query,
                  const std::string& doc, CellResult* out, EarlyStats* extra) {
  core::CountingResultSink sink;
  core::EvaluatorOptions options;
  options.enable_early_decisions = mode;
  Result<std::unique_ptr<core::XPathStreamProcessor>> proc =
      core::XPathStreamProcessor::Create(query.text, &sink, options);
  if (!proc.ok()) {
    std::fprintf(stderr, "skip early/%s: %s\n", query.name.c_str(),
                 proc.status().ToString().c_str());
    return false;
  }
  core::XPathStreamProcessor& p = *proc.value();
  if (mode != core::EarlyDecisionMode::kOff) {
    analysis::EnableEarlyDecisions(&p, dtds);
  }

  auto stream_once = [&]() -> Status {
    Status s = p.Consume({doc, false});
    if (s.ok()) s = p.Consume({std::string_view(), true});
    return s;
  };

  Status s = stream_once();
  for (int i = 0; s.ok() && i < kTimedPasses; ++i) {
    p.Reset();
    Stopwatch sw;
    s = stream_once();
    const double seconds = sw.ElapsedSeconds();
    if (out->best_seconds == 0 || seconds < out->best_seconds) {
      out->best_seconds = seconds;
    }
  }
  if (s.ok()) {
    p.Reset();
    const uint64_t before = obs::AllocHookNewCalls();
    s = stream_once();
    out->steady_allocs = obs::AllocHookNewCalls() - before;
  }
  if (!s.ok()) {
    std::fprintf(stderr, "run early/%s/%s failed: %s\n", query.name.c_str(),
                 ModeName(mode), s.ToString().c_str());
    return false;
  }
  const core::EngineStats& stats = p.stats();
  out->events = stats.start_events + stats.end_events;
  out->results = stats.results;
  extra->gap_mean_bytes =
      stats.gap_count > 0 ? static_cast<double>(stats.gap_sum_bytes) /
                                static_cast<double>(stats.gap_count)
                          : 0;
  extra->gap_max_bytes = stats.gap_max_bytes;
  extra->early_emitted = stats.early_emitted;
  extra->early_dropped = stats.early_dropped;
  extra->states_skipped = stats.states_skipped;
  extra->peak_candidates = stats.peak_candidates;
  return true;
}

void RunEarlyGroup() {
  const std::string collection_dtd =
      std::string("<!ELEMENT collection (book*)>\n") + data::kBookDtd;
  Result<dtd::Dtd> dtd = dtd::ParseDtd(collection_dtd);
  if (!dtd.ok()) {
    std::fprintf(stderr, "early group: DTD parse failed: %s\n",
                 dtd.status().ToString().c_str());
    return;
  }
  Result<analysis::DtdStructure> dtds =
      analysis::DtdStructure::Build(dtd.value());
  if (!dtds.ok()) {
    std::fprintf(stderr, "early group: DTD summary failed: %s\n",
                 dtds.status().ToString().c_str());
    return;
  }
  const std::string& doc = BookDataset();
  constexpr core::EarlyDecisionMode kModes[] = {
      core::EarlyDecisionMode::kOff, core::EarlyDecisionMode::kObserve,
      core::EarlyDecisionMode::kOn};
  for (const data::QuerySpec& query : data::BookQueries()) {
    if (query.language == "XP{/,//,*}") continue;  // predicate-heavy only
    for (core::EarlyDecisionMode mode : kModes) {
      CellResult cell;
      EarlyStats extra;
      if (!RunEarlyCell(dtds.value(), mode, query, doc, &cell, &extra)) {
        continue;
      }
      const std::string workload = query.name + "/" + ModeName(mode);
      BenchRecord record;
      record.bench = "hotpath";
      record.params = {{"group", "early"},
                       {"dataset", "Book"},
                       {"workload", workload},
                       {"query", query.name},
                       {"mode", ModeName(mode)}};
      record.wall_ms = cell.best_seconds * 1e3;
      record.metrics = {
          {"events", static_cast<double>(cell.events)},
          {"events_per_sec", cell.events_per_sec()},
          {"results", static_cast<double>(cell.results)},
          {"steady_allocs", static_cast<double>(cell.steady_allocs)},
          {"allocs_per_event", cell.allocs_per_event()},
          {"gap_mean_bytes", extra.gap_mean_bytes},
          {"gap_max_bytes", static_cast<double>(extra.gap_max_bytes)},
          {"early_emitted", static_cast<double>(extra.early_emitted)},
          {"early_dropped", static_cast<double>(extra.early_dropped)},
          {"states_skipped", static_cast<double>(extra.states_skipped)},
          {"peak_candidates", static_cast<double>(extra.peak_candidates)}};
      BenchJson::Get().Add(std::move(record));
      PrintCell("early", "Book", workload, cell);
      std::printf(
          "%-7s %-9s %-28s gap mean %8.0f B  max %8llu B  early %llu  "
          "dropped %llu  skipped %llu  peak-cand %llu\n",
          "", "", "", extra.gap_mean_bytes,
          static_cast<unsigned long long>(extra.gap_max_bytes),
          static_cast<unsigned long long>(extra.early_emitted),
          static_cast<unsigned long long>(extra.early_dropped),
          static_cast<unsigned long long>(extra.states_skipped),
          static_cast<unsigned long long>(extra.peak_candidates));
    }
  }
}

// ---------------------------------------------------------------------------
// FilterEngine over a synthesized publish/subscribe workload (same shape as
// bench_filter_scalability's MakeWorkload).

struct FilterVocabulary {
  const char* name;
  std::vector<std::string> tags;
  std::vector<std::string> attrs;
};

std::vector<std::string> MakeFilterWorkload(const FilterVocabulary& vocab,
                                            size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const int steps = 2 + static_cast<int>(rng.Below(3));  // 2..4
    std::string q;
    for (int s = 0; s < steps; ++s) {
      q += (s == 0 || rng.Below(100) < 35) ? "//" : "/";
      if (rng.Below(100) < 8) {
        q += "*";
      } else {
        q += vocab.tags[rng.Below(vocab.tags.size())];
      }
    }
    if (rng.Below(100) >= 75) {
      if (rng.Below(2) == 0) {
        q += "[@" + vocab.attrs[rng.Below(vocab.attrs.size())] + "]";
      } else {
        q += "[" + vocab.tags[rng.Below(vocab.tags.size())] + "]";
      }
    }
    out.push_back(std::move(q));
  }
  return out;
}

bool RunFilterCell(const char* dataset_name, const std::string& doc,
                   const std::vector<std::string>& queries,
                   uint64_t doc_events, CellResult* out) {
  class CountingSink : public core::MultiQueryResultSink {
   public:
    void OnResult(size_t, const core::MatchInfo&) override { ++count; }
    uint64_t count = 0;
  };
  CountingSink sink;
  Result<std::unique_ptr<filter::FilterEngine>> engine =
      filter::FilterEngine::Create(queries, &sink);
  if (!engine.ok()) {
    std::fprintf(stderr, "filter create failed on %s: %s\n", dataset_name,
                 engine.status().ToString().c_str());
    return false;
  }
  filter::FilterEngine& e = *engine.value();

  auto stream_once = [&]() -> Status {
    Status s = e.Consume({doc, false});
    if (s.ok()) s = e.Consume({std::string_view(), true});
    return s;
  };

  Status s = stream_once();
  const uint64_t warm_results = sink.count;
  for (int i = 0; s.ok() && i < kTimedPasses; ++i) {
    e.Reset();
    Stopwatch sw;
    s = stream_once();
    const double seconds = sw.ElapsedSeconds();
    if (out->best_seconds == 0 || seconds < out->best_seconds) {
      out->best_seconds = seconds;
    }
  }
  if (s.ok()) {
    e.Reset();
    const uint64_t before = obs::AllocHookNewCalls();
    s = stream_once();
    out->steady_allocs = obs::AllocHookNewCalls() - before;
  }
  if (!s.ok()) {
    std::fprintf(stderr, "filter run failed on %s: %s\n", dataset_name,
                 s.ToString().c_str());
    return false;
  }
  out->events = doc_events;
  out->results = warm_results;
  return true;
}

int Main() {
  std::printf("bench_hotpath: alloc hook %s\n",
              obs::AllocHookActive() ? "active" : "MISSING");
  std::printf("%-7s %-9s %-28s %12s  %15s  %s\n", "group", "dataset",
              "workload", "best", "throughput", "steady-state");

  for (const DatasetRef& dataset : kDatasets) {
    for (const data::QuerySpec& query : dataset.queries()) {
      CellResult cell;
      if (!RunTwigCell(dataset, query, &cell)) continue;
      AddRecord("twigm", dataset.name, query.name, cell);
      PrintCell("twigm", dataset.name, query.name, cell);
    }
  }

  const FilterVocabulary book_vocab{
      "book",
      {"collection", "book", "title", "author", "section", "p", "figure",
       "image"},
      {"id", "short", "difficulty"}};
  const FilterVocabulary auction_vocab{
      "auction",
      {"site", "regions", "item", "description", "parlist", "listitem",
       "text", "people", "person", "name", "open_auctions", "open_auction",
       "bidder", "increase", "seller", "price", "category"},
      {"id", "category"}};

  struct FilterCell {
    const char* dataset;
    const std::string& (*get)();
    const FilterVocabulary* vocab;
    size_t queries;
  };
  const FilterCell filter_cells[] = {
      {"Book", &BookDataset, &book_vocab, 128},
      {"Benchmark", &AuctionDataset, &auction_vocab, 128},
  };
  for (const FilterCell& fc : filter_cells) {
    const std::string& doc = fc.get();
    const uint64_t doc_events = CountDocumentEvents(doc);
    const std::vector<std::string> queries =
        MakeFilterWorkload(*fc.vocab, fc.queries, /*seed=*/7);
    CellResult cell;
    if (!RunFilterCell(fc.dataset, doc, queries, doc_events, &cell)) continue;
    const std::string workload = "filter" + std::to_string(fc.queries);
    AddRecord("filter", fc.dataset, workload, cell);
    PrintCell("filter", fc.dataset, workload, cell);
  }

  RunEarlyGroup();
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
