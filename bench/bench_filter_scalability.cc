// Filter-engine scalability benchmark: one stream, many queries. Compares
// the shared-prefix FilterEngine (src/filter/) against the product
// construction baseline (baselines::MultiQueryProcessor) as the query set
// grows 16 -> 4096,
// on the Book and Auction datasets. The product's per-event cost is linear
// in the number of queries; the filter's is bounded by the number of
// distinct active location steps, so the gap widens with the set size.
//
// BM_ShardedServe extends the sweep to 1M queries through the multi-core
// subscription service (src/serve/), with the shard count as a second
// dimension (1/2/4/8): the query set is partitioned across shard workers.
// Its aggregate events/sec sums the events routed to each shard, and a
// document's events go to every shard whose queries need them, so that sum
// grows with the shard count even where the wall time for the same
// documents barely moves. Judge shard scaling by wall time at equal query
// counts, on a host with at least as many cores as shards.
//
// Run with `--json BENCH_filter_scalability.json` for machine-readable
// records (wall time, peak RSS, result counts, trie sharing stats; the
// sharded records add aggregate events/sec and per-shard utilization).

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "analysis/dtd_structure.h"
#include "baselines/multi_query_processor.h"
#include "bench/bench_util.h"
#include "common/random.h"
#include "data/book.h"
#include "dtd/dtd_parser.h"
#include "filter/filter_engine.h"
#include "obs/metrics.h"
#include "serve/server.h"

namespace twigm::bench {
namespace {

struct Vocabulary {
  const char* name;
  std::vector<std::string> tags;
  std::vector<std::string> attrs;
};

const Vocabulary& BookVocabulary() {
  static const Vocabulary* kVocab = new Vocabulary{
      "book",
      {"collection", "book", "title", "author", "section", "p", "figure",
       "image"},
      {"id", "short", "difficulty"}};
  return *kVocab;
}

const Vocabulary& AuctionVocabulary() {
  static const Vocabulary* kVocab = new Vocabulary{
      "auction",
      {"site", "regions", "item", "description", "parlist", "listitem",
       "text", "people", "person", "name", "open_auctions", "open_auction",
       "bidder", "increase", "seller", "price", "category"},
      {"id", "category"}};
  return *kVocab;
}

// Synthesizes a filtering workload over the dataset vocabulary: ~75%
// linear queries (the dominant publish/subscribe class), the rest with one
// structural or attribute predicate on the last step. Duplicates and
// shared prefixes arise naturally from the small vocabulary.
std::vector<std::string> MakeWorkload(const Vocabulary& vocab, size_t count,
                                      uint64_t seed) {
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

// Queries the static analyzer can prune on each dataset: provably
// unsatisfiable under the Book DTD, equivalent pairs (branch order), and
// redundant predicate branches. MakeAnalyzableWorkload mixes these in at
// ~25% so the DTD analysis has something to show.
std::vector<std::string> PrunableQueries(int dataset) {
  if (dataset == 0) {
    return {"//section/book",        "//title/author",
            "//figure/p",            "//section[title][title]",
            "//section[figure][p]",  "//section[p][figure]",
            "//book[author][author]"};
  }
  // No DTD for Auction, so the engine runs no analysis and prunes none of
  // these; they keep the workload's shape the same on both datasets.
  return {"//person[name][name]",
          "//open_auction[bidder][seller]",
          "//open_auction[seller][bidder]",
          "//site//item/description",
          "//site//item/description"};
}

// Base workload diluted with ~25% deliberately analyzer-prunable queries.
// Note that on Book the DTD proofs prune far more than that 25%: random
// tag chains over a strict DTD are usually unsatisfiable (e.g.
// //collection/title), which is exactly the publish/subscribe scenario
// where static analysis pays off.
std::vector<std::string> MakeAnalyzableWorkload(const Vocabulary& vocab,
                                                size_t count, uint64_t seed,
                                                int dataset) {
  const std::vector<std::string> prunable = PrunableQueries(dataset);
  std::vector<std::string> out = MakeWorkload(vocab, count - count / 4, seed);
  for (size_t i = 0; i < count / 4; ++i) {
    out.push_back(prunable[i % prunable.size()]);
  }
  return out;
}

// DTD summary for the Book dataset (the generator wraps multiple books in
// a synthetic <collection> root, so declare it too). Null for Auction —
// the repo carries no XMark DTD.
const analysis::DtdStructure* StructureFor(int dataset) {
  if (dataset != 0) return nullptr;
  static const analysis::DtdStructure* kStructure = [] {
    const std::string text =
        std::string("<!ELEMENT collection (book*)>\n") + data::kBookDtd;
    Result<dtd::Dtd> dtd = dtd::ParseDtd(text);
    if (!dtd.ok()) return static_cast<analysis::DtdStructure*>(nullptr);
    Result<analysis::DtdStructure> s =
        analysis::DtdStructure::Build(dtd.value());
    if (!s.ok()) return static_cast<analysis::DtdStructure*>(nullptr);
    return new analysis::DtdStructure(std::move(s).value());
  }();
  return kStructure;
}

const Vocabulary& VocabularyFor(int dataset) {
  return dataset == 0 ? BookVocabulary() : AuctionVocabulary();
}

const std::string& DatasetFor(int dataset) {
  return dataset == 0 ? BookDataset() : AuctionDataset();
}

class CountingSink : public core::MultiQueryResultSink {
 public:
  void OnResult(size_t, const core::MatchInfo&) override { ++count_; }
  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
};

void BM_FilterEngine(benchmark::State& state) {
  const size_t queries = static_cast<size_t>(state.range(0));
  const int dataset = static_cast<int>(state.range(1));
  const std::string& doc = DatasetFor(dataset);
  const std::vector<std::string> query_set =
      MakeWorkload(VocabularyFor(dataset), queries, 2006 + dataset);
  for (auto _ : state) {
    CountingSink sink;
    auto engine = filter::FilterEngine::Create(query_set, &sink);
    if (!engine.ok()) {
      state.SkipWithError(engine.status().ToString().c_str());
      return;
    }
    Stopwatch sw;
    Status s = engine.value()->Consume({doc, false});
    if (s.ok()) s = engine.value()->Consume({std::string_view(), true});
    const double wall_ms = sw.ElapsedSeconds() * 1e3;
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
    const filter::FilterIndexStats& istats = engine.value()->index().stats();
    state.counters["results"] =
        benchmark::Counter(static_cast<double>(sink.count()));
    state.counters["trie_nodes"] =
        benchmark::Counter(static_cast<double>(istats.trie_node_count));
    BenchRecord record;
    record.bench = "filter_scalability";
    record.params = {{"system", "filter"},
                     {"queries", std::to_string(queries)},
                     {"dataset", VocabularyFor(dataset).name}};
    record.wall_ms = wall_ms;
    record.metrics = {
        {"results", static_cast<double>(sink.count())},
        {"trie_node_count", static_cast<double>(istats.trie_node_count)},
        {"total_steps", static_cast<double>(istats.total_steps)},
        {"linear_queries", static_cast<double>(istats.linear_query_count)},
        {"tail_queries", static_cast<double>(istats.tail_query_count)}};
    BenchJson::Get().Add(std::move(record));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(doc.size()));
}

void BM_ProductConstruction(benchmark::State& state) {
  const size_t queries = static_cast<size_t>(state.range(0));
  const int dataset = static_cast<int>(state.range(1));
  const std::string& doc = DatasetFor(dataset);
  const std::vector<std::string> query_set =
      MakeWorkload(VocabularyFor(dataset), queries, 2006 + dataset);
  for (auto _ : state) {
    CountingSink sink;
    auto proc = baselines::MultiQueryProcessor::Create(query_set, &sink);
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
    state.counters["results"] =
        benchmark::Counter(static_cast<double>(sink.count()));
    BenchRecord record;
    record.bench = "filter_scalability";
    record.params = {{"system", "product"},
                     {"queries", std::to_string(queries)},
                     {"dataset", VocabularyFor(dataset).name}};
    record.wall_ms = wall_ms;
    record.metrics = {{"results", static_cast<double>(sink.count())}};
    BenchJson::Get().Add(std::move(record));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(doc.size()));
}

// FilterEngine given the dataset's DTD: unsatisfiable and equivalent
// queries are pruned before streaming, and level windows suppress
// impossible stack pushes. The "analysis.*" counters land in the JSON
// record via the metrics registry. With `mode` = kOn
// ("analyzed_filter_early"), earliest-decision tables are compiled too and
// the record adds the filter.* skip counters. Auction has no DTD, so its
// cells run the plain engine and carry no analysis.* counters.
void RunAnalyzedFilter(benchmark::State& state, core::EarlyDecisionMode mode,
                       const char* system_name) {
  const size_t queries = static_cast<size_t>(state.range(0));
  const int dataset = static_cast<int>(state.range(1));
  const std::string& doc = DatasetFor(dataset);
  const std::vector<std::string> query_set = MakeAnalyzableWorkload(
      VocabularyFor(dataset), queries, 2006 + dataset, dataset);
  for (auto _ : state) {
    CountingSink sink;
    core::EvaluatorOptions options;
    options.enable_early_decisions = mode;
    auto engine = filter::FilterEngine::Create(query_set, &sink, options,
                                               StructureFor(dataset));
    if (!engine.ok()) {
      state.SkipWithError(engine.status().ToString().c_str());
      return;
    }
    Stopwatch sw;
    Status s = engine.value()->Consume({doc, false});
    if (s.ok()) s = engine.value()->Consume({std::string_view(), true});
    const double wall_ms = sw.ElapsedSeconds() * 1e3;
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
    obs::MetricsRegistry registry;
    engine.value()->ExportMetrics(&registry);
    const auto& stats = engine.value()->analysis_stats();
    state.counters["results"] =
        benchmark::Counter(static_cast<double>(sink.count()));
    state.counters["queries_pruned"] =
        benchmark::Counter(static_cast<double>(stats.queries_pruned()));
    BenchRecord record;
    record.bench = "filter_scalability";
    record.params = {{"system", system_name},
                     {"queries", std::to_string(queries)},
                     {"dataset", VocabularyFor(dataset).name}};
    record.wall_ms = wall_ms;
    record.metrics = {{"results", static_cast<double>(sink.count())}};
    for (const obs::MetricValue& metric : registry.Snapshot()) {
      if (metric.name.rfind("analysis.", 0) == 0 ||
          (mode != core::EarlyDecisionMode::kOff &&
           metric.name.rfind("filter.", 0) == 0)) {
        record.metrics.emplace_back(metric.name, metric.value);
      }
    }
    BenchJson::Get().Add(std::move(record));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(doc.size()));
}

void BM_AnalyzedFilter(benchmark::State& state) {
  RunAnalyzedFilter(state, core::EarlyDecisionMode::kOff, "analyzed_filter");
}

void BM_AnalyzedFilterEarly(benchmark::State& state) {
  RunAnalyzedFilter(state, core::EarlyDecisionMode::kOn,
                    "analyzed_filter_early");
}

// Subscription workload for the sharded service: ~90% linear, and the
// first step is always a *named* tag — a wildcard first step would mark its
// shard take-all and defeat the per-symbol routing this benchmark measures
// (real publish/subscribe workloads are anchored the same way). Longer
// chains (3-5 steps) keep per-query selectivity low so the measurement is
// dominated by per-event trie work, not delivery fan-out.
std::vector<std::string> MakeServeWorkload(const Vocabulary& vocab,
                                           size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const int steps = 3 + static_cast<int>(rng.Below(3));  // 3..5
    std::string q;
    for (int s = 0; s < steps; ++s) {
      q += (s == 0 || rng.Below(100) < 35) ? "//" : "/";
      if (s > 0 && rng.Below(100) < 10) {
        q += "*";
      } else {
        q += vocab.tags[rng.Below(vocab.tags.size())];
      }
    }
    if (rng.Below(100) >= 90) {
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

// The sharded subscription service: the same workload partitioned across
// N shard workers, fed through one routing session. Aggregate events/sec =
// modified-SAX events processed across all shards per second of wall time.
// Events routed to several shards count once per shard, so the figure
// rises with the shard count by routing alone; wall time for the same
// documents is the scaling measure (per-shard utilization in the JSON
// record shows the partition balance). Notification delivery runs in
// callback mode so the measurement excludes Poll() contention.
void BM_ShardedServe(benchmark::State& state) {
  const size_t queries = static_cast<size_t>(state.range(0));
  const int shards = static_cast<int>(state.range(1));
  const std::string& doc = DatasetFor(0);  // Book
  const std::vector<std::string> query_set =
      MakeServeWorkload(BookVocabulary(), queries, 2006);
  constexpr int kTimedDocs = 3;
  for (auto _ : state) {
    serve::SubscriptionServer::Options options;
    options.num_shards = shards;
    options.ring_capacity = 4096;
    std::atomic<uint64_t> delivered{0};
    options.on_batch = [&delivered](std::vector<serve::Notification>&& batch) {
      delivered.fetch_add(batch.size(), std::memory_order_relaxed);
    };
    auto server = serve::SubscriptionServer::Create(options);
    if (!server.ok()) {
      state.SkipWithError(server.status().ToString().c_str());
      return;
    }
    for (const std::string& q : query_set) {
      auto id = server.value()->Subscribe(q);
      if (!id.ok()) {
        state.SkipWithError(id.status().ToString().c_str());
        return;
      }
    }
    auto stream = server.value()->OpenStream();
    // Warm-up document: shard engines fold (compile) outside the timing.
    if (!stream->FeedDocument(doc).ok()) {
      state.SkipWithError("warm-up document failed");
      return;
    }
    std::vector<uint64_t> events_before(static_cast<size_t>(shards));
    for (int s = 0; s < shards; ++s) {
      events_before[static_cast<size_t>(s)] =
          server.value()->shard(s).counters().events.load();
    }
    const uint64_t delivered_before = delivered.load();
    Stopwatch sw;
    for (int k = 0; k < kTimedDocs; ++k) {
      if (!stream->FeedDocument(doc).ok()) {
        state.SkipWithError("timed document failed");
        return;
      }
    }
    const double seconds = sw.ElapsedSeconds();
    uint64_t total_events = 0;
    std::vector<uint64_t> shard_events(static_cast<size_t>(shards));
    for (int s = 0; s < shards; ++s) {
      shard_events[static_cast<size_t>(s)] =
          server.value()->shard(s).counters().events.load() -
          events_before[static_cast<size_t>(s)];
      total_events += shard_events[static_cast<size_t>(s)];
    }
    const double events_per_sec =
        seconds > 0 ? static_cast<double>(total_events) / seconds : 0;
    state.counters["events_per_sec"] = benchmark::Counter(events_per_sec);
    state.counters["deliveries"] = benchmark::Counter(
        static_cast<double>(delivered.load() - delivered_before));
    BenchRecord record;
    record.bench = "filter_scalability";
    record.params = {{"system", "sharded_serve"},
                     {"queries", std::to_string(queries)},
                     {"shards", std::to_string(shards)},
                     {"dataset", "book"}};
    record.wall_ms = seconds * 1e3;
    record.metrics = {
        {"events_per_sec", events_per_sec},
        {"aggregate_events", static_cast<double>(total_events)},
        {"deliveries",
         static_cast<double>(delivered.load() - delivered_before)},
        {"documents", static_cast<double>(kTimedDocs)},
        {"host_cpus",
         static_cast<double>(std::thread::hardware_concurrency())}};
    for (int s = 0; s < shards; ++s) {
      const double ev = static_cast<double>(shard_events[static_cast<size_t>(s)]);
      record.metrics.emplace_back("shard" + std::to_string(s) + ".events", ev);
      record.metrics.emplace_back(
          "shard" + std::to_string(s) + ".utilization",
          total_events ? ev / static_cast<double>(total_events) : 0);
    }
    BenchJson::Get().Add(std::move(record));
    stream.reset();  // close the session before the server goes down
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(doc.size()) * kTimedDocs);
}

void RegisterSweep() {
  for (auto* bench : {benchmark::RegisterBenchmark("BM_FilterEngine",
                                                   BM_FilterEngine),
                      benchmark::RegisterBenchmark("BM_AnalyzedFilter",
                                                   BM_AnalyzedFilter),
                      benchmark::RegisterBenchmark("BM_AnalyzedFilterEarly",
                                                   BM_AnalyzedFilterEarly),
                      benchmark::RegisterBenchmark("BM_ProductConstruction",
                                                   BM_ProductConstruction)}) {
    bench->ArgNames({"queries", "dataset"});
    for (int dataset : {0, 1}) {
      for (int queries : {16, 64, 256, 1024, 4096}) {
        bench->Args({queries, dataset});
      }
    }
    bench->Unit(benchmark::kMillisecond)->Iterations(1);
  }
  auto* sharded =
      benchmark::RegisterBenchmark("BM_ShardedServe", BM_ShardedServe);
  sharded->ArgNames({"queries", "shards"});
  for (int queries : {4096, 65536, 262144, 1048576}) {
    for (int shards : {1, 2, 4, 8}) {
      sharded->Args({queries, shards});
    }
  }
  sharded->Unit(benchmark::kMillisecond)->Iterations(1);
}

// Cross-checks the two systems before the timed runs: they must emit the
// same number of (query, id) results on the same workload.
bool SanityCheck() {
  for (int dataset : {0, 1}) {
    const std::vector<std::string> query_set =
        MakeWorkload(VocabularyFor(dataset), 64, 2006 + dataset);
    const std::string& doc = DatasetFor(dataset);
    CountingSink product_sink;
    auto proc =
        baselines::MultiQueryProcessor::Create(query_set, &product_sink);
    if (!proc.ok() || !proc.value()->Consume({doc, false}).ok() ||
        !proc.value()->Consume({std::string_view(), true}).ok()) {
      std::fprintf(stderr, "sanity: product construction failed (%s)\n",
                   VocabularyFor(dataset).name);
      return false;
    }
    CountingSink filter_sink;
    auto engine = filter::FilterEngine::Create(query_set, &filter_sink);
    if (!engine.ok() || !engine.value()->Consume({doc, false}).ok() ||
        !engine.value()->Consume({std::string_view(), true}).ok()) {
      std::fprintf(stderr, "sanity: filter engine failed (%s)\n",
                   VocabularyFor(dataset).name);
      return false;
    }
    if (product_sink.count() != filter_sink.count()) {
      std::fprintf(stderr,
                   "sanity: result mismatch on %s: product=%llu filter=%llu\n",
                   VocabularyFor(dataset).name,
                   static_cast<unsigned long long>(product_sink.count()),
                   static_cast<unsigned long long>(filter_sink.count()));
      return false;
    }
    // The engine given the DTD must agree with the product construction on
    // the enriched workload despite pruning/minimizing queries.
    const std::vector<std::string> analyzable = MakeAnalyzableWorkload(
        VocabularyFor(dataset), 64, 2006 + dataset, dataset);
    CountingSink base_sink;
    auto base = baselines::MultiQueryProcessor::Create(analyzable, &base_sink);
    core::EvaluatorOptions options;
    CountingSink analyzed_sink;
    auto analyzed = filter::FilterEngine::Create(
        analyzable, &analyzed_sink, options, StructureFor(dataset));
    if (!base.ok() || !base.value()->Consume({doc, false}).ok() ||
        !base.value()->Consume({std::string_view(), true}).ok() || !analyzed.ok() ||
        !analyzed.value()->Consume({doc, false}).ok() ||
        !analyzed.value()->Consume({std::string_view(), true}).ok()) {
      std::fprintf(stderr, "sanity: engine with DTD failed (%s)\n",
                   VocabularyFor(dataset).name);
      return false;
    }
    if (base_sink.count() != analyzed_sink.count()) {
      std::fprintf(
          stderr, "sanity: analyzed mismatch on %s: product=%llu analyzed=%llu\n",
          VocabularyFor(dataset).name,
          static_cast<unsigned long long>(base_sink.count()),
          static_cast<unsigned long long>(analyzed_sink.count()));
      return false;
    }
    // Earliest decisions must not change result counts (the documents are
    // DTD-valid by construction, so the static proofs are sound here).
    options.enable_early_decisions = core::EarlyDecisionMode::kOn;
    CountingSink early_sink;
    auto early = filter::FilterEngine::Create(analyzable, &early_sink, options,
                                              StructureFor(dataset));
    if (!early.ok() || !early.value()->Consume({doc, false}).ok() ||
        !early.value()->Consume({std::string_view(), true}).ok()) {
      std::fprintf(stderr, "sanity: early-decision engine failed (%s)\n",
                   VocabularyFor(dataset).name);
      return false;
    }
    if (base_sink.count() != early_sink.count()) {
      std::fprintf(
          stderr, "sanity: early mismatch on %s: product=%llu early=%llu\n",
          VocabularyFor(dataset).name,
          static_cast<unsigned long long>(base_sink.count()),
          static_cast<unsigned long long>(early_sink.count()));
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace twigm::bench

int main(int argc, char** argv) {
  twigm::bench::BenchJson::Get().StripJsonFlag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (!twigm::bench::SanityCheck()) return 1;
  twigm::bench::RegisterSweep();
  benchmark::RunSpecifiedBenchmarks();
  twigm::bench::BenchJson::Get().Write();
  return 0;
}
