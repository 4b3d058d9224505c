// Observability layer tests: metrics primitives (counter/gauge/histogram
// bucketing), the null-instrumentation no-op guarantee, trace events with
// byte offsets (per-result emission latency), per-query-node depth peaks,
// and Reset() reuse — the same compiled processor over multiple documents
// must produce identical emissions and identical metrics deltas as a fresh
// processor.

#include "obs/instrumentation.h"

#include <functional>
#include <map>
#include <new>
#include <string>
#include <vector>

#include "analysis/dtd_structure.h"
#include "core/evaluator.h"
#include "core/multi_query.h"
#include "dtd/dtd_parser.h"
#include "filter/filter_engine.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"

namespace twigm {
namespace {

using core::EvaluatorOptions;
using core::VectorResultSink;
using core::XPathStreamProcessor;
using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::Instrumentation;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::TraceEvent;

TEST(MetricsTest, CounterIncAndSet) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.Set(7);
  EXPECT_EQ(c.value(), 7u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsTest, GaugeTracksPeak) {
  Gauge g;
  g.Set(5);
  g.Set(9);
  g.Set(3);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.peak(), 9);
  g.Add(-2);
  EXPECT_EQ(g.value(), 1);
  EXPECT_EQ(g.peak(), 9);
}

TEST(MetricsTest, HistogramBucketing) {
  // Bounds are inclusive upper edges; the last bucket is overflow.
  Histogram h({10, 100, 1000});
  h.Observe(0);
  h.Observe(10);    // still the first bucket (x <= 10)
  h.Observe(11);    // second bucket
  h.Observe(100);   // second bucket
  h.Observe(999);   // third
  h.Observe(1001);  // overflow
  ASSERT_EQ(h.counts().size(), 4u);
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[1], 2u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.counts()[3], 1u);
  EXPECT_EQ(h.total_count(), 6u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1001u);
  EXPECT_DOUBLE_EQ(h.mean(), (0 + 10 + 11 + 100 + 999 + 1001) / 6.0);
  h.Reset();
  EXPECT_EQ(h.total_count(), 0u);
  EXPECT_EQ(h.counts()[0], 0u);
}

TEST(MetricsTest, ExponentialBuckets) {
  const std::vector<uint64_t> b = obs::ExponentialBuckets(64, 4, 5);
  EXPECT_EQ(b, (std::vector<uint64_t>{64, 256, 1024, 4096, 16384}));
}

TEST(MetricsTest, RegistrySnapshotFlattens) {
  MetricsRegistry reg;
  Counter* c = reg.RegisterCounter("c");
  Gauge* g = reg.RegisterGauge("g");
  Histogram* h = reg.RegisterHistogram("h", {10, 100});
  c->Inc(3);
  g->Set(5);
  g->Set(2);
  h->Observe(50);
  const MetricsSnapshot snap = reg.Snapshot();
  std::map<std::string, double> by_name;
  for (const obs::MetricValue& v : snap) by_name[v.name] = v.value;
  EXPECT_EQ(by_name.at("c"), 3);
  EXPECT_EQ(by_name.at("g"), 2);
  EXPECT_EQ(by_name.at("g.peak"), 5);
  EXPECT_EQ(by_name.at("h.count"), 1);
  EXPECT_EQ(by_name.at("h.sum"), 50);
  EXPECT_EQ(by_name.at("h.le.100"), 1);
  EXPECT_EQ(by_name.at("h.le.10"), 0);
}

// --- processor integration ----------------------------------------------

constexpr char kDoc[] =
    "<a><b><c>x</c></b><d/><b><c>y</c></b><b>no-c</b></a>";

uint64_t RunCount(std::string_view query, std::string_view doc,
                  EvaluatorOptions options = EvaluatorOptions()) {
  VectorResultSink sink;
  auto proc = XPathStreamProcessor::Create(query, &sink, options);
  EXPECT_TRUE(proc.ok()) << proc.status().ToString();
  EXPECT_TRUE(proc.value()->Consume({doc, false}).ok());
  EXPECT_TRUE(proc.value()->Consume({std::string_view(), true}).ok());
  return sink.ids().size();
}

TEST(InstrumentationTest, NullInstrumentationIsNoop) {
  // The default (no instrumentation) must run and produce the same results
  // as an instrumented run — this is the API-level no-op guarantee; the
  // <5% perf guarantee is checked by bench_fig7's Overhead pair in CI.
  const uint64_t plain = RunCount("//a[d]//b[c]", kDoc);

  Instrumentation instr;
  EvaluatorOptions options;
  options.instrumentation = &instr;
  const uint64_t instrumented = RunCount("//a[d]//b[c]", kDoc, options);
  EXPECT_EQ(plain, instrumented);
  EXPECT_EQ(plain, 2u);

  // Stage timers only tick when instrumentation is attached.
  EXPECT_GT(instr.stage_inclusive_ns(obs::Stage::kTokenize), 0u);
  EXPECT_GT(instr.stage_inclusive_ns(obs::Stage::kScan), 0u);
  const obs::StageBreakdown b = instr.stages();
  EXPECT_EQ(b.total_ns, instr.stage_inclusive_ns(obs::Stage::kTokenize));
  EXPECT_EQ(b.scan_ns, instr.stage_inclusive_ns(obs::Stage::kScan));
  // The scan and the dispatch run inside the Consume call, one after the
  // other, so the exclusive shares add up to the inclusive total.
  EXPECT_GE(b.total_ns, instr.stage_inclusive_ns(obs::Stage::kScan) +
                            instr.stage_inclusive_ns(obs::Stage::kDrive));
  EXPECT_EQ(b.total_ns, b.scan_ns + b.tokenize_ns + b.drive_ns +
                            b.machine_ns + b.emit_ns);
}

TEST(InstrumentationTest, NodeDepthPeaksBoundedByDocumentDepth) {
  Instrumentation instr;
  EvaluatorOptions options;
  options.instrumentation = &instr;
  // Depth-8 chain of <a>; //a//a keeps one stack per query node.
  RunCount("//a//a", "<a><a><a><a><a><a><a><a/></a></a></a></a></a></a></a>",
           options);
  ASSERT_FALSE(instr.node_depth_peaks().empty());
  for (uint64_t peak : instr.node_depth_peaks()) {
    EXPECT_LE(peak, 8u);
  }
  // The root query node sees every <a>.
  EXPECT_EQ(instr.node_depth_peaks()[0], 8u);
}

TEST(InstrumentationTest, TraceEventsPairIntoEmissionLatency) {
  Instrumentation instr;
  obs::VectorTraceSink trace;
  instr.set_trace_sink(&trace);
  EvaluatorOptions options;
  options.instrumentation = &instr;
  RunCount("//a[d]//b[c]", kDoc, options);

  // Each emitted result has a candidate event at an equal-or-earlier
  // offset; emission latency in bytes is the difference.
  std::map<uint64_t, uint64_t> candidate_offset;
  uint64_t emits = 0;
  for (const TraceEvent& e : trace.events()) {
    if (e.kind == TraceEvent::Kind::kCandidate) {
      candidate_offset.emplace(e.node_id, e.byte_offset);
    } else if (e.kind == TraceEvent::Kind::kEmit) {
      ++emits;
      auto it = candidate_offset.find(e.node_id);
      ASSERT_NE(it, candidate_offset.end())
          << "emit without candidate for node " << e.node_id;
      EXPECT_GE(e.byte_offset, it->second);
    }
  }
  EXPECT_EQ(emits, 2u);

  // Pushes and pops balance over a whole document.
  uint64_t pushes = 0, pops = 0;
  for (const TraceEvent& e : trace.events()) {
    if (e.kind == TraceEvent::Kind::kStackPush) ++pushes;
    if (e.kind == TraceEvent::Kind::kStackPop) ++pops;
  }
  EXPECT_EQ(pushes, pops);
  EXPECT_GT(pushes, 0u);
}

TEST(InstrumentationTest, PruneEventOnFailedPredicate) {
  Instrumentation instr;
  obs::CountingTraceSink trace;
  instr.set_trace_sink(&trace);
  EvaluatorOptions options;
  options.instrumentation = &instr;
  // <b> without <c> child: its candidate is pruned at </b>.
  RunCount("//b[c]", "<a><b><x/></b></a>", options);
  EXPECT_GT(trace.count(TraceEvent::Kind::kPrune), 0u);
  EXPECT_EQ(trace.count(TraceEvent::Kind::kEmit), 0u);
}

TEST(InstrumentationTest, ResetValuesClearsMeasurements) {
  Instrumentation instr;
  EvaluatorOptions options;
  options.instrumentation = &instr;
  RunCount("//b", "<a><b/></a>", options);
  EXPECT_GT(instr.stage_inclusive_ns(obs::Stage::kTokenize), 0u);
  EXPECT_GT(instr.stage_inclusive_ns(obs::Stage::kScan), 0u);
  instr.ResetValues();
  EXPECT_EQ(instr.stage_inclusive_ns(obs::Stage::kTokenize), 0u);
  EXPECT_EQ(instr.stage_inclusive_ns(obs::Stage::kScan), 0u);
  EXPECT_EQ(instr.byte_offset(), 0u);
  for (uint64_t peak : instr.node_depth_peaks()) EXPECT_EQ(peak, 0u);
}

// --- Reset() reuse -------------------------------------------------------

MetricsSnapshot EngineSnapshot(XPathStreamProcessor* proc,
                               MetricsRegistry* reg) {
  proc->ExportMetrics(reg);
  return reg->Snapshot();
}

TEST(ResetReuseTest, SameEmissionsAndMetricsAsFreshProcessor) {
  const char* query = "//a[d]//b[c]";
  const std::vector<std::string> docs = {
      kDoc,
      "<a><d/><b><c/></b><b><c/></b><b><c/></b></a>",
      "<a><b><c/></b></a>",  // no <d>: zero results
  };

  // One processor, Reset() between documents.
  VectorResultSink reused_sink;
  auto reused = XPathStreamProcessor::Create(query, &reused_sink);
  ASSERT_TRUE(reused.ok());

  for (const std::string& doc : docs) {
    // Per-document emissions and metrics from the reused processor...
    MetricsRegistry reused_reg;
    const MetricsSnapshot before =
        EngineSnapshot(reused.value().get(), &reused_reg);
    ASSERT_TRUE(reused.value()->Consume({doc, false}).ok());
    ASSERT_TRUE(reused.value()->Consume({std::string_view(), true}).ok());
    const MetricsSnapshot after =
        EngineSnapshot(reused.value().get(), &reused_reg);
    const std::vector<xml::NodeId> reused_ids = reused_sink.TakeIds();
    reused.value()->Reset();

    // ...must equal a fresh processor's over the same document.
    VectorResultSink fresh_sink;
    auto fresh = XPathStreamProcessor::Create(query, &fresh_sink);
    ASSERT_TRUE(fresh.ok());
    ASSERT_TRUE(fresh.value()->Consume({doc, false}).ok());
    ASSERT_TRUE(fresh.value()->Consume({std::string_view(), true}).ok());
    MetricsRegistry fresh_reg;
    const MetricsSnapshot fresh_snap =
        EngineSnapshot(fresh.value().get(), &fresh_reg);

    EXPECT_EQ(reused_ids, fresh_sink.ids()) << doc;

    // Identical deltas: engine counters accumulate across Reset(), so the
    // difference over this document must match the fresh run's totals.
    // Peaks are high-water marks and only grow, so compare deltas for
    // counters and >= for peaks. The hotpath.* gauges (interner size, pool
    // high-water) report capacity Reset() deliberately retains, so they
    // compare like peaks.
    ASSERT_EQ(after.size(), fresh_snap.size());
    for (size_t i = 0; i < after.size(); ++i) {
      ASSERT_EQ(after[i].name, fresh_snap[i].name);
      if (after[i].name.find("peak") != std::string::npos ||
          after[i].name.rfind("hotpath.", 0) == 0) {
        EXPECT_GE(after[i].value, fresh_snap[i].value) << after[i].name;
      } else {
        EXPECT_EQ(after[i].value - before[i].value, fresh_snap[i].value)
            << after[i].name << " over " << doc;
      }
    }
  }
}

TEST(ResetReuseTest, MatchInfoOffsetsIdenticalAcrossReset) {
  // Byte offsets restart at zero for each document.
  class OffsetSink : public core::MatchObserver {
   public:
    void OnResult(const core::MatchInfo& match) override {
      offsets.push_back(match.byte_offset);
    }
    std::vector<uint64_t> offsets;
  };

  OffsetSink sink;
  auto proc = XPathStreamProcessor::Create("//b[c]", &sink);
  ASSERT_TRUE(proc.ok());
  ASSERT_TRUE(proc.value()->Consume({kDoc, false}).ok());
  ASSERT_TRUE(proc.value()->Consume({std::string_view(), true}).ok());
  const std::vector<uint64_t> first_run = sink.offsets;
  sink.offsets.clear();

  // Same processor after Reset(): offsets restart at zero and the second
  // pass over the same bytes reports identical positions.
  proc.value()->Reset();
  ASSERT_TRUE(proc.value()->Consume({kDoc, false}).ok());
  ASSERT_TRUE(proc.value()->Consume({std::string_view(), true}).ok());
  EXPECT_EQ(sink.offsets, first_run);
  ASSERT_FALSE(first_run.empty());
  for (uint64_t off : first_run) EXPECT_GT(off, 0u);
}

// --- ExportMetrics into a re-created registry ----------------------------

TEST(MetricsTest, SetCounterRegistersOnceThenRefreshes) {
  MetricsRegistry reg;
  Counter* c = reg.RegisterCounter("c");
  reg.SetCounter("c", 4);
  EXPECT_EQ(c->value(), 4u);
  reg.SetCounter("d", 9);
  reg.SetCounter("d", 10);
  EXPECT_EQ(reg.instrument_count(), 2u);
  std::map<std::string, double> by_name;
  for (const obs::MetricValue& v : reg.Snapshot()) by_name[v.name] = v.value;
  EXPECT_EQ(by_name.at("d"), 10);
}

// Exports into a registry, destroys it, builds a second registry in the
// same storage (same address) holding at least as many instruments, and
// exports again. Every exported counter must land in the live registry:
// `name` must read `expected` there.
void ExpectExportLandsInReusedRegistry(
    const std::function<void(MetricsRegistry*)>& export_metrics,
    const std::string& name, double expected) {
  alignas(MetricsRegistry) unsigned char storage[sizeof(MetricsRegistry)];
  auto* first = new (storage) MetricsRegistry();
  export_metrics(first);
  const size_t exported = first->instrument_count();
  first->~MetricsRegistry();

  auto* second = new (storage) MetricsRegistry();
  for (size_t i = 0; i < exported; ++i) {
    second->RegisterCounter("other." + std::to_string(i));
  }
  export_metrics(second);
  std::map<std::string, double> by_name;
  for (const obs::MetricValue& v : second->Snapshot()) by_name[v.name] = v.value;
  second->~MetricsRegistry();
  ASSERT_TRUE(by_name.count(name)) << name << " missing from the new registry";
  EXPECT_EQ(by_name.at(name), expected) << name;
}

TEST(ExportMetricsTest, ReusedRegistryStorageGetsFreshCounters) {
  VectorResultSink sink;
  auto proc = XPathStreamProcessor::Create("//b[c]", &sink);
  ASSERT_TRUE(proc.ok());
  ASSERT_TRUE(proc.value()->Consume({kDoc, true}).ok());
  ExpectExportLandsInReusedRegistry(
      [&](MetricsRegistry* r) { proc.value()->ExportMetrics(r); },
      "engine.results", 2);

  core::VectorMultiQuerySink multi_sink;
  auto filter = filter::FilterEngine::Create({"//b[c]", "//d"}, &multi_sink);
  ASSERT_TRUE(filter.ok());
  ASSERT_TRUE(filter.value()->Consume({kDoc, true}).ok());
  ExpectExportLandsInReusedRegistry(
      [&](MetricsRegistry* r) { filter.value()->ExportMetrics(r); },
      "filter.results", 3);

  // Only an engine built with a DTD exports the analysis.* counters.
  Result<dtd::Dtd> dtd = dtd::ParseDtd(
      "<!ELEMENT a (b*, d?)>\n<!ELEMENT b (c?)>\n<!ELEMENT c EMPTY>\n"
      "<!ELEMENT d EMPTY>\n");
  ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
  Result<analysis::DtdStructure> structure =
      analysis::DtdStructure::Build(dtd.value());
  ASSERT_TRUE(structure.ok()) << structure.status().ToString();
  auto analyzed = filter::FilterEngine::Create(
      {"//b", "//b", "//d"}, &multi_sink, core::EvaluatorOptions(),
      &structure.value());
  ASSERT_TRUE(analyzed.ok());
  ExpectExportLandsInReusedRegistry(
      [&](MetricsRegistry* r) { analyzed.value()->ExportMetrics(r); },
      "analysis.queries_forwarded", 1);

  serve::SubscriptionServer::Options options;
  options.num_shards = 1;
  auto server = serve::SubscriptionServer::Create(options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value()->Subscribe("//b").ok());
  ExpectExportLandsInReusedRegistry(
      [&](MetricsRegistry* r) { server.value()->ExportMetrics(r); },
      "serve.subscribes", 1);
}

}  // namespace
}  // namespace twigm
