// twigm_stats — live observability demo: streams the Book dataset through
// an instrumented processor and prints, while the stream is flowing, the
// per-stage wall-time breakdown (parse / drive / machine / emit), then a
// final report with per-query-node peak stack depth (the paper's memory
// bound, observed) and the per-result emission latency in bytes — how much
// more of the stream had to be read between an element becoming a
// *candidate* and being proven a *result*.
//
// With an early-decision mode (observe/on), decision tables compiled from
// the Book DTD are installed and the report adds the earliest-answering
// section: the emission gap (bytes between a match becoming statically
// provable and its actual emission) and the early-emit/drop/skip counters.
//
//   usage: twigm_stats ['<xpath>' [min_bytes [off|observe|on]]]
//   default query: //section[title]//figure

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/decision_analysis.h"
#include "analysis/dtd_structure.h"
#include "common/string_util.h"
#include "core/evaluator.h"
#include "data/book.h"
#include "dtd/dtd_parser.h"
#include "obs/instrumentation.h"

namespace {

// Pairs each result's kEmit offset with its first kCandidate offset and
// feeds the difference (latency in bytes) into a histogram.
class LatencySink : public twigm::obs::TraceSink {
 public:
  LatencySink()
      : histogram_(twigm::obs::ExponentialBuckets(64, 4, 10)) {}

  void OnEvent(const twigm::obs::TraceEvent& event) override {
    using Kind = twigm::obs::TraceEvent::Kind;
    switch (event.kind) {
      case Kind::kCandidate:
        first_candidate_.emplace(event.node_id, event.byte_offset);
        break;
      case Kind::kEmit: {
        auto it = first_candidate_.find(event.node_id);
        const uint64_t candidate_offset =
            it != first_candidate_.end() ? it->second : event.byte_offset;
        histogram_.Observe(event.byte_offset - candidate_offset);
        break;
      }
      default:
        break;
    }
  }

  const twigm::obs::Histogram& histogram() const { return histogram_; }

 private:
  // node id -> offset of the earliest candidate announcement
  std::unordered_map<uint64_t, uint64_t> first_candidate_;
  twigm::obs::Histogram histogram_;
};

void PrintStages(const twigm::obs::Instrumentation& instr, double pct) {
  const twigm::obs::StageBreakdown b = instr.stages();
  std::printf(
      "  %5.1f%% streamed | scan %7.2f ms  tokenize %7.2f ms  drive %7.2f ms"
      "  machine %7.2f ms  emit %7.2f ms\n",
      pct, b.scan_ns / 1e6, b.tokenize_ns / 1e6, b.drive_ns / 1e6,
      b.machine_ns / 1e6, b.emit_ns / 1e6);
}

}  // namespace

int main(int argc, char** argv) {
  const char* query = argc > 1 ? argv[1] : "//section[title]//figure";
  const size_t min_bytes =
      argc > 2 ? static_cast<size_t>(std::atoll(argv[2])) : 512 * 1024;
  const char* mode_name = argc > 3 ? argv[3] : "observe";
  twigm::core::EarlyDecisionMode mode;
  if (std::strcmp(mode_name, "off") == 0) {
    mode = twigm::core::EarlyDecisionMode::kOff;
  } else if (std::strcmp(mode_name, "observe") == 0) {
    mode = twigm::core::EarlyDecisionMode::kObserve;
  } else if (std::strcmp(mode_name, "on") == 0) {
    mode = twigm::core::EarlyDecisionMode::kOn;
  } else {
    std::fprintf(stderr, "unknown mode '%s' (off|observe|on)\n", mode_name);
    return 1;
  }

  twigm::data::BookOptions book;
  book.seed = 11;
  book.min_bytes = min_bytes;
  auto doc = twigm::data::GenerateBook(book);
  if (!doc.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 doc.status().ToString().c_str());
    return 1;
  }

  twigm::obs::Instrumentation instr;
  LatencySink latency;
  instr.set_trace_sink(&latency);

  twigm::core::CountingResultSink results;
  twigm::core::EvaluatorOptions options;
  options.instrumentation = &instr;
  options.enable_early_decisions = mode;
  auto proc = twigm::core::XPathStreamProcessor::Create(query, &results,
                                                        options);
  if (!proc.ok()) {
    std::fprintf(stderr, "query error: %s\n",
                 proc.status().ToString().c_str());
    return 1;
  }

  // The size-targeted generator wraps the books under <collection>.
  twigm::Result<twigm::dtd::Dtd> dtd = twigm::dtd::ParseDtd(
      std::string("<!ELEMENT collection (book*)>\n") +
      twigm::data::kBookDtd);
  twigm::Result<twigm::analysis::DtdStructure> dtds =
      dtd.ok() ? twigm::analysis::DtdStructure::Build(dtd.value())
               : twigm::Result<twigm::analysis::DtdStructure>(dtd.status());
  if (mode != twigm::core::EarlyDecisionMode::kOff) {
    if (!dtds.ok()) {
      std::fprintf(stderr, "DTD summary failed: %s\n",
                   dtds.status().ToString().c_str());
      return 1;
    }
    twigm::analysis::EnableEarlyDecisions(proc.value().get(), dtds.value());
  }

  std::printf("query:   %s\n", query);
  std::printf("mode:    early decisions %s\n", mode_name);
  std::printf("dataset: Book, %s\n\n",
              twigm::HumanBytes(doc.value().size()).c_str());

  // Stream in network-sized chunks; report the live stage breakdown at
  // every quarter of the document.
  const std::string_view data(doc.value());
  const size_t chunk = 64 * 1024;
  size_t next_report = data.size() / 4;
  std::printf("live per-stage wall time (cumulative, exclusive):\n");
  for (size_t pos = 0; pos < data.size(); pos += chunk) {
    twigm::Status s = proc.value()->Consume({data.substr(pos, chunk), false});
    if (!s.ok()) {
      std::fprintf(stderr, "parse error: %s\n", s.ToString().c_str());
      return 1;
    }
    if (pos + chunk >= next_report) {
      const size_t streamed = pos + chunk < data.size() ? pos + chunk
                                                        : data.size();
      PrintStages(instr, 100.0 * static_cast<double>(streamed) /
                             static_cast<double>(data.size()));
      next_report += data.size() / 4;
    }
  }
  twigm::Status s = proc.value()->Consume({std::string_view(), true});
  if (!s.ok()) {
    std::fprintf(stderr, "parse error: %s\n", s.ToString().c_str());
    return 1;
  }

  const twigm::obs::StageBreakdown b = instr.stages();
  std::printf("\nfinal stage breakdown:\n");
  std::printf("  scan (structural index)      %9.2f ms\n", b.scan_ns / 1e6);
  std::printf("  tokenize (+ wf checks)       %9.2f ms\n",
              b.tokenize_ns / 1e6);
  std::printf("  drive (modified-SAX events)  %9.2f ms\n", b.drive_ns / 1e6);
  std::printf("  machine (transitions)        %9.2f ms\n",
              b.machine_ns / 1e6);
  std::printf("  emit (result delivery)       %9.2f ms\n", b.emit_ns / 1e6);
  std::printf("  total                        %9.2f ms\n", b.total_ns / 1e6);

  std::printf("\npeak stack depth per query node (machine-node id):\n");
  const std::vector<uint64_t>& peaks = instr.node_depth_peaks();
  for (size_t i = 0; i < peaks.size(); ++i) {
    std::printf("  node %2zu: %" PRIu64 "\n", i, peaks[i]);
  }

  const twigm::obs::Histogram& h = latency.histogram();
  std::printf("\nper-result emission latency (bytes of stream between first"
              " candidate and proof):\n");
  std::printf("  results %" PRIu64 ", min %" PRIu64 " B, mean %.0f B, max %"
              PRIu64 " B\n",
              h.total_count(), h.min(), h.mean(), h.max());
  for (size_t i = 0; i < h.bounds().size(); ++i) {
    if (h.counts()[i] == 0) continue;
    std::printf("  <= %8" PRIu64 " B: %" PRIu64 "\n", h.bounds()[i],
                h.counts()[i]);
  }
  if (h.counts().back() != 0) {
    std::printf("  >  %8" PRIu64 " B: %" PRIu64 "\n", h.bounds().back(),
                h.counts().back());
  }

  if (mode != twigm::core::EarlyDecisionMode::kOff) {
    const twigm::core::EngineStats& es = proc.value()->stats();
    std::printf("\nearliest answering (%s):\n", mode_name);
    std::printf("  emission gap: %" PRIu64 " gaps, mean %.0f B, max %" PRIu64
                " B\n",
                es.gap_count,
                es.gap_count > 0 ? static_cast<double>(es.gap_sum_bytes) /
                                       static_cast<double>(es.gap_count)
                                 : 0.0,
                es.gap_max_bytes);
    std::printf("  early emitted %" PRIu64 ", early dropped %" PRIu64
                ", states skipped %" PRIu64 "\n",
                es.early_emitted, es.early_dropped, es.states_skipped);
  }

  // Engine accounting through the same registry surface the benches use.
  proc.value()->ExportMetrics(&instr.registry());
  std::printf("\nmetrics snapshot:\n");
  for (const twigm::obs::MetricValue& m : instr.registry().Snapshot()) {
    std::printf("  %-28s %.0f\n", m.name.c_str(), m.value);
  }
  return 0;
}
