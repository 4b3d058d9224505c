// Public entry point: a streaming XPath processor that wires the SAX parser
// to a query machine. The parser calls the machine directly (the one
// xml::StreamEventSink), and skips the events the machine's EventFilter
// does not read: start/end of elements no query node can match (all
// elements when the query has a `*` node) and text unless a node has a
// value test. In fragment mode the parser feeds the FragmentRecorder, which
// reads everything and forwards to the machine.
//
//   VectorResultSink sink;
//   auto proc = XPathStreamProcessor::Create("//a[d]//b[e]//c", &sink);
//   for (chunk : stream) proc.value()->Consume({chunk, /*last=*/false});
//   proc.value()->Consume({{}, /*last=*/true});
//   // sink.ids() holds the pre-order ids of all result elements.
//
// An observer whose wants_fragments() returns true also gets OnFragment
// deliveries: the serialized subtree of every result.
//
// Bytes enter through the unified xml::ByteSource API: push one InputChunk
// at a time with Consume, or pull a whole source with Pump.
//
// Every query runs on TwigM (core/twig_machine.h); a predicate-free query
// emits its results at startElement. Everything optional hangs off
// EvaluatorOptions, observability among it (instrumentation = an
// obs::Instrumentation* collects per-stage wall time, registry metrics,
// per-query-node stack depth peaks and trace events; null — the default —
// costs one predictable branch per instrumented site).

#ifndef TWIGM_CORE_EVALUATOR_H_
#define TWIGM_CORE_EVALUATOR_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/decision_table.h"
#include "core/fragment.h"
#include "core/machine_stats.h"
#include "core/result_sink.h"
#include "core/twig_machine.h"
#include "obs/instrumentation.h"
#include "xml/byte_source.h"
#include "xml/sax_event.h"
#include "xml/sax_parser.h"
#include "xpath/query_tree.h"

namespace twigm::core {

/// Has no effect: every query runs on TwigM. The type and
/// EvaluatorOptions::engine remain only so that callers which still set
/// them compile.
enum class EngineKind { kAuto, kTwigM };

struct EvaluatorOptions {
  EngineKind engine = EngineKind::kAuto;  // no effect; see EngineKind
  TwigMachineOptions twig;
  xml::SaxParserOptions sax;
  /// Observability hook; may be null (near-zero overhead). Not owned; must
  /// outlive the processor.
  obs::Instrumentation* instrumentation = nullptr;
  /// Earliest-query-answering mode the machine runs in once a decision
  /// table is installed (InstallDecisionTable or
  /// analysis::EnableEarlyDecisions). kOff ignores installed tables;
  /// kObserve measures emission gaps without changing behavior; kOn emits
  /// and drops candidates at the first certain event (DESIGN.md §13).
  EarlyDecisionMode enable_early_decisions = EarlyDecisionMode::kOff;
};

/// Builds the TwigM machine for `query` with `options.twig`. The machine
/// reports to `observer`, is attached to `options.instrumentation` and
/// stamps offsets from `offset_slot`.
Result<std::unique_ptr<TwigMachine>> CreateMachine(
    const xpath::QueryTree& query, MatchObserver* observer,
    const EvaluatorOptions& options, const uint64_t* offset_slot);

/// A compiled query bound to a match observer, consuming raw XML bytes.
class XPathStreamProcessor {
 public:
  /// Compiles `query` and builds the machine. `observer` must outlive the
  /// processor; not owned. Fragment capture follows
  /// observer->wants_fragments(); instrumentation is configured through
  /// `options` (see EvaluatorOptions).
  static Result<std::unique_ptr<XPathStreamProcessor>> Create(
      std::string_view query, MatchObserver* observer,
      EvaluatorOptions options = EvaluatorOptions());

  XPathStreamProcessor(const XPathStreamProcessor&) = delete;
  XPathStreamProcessor& operator=(const XPathStreamProcessor&) = delete;

  /// Consumes one chunk of the XML document (chunk.last declares end of
  /// input). Results are emitted to the observer as soon as they are proven.
  Status Consume(const xml::InputChunk& chunk);

  /// Pulls chunks from `source` until it is exhausted or a chunk fails.
  Status Pump(xml::ByteSource* source);

  /// Resets parser and machine state so another document can be processed
  /// with the same compiled query. Attached instrumentation keeps
  /// accumulating (call Instrumentation::ResetValues() for per-document
  /// metrics).
  void Reset();

  /// The machine's statistics, with start_events and end_events counting
  /// every element of the document (the parser's counts), including those
  /// whose events the machine's filter skipped.
  EngineStats stats() const;
  const xpath::QueryTree& query() const { return query_; }

  /// The compiled machine graph (input to static analysis passes such as
  /// level bounds and decision-table compilation).
  const MachineGraph& machine_graph() const { return machine_->graph(); }

  /// Installs an earliest-decision table on the machine; it runs in the
  /// mode chosen by EvaluatorOptions::enable_early_decisions (a table
  /// installed under kOff is retained but ignored). Null uninstalls.
  void InstallDecisionTable(std::shared_ptr<const DecisionTable> table);
  /// Peak bytes buffered by fragment capture (0 when capture is off).
  uint64_t fragment_peak_buffered_bytes() const {
    return recorder_ != nullptr ? recorder_->peak_buffered_bytes() : 0;
  }

  /// Exports the engine's accounting into `registry` (prefix "engine.",
  /// plus "fragment.peak_buffered_bytes" and "hotpath.*") by counter name:
  /// the first call registers the counters, later calls refresh them, so
  /// snapshots can be taken per document.
  void ExportMetrics(obs::MetricsRegistry* registry) const;

 private:
  XPathStreamProcessor() = default;

  xpath::QueryTree query_;
  EvaluatorOptions options_;

  std::unique_ptr<TwigMachine> machine_;
  std::unique_ptr<FragmentRecorder> recorder_;  // set in fragment mode
  // Stage timing in front of the machine (or recorder); set only with
  // instrumentation.
  std::unique_ptr<xml::StageTimedSink> timed_;
  std::unique_ptr<xml::SaxParser> parser_;

  // Shared stream position: written by the parser before each construct,
  // read by the machines when emitting (MatchInfo::byte_offset).
  uint64_t stream_offset_ = 0;
};

/// One-shot convenience: evaluates `query` over `document`, returning result
/// ids in emission order.
Result<std::vector<xml::NodeId>> EvaluateToIds(
    std::string_view query, std::string_view document,
    EvaluatorOptions options = EvaluatorOptions());

}  // namespace twigm::core

#endif  // TWIGM_CORE_EVALUATOR_H_
