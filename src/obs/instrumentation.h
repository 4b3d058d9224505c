// The engine-facing observability hook.
//
// Every stream component (SaxParser via its offset slot, the machines,
// FilterEngine, the baseline MultiQueryProcessor) accepts an
// `Instrumentation*` that defaults to null. Null means *off*: each
// instrumented site is a single predictable `if (instr_ == nullptr)` branch
// and nothing else — no clock reads, no stores, no virtual calls; the
// processors then hand their sink to the parser directly, and only with an
// Instrumentation attached put an xml::StageTimedSink in between — so the
// default configuration stays within noise of the un-instrumented engine
// (bench_fig7_exec_time's Overhead pair verifies this; CI fails if the gap
// exceeds 5%).
//
// With an Instrumentation attached you get:
//   * a MetricsRegistry (counters/gauges/histograms; no allocation on the
//     hot path) that engines export their EngineStats-style accounting
//     into,
//   * per-stage wall time via RAII TimerScopes — kTokenize (bytes in,
//     the whole Consume call), kScan (the parser's structural scan, one
//     timer per Consume), kDrive (the parser-to-sink hop), kMachine
//     (transition functions), kEmit (result delivery). kScan and kDrive
//     both nest inside kTokenize; kMachine nests in kDrive and kEmit in
//     kMachine, so exclusive times are differences (StageBreakdown
//     computes them),
//   * per-query-node peak stack depth — the observable form of the paper's
//     memory bound (|Q| stacks, each bounded by document depth),
//   * structured TraceEvents (push/pop/candidate/prune/emit with byte
//     offsets) when a TraceSink is attached; per-result emission latency in
//     bytes falls out of pairing kCandidate/kEmit offsets.

#ifndef TWIGM_OBS_INSTRUMENTATION_H_
#define TWIGM_OBS_INSTRUMENTATION_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace twigm::obs {

/// Pipeline stages, outermost first. Each recorded time is *inclusive* of
/// the stages nested in it: kTokenize spans the whole Consume call, so it
/// holds the structural scan (kScan) and the dispatch (kDrive) as two
/// disjoint parts; kDrive holds kMachine, which holds kEmit.
enum class Stage : uint8_t { kTokenize = 0, kScan, kDrive, kMachine, kEmit };
inline constexpr size_t kStageCount = 5;

const char* StageName(Stage stage);

/// Accumulates wall time into a uint64_t nanosecond slot; a null slot makes
/// construction and destruction free of clock reads.
class TimerScope {
 public:
  explicit TimerScope(uint64_t* acc_ns) : acc_ns_(acc_ns) {
    if (acc_ns_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~TimerScope() {
    if (acc_ns_ != nullptr) {
      *acc_ns_ += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start_)
              .count());
    }
  }
  TimerScope(const TimerScope&) = delete;
  TimerScope& operator=(const TimerScope&) = delete;

 private:
  uint64_t* acc_ns_;
  std::chrono::steady_clock::time_point start_;
};

/// Exclusive per-stage times derived from the inclusive accumulators.
struct StageBreakdown {
  uint64_t scan_ns = 0;      // structural scan (parser stage 1)
  uint64_t tokenize_ns = 0;  // Consume minus scan minus dispatch
  uint64_t drive_ns = 0;     // dispatch minus machine
  uint64_t machine_ns = 0;   // machine minus emit
  uint64_t emit_ns = 0;
  uint64_t total_ns = 0;     // inclusive Consume time
};

class Instrumentation {
 public:
  Instrumentation() = default;
  Instrumentation(const Instrumentation&) = delete;
  Instrumentation& operator=(const Instrumentation&) = delete;

  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }

  void set_trace_sink(TraceSink* sink) { trace_sink_ = sink; }
  TraceSink* trace_sink() const { return trace_sink_; }

  // --- Stream position ------------------------------------------------
  // The parser stores the byte offset of each SAX construct here before
  // calling its sink; machines stamp emissions and trace events with it.
  uint64_t* byte_offset_slot() { return &byte_offset_; }
  uint64_t byte_offset() const { return byte_offset_; }

  // --- Stage timers ---------------------------------------------------
  uint64_t* stage_slot(Stage s) { return &stage_ns_[static_cast<size_t>(s)]; }
  uint64_t stage_inclusive_ns(Stage s) const {
    return stage_ns_[static_cast<size_t>(s)];
  }
  StageBreakdown stages() const;

  // --- Per-query-node stack depth -------------------------------------
  /// Sizes the per-node depth table; called by a machine when attached.
  /// Grows only (several machines may share one Instrumentation).
  void EnsureNodeSlots(size_t node_count) {
    if (node_depth_peak_.size() < node_count) {
      node_depth_peak_.resize(node_count, 0);
    }
  }
  void NoteNodeDepth(int node, uint64_t depth) {
    if (static_cast<size_t>(node) < node_depth_peak_.size() &&
        depth > node_depth_peak_[node]) {
      node_depth_peak_[node] = depth;
    }
  }
  /// Peak stack depth per machine-node id (the paper's memory bound,
  /// observed: each entry is bounded by the document depth).
  const std::vector<uint64_t>& node_depth_peaks() const {
    return node_depth_peak_;
  }

  // --- Trace ----------------------------------------------------------
  bool tracing() const { return trace_sink_ != nullptr; }
  void Emit(const TraceEvent& event) {
    if (trace_sink_ != nullptr) trace_sink_->OnEvent(event);
  }
  /// Convenience used by machines; stamps the current byte offset.
  void Trace(TraceEvent::Kind kind, int query_node, int level,
             uint64_t node_id, uint64_t value) {
    if (trace_sink_ == nullptr) return;
    TraceEvent e;
    e.kind = kind;
    e.query_node = query_node;
    e.level = level;
    e.node_id = node_id;
    e.byte_offset = byte_offset_;
    e.value = value;
    trace_sink_->OnEvent(e);
  }

  /// Clears measured values (stage times, depth peaks, registry values and
  /// the offset slot); registrations and the trace sink are kept.
  void ResetValues();

 private:
  MetricsRegistry registry_;
  TraceSink* trace_sink_ = nullptr;
  uint64_t byte_offset_ = 0;
  uint64_t stage_ns_[kStageCount] = {};
  std::vector<uint64_t> node_depth_peak_;
};

}  // namespace twigm::obs

#endif  // TWIGM_OBS_INSTRUMENTATION_H_
