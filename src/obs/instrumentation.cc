#include "obs/instrumentation.h"

namespace twigm::obs {

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kTokenize: return "tokenize";
    case Stage::kScan: return "scan";
    case Stage::kDrive: return "drive";
    case Stage::kMachine: return "machine";
    case Stage::kEmit: return "emit";
  }
  return "?";
}

const char* TraceEventKindName(TraceEvent::Kind kind) {
  switch (kind) {
    case TraceEvent::Kind::kStackPush: return "push";
    case TraceEvent::Kind::kStackPop: return "pop";
    case TraceEvent::Kind::kCandidate: return "candidate";
    case TraceEvent::Kind::kPrune: return "prune";
    case TraceEvent::Kind::kEmit: return "emit";
  }
  return "?";
}

StageBreakdown Instrumentation::stages() const {
  const uint64_t tokenize = stage_inclusive_ns(Stage::kTokenize);
  const uint64_t scan = stage_inclusive_ns(Stage::kScan);
  const uint64_t drive = stage_inclusive_ns(Stage::kDrive);
  const uint64_t machine = stage_inclusive_ns(Stage::kMachine);
  const uint64_t emit = stage_inclusive_ns(Stage::kEmit);
  StageBreakdown out;
  out.total_ns = tokenize;
  // Inclusive times nest tokenize >= scan + drive and drive >= machine >=
  // emit in a correctly wired pipeline; clamp anyway so a partial wiring
  // never underflows.
  out.scan_ns = scan;
  out.tokenize_ns = tokenize > scan + drive ? tokenize - scan - drive : 0;
  out.drive_ns = drive > machine ? drive - machine : 0;
  out.machine_ns = machine > emit ? machine - emit : 0;
  out.emit_ns = emit;
  return out;
}

void Instrumentation::ResetValues() {
  registry_.ResetValues();
  byte_offset_ = 0;
  for (size_t i = 0; i < kStageCount; ++i) stage_ns_[i] = 0;
  for (uint64_t& d : node_depth_peak_) d = 0;
}

}  // namespace twigm::obs
