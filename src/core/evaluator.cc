#include "core/evaluator.h"

namespace twigm::core {

const char* EngineKindToString(EngineKind kind) {
  switch (kind) {
    case EngineKind::kAuto: return "auto";
    case EngineKind::kPathM: return "PathM";
    case EngineKind::kBranchM: return "BranchM";
    case EngineKind::kTwigM: return "TwigM";
  }
  return "?";
}

namespace {

EngineKind PickEngine(const xpath::QueryTree& query) {
  if (query.is_linear() && !query.has_value_tests()) return EngineKind::kPathM;
  if (!query.has_descendant_axis() && !query.has_wildcard()) {
    return EngineKind::kBranchM;
  }
  return EngineKind::kTwigM;
}

}  // namespace

// Registered-once export instruments; values are refreshed per call.
struct XPathStreamProcessor::ExportHandles {
  obs::MetricsRegistry* registry = nullptr;
  size_t registered_count = 0;  // registry size right after registration
  obs::Counter* start_events = nullptr;
  obs::Counter* end_events = nullptr;
  obs::Counter* pushes = nullptr;
  obs::Counter* pops = nullptr;
  obs::Counter* results = nullptr;
  obs::Counter* predicate_checks = nullptr;
  obs::Counter* candidate_unions = nullptr;
  obs::Counter* live_stack_entries = nullptr;
  obs::Counter* peak_stack_entries = nullptr;
  obs::Counter* live_candidates = nullptr;
  obs::Counter* peak_candidates = nullptr;
  obs::Counter* peak_state_bytes = nullptr;
  obs::Counter* early_emitted = nullptr;
  obs::Counter* early_dropped = nullptr;
  obs::Counter* states_skipped = nullptr;
  obs::Counter* gap_sum_bytes = nullptr;
  obs::Counter* gap_count = nullptr;
  obs::Counter* gap_max_bytes = nullptr;
  obs::Counter* fragment_peak_buffered_bytes = nullptr;
  obs::Counter* hotpath_interner_symbols = nullptr;
  obs::Counter* hotpath_pool_entries = nullptr;
};

XPathStreamProcessor::XPathStreamProcessor() = default;
XPathStreamProcessor::~XPathStreamProcessor() = default;

Result<std::unique_ptr<XPathStreamProcessor>> XPathStreamProcessor::Create(
    std::string_view query_text, MatchObserver* observer,
    EvaluatorOptions options) {
  if (observer == nullptr) {
    return Status::InvalidArgument(
        "XPathStreamProcessor requires a match observer");
  }
  Result<xpath::QueryTree> query = xpath::QueryTree::Parse(query_text);
  if (!query.ok()) return query.status();

  auto proc =
      std::unique_ptr<XPathStreamProcessor>(new XPathStreamProcessor());
  proc->query_ = std::move(query).value();
  proc->options_ = options;
  proc->engine_kind_ = options.engine == EngineKind::kAuto
                           ? PickEngine(proc->query_)
                           : options.engine;

  const bool fragments =
      options.capture_fragments || observer->wants_fragments();
  MatchObserver* machine_observer = observer;
  if (fragments) {
    proc->recorder_ = std::make_unique<FragmentRecorder>(observer);
    machine_observer = proc->recorder_.get();
  }

  // With instrumentation attached, everyone shares its byte-offset slot so
  // trace events and MatchInfo agree; otherwise the processor's own word.
  obs::Instrumentation* instr = options.instrumentation;
  uint64_t* offset_slot =
      instr != nullptr ? instr->byte_offset_slot() : &proc->stream_offset_;
  switch (proc->engine_kind_) {
    case EngineKind::kPathM: {
      Result<std::unique_ptr<PathMachine>> m =
          PathMachine::Create(proc->query_, machine_observer);
      if (!m.ok()) return m.status();
      proc->path_ = std::move(m).value();
      proc->path_->set_instrumentation(instr);
      proc->path_->set_stream_offset(offset_slot);
      proc->machine_ = proc->path_.get();
      break;
    }
    case EngineKind::kBranchM: {
      Result<std::unique_ptr<BranchMachine>> m =
          BranchMachine::Create(proc->query_, machine_observer);
      if (!m.ok()) return m.status();
      proc->branch_ = std::move(m).value();
      proc->branch_->set_instrumentation(instr);
      proc->branch_->set_stream_offset(offset_slot);
      proc->machine_ = proc->branch_.get();
      break;
    }
    case EngineKind::kAuto:
    case EngineKind::kTwigM: {
      Result<std::unique_ptr<TwigMachine>> m =
          TwigMachine::Create(proc->query_, machine_observer, options.twig);
      if (!m.ok()) return m.status();
      proc->engine_kind_ = EngineKind::kTwigM;
      proc->twig_ = std::move(m).value();
      proc->twig_->set_instrumentation(instr);
      proc->twig_->set_stream_offset(offset_slot);
      proc->machine_ = proc->twig_.get();
      break;
    }
  }

  if (fragments) {
    // Splice the recorder between driver and machine.
    proc->recorder_->set_machine(proc->machine_);
    proc->machine_ = proc->recorder_.get();
  }
  proc->WireStream();
  return proc;
}

void XPathStreamProcessor::WireStream() {
  driver_ = std::make_unique<xml::EventDriver>(machine_);
  driver_->set_instrumentation(options_.instrumentation);
  parser_ = std::make_unique<xml::SaxParser>(driver_.get(), options_.sax);
  parser_->set_offset_slot(options_.instrumentation != nullptr
                               ? options_.instrumentation->byte_offset_slot()
                               : &stream_offset_);
  parser_->set_scan_timer_slot(
      options_.instrumentation != nullptr
          ? options_.instrumentation->stage_slot(obs::Stage::kScan)
          : nullptr);
  // Bind the machine's query labels to this parser's tag dictionary so
  // per-event dispatch runs on SymbolIds (DESIGN.md §10).
  if (twig_ != nullptr) twig_->BindInterner(parser_->interner());
  if (path_ != nullptr) path_->BindInterner(parser_->interner());
  if (branch_ != nullptr) branch_->BindInterner(parser_->interner());
}

Status XPathStreamProcessor::Consume(const xml::InputChunk& chunk) {
  obs::TimerScope tokenize(options_.instrumentation != nullptr
                               ? options_.instrumentation->stage_slot(
                                     obs::Stage::kTokenize)
                               : nullptr);
  return parser_->Consume(chunk);
}

Status XPathStreamProcessor::Pump(xml::ByteSource* source) {
  xml::InputChunk chunk;
  while (source->Next(&chunk)) {
    TWIGM_RETURN_IF_ERROR(Consume(chunk));
  }
  return Status::Ok();
}

void XPathStreamProcessor::Reset() {
  if (twig_ != nullptr) twig_->Reset();
  if (path_ != nullptr) path_->Reset();
  if (branch_ != nullptr) branch_->Reset();
  if (recorder_ != nullptr) recorder_->Reset();
  stream_offset_ = 0;
  // Rewind the existing parser and driver in place rather than rebuilding
  // them: the parser keeps its buffers and its interner (the machines'
  // symbol bindings point at it), so repeat documents run allocation-free.
  parser_->Reset();
  driver_->Reset();
}

const MachineGraph& XPathStreamProcessor::machine_graph() const {
  switch (engine_kind_) {
    case EngineKind::kPathM:
      return path_->graph();
    case EngineKind::kBranchM:
      return branch_->graph();
    default:
      return twig_->graph();
  }
}

void XPathStreamProcessor::InstallDecisionTable(
    std::shared_ptr<const DecisionTable> table) {
  const EarlyDecisionMode mode = options_.enable_early_decisions;
  if (twig_ != nullptr) twig_->set_decisions(std::move(table), mode);
  else if (path_ != nullptr) path_->set_decisions(std::move(table), mode);
  else if (branch_ != nullptr) branch_->set_decisions(std::move(table), mode);
}

const EngineStats& XPathStreamProcessor::stats() const {
  switch (engine_kind_) {
    case EngineKind::kPathM:
      return path_->stats();
    case EngineKind::kBranchM:
      return branch_->stats();
    default:
      return twig_->stats();
  }
}

void XPathStreamProcessor::ExportMetrics(obs::MetricsRegistry* registry) const {
  // Re-register when given a different registry — or one whose instrument
  // count shrank below what we registered (a fresh registry re-created at
  // the same address; pointer equality alone would mistake it for the old).
  if (export_ == nullptr || export_->registry != registry ||
      registry->instrument_count() < export_->registered_count) {
    export_ = std::make_unique<ExportHandles>();
    export_->registry = registry;
    export_->start_events = registry->RegisterCounter("engine.start_events");
    export_->end_events = registry->RegisterCounter("engine.end_events");
    export_->pushes = registry->RegisterCounter("engine.pushes");
    export_->pops = registry->RegisterCounter("engine.pops");
    export_->results = registry->RegisterCounter("engine.results");
    export_->predicate_checks =
        registry->RegisterCounter("engine.predicate_checks");
    export_->candidate_unions =
        registry->RegisterCounter("engine.candidate_unions");
    export_->live_stack_entries =
        registry->RegisterCounter("engine.live_stack_entries");
    export_->peak_stack_entries =
        registry->RegisterCounter("engine.peak_stack_entries");
    export_->live_candidates =
        registry->RegisterCounter("engine.live_candidates");
    export_->peak_candidates =
        registry->RegisterCounter("engine.peak_candidates");
    export_->peak_state_bytes =
        registry->RegisterCounter("engine.peak_state_bytes");
    export_->early_emitted = registry->RegisterCounter("engine.early_emitted");
    export_->early_dropped = registry->RegisterCounter("engine.early_dropped");
    export_->states_skipped =
        registry->RegisterCounter("engine.states_skipped");
    export_->gap_sum_bytes =
        registry->RegisterCounter("engine.gap_sum_bytes");
    export_->gap_count = registry->RegisterCounter("engine.gap_count");
    export_->gap_max_bytes =
        registry->RegisterCounter("engine.gap_max_bytes");
    export_->fragment_peak_buffered_bytes =
        registry->RegisterCounter("fragment.peak_buffered_bytes");
    export_->hotpath_interner_symbols =
        registry->RegisterCounter("hotpath.interner_symbols");
    export_->hotpath_pool_entries =
        registry->RegisterCounter("hotpath.pool_entries");
    export_->registered_count = registry->instrument_count();
  }
  const EngineStats& s = stats();
  export_->start_events->Set(s.start_events);
  export_->end_events->Set(s.end_events);
  export_->pushes->Set(s.pushes);
  export_->pops->Set(s.pops);
  export_->results->Set(s.results);
  export_->predicate_checks->Set(s.predicate_checks);
  export_->candidate_unions->Set(s.candidate_unions);
  export_->live_stack_entries->Set(s.live_stack_entries);
  export_->peak_stack_entries->Set(s.peak_stack_entries);
  export_->live_candidates->Set(s.live_candidates);
  export_->peak_candidates->Set(s.peak_candidates);
  export_->peak_state_bytes->Set(s.peak_state_bytes);
  export_->early_emitted->Set(s.early_emitted);
  export_->early_dropped->Set(s.early_dropped);
  export_->states_skipped->Set(s.states_skipped);
  export_->gap_sum_bytes->Set(s.gap_sum_bytes);
  export_->gap_count->Set(s.gap_count);
  export_->gap_max_bytes->Set(s.gap_max_bytes);
  export_->fragment_peak_buffered_bytes->Set(fragment_peak_buffered_bytes());
  export_->hotpath_interner_symbols->Set(
      parser_ != nullptr ? parser_->interner()->size() : 0);
  export_->hotpath_pool_entries->Set(twig_ != nullptr ? twig_->pool_entries()
                                                      : 0);
}

Result<std::vector<xml::NodeId>> EvaluateToIds(std::string_view query,
                                               std::string_view document,
                                               EvaluatorOptions options) {
  VectorResultSink sink;
  Result<std::unique_ptr<XPathStreamProcessor>> proc =
      XPathStreamProcessor::Create(query, &sink, options);
  if (!proc.ok()) return proc.status();
  Status s = proc.value()->Consume({document, /*last=*/true});
  if (!s.ok()) return s;
  return sink.TakeIds();
}

}  // namespace twigm::core
