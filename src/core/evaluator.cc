#include "core/evaluator.h"

namespace twigm::core {

namespace {

// kAuto's choice: only a linear query (no predicates, no value tests) can
// run on PathM; TwigM evaluates the rest of XP{/,//,*,[]}.
EngineKind PickEngine(const xpath::QueryTree& query) {
  if (query.is_linear() && !query.has_value_tests()) return EngineKind::kPathM;
  return EngineKind::kTwigM;
}

}  // namespace

Result<std::unique_ptr<StreamingMachine>> CreateMachine(
    const xpath::QueryTree& query, MatchObserver* observer,
    const EvaluatorOptions& options, const uint64_t* offset_slot) {
  const EngineKind kind = options.engine == EngineKind::kAuto
                              ? PickEngine(query)
                              : options.engine;
  std::unique_ptr<StreamingMachine> machine;
  if (kind == EngineKind::kPathM) {
    Result<std::unique_ptr<PathMachine>> m =
        PathMachine::Create(query, observer);
    if (!m.ok()) return m.status();
    machine = std::move(m).value();
  } else {
    Result<std::unique_ptr<TwigMachine>> m =
        TwigMachine::Create(query, observer, options.twig);
    if (!m.ok()) return m.status();
    machine = std::move(m).value();
  }
  machine->set_instrumentation(options.instrumentation);
  machine->set_stream_offset(offset_slot);
  return machine;
}

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
  Result<std::unique_ptr<StreamingMachine>> machine =
      CreateMachine(proc->query_, machine_observer, options, offset_slot);
  if (!machine.ok()) return machine.status();
  proc->machine_ = std::move(machine).value();

  // In fragment mode the recorder sits between driver and machine.
  xml::StreamEventSink* head = proc->machine_.get();
  if (fragments) {
    proc->recorder_->set_machine(head);
    head = proc->recorder_.get();
  }
  proc->driver_ = std::make_unique<xml::EventDriver>(head);
  proc->driver_->set_instrumentation(instr);
  proc->parser_ = std::make_unique<xml::SaxParser>(proc->driver_.get(),
                                                   options.sax);
  proc->parser_->set_offset_slot(offset_slot);
  proc->parser_->set_scan_timer_slot(
      instr != nullptr ? instr->stage_slot(obs::Stage::kScan) : nullptr);
  // Bind the machine's query labels to this parser's tag dictionary so
  // per-event dispatch runs on SymbolIds (DESIGN.md §10).
  proc->machine_->BindInterner(proc->parser_->interner());
  return proc;
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
  machine_->Reset();
  if (recorder_ != nullptr) recorder_->Reset();
  stream_offset_ = 0;
  // Rewind the existing parser and driver in place rather than rebuilding
  // them: the parser keeps its buffers and its interner (the machines'
  // symbol bindings point at it), so repeat documents run allocation-free.
  parser_->Reset();
  driver_->Reset();
}

void XPathStreamProcessor::InstallDecisionTable(
    std::shared_ptr<const DecisionTable> table) {
  machine_->set_decisions(std::move(table), options_.enable_early_decisions);
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
  export_->hotpath_pool_entries->Set(machine_->pool_entries());
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
