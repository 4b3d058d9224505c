#include "core/evaluator.h"

namespace twigm::core {

Result<std::unique_ptr<TwigMachine>> CreateMachine(
    const xpath::QueryTree& query, MatchObserver* observer,
    const EvaluatorOptions& options, const uint64_t* offset_slot) {
  Result<std::unique_ptr<TwigMachine>> machine =
      TwigMachine::Create(query, observer, options.twig);
  if (!machine.ok()) return machine.status();
  machine.value()->set_instrumentation(options.instrumentation);
  machine.value()->set_stream_offset(offset_slot);
  return machine;
}

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
  const bool fragments = observer->wants_fragments();
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
  Result<std::unique_ptr<TwigMachine>> machine =
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
  const EngineStats& s = stats();
  registry->SetCounter("engine.start_events", s.start_events);
  registry->SetCounter("engine.end_events", s.end_events);
  registry->SetCounter("engine.pushes", s.pushes);
  registry->SetCounter("engine.pops", s.pops);
  registry->SetCounter("engine.results", s.results);
  registry->SetCounter("engine.predicate_checks", s.predicate_checks);
  registry->SetCounter("engine.candidate_unions", s.candidate_unions);
  registry->SetCounter("engine.live_stack_entries", s.live_stack_entries);
  registry->SetCounter("engine.peak_stack_entries", s.peak_stack_entries);
  registry->SetCounter("engine.live_candidates", s.live_candidates);
  registry->SetCounter("engine.peak_candidates", s.peak_candidates);
  registry->SetCounter("engine.peak_state_bytes", s.peak_state_bytes);
  registry->SetCounter("engine.early_emitted", s.early_emitted);
  registry->SetCounter("engine.early_dropped", s.early_dropped);
  registry->SetCounter("engine.states_skipped", s.states_skipped);
  registry->SetCounter("engine.gap_sum_bytes", s.gap_sum_bytes);
  registry->SetCounter("engine.gap_count", s.gap_count);
  registry->SetCounter("engine.gap_max_bytes", s.gap_max_bytes);
  registry->SetCounter("fragment.peak_buffered_bytes",
                       fragment_peak_buffered_bytes());
  registry->SetCounter("hotpath.interner_symbols", parser_->interner()->size());
  registry->SetCounter("hotpath.pool_entries", machine_->pool_entries());
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
