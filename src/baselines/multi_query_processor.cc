#include "baselines/multi_query_processor.h"

#include "xpath/query_tree.h"

namespace twigm::baselines {

Result<std::unique_ptr<MultiQueryProcessor>> MultiQueryProcessor::Create(
    const std::vector<std::string>& queries, core::MultiQueryResultSink* sink,
    core::EvaluatorOptions options) {
  if (sink == nullptr) {
    return Status::InvalidArgument(
        "MultiQueryProcessor requires a result sink");
  }
  if (queries.empty()) {
    return Status::InvalidArgument("no queries given");
  }
  auto proc = std::unique_ptr<MultiQueryProcessor>(new MultiQueryProcessor());
  proc->sink_ = sink;
  proc->options_ = options;
  proc->entries_.reserve(queries.size());
  obs::Instrumentation* instr = options.instrumentation;
  uint64_t* offset_slot =
      instr != nullptr ? instr->byte_offset_slot() : &proc->stream_offset_;

  for (size_t i = 0; i < queries.size(); ++i) {
    Result<xpath::QueryTree> tree = xpath::QueryTree::Parse(queries[i]);
    if (!tree.ok()) {
      return Status::InvalidArgument(
          "query #" + std::to_string(i) + ": " + tree.status().ToString());
    }
    Entry entry;
    entry.tag_sink = std::make_unique<TaggingSink>(proc.get(), i);
    Result<std::unique_ptr<core::TwigMachine>> machine =
        core::CreateMachine(tree.value(), entry.tag_sink.get(), options,
                            offset_slot);
    if (!machine.ok()) return machine.status();
    entry.machine = std::move(machine).value();
    proc->entries_.push_back(std::move(entry));
  }

  proc->fan_out_ = std::make_unique<FanOut>(proc.get());
  proc->driver_ = std::make_unique<xml::EventDriver>(proc->fan_out_.get());
  proc->driver_->set_instrumentation(instr);
  proc->parser_ =
      std::make_unique<xml::SaxParser>(proc->driver_.get(), options.sax);
  proc->parser_->set_offset_slot(offset_slot);
  proc->parser_->set_scan_timer_slot(
      instr != nullptr ? instr->stage_slot(obs::Stage::kScan) : nullptr);
  // Bind every machine's labels to the shared parser's tag dictionary so
  // the fan-out dispatches on SymbolIds (DESIGN.md §10).
  for (Entry& e : proc->entries_) {
    e.machine->BindInterner(proc->parser_->interner());
  }
  return proc;
}

Status MultiQueryProcessor::Consume(const xml::InputChunk& chunk) {
  obs::TimerScope parse(
      options_.instrumentation != nullptr
          ? options_.instrumentation->stage_slot(obs::Stage::kTokenize)
          : nullptr);
  return parser_->Consume(chunk);
}

void MultiQueryProcessor::Reset() {
  for (Entry& e : entries_) e.machine->Reset();
  total_results_ = 0;
  stream_offset_ = 0;
  // Rewind the parser and driver in place: the parser's interner holds the
  // machines' symbol bindings and its buffers stay warm across documents.
  parser_->Reset();
  driver_->Reset();
}

}  // namespace twigm::baselines
