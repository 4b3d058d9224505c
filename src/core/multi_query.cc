#include "core/multi_query.h"

#include "xpath/query_tree.h"

namespace twigm::core {

namespace {

EngineKind PickEngineForTree(const xpath::QueryTree& query) {
  if (query.is_linear() && !query.has_value_tests()) return EngineKind::kPathM;
  if (!query.has_descendant_axis() && !query.has_wildcard()) {
    return EngineKind::kBranchM;
  }
  return EngineKind::kTwigM;
}

}  // namespace

Result<std::unique_ptr<MultiQueryProcessor>> MultiQueryProcessor::Create(
    const std::vector<std::string>& queries, MultiQueryResultSink* sink,
    EvaluatorOptions options) {
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

  for (size_t i = 0; i < queries.size(); ++i) {
    Result<xpath::QueryTree> tree = xpath::QueryTree::Parse(queries[i]);
    if (!tree.ok()) {
      return Status::InvalidArgument(
          "query #" + std::to_string(i) + ": " + tree.status().ToString());
    }
    Entry entry;
    entry.tag_sink = std::make_unique<TaggingSink>(proc.get(), i);
    entry.kind = options.engine == EngineKind::kAuto
                     ? PickEngineForTree(tree.value())
                     : options.engine;
    obs::Instrumentation* instr = options.instrumentation;
    uint64_t* offset_slot = instr != nullptr ? instr->byte_offset_slot()
                                             : &proc->stream_offset_;
    switch (entry.kind) {
      case EngineKind::kPathM: {
        Result<std::unique_ptr<PathMachine>> m =
            PathMachine::Create(tree.value(), entry.tag_sink.get());
        if (!m.ok()) return m.status();
        entry.path = std::move(m).value();
        entry.path->set_instrumentation(instr);
        entry.path->set_stream_offset(offset_slot);
        entry.machine = entry.path.get();
        break;
      }
      case EngineKind::kBranchM: {
        Result<std::unique_ptr<BranchMachine>> m =
            BranchMachine::Create(tree.value(), entry.tag_sink.get());
        if (!m.ok()) return m.status();
        entry.branch = std::move(m).value();
        entry.branch->set_instrumentation(instr);
        entry.branch->set_stream_offset(offset_slot);
        entry.machine = entry.branch.get();
        break;
      }
      case EngineKind::kAuto:
      case EngineKind::kTwigM: {
        Result<std::unique_ptr<TwigMachine>> m = TwigMachine::Create(
            tree.value(), entry.tag_sink.get(), options.twig);
        if (!m.ok()) return m.status();
        entry.kind = EngineKind::kTwigM;
        entry.twig = std::move(m).value();
        entry.twig->set_instrumentation(instr);
        entry.twig->set_stream_offset(offset_slot);
        entry.machine = entry.twig.get();
        break;
      }
    }
    proc->entries_.push_back(std::move(entry));
  }

  proc->fan_out_ = std::make_unique<FanOut>(proc.get());
  proc->driver_ = std::make_unique<xml::EventDriver>(proc->fan_out_.get());
  proc->driver_->set_instrumentation(options.instrumentation);
  proc->parser_ =
      std::make_unique<xml::SaxParser>(proc->driver_.get(), options.sax);
  proc->parser_->set_offset_slot(options.instrumentation != nullptr
                                     ? options.instrumentation->byte_offset_slot()
                                     : &proc->stream_offset_);
  proc->parser_->set_scan_timer_slot(
      options.instrumentation != nullptr
          ? options.instrumentation->stage_slot(obs::Stage::kScan)
          : nullptr);
  // Bind every machine's labels to the shared parser's tag dictionary so
  // the fan-out dispatches on SymbolIds (DESIGN.md §10).
  for (Entry& e : proc->entries_) {
    if (e.twig != nullptr) e.twig->BindInterner(proc->parser_->interner());
    if (e.path != nullptr) e.path->BindInterner(proc->parser_->interner());
    if (e.branch != nullptr) {
      e.branch->BindInterner(proc->parser_->interner());
    }
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

Status MultiQueryProcessor::Pump(xml::ByteSource* source) {
  xml::InputChunk chunk;
  while (source->Next(&chunk)) {
    TWIGM_RETURN_IF_ERROR(Consume(chunk));
  }
  return Status::Ok();
}

void MultiQueryProcessor::Reset() {
  for (Entry& e : entries_) {
    if (e.twig != nullptr) e.twig->Reset();
    if (e.path != nullptr) e.path->Reset();
    if (e.branch != nullptr) e.branch->Reset();
  }
  total_results_ = 0;
  stream_offset_ = 0;
  // Rewind the parser and driver in place: the parser's interner holds the
  // machines' symbol bindings and its buffers stay warm across documents.
  parser_->Reset();
  driver_->Reset();
}

const MachineGraph& MultiQueryProcessor::graph(size_t query_index) const {
  const Entry& e = entries_[query_index];
  switch (e.kind) {
    case EngineKind::kPathM:
      return e.path->graph();
    case EngineKind::kBranchM:
      return e.branch->graph();
    default:
      return e.twig->graph();
  }
}

void MultiQueryProcessor::set_level_bounds(size_t query_index,
                                           LevelBounds bounds) {
  Entry& e = entries_[query_index];
  switch (e.kind) {
    case EngineKind::kPathM:
      e.path->set_level_bounds(std::move(bounds));
      break;
    case EngineKind::kBranchM:
      e.branch->set_level_bounds(std::move(bounds));
      break;
    default:
      e.twig->set_level_bounds(std::move(bounds));
      break;
  }
}

void MultiQueryProcessor::set_decision_table(
    size_t query_index, std::shared_ptr<const DecisionTable> table) {
  Entry& e = entries_[query_index];
  const EarlyDecisionMode mode = options_.enable_early_decisions;
  switch (e.kind) {
    case EngineKind::kPathM:
      e.path->set_decisions(std::move(table), mode);
      break;
    case EngineKind::kBranchM:
      e.branch->set_decisions(std::move(table), mode);
      break;
    default:
      e.twig->set_decisions(std::move(table), mode);
      break;
  }
}

const EngineStats& MultiQueryProcessor::stats(size_t query_index) const {
  const Entry& e = entries_[query_index];
  switch (e.kind) {
    case EngineKind::kPathM:
      return e.path->stats();
    case EngineKind::kBranchM:
      return e.branch->stats();
    default:
      return e.twig->stats();
  }
}

}  // namespace twigm::core
