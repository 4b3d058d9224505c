#include "core/streaming_machine.h"

namespace twigm::core {

const char* EngineKindToString(EngineKind kind) {
  switch (kind) {
    case EngineKind::kAuto: return "auto";
    case EngineKind::kPathM: return "PathM";
    case EngineKind::kTwigM: return "TwigM";
  }
  return "?";
}

StreamingMachine::StreamingMachine(EngineKind kind, MachineGraph graph,
                                   MatchObserver* observer)
    : graph_(std::move(graph)), sink_(observer), kind_(kind) {}

void StreamingMachine::BindInterner(xml::TagInterner* interner) {
  interner_ = interner;
  for (const auto& node : graph_.nodes()) {
    if (!node->is_wildcard) node->symbol = interner->Intern(node->label);
  }
  BuildPostings(interner->size());
  RebuildSymToElem();
}

void StreamingMachine::Reset() {
  stats_ = EngineStats();
  cur_elem_ = -1;
}

void StreamingMachine::set_instrumentation(obs::Instrumentation* instr) {
  if (instr != instr_) gap_hist_ = nullptr;
  instr_ = instr;
  if (instr_ != nullptr) {
    instr_->EnsureNodeSlots(graph_.node_count());
    RegisterGapHistogram();
  }
}

void StreamingMachine::set_decisions(std::shared_ptr<const DecisionTable> table,
                                     EarlyDecisionMode mode) {
  decisions_ = std::move(table);
  decision_mode_ = mode;
  RebuildSymToElem();
  RegisterGapHistogram();
}

void StreamingMachine::RebuildSymToElem() {
  sym_to_elem_.clear();
  if (decisions_ == nullptr || interner_ == nullptr) return;
  // Intern every DTD element name so document tags that are no query label
  // still map to their fact row. Names interned after BindInterner fall
  // outside the postings vectors, which already means wildcard-only
  // dispatch — exactly the behaviour for any non-label tag.
  const std::vector<std::string>& names = decisions_->element_names();
  for (size_t e = 0; e < names.size(); ++e) {
    const xml::SymbolId s = interner_->Intern(names[e]);
    if (sym_to_elem_.size() <= s) sym_to_elem_.resize(s + 1, -1);
    sym_to_elem_[s] = static_cast<int32_t>(e);
  }
}

void StreamingMachine::RegisterGapHistogram() {
  if (instr_ == nullptr || gap_hist_ != nullptr) return;
  if (decision_mode_ == EarlyDecisionMode::kOff) return;
  gap_hist_ = instr_->registry().RegisterHistogram(
      "engine.emission_gap_bytes", obs::ExponentialBuckets(1, 4, 16));
}

}  // namespace twigm::core
