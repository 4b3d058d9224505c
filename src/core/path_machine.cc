#include "core/path_machine.h"

#include "core/invariants.h"

namespace twigm::core {

Result<std::unique_ptr<PathMachine>> PathMachine::Create(
    const xpath::QueryTree& query, MatchObserver* observer) {
  if (observer == nullptr) {
    return Status::InvalidArgument("PathMachine requires a match observer");
  }
  if (query.has_predicates() || query.has_value_tests()) {
    return Status::NotSupported(
        "PathM evaluates XP{/,//,*} only; use TwigM for predicates");
  }
  Result<MachineGraph> graph = MachineGraph::Build(query);
  if (!graph.ok()) return graph.status();
  return std::unique_ptr<PathMachine>(
      new PathMachine(std::move(graph).value(), observer));
}

PathMachine::PathMachine(MachineGraph graph, MatchObserver* observer)
    : StreamingMachine(EngineKind::kPathM, std::move(graph), observer) {
  // A linear query's machine graph is a chain from the root to the return
  // node.
  const MachineNode* node = graph_.root();
  while (node != nullptr) {
    chain_.push_back(node);
    node = node->children.empty() ? nullptr : node->children.front();
  }
  stacks_.resize(chain_.size());
  for (size_t i = 0; i < chain_.size(); ++i) {
    if (chain_[i]->is_wildcard) wildcard_positions_.push_back(i);
  }
}

void PathMachine::BuildPostings(size_t symbol_count) {
  postings_.assign(symbol_count, {});
  for (size_t i = 0; i < chain_.size(); ++i) {
    if (!chain_[i]->is_wildcard) {
      postings_[chain_[i]->symbol].push_back(i);
    }
  }
}

void PathMachine::Reset() {
  StreamingMachine::Reset();
  for (auto& stack : stacks_) stack.clear();
  live_entries_ = 0;
}

// hotpath
void PathMachine::TryStartPosition(size_t i, int level, xml::NodeId id) {
  const MachineNode* v = chain_[i];
  if (!level_bounds_.empty() &&
      !level_bounds_[static_cast<size_t>(v->id)].Allows(level)) {
    return;
  }
  bool qualified = false;
  if (i == 0) {
    qualified = v->edge.Satisfies(level);
  } else {
    for (int parent_level : stacks_[i - 1]) {
      if (v->edge.Satisfies(level - parent_level)) {
        qualified = true;
        break;
      }
    }
  }
  if (!qualified) return;
  // Earliest-decision skip: no output chain can complete below this
  // element, so the entry could never contribute to a result.
  if (decision_mode_ == EarlyDecisionMode::kOn) {
    const NodeDecision* dec = DecisionFor(v->id);
    if (dec != nullptr && (dec->useless() || dec->refuted())) {
      ++stats_.states_skipped;
      return;
    }
  }
  // Ancestor-ordering lemma: each stack holds levels of open ancestors,
  // strictly increasing bottom to top.
  TWIGM_INVARIANT(stacks_[i].empty() || stacks_[i].back() < level,
                  "PathM stack levels not strictly increasing at push",
                  offset());
  stacks_[i].push_back(level);
  ++stats_.pushes;
  ++live_entries_;
  if (instr_ != nullptr) {
    const uint64_t depth = stacks_[i].size();
    instr_->NoteNodeDepth(v->id, depth);
    instr_->Trace(obs::TraceEvent::Kind::kStackPush, v->id, level, id, depth);
  }
  if (v->is_return) {
    // Without predicates, candidacy and membership coincide: results are
    // emitted at startElement, the earliest point possible.
    sink_->OnCandidate(id);
    obs::TimerScope emit_timer(
        instr_ != nullptr ? instr_->stage_slot(obs::Stage::kEmit) : nullptr);
    sink_->OnResult(MatchInfo{id, offset(), v->id});
    ++stats_.results;
    if (decision_mode_ != EarlyDecisionMode::kOff) {
      // Start-event emission is the earliest possible point: gap 0.
      NoteGap(0);
    }
    if (instr_ != nullptr) {
      instr_->Trace(obs::TraceEvent::Kind::kCandidate, v->id, level, id, 1);
      instr_->Trace(obs::TraceEvent::Kind::kEmit, v->id, level, id, 0);
    }
  }
}

// hotpath
void PathMachine::StartElement(const xml::TagToken& tag, int level,
                               xml::NodeId id,
                               const std::vector<xml::Attribute>& attrs) {
  (void)attrs;
  ++stats_.start_events;
  TWIGM_INVARIANT(interner_ != nullptr,
                  "start event on a PathM never bound to an interner",
                  offset());
  cur_elem_ = -1;
  if (decisions_ != nullptr && decision_mode_ != EarlyDecisionMode::kOff &&
      tag.symbol < sym_to_elem_.size()) {
    cur_elem_ = sym_to_elem_[tag.symbol];
  }
  // A symbol past the bound range names a tag no query label mentions:
  // only wildcard positions can match it.
  if (tag.symbol < postings_.size()) {
    for (size_t i : postings_[tag.symbol]) TryStartPosition(i, level, id);
  }
  for (size_t i : wildcard_positions_) TryStartPosition(i, level, id);
  stats_.NoteEntries(live_entries_);
  stats_.NoteBytes(live_entries_ * sizeof(int));
}

// hotpath
void PathMachine::PopPosition(size_t i, int level) {
  std::vector<int>& stack = stacks_[i];
  if (!stack.empty() && stack.back() == level) {
    stack.pop_back();
    ++stats_.pops;
    --live_entries_;
    if (instr_ != nullptr) {
      instr_->Trace(obs::TraceEvent::Kind::kStackPop, chain_[i]->id, level, 0,
                    stack.size());
    }
  }
}

// hotpath
void PathMachine::EndElement(const xml::TagToken& tag, int level) {
  ++stats_.end_events;
  // Pops at different positions are independent (no propagation in PathM),
  // so dispatch order does not matter.
  if (tag.symbol < postings_.size()) {
    for (size_t i : postings_[tag.symbol]) PopPosition(i, level);
  }
  for (size_t i : wildcard_positions_) PopPosition(i, level);
  stats_.NoteEntries(live_entries_);
}

void PathMachine::EndDocument() {}

}  // namespace twigm::core
