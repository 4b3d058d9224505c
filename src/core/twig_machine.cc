#include "core/twig_machine.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "core/invariants.h"
#include "core/value_test.h"

namespace twigm::core {

size_t UnionSortedIds(const std::vector<xml::NodeId>& src,
                      std::vector<xml::NodeId>* dst) {
  if (src.empty()) return 0;
  if (dst->empty()) {
    dst->assign(src.begin(), src.end());
    return src.size();
  }
  // Fast path: everything in src is larger than dst's back (common, because
  // ids increase in document order).
  if (src.front() > dst->back()) {
    dst->insert(dst->end(), src.begin(), src.end());
    return src.size();
  }
  // General case, in place and single-pass: grow dst by the upper bound
  // (all of src new), merge backwards from largest to smallest, then close
  // the gap duplicates leave. The write cursor stays strictly above the
  // unread dst tail (w - j = i + 1 + duplicates-so-far ≥ 1), so nothing is
  // clobbered and no temporary vector is needed.
  const size_t old_size = dst->size();
  dst->resize(old_size + src.size());
  xml::NodeId* base = dst->data();
  ptrdiff_t i = static_cast<ptrdiff_t>(src.size()) - 1;
  ptrdiff_t j = static_cast<ptrdiff_t>(old_size) - 1;
  ptrdiff_t w = static_cast<ptrdiff_t>(dst->size()) - 1;
  while (i >= 0 && j >= 0) {
    if (src[i] > base[j]) {
      base[w--] = src[i--];
    } else if (src[i] < base[j]) {
      base[w--] = base[j--];
    } else {
      base[w--] = base[j--];
      --i;
    }
  }
  while (i >= 0) base[w--] = src[i--];
  // Unread dst ids (indices ≤ j) are already in their final positions; the
  // gap (j, w] is exactly the duplicate count.
  const size_t gap = static_cast<size_t>(w - j);
  if (gap > 0) {
    std::memmove(base + j + 1, base + w + 1,
                 (dst->size() - static_cast<size_t>(w + 1)) *
                     sizeof(xml::NodeId));
    dst->resize(dst->size() - gap);
  }
  return dst->size() - old_size;
}

Result<std::unique_ptr<TwigMachine>> TwigMachine::Create(
    const xpath::QueryTree& query, MatchObserver* observer,
    TwigMachineOptions options) {
  if (observer == nullptr) {
    return Status::InvalidArgument("TwigMachine requires a match observer");
  }
  Result<MachineGraph> graph = MachineGraph::Build(query);
  if (!graph.ok()) return graph.status();
  return std::unique_ptr<TwigMachine>(
      new TwigMachine(std::move(graph).value(), observer, options));
}

TwigMachine::TwigMachine(MachineGraph graph, MatchObserver* observer,
                         TwigMachineOptions options)
    : graph_(std::move(graph)), sink_(observer), options_(options) {
  stacks_.resize(graph_.node_count());
  // Section 3.1's condition: no node carries an obligation of its own.
  predicate_free_ = true;
  for (const auto& node : graph_.nodes()) {
    NodeStack& stack = stacks_[static_cast<size_t>(node->id)];
    stack.parent = node->parent != nullptr ? node->parent->id : -1;
    stack.edge = node->edge;
    if (node->is_wildcard) wildcard_nodes_.push_back(node->id);
    if (node->has_value_test) value_test_nodes_.push_back(node->id);
    if (!node->on_output_path || node->has_value_test ||
        !node->attr_tests.empty()) {
      predicate_free_ = false;
    }
  }
  return_id_ = graph_.return_node() != nullptr ? graph_.return_node()->id : -1;
  entry_bytes_ = sizeof(int) + (predicate_free_ ? 0 : sizeof(Entry));
}

void TwigMachine::BindInterner(xml::TagInterner* interner) {
  interner_ = interner;
  for (const auto& node : graph_.nodes()) {
    if (!node->is_wildcard) node->symbol = interner->Intern(node->label);
  }
  start_postings_.assign(interner->size(), {});
  for (const auto& node : graph_.nodes()) {
    if (!node->is_wildcard) {
      start_postings_[node->symbol].push_back(node->id);
    }
  }
  // With wildcard nodes, δe needs one reversible pre-order list per symbol
  // that covers label AND wildcard nodes: machine-node ids are assigned in
  // pre-order, so merging the two sorted id lists preserves it. Without
  // them each list would equal start_postings_[s], which δe walks instead.
  end_postings_.clear();
  if (!wildcard_nodes_.empty()) {
    end_postings_.resize(interner->size());
    for (size_t s = 0; s < end_postings_.size(); ++s) {
      std::merge(start_postings_[s].begin(), start_postings_[s].end(),
                 wildcard_nodes_.begin(), wildcard_nodes_.end(),
                 std::back_inserter(end_postings_[s]));
    }
  }
  // The events δs/δe act on: a '*' node matches every element; otherwise
  // only label symbols can push or pop. Text matters only to value tests.
  filter_ = xml::EventFilter();
  filter_.text = !value_test_nodes_.empty();
  if (wildcard_nodes_.empty()) {
    filter_.other_elements = false;
    filter_.elements.resize(start_postings_.size(), 0);
    for (size_t s = 0; s < start_postings_.size(); ++s) {
      filter_.elements[s] = start_postings_[s].empty() ? 0 : 1;
    }
  }
  RebuildSymToElem();
}

void TwigMachine::set_instrumentation(obs::Instrumentation* instr) {
  if (instr != instr_) gap_hist_ = nullptr;
  instr_ = instr;
  if (instr_ != nullptr) {
    instr_->EnsureNodeSlots(graph_.node_count());
    RegisterGapHistogram();
  }
}

void TwigMachine::set_decisions(std::shared_ptr<const DecisionTable> table,
                                EarlyDecisionMode mode) {
  decisions_ = std::move(table);
  decision_mode_ = mode;
  RebuildSymToElem();
  RegisterGapHistogram();
}

void TwigMachine::RebuildSymToElem() {
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

void TwigMachine::RegisterGapHistogram() {
  if (instr_ == nullptr || gap_hist_ != nullptr) return;
  if (decision_mode_ == EarlyDecisionMode::kOff) return;
  gap_hist_ = instr_->registry().RegisterHistogram(
      "engine.emission_gap_bytes", obs::ExponentialBuckets(1, 4, 16));
}

// hotpath
void TwigMachine::NoteGap(uint64_t gap) {
  stats_.NoteGap(gap);
  if (gap_hist_ != nullptr) gap_hist_->Observe(gap);
}

// hotpath
void TwigMachine::Emit(xml::NodeId id, int level) {
  sink_->OnResult(MatchInfo{id, offset(), return_id_});
  ++stats_.results;
  if (instr_ != nullptr) {
    instr_->Trace(obs::TraceEvent::Kind::kEmit, return_id_, level, id, 0);
  }
}

// hotpath
bool TwigMachine::MarkEmitted(xml::NodeId id) {
  if (id >= emitted_stamp_.size()) {
    // Doubling keeps growth amortized; ids are dense pre-order, so the
    // array tops out near the document's element count and is reused for
    // every later document.
    size_t grown = std::max<size_t>(emitted_stamp_.size() * 2, 256);
    if (grown <= id) grown = static_cast<size_t>(id) + 1;
    emitted_stamp_.resize(grown, 0);
  }
  if (emitted_stamp_[id] == emitted_epoch_) return false;
  emitted_stamp_[id] = emitted_epoch_;
  return true;
}

void TwigMachine::ClearEmitted() {
  if (++emitted_epoch_ == 0) {
    // Epoch wrapped: stale stamps could collide, so wipe once and restart.
    std::fill(emitted_stamp_.begin(), emitted_stamp_.end(), 0);
    std::fill(proved_stamp_.begin(), proved_stamp_.end(), 0);
    emitted_epoch_ = 1;
  }
}

// hotpath
void TwigMachine::MarkProved(xml::NodeId id) {
  if (id >= proved_stamp_.size()) {
    size_t grown = std::max<size_t>(proved_stamp_.size() * 2, 256);
    if (grown <= id) grown = static_cast<size_t>(id) + 1;
    proved_stamp_.resize(grown, 0);
    proved_offset_.resize(grown, 0);
  }
  // Keep the *earliest* proof offset: later re-proofs are no-ops.
  if (proved_stamp_[id] == emitted_epoch_) return;
  proved_stamp_[id] = emitted_epoch_;
  proved_offset_[id] = offset();
}

// hotpath
void TwigMachine::RecordGap(xml::NodeId id) {
  uint64_t gap = 0;
  if (id < proved_stamp_.size() && proved_stamp_[id] == emitted_epoch_) {
    const uint64_t now = offset();
    gap = now > proved_offset_[id] ? now - proved_offset_[id] : 0;
  }
  NoteGap(gap);
}

void TwigMachine::Reset() {
  stats_ = EngineStats();
  cur_elem_ = -1;
  for (NodeStack& stack : stacks_) {
    stack.levels.clear();
    stack.entries.clear();
  }
  ClearEmitted();
  live_entries_ = 0;
  live_candidates_ = 0;
  live_text_bytes_ = 0;
}

uint64_t TwigMachine::pool_entries() const {
  uint64_t total = 0;
  for (const NodeStack& stack : stacks_) total += stack.entries.pooled();
  return total;
}

// hotpath
inline void TwigMachine::UpdateMemoryStats() {
  stats_.NoteEntries(live_entries_);
  stats_.NoteCandidates(live_candidates_);
  stats_.NoteBytes(live_entries_ * entry_bytes_ +
                   live_candidates_ * sizeof(xml::NodeId) + live_text_bytes_);
}

template <typename Fn>
// hotpath
void TwigMachine::ForEachQualifyingParent(const MachineNode* v, int top_level,
                                          Fn&& fn) {
  // fn never pushes or pops the parent's stacks, so the columns can be
  // read through plain pointers.
  NodeStack& parent = stacks_[static_cast<size_t>(v->parent->id)];
  const int* levels = parent.levels.data();
  const size_t size = parent.levels.size();
  Entry* entries = parent.entries.begin();
  const int max_level = top_level - v->edge.distance;
  if (!v->edge.exact) {
    for (size_t i = 0; i < size && levels[i] <= max_level; ++i) {
      fn(entries[i], levels[i]);
    }
  } else if (size > 0) {
    // As in Qualifies: the top answers unless it is deeper than the
    // required level.
    const int top = levels[size - 1];
    if (top <= max_level) {
      if (top == max_level) fn(entries[size - 1], max_level);
      return;
    }
    const int* it = std::lower_bound(levels, levels + size - 1, max_level);
    if (it != levels + size - 1 && *it == max_level) {
      fn(entries[it - levels], max_level);
    }
  }
}

// hotpath
bool TwigMachine::EntrySatisfiedNow(const MachineNode* v,
                                    const Entry& e) const {
  if (((e.branch | e.implied) & v->required_mask) != v->required_mask) {
    return false;
  }
  return (e.dflags & kValueSure) != 0;
}

// hotpath
void TwigMachine::FlushCertainCandidates(Entry& e) {
  if (e.candidates.empty()) return;
  if (decision_mode_ == EarlyDecisionMode::kOn) {
    for (xml::NodeId id : e.candidates) EmitEarly(id);
    live_candidates_ -= e.candidates.size();
    e.candidates.clear();
  } else {
    for (xml::NodeId id : e.candidates) MarkProved(id);
  }
}

// hotpath
void TwigMachine::EmitEarly(xml::NodeId id) {
  if (!MarkEmitted(id)) return;
  obs::TimerScope emit_timer(
      instr_ != nullptr ? instr_->stage_slot(obs::Stage::kEmit) : nullptr);
  Emit(id, -1);
  ++stats_.early_emitted;
  NoteGap(0);
}

// hotpath
void TwigMachine::ResolveCertain(const MachineNode* v, int level, Entry& e) {
  if ((e.dflags & kResolved) != 0) return;
  e.dflags |= kResolved;
  if (v->parent == nullptr) {
    // A certain root entry: everything uploaded here is a certain result.
    // (For anchored tails the trunk above is a predicate-free trie path
    // that has already matched, so root certainty is query certainty.)
    e.dflags |= kCertainOutput;
    FlushCertainCandidates(e);
    return;
  }
  // Set the child's branch bit in every qualifying parent entry now. This
  // is exactly the δe propagation target set — stack levels are strictly
  // increasing while an entry is open, so no qualifying parent entry can
  // appear or disappear between now and e's pop, and the pop would set the
  // same bits (e's obligations are certain to hold by then).
  const MachineNode* parent = v->parent;
  const uint64_t bit = uint64_t{1} << v->branch_slot;
  bool certain_parent = false;
  ForEachQualifyingParent(v, level, [&](Entry& p, int p_level) {
    if ((p.branch & bit) == 0) {
      p.branch |= bit;
      if ((p.dflags & kResolved) == 0 && EntrySatisfiedNow(parent, p)) {
        ResolveCertain(parent, p_level, p);
      }
    }
    if ((p.dflags & kCertainOutput) != 0) certain_parent = true;
  });
  if (certain_parent) {
    e.dflags |= kCertainOutput;
    FlushCertainCandidates(e);
  }
}

// hotpath
inline bool TwigMachine::Qualifies(int node_id, int level) const {
  // Analyzer window: the DTD proves this node can never bind at this
  // level — skip the whole δs attempt.
  if (!level_bounds_.empty() &&
      !level_bounds_[static_cast<size_t>(node_id)].Allows(level)) {
    return false;
  }
  // A node needs an entry of its parent's stack whose level difference
  // satisfies ζ(v); the root checks the element level directly (the
  // document root is at level 0) unless it is anchored to an external
  // ancestor stack. Stack levels are strictly increasing (entries belong
  // to the chain of active ancestors), so this needs no scan: for '≥'
  // edges the bottom (shallowest) entry is the best witness; for '=' edges
  // the required level is unique and found by binary search.
  const NodeStack& stack = stacks_[static_cast<size_t>(node_id)];
  const std::vector<int>* context =
      stack.parent >= 0 ? &stacks_[static_cast<size_t>(stack.parent)].levels
                        : root_context_;
  if (context == nullptr) return stack.edge.Satisfies(level);
  if (context->empty()) return false;
  if (!stack.edge.exact) {
    return level - context->front() >= stack.edge.distance;
  }
  // The top is the deepest entry: below the required level, no entry can
  // hold it; at it, the top is the witness. Only a deeper top searches.
  const int target = level - stack.edge.distance;
  const int top = context->back();
  if (top <= target) return top == target;
  return std::binary_search(context->begin(), context->end() - 1, target);
}

// hotpath
bool TwigMachine::Admit(const MachineNode* v,
                        const std::vector<xml::Attribute>& attrs,
                        uint64_t* branch, const NodeDecision** dec) {
  // Earliest-decision skips: the DTD proves this subtree can never meet
  // v's obligations (refuted) or can never decide any output (useless), so
  // the entry would be dead weight. kObserve must not act — it exists to
  // measure what kOn would have done while staying byte-identical.
  *dec = decision_mode_ != EarlyDecisionMode::kOff ? DecisionFor(v->id)
                                                   : nullptr;
  if (*dec != nullptr && decision_mode_ == EarlyDecisionMode::kOn) {
    if ((*dec)->refuted()) {
      ++stats_.early_dropped;
      return false;
    }
    if ((*dec)->useless()) {
      ++stats_.states_skipped;
      return false;
    }
  }
  // Attributes are fully known at startElement (footnote 2 of the paper),
  // so each test resolves now into its branch bit. An element whose tests
  // failed is not pushed at all (unless prune_static_failures is off): its
  // branch match can never become all-T.
  bool failed = false;
  for (const AttributeTest& test : v->attr_tests) {
    ++stats_.predicate_checks;
    bool found = false;
    std::string_view value;
    for (const xml::Attribute& a : attrs) {
      if (a.name == test.name) {
        found = true;
        value = a.value;
        break;
      }
    }
    bool pass = found;
    if (pass && test.has_value_test) {
      pass = EvalValueTest(value, test.op, test.literal,
                           test.literal_is_number);
    }
    if (pass) {
      *branch |= uint64_t{1} << test.branch_slot;
    } else {
      failed = true;
    }
  }
  // Attribute slots must stay within the node's declared branch slots.
  TWIGM_INVARIANT(v->num_slots >= 64 || *branch >> v->num_slots == 0,
                  "initial branch bits outside the node's slot range",
                  offset());
  return !failed || !options_.prune_static_failures;
}

// hotpath
void TwigMachine::PushEntry(const MachineNode* v, int level, xml::NodeId id,
                            uint64_t branch, const NodeDecision* dec) {
  // The pooled slot may hold a previous occupant's state: reset each field.
  Entry& entry = stacks_[static_cast<size_t>(v->id)].entries.push();
  entry.branch = branch;
  entry.implied = 0;
  entry.dflags = 0;
  entry.candidates.clear();
  entry.text.clear();
  if (v->is_return) {
    entry.candidates.push_back(id);
    ++live_candidates_;
  }
  if (decision_mode_ != EarlyDecisionMode::kOff) {
    if (dec != nullptr) {
      entry.implied = dec->implied_mask & v->required_mask;
      if (dec->value_implied()) entry.dflags |= kValueSure;
    }
    if (!v->has_value_test) entry.dflags |= kValueSure;
    // Certain already at push (no open obligations, or all implied by the
    // DTD): cascade now — this is what turns an opening tag into an
    // earliest emission.
    if (EntrySatisfiedNow(v, entry)) ResolveCertain(v, level, entry);
  }
}

// hotpath
inline void TwigMachine::Push(int node_id, int level, xml::NodeId id,
                              const std::vector<xml::Attribute>& attrs) {
  const MachineNode* v = graph_.nodes()[node_id].get();
  uint64_t branch = 0;
  const NodeDecision* dec = nullptr;
  if ((decision_mode_ != EarlyDecisionMode::kOff ||
       !v->attr_tests.empty()) &&
      !Admit(v, attrs, &branch, &dec)) {
    return;
  }
  // Ancestor-ordering lemma: stack levels stay strictly increasing —
  // every entry belongs to the chain of currently-open ancestors.
  std::vector<int>& levels = stacks_[static_cast<size_t>(node_id)].levels;
  TWIGM_INVARIANT(levels.empty() || levels.back() < level,
                  "stack levels not strictly increasing at push", offset());
  levels.push_back(level);
  ++stats_.pushes;
  ++live_entries_;
  if (instr_ != nullptr) {
    instr_->NoteNodeDepth(node_id, levels.size());
    instr_->Trace(obs::TraceEvent::Kind::kStackPush, node_id, level, id,
                  levels.size());
  }
  if (v->is_return) {
    sink_->OnCandidate(id);
    if (instr_ != nullptr) {
      instr_->Trace(obs::TraceEvent::Kind::kCandidate, node_id, level, id, 1);
    }
  }
  if (!predicate_free_) {
    PushEntry(v, level, id, branch, dec);
  } else if (v->is_return) {
    // No node carries an obligation, so the entry is the level alone, and
    // a candidate is a result the moment it is pushed (section 3.1): emit
    // at startElement, the earliest point possible — gap 0.
    obs::TimerScope emit_timer(
        instr_ != nullptr ? instr_->stage_slot(obs::Stage::kEmit) : nullptr);
    Emit(id, level);
    if (decision_mode_ != EarlyDecisionMode::kOff) NoteGap(0);
  }
}

// hotpath
void TwigMachine::StartElement(const xml::TagToken& tag, int level,
                               xml::NodeId id,
                               const std::vector<xml::Attribute>& attrs) {
  ++stats_.start_events;
  TWIGM_INVARIANT(interner_ != nullptr,
                  "start event on a TwigM never bound to an interner",
                  offset());
  // Map the tag onto the decision table's element ids once per event. A
  // tag the table does not name carries no static facts — the dynamic
  // cascade still runs, which is the sound degrade.
  cur_elem_ = -1;
  if (decisions_ != nullptr && decision_mode_ != EarlyDecisionMode::kOff &&
      tag.symbol < sym_to_elem_.size()) {
    cur_elem_ = sym_to_elem_[tag.symbol];
  }
  // δs: try every machine node whose label matches the tag, parents first
  // (pre-order). Wildcard nodes match every tag. Same-event pushes cannot
  // enable each other (ζ distances are ≥ 1, so a just-pushed entry at
  // `level` never qualifies another node at `level`), so dispatching the
  // label group and the wildcard group separately is order-independent.
  // Symbols past the bound range are document tags that are no query
  // label: only wildcards can match.
  if (tag.symbol < start_postings_.size()) {
    for (int node_id : start_postings_[tag.symbol]) {
      if (Qualifies(node_id, level)) Push(node_id, level, id, attrs);
    }
  }
  for (int node_id : wildcard_nodes_) {
    if (Qualifies(node_id, level)) Push(node_id, level, id, attrs);
  }
  UpdateMemoryStats();
}

// hotpath
void TwigMachine::Text(std::string_view text, int level) {
  // Only nodes with value tests accumulate text, and only for the element
  // currently on top of their stack (direct character data).
  for (int node_id : value_test_nodes_) {
    NodeStack& stack = stacks_[static_cast<size_t>(node_id)];
    if (!stack.levels.empty() && stack.levels.back() == level) {
      stack.entries.back().text.append(text);
      live_text_bytes_ += text.size();
      // Text is the only state growth between events, and the events
      // after it may be filtered out: note the peak here.
      UpdateMemoryStats();
    }
  }
}

// hotpath
inline void TwigMachine::Pop(int node_id, int level) {
  std::vector<int>& levels = stacks_[static_cast<size_t>(node_id)].levels;
  levels.pop_back();
  ++stats_.pops;
  --live_entries_;
  if (instr_ != nullptr) {
    instr_->Trace(obs::TraceEvent::Kind::kStackPop, node_id, level, 0,
                  levels.size());
  }
  // A predicate-free entry has nothing to verify or propagate: its result
  // was emitted at its push.
  if (!predicate_free_) PopEntry(node_id, level);
}

// hotpath
void TwigMachine::PopEntry(int node_id, int level) {
  const MachineNode* v = graph_.nodes()[node_id].get();
  // Pop by reference: the slot stays valid (and pooled) until the next push
  // onto this stack, which cannot happen inside δe.
  PooledStack<Entry>& stack = stacks_[static_cast<size_t>(node_id)].entries;
  Entry& top = stack.back();
  stack.pop();
  // Candidate-set lemma (Theorem 4.4's dedup argument): candidates are
  // kept strictly ascending, so unions deduplicate and the R·B bound
  // holds.
  TWIGM_INVARIANT(
      std::is_sorted(top.candidates.begin(), top.candidates.end()) &&
          std::adjacent_find(top.candidates.begin(), top.candidates.end()) ==
              top.candidates.end(),
      "popped candidate set not strictly ascending", offset());
  // Branch bits never leave the node's declared slot range.
  TWIGM_INVARIANT(v->num_slots >= 64 || top.branch >> v->num_slots == 0,
                  "branch bits outside the node's slot range at pop",
                  offset());
  live_candidates_ -= top.candidates.size();
  live_text_bytes_ -= top.text.size();

  ++stats_.predicate_checks;
  bool satisfied = (top.branch & v->required_mask) == v->required_mask;
  if (satisfied && v->has_value_test) {
    satisfied =
        EvalValueTest(top.text, v->op, v->literal, v->literal_is_number);
  }
  if (!satisfied) {
    // Prune: drop every match `top` was part of.
    if (instr_ != nullptr) {
      instr_->Trace(obs::TraceEvent::Kind::kPrune, node_id, level, 0,
                    top.candidates.size());
    }
    return;
  }

  if (v->parent == nullptr) {
    // Root: output candidates. A candidate may have reached several root
    // entries on recursive data; the epoch-stamped id array emits each id
    // once at O(1) per candidate.
    obs::TimerScope emit_timer(
        instr_ != nullptr ? instr_->stage_slot(obs::Stage::kEmit) : nullptr);
    for (xml::NodeId id : top.candidates) {
      if (!MarkEmitted(id)) continue;
      Emit(id, level);
      if (decision_mode_ != EarlyDecisionMode::kOff) RecordGap(id);
    }
    if (stacks_[static_cast<size_t>(node_id)].levels.empty()) ClearEmitted();
    return;
  }

  // Propagate to qualifying parent entries. Levels are strictly
  // increasing, so '≥' edges match a prefix of the stack and '=' edges
  // match at most one entry.
  const uint64_t bit = uint64_t{1} << v->branch_slot;
  ForEachQualifyingParent(v, level, [&](Entry& e, int e_level) {
    // Branch-boolean monotonicity (δe correctness): propagation only
    // sets bits, and only the child's own slot.
    TWIGM_INVARIANT(v->parent->num_slots >= 64 ||
                        (e.branch | bit) >> v->parent->num_slots == 0,
                    "propagated branch bit outside parent's slot range",
                    offset());
    e.branch |= bit;
    if (!top.candidates.empty()) {
      if (decision_mode_ == EarlyDecisionMode::kOn &&
          (e.dflags & kCertainOutput) != 0) {
        // The target entry already reaches a certain root: these uploads
        // are certain results — emit instead of buffering. The eventual
        // root pop finds nothing left to deliver (MarkEmitted dedups any
        // copies arriving through other entries).
        for (xml::NodeId id : top.candidates) EmitEarly(id);
      } else {
        ++stats_.candidate_unions;
        live_candidates_ += UnionSortedIds(top.candidates, &e.candidates);
        if (decision_mode_ == EarlyDecisionMode::kObserve &&
            (e.dflags & kCertainOutput) != 0) {
          for (xml::NodeId id : top.candidates) MarkProved(id);
        }
        TWIGM_INVARIANT(
            std::adjacent_find(e.candidates.begin(), e.candidates.end(),
                               std::greater_equal<xml::NodeId>()) ==
                e.candidates.end(),
            "candidate union broke strict ordering", offset());
      }
    }
    // The real bit may complete the parent's obligations (e.g. a
    // value-test child that only resolves at its pop): cascade now.
    if (decision_mode_ != EarlyDecisionMode::kOff &&
        (e.dflags & kResolved) == 0 && EntrySatisfiedNow(v->parent, e)) {
      ResolveCertain(v->parent, e_level, e);
    }
  });
}

// hotpath
void TwigMachine::EndElement(const xml::TagToken& tag, int level) {
  ++stats_.end_events;
  // δe: pop every machine node whose top entry has this level. Processed in
  // reverse pre-order so that a child's propagation into parent entries is
  // complete before any code inspects them; entries popped in this event
  // can never be propagation targets of this event (ζ distances are ≥ 1).
  // The per-symbol end postings merge label and wildcard nodes into one
  // pre-order list precisely so this reverse walk stays child-before-parent
  // across both kinds.
  // Without wildcard nodes each per-symbol list is the start postings'
  // own (end_postings_ is empty), and wildcard_nodes_ is empty too.
  const std::vector<std::vector<int>>& postings =
      wildcard_nodes_.empty() ? start_postings_ : end_postings_;
  const std::vector<int>& list = tag.symbol < postings.size()
                                     ? postings[tag.symbol]
                                     : wildcard_nodes_;
  const uint64_t candidates_before = live_candidates_;
  for (auto rit = list.rbegin(); rit != list.rend(); ++rit) {
    const std::vector<int>& levels = stacks_[static_cast<size_t>(*rit)].levels;
    if (!levels.empty() && levels.back() == level) Pop(*rit, level);
  }
  // Only candidate unions can raise a peak here: pops remove entries, and
  // Text notes its own peak.
  if (live_candidates_ > candidates_before) {
    UpdateMemoryStats();
  } else {
    stats_.live_stack_entries = live_entries_;
    stats_.live_candidates = live_candidates_;
  }
}

void TwigMachine::EndDocument() {
  // Nothing pending: every element's end event popped its entries.
}

}  // namespace twigm::core
