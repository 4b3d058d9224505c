#include "filter/filter_engine.h"

#include <algorithm>
#include <utility>

#include "analysis/decision_analysis.h"
#include "analysis/query_analysis.h"
#include "core/invariants.h"
#include "filter/early_decisions.h"

namespace twigm::filter {

namespace {

size_t CountConstraining(const core::LevelBounds& bounds) {
  size_t n = 0;
  for (const core::LevelRange& r : bounds) {
    if (r.min_level > 1 || r.max_level >= 0) ++n;
  }
  return n;
}

}  // namespace

Result<std::unique_ptr<FilterEngine>> FilterEngine::Create(
    const std::vector<std::string>& queries, core::MultiQueryResultSink* sink,
    core::EvaluatorOptions options, const analysis::DtdStructure* dtd) {
  return Build(queries, sink, options, nullptr, dtd);
}

Result<std::unique_ptr<FilterEngine>> FilterEngine::CreateEventFed(
    const std::vector<std::string>& queries, core::MultiQueryResultSink* sink,
    xml::TagInterner* interner, core::EvaluatorOptions options) {
  if (interner == nullptr) {
    return Status::InvalidArgument(
        "FilterEngine::CreateEventFed requires a tag interner");
  }
  return Build(queries, sink, options, interner, nullptr);
}

Result<std::unique_ptr<FilterEngine>> FilterEngine::Build(
    const std::vector<std::string>& queries, core::MultiQueryResultSink* sink,
    core::EvaluatorOptions options, xml::TagInterner* external_interner,
    const analysis::DtdStructure* dtd) {
  if (sink == nullptr) {
    return Status::InvalidArgument("FilterEngine requires a result sink");
  }
  if (queries.empty()) {
    return Status::InvalidArgument("no queries given");
  }

  // With a DTD, compile only the minimized texts of the satisfiable class
  // representatives; report_as[c] lists the caller queries compiled query
  // c answers for. Without one, compiled and caller indices coincide.
  std::vector<std::string> compiled;
  std::vector<std::vector<size_t>> report_as;
  std::vector<int> compiled_of;
  AnalysisStats astats;
  if (dtd != nullptr) {
    Result<analysis::QuerySetAnalysis> analyzed =
        analysis::AnalyzeQuerySet(queries, {.dtd = dtd});
    if (!analyzed.ok()) return analyzed.status();
    const std::vector<analysis::QuerySetAnalysis::PerQuery>& per =
        analyzed.value().queries;
    compiled_of.assign(queries.size(), -1);
    for (size_t i = 0; i < queries.size(); ++i) {
      if (!per[i].satisfiable || per[i].forwarded_to != i) continue;
      compiled_of[i] = static_cast<int>(compiled.size());
      compiled.push_back(per[i].minimized);
    }
    report_as.resize(compiled.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      if (!per[i].satisfiable) continue;
      compiled_of[i] = compiled_of[per[i].forwarded_to];
      report_as[static_cast<size_t>(compiled_of[i])].push_back(i);
    }
    astats.queries_total = queries.size();
    astats.queries_unsatisfiable = analyzed.value().unsatisfiable;
    astats.queries_forwarded = analyzed.value().forwarded;
    astats.branches_minimized = analyzed.value().branches_minimized;
  }

  // A DTD can prune every query; the engine then runs an empty trie, so the
  // document is still parsed and malformed input still fails.
  FilterIndex built;
  if (dtd == nullptr || !compiled.empty()) {
    Result<FilterIndex> index =
        FilterIndex::Build(dtd != nullptr ? compiled : queries);
    if (!index.ok()) return index.status();
    built = std::move(index).value();
  }
  if (dtd != nullptr) built.RemapAccepts(report_as);

  auto engine =
      std::unique_ptr<FilterEngine>(new FilterEngine(std::move(built)));
  engine->query_count_ = queries.size();
  engine->compiled_of_ = std::move(compiled_of);
  engine->astats_ = astats;
  engine->sink_ = sink;
  engine->options_ = options;
  engine->instr_ = options.instrumentation;
  engine->offset_slot_ = engine->instr_ != nullptr
                             ? engine->instr_->byte_offset_slot()
                             : &engine->stream_offset_;

  const size_t node_count = engine->index_.nodes().size();
  engine->stacks_.resize(node_count);
  engine->active_pos_.assign(node_count, -1);
  engine->tails_by_anchor_.resize(node_count);

  // Build the demultiplexed tail machines. stacks_ is never resized after
  // this point, so the root-context pointers stay valid.
  const std::vector<QueryPlan>& plans = engine->index_.plans();
  for (size_t i = 0; i < plans.size(); ++i) {
    const QueryPlan& plan = plans[i];
    if (plan.linear) continue;
    Result<xpath::QueryTree> tail_tree = xpath::QueryTree::Parse(plan.tail);
    if (!tail_tree.ok()) {
      return Status::Internal("query #" + std::to_string(i) +
                              ": tail re-parse failed: " + plan.tail + ": " +
                              tail_tree.status().ToString());
    }
    Tail tail;
    tail.anchor = plan.anchor;
    tail.sink = std::make_unique<TailSink>(
        engine.get(), dtd == nullptr ? std::vector<size_t>{i}
                                     : std::move(report_as[i]));
    const std::vector<int>* context =
        plan.anchor >= 0 ? &engine->stacks_[plan.anchor] : nullptr;
    Result<std::unique_ptr<core::TwigMachine>> m = core::TwigMachine::Create(
        tail_tree.value(), tail.sink.get(), options.twig);
    if (!m.ok()) return m.status();
    tail.machine = std::move(m).value();
    tail.machine->set_root_context(context);
    tail.machine->set_stream_offset(engine->offset_slot_);
    const int tail_index = static_cast<int>(engine->tails_.size());
    if (plan.anchor >= 0) {
      engine->tails_by_anchor_[plan.anchor].push_back(tail_index);
    } else {
      engine->always_on_.push_back(tail_index);
    }
    engine->tails_.push_back(std::move(tail));
  }

  engine->event_sink_ = std::make_unique<EventSink>(engine.get());
  xml::TagInterner* interner = external_interner;
  if (external_interner == nullptr) {
    xml::StreamEventSink* head = engine->event_sink_.get();
    if (engine->instr_ != nullptr) {
      engine->timed_ =
          std::make_unique<xml::StageTimedSink>(head, engine->instr_);
      head = engine->timed_.get();
    }
    engine->parser_ = std::make_unique<xml::SaxParser>(head, options.sax);
    engine->parser_->set_offset_slot(engine->offset_slot_);
    engine->parser_->set_scan_timer_slot(
        engine->instr_ != nullptr
            ? engine->instr_->stage_slot(obs::Stage::kScan)
            : nullptr);
    interner = engine->parser_->interner();
  }

  // Bind every trie label and tail machine to the stream's tag dictionary,
  // then build the root-children postings so each start event resolves its
  // candidate first steps by one indexed lookup instead of scanning the
  // whole root fan-out.
  engine->index_.BindInterner(interner);
  for (Tail& tail : engine->tails_) tail.machine->BindInterner(interner);
  engine->root_postings_.assign(interner->size(), {});
  for (int child : engine->index_.root_children()) {
    const StepTrieNode& c = engine->index_.nodes()[child];
    if (c.is_wildcard) {
      engine->root_wildcards_.push_back(child);
    } else {
      engine->root_postings_[c.symbol].push_back(child);
    }
  }

  if (dtd != nullptr) {
    engine->InstallLevelBounds(*dtd);
    if (options.enable_early_decisions != core::EarlyDecisionMode::kOff) {
      engine->InstallDecisions(*dtd, interner);
    }
  }

  if (engine->instr_ != nullptr) {
    engine->instr_->EnsureNodeSlots(node_count);
  }
  return engine;
}

void FilterEngine::InstallLevelBounds(const analysis::DtdStructure& dtd) {
  // Level-window fixpoint over the step trie, mirroring
  // ComputeMachineLevelBounds: trie nodes are created parents-first, so one
  // index-order sweep sees every parent before its children.
  const std::vector<StepTrieNode>& nodes = index_.nodes();
  core::LevelBounds trie_bounds(nodes.size(), core::LevelRange::Everything());
  std::vector<std::vector<bool>> feasible(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    const StepTrieNode& v = nodes[i];
    const int k = v.edge.distance;
    std::vector<bool> base;
    core::LevelRange structural;
    if (v.parent < 0) {
      base = v.edge.exact ? dtd.AtDepthExact(k) : dtd.AtDepthAtLeast(k);
      structural.min_level = k;
      structural.max_level = v.edge.exact ? k : -1;
    } else {
      base = analysis::ReachableFromSet(
          dtd, feasible[static_cast<size_t>(v.parent)], k, v.edge.exact);
      const core::LevelRange& pb = trie_bounds[static_cast<size_t>(v.parent)];
      structural.min_level = pb.min_level + k;
      structural.max_level =
          (v.edge.exact && pb.max_level >= 0) ? pb.max_level + k : -1;
    }
    if (!v.is_wildcard) {
      const int id = dtd.Find(v.label);
      const bool keep = id >= 0 && base[static_cast<size_t>(id)];
      base.assign(dtd.element_count(), false);
      if (keep) base[static_cast<size_t>(id)] = true;
    }
    trie_bounds[i] = analysis::IntersectDepthRange(dtd, base, structural);
    feasible[i] = std::move(base);
  }

  // Predicate tails: anchored below their trunk node's element set and
  // window, or evaluated from the document root when they have no trunk.
  for (Tail& tail : tails_) {
    const core::MachineGraph& graph = tail.machine->graph();
    core::LevelBounds tail_bounds =
        tail.anchor >= 0
            ? analysis::ComputeMachineLevelBounds(
                  graph, dtd, feasible[static_cast<size_t>(tail.anchor)],
                  trie_bounds[static_cast<size_t>(tail.anchor)])
            : analysis::ComputeMachineLevelBounds(graph, dtd);
    astats_.bounded_machine_nodes += CountConstraining(tail_bounds);
    tail.machine->set_level_bounds(std::move(tail_bounds));
  }

  astats_.bounded_trie_nodes = CountConstraining(trie_bounds);
  trie_level_bounds_ = std::move(trie_bounds);
}

void FilterEngine::InstallDecisions(const analysis::DtdStructure& dtd,
                                    xml::TagInterner* interner) {
  auto trie = std::make_unique<core::DecisionTable>(
      CompileTrieDecisions(index_, dtd));
  astats_.decision_facts += trie->facts();
  // Map tag symbols onto the table's dense element ids; interning the
  // element names here keeps the per-event lookup one array index.
  const std::vector<std::string>& names = trie->element_names();
  for (size_t e = 0; e < names.size(); ++e) {
    const xml::SymbolId s = interner->Intern(names[e]);
    if (sym_to_elem_.size() <= s) sym_to_elem_.resize(s + 1, -1);
    sym_to_elem_[s] = static_cast<int32_t>(e);
  }
  trie_decisions_ = std::move(trie);
  for (Tail& tail : tails_) {
    auto table = std::make_shared<core::DecisionTable>(
        analysis::CompileDecisionTable(tail.machine->graph(), dtd));
    astats_.decision_facts += table->facts();
    tail.machine->set_decisions(std::move(table),
                                options_.enable_early_decisions);
  }
}

const QueryPlan& FilterEngine::plan(size_t query_index) const {
  static const QueryPlan kUnsatisfiable;
  if (compiled_of_.empty()) return index_.plans()[query_index];
  const int c = compiled_of_[query_index];
  return c < 0 ? kUnsatisfiable : index_.plans()[static_cast<size_t>(c)];
}

Status FilterEngine::Consume(const xml::InputChunk& chunk) {
  if (parser_ == nullptr) {
    return Status::InvalidArgument(
        "event-fed FilterEngine has no parser; dispatch via event_input()");
  }
  obs::TimerScope parse(instr_ != nullptr
                            ? instr_->stage_slot(obs::Stage::kTokenize)
                            : nullptr);
  return parser_->Consume(chunk);
}

Status FilterEngine::Pump(xml::ByteSource* source) {
  xml::InputChunk chunk;
  while (source->Next(&chunk)) {
    TWIGM_RETURN_IF_ERROR(Consume(chunk));
  }
  return Status::Ok();
}

void FilterEngine::Reset() {
  for (std::vector<int>& stack : stacks_) stack.clear();
  active_.clear();
  std::fill(active_pos_.begin(), active_pos_.end(), -1);
  live_trie_entries_ = 0;
  for (Tail& tail : tails_) {
    tail.engaged = false;
    tail.machine->Reset();
  }
  engaged_.clear();
  rstats_ = FilterRuntimeStats();
  stream_offset_ = 0;
  cur_elem_ = -1;
  // Rewind the parser in place: its interner carries the trie's and tail
  // machines' symbol bindings, and its buffers (plus every trie stack's
  // capacity) stay warm across documents. Event-fed engines own no parser;
  // their external interner outlives them.
  if (parser_ != nullptr) parser_->Reset();
}

// hotpath
void FilterEngine::Activate(int node) {
  active_pos_[node] = static_cast<int>(active_.size());
  active_.push_back(node);
}

// hotpath
void FilterEngine::Deactivate(int node) {
  const int pos = active_pos_[node];
  const int last = active_.back();
  active_[pos] = last;
  active_pos_[last] = pos;
  active_.pop_back();
  active_pos_[node] = -1;
}

// hotpath
void FilterEngine::Engage(int tail) {
  Tail& t = tails_[tail];
  if (t.engaged) return;
  t.engaged = true;
  engaged_.push_back(tail);
}

// hotpath
void FilterEngine::ConsiderChild(int child, const std::vector<int>* stack,
                                 int level) {
  const StepTrieNode& c = index_.nodes()[child];
  if (!trie_level_bounds_.empty() &&
      !trie_level_bounds_[static_cast<size_t>(child)].Allows(level)) {
    return;
  }
  bool qualified;
  if (stack == nullptr) {
    qualified = c.edge.Satisfies(level);
  } else if (!c.edge.exact) {
    // Stack levels are strictly increasing (open ancestors), so '≥' edges
    // test the shallowest entry and '=' edges binary-search.
    qualified = level - stack->front() >= c.edge.distance;
  } else {
    qualified = std::binary_search(stack->begin(), stack->end(),
                                   level - c.edge.distance);
  }
  if (!qualified) return;
  // Earliest-decision skip: the DTD proves no accept or tail anchor can
  // complete below this element, so the entry would only ever be popped.
  if (cur_elem_ >= 0 &&
      options_.enable_early_decisions == core::EarlyDecisionMode::kOn &&
      trie_decisions_->at(static_cast<size_t>(child),
                          static_cast<size_t>(cur_elem_))
          .useless()) {
    ++rstats_.trie_pushes_skipped;
    return;
  }
  scratch_.push_back(child);
}

// hotpath
void FilterEngine::OnStartElement(const xml::TagToken& tag, int level,
                                  xml::NodeId id,
                                  const std::vector<xml::Attribute>& attrs) {
  ++rstats_.start_events;
  cur_elem_ = -1;
  if (trie_decisions_ != nullptr && tag.symbol < sym_to_elem_.size()) {
    cur_elem_ = sym_to_elem_[tag.symbol];
  }
  const std::vector<StepTrieNode>& nodes = index_.nodes();

  // Collect the qualifying pushes first: an entry pushed by this event can
  // never enable another push at the same level (edge distances are ≥ 1),
  // and deferring keeps the active list stable while we scan it.
  scratch_.clear();
  // Postings dispatch: a symbol past the bind-time range names a tag no
  // query mentions, so only wildcard first steps can match it.
  if (tag.symbol < root_postings_.size()) {
    for (int child : root_postings_[tag.symbol]) {
      ConsiderChild(child, nullptr, level);
    }
  }
  for (int child : root_wildcards_) ConsiderChild(child, nullptr, level);
  for (int n : active_) {
    const std::vector<int>& stack = stacks_[n];
    for (int child : nodes[n].children) {
      const StepTrieNode& c = nodes[child];
      if (!c.is_wildcard && c.symbol != tag.symbol) continue;
      ConsiderChild(child, &stack, level);
    }
  }

  for (int n : scratch_) {
    std::vector<int>& stack = stacks_[n];
    // Ancestor-ordering lemma, trie form: a node's stack holds the levels
    // of open matched elements, strictly increasing bottom to top.
    TWIGM_INVARIANT(stack.empty() || stack.back() < level,
                    "trie stack levels not strictly increasing at push",
                    *offset_slot_);
    stack.push_back(level);
    ++rstats_.trie_pushes;
    ++live_trie_entries_;
    if (stack.size() == 1) Activate(n);
    if (instr_ != nullptr) {
      instr_->NoteNodeDepth(n, stack.size());
      instr_->Trace(obs::TraceEvent::Kind::kStackPush, n, level, id,
                    stack.size());
    }
    const StepTrieNode& node = nodes[n];
    for (size_t q : node.accept) {
      ++rstats_.results;
      sink_->OnResult(q, core::MatchInfo{id, *offset_slot_, n});
      if (instr_ != nullptr) {
        instr_->Trace(obs::TraceEvent::Kind::kEmit, n, level, id, q);
      }
    }
    for (int t : tails_by_anchor_[n]) Engage(t);
  }

  for (int t : always_on_) tails_[t].machine->StartElement(tag, level, id, attrs);
  for (int t : engaged_) tails_[t].machine->StartElement(tag, level, id, attrs);

  rstats_.sum_active_nodes += active_.size();
  rstats_.peak_active_nodes =
      std::max<uint64_t>(rstats_.peak_active_nodes, active_.size());
  rstats_.peak_trie_entries =
      std::max(rstats_.peak_trie_entries, live_trie_entries_);
  rstats_.peak_engaged_tails = std::max<uint64_t>(
      rstats_.peak_engaged_tails, engaged_.size() + always_on_.size());
}

// hotpath
void FilterEngine::OnEndElement(const xml::TagToken& tag, int level) {
  ++rstats_.end_events;

  // Tails first: their entries are strictly deeper in the pattern than the
  // trunk entries they hang off, mirroring TwigM's leaves-first δe order.
  for (int t : always_on_) tails_[t].machine->EndElement(tag, level);
  for (int t : engaged_) tails_[t].machine->EndElement(tag, level);

  // Pop every trie stack whose top carries the closing level. Only the
  // element that pushed the entry can close at this level, so no tag check
  // is needed. Collect first: popping deactivates nodes mid-scan.
  scratch_.clear();
  for (int n : active_) {
    if (stacks_[n].back() == level) scratch_.push_back(n);
  }
  for (int n : scratch_) {
    stacks_[n].pop_back();
    ++rstats_.trie_pops;
    --live_trie_entries_;
    if (instr_ != nullptr) {
      instr_->Trace(obs::TraceEvent::Kind::kStackPop, n, level, 0,
                    stacks_[n].size());
    }
    if (stacks_[n].empty()) Deactivate(n);
  }

  // Disengage drained tails: anchor gone and no live entries left. (All
  // tail entries are nested inside some anchor entry, so this converges.)
  for (size_t i = engaged_.size(); i-- > 0;) {
    Tail& t = tails_[engaged_[i]];
    if (stacks_[t.anchor].empty() && t.live_entries() == 0) {
      t.engaged = false;
      engaged_[i] = engaged_.back();
      engaged_.pop_back();
    }
  }
}

// hotpath
void FilterEngine::OnText(std::string_view text, int level) {
  for (int t : always_on_) tails_[t].machine->Text(text, level);
  for (int t : engaged_) tails_[t].machine->Text(text, level);
}

void FilterEngine::OnEndDocument() {
  for (Tail& tail : tails_) tail.machine->EndDocument();
}

void FilterEngine::ExportMetrics(obs::MetricsRegistry* registry) const {
  registry->SetCounter("filter.start_events", rstats_.start_events);
  registry->SetCounter("filter.end_events", rstats_.end_events);
  registry->SetCounter("filter.trie_pushes", rstats_.trie_pushes);
  registry->SetCounter("filter.trie_pops", rstats_.trie_pops);
  registry->SetCounter("filter.results", rstats_.results);
  registry->SetCounter("filter.sum_active_nodes", rstats_.sum_active_nodes);
  registry->SetCounter("filter.peak_active_nodes", rstats_.peak_active_nodes);
  registry->SetCounter("filter.peak_trie_entries", rstats_.peak_trie_entries);
  registry->SetCounter("filter.peak_engaged_tails",
                       rstats_.peak_engaged_tails);
  registry->SetCounter("filter.trie_pushes_skipped",
                       rstats_.trie_pushes_skipped);
  registry->SetCounter("hotpath.interner_symbols",
                       parser_ != nullptr ? parser_->interner()->size() : 0);
  uint64_t pool = 0;
  for (const Tail& tail : tails_) pool += tail.machine->pool_entries();
  registry->SetCounter("hotpath.pool_entries", pool);
  if (compiled_of_.empty()) return;  // no DTD, no analysis
  registry->SetCounter("analysis.queries_total", astats_.queries_total);
  registry->SetCounter("analysis.queries_unsatisfiable",
                       astats_.queries_unsatisfiable);
  registry->SetCounter("analysis.queries_forwarded",
                       astats_.queries_forwarded);
  registry->SetCounter("analysis.queries_pruned", astats_.queries_pruned());
  registry->SetCounter("analysis.branches_minimized",
                       astats_.branches_minimized);
  registry->SetCounter("analysis.bounded_trie_nodes",
                       astats_.bounded_trie_nodes);
  registry->SetCounter("analysis.bounded_machine_nodes",
                       astats_.bounded_machine_nodes);
  registry->SetCounter("analysis.decision_facts", astats_.decision_facts);
}

}  // namespace twigm::filter
