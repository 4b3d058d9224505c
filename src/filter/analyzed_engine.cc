#include "filter/analyzed_engine.h"

#include <utility>

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

Result<std::unique_ptr<AnalyzedEngine>> AnalyzedEngine::Create(
    const std::vector<std::string>& queries, core::MultiQueryResultSink* sink,
    const Options& options) {
  if (sink == nullptr) {
    return Status::InvalidArgument("AnalyzedEngine requires a result sink");
  }

  Result<analysis::QuerySetAnalysis> analyzed =
      analysis::AnalyzeQuerySet(queries, {.dtd = options.dtd});
  if (!analyzed.ok()) return analyzed.status();

  auto engine = std::unique_ptr<AnalyzedEngine>(new AnalyzedEngine());
  engine->sink_ = sink;
  engine->analysis_ = std::move(analyzed).value();
  engine->stats_.queries_total = queries.size();
  engine->stats_.queries_unsatisfiable = engine->analysis_.unsatisfiable;
  engine->stats_.queries_forwarded = engine->analysis_.forwarded;
  engine->stats_.branches_minimized = engine->analysis_.branches_minimized;

  // Collect the surviving representatives and the inner→outer fan-out.
  std::vector<std::string> run_texts;
  std::vector<size_t> inner_of(queries.size(), static_cast<size_t>(-1));
  for (size_t i = 0; i < queries.size(); ++i) {
    const analysis::QuerySetAnalysis::PerQuery& per = engine->analysis_.queries[i];
    if (!per.satisfiable || per.forwarded_to != i) continue;
    inner_of[i] = run_texts.size();
    run_texts.push_back(per.minimized);
    engine->fanout_.emplace_back();
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    const analysis::QuerySetAnalysis::PerQuery& per = engine->analysis_.queries[i];
    if (!per.satisfiable) continue;
    engine->fanout_[inner_of[per.forwarded_to]].push_back(i);
  }

  if (run_texts.empty()) return engine;  // everything pruned: nothing streams

  engine->remap_ = std::make_unique<RemapSink>(engine.get());
  Result<std::unique_ptr<FilterEngine>> inner = FilterEngine::Create(
      run_texts, engine->remap_.get(), options.evaluator);
  if (!inner.ok()) return inner.status();
  engine->filter_ = std::move(inner).value();
  if (options.dtd != nullptr) {
    engine->InstallFilterBounds(*options.dtd);
    if (options.evaluator.enable_early_decisions !=
        core::EarlyDecisionMode::kOff) {
      engine->stats_.decision_facts =
          InstallEarlyDecisions(engine->filter_.get(), *options.dtd);
    }
  }
  return engine;
}

void AnalyzedEngine::InstallFilterBounds(const analysis::DtdStructure& dtd) {
  // Level-window fixpoint over the step trie, mirroring
  // ComputeMachineLevelBounds: trie nodes are created parents-first, so one
  // index-order sweep sees every parent before its children.
  const std::vector<StepTrieNode>& nodes = filter_->index().nodes();
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
  const std::vector<QueryPlan>& plans = filter_->index().plans();
  for (size_t q = 0; q < plans.size(); ++q) {
    const core::MachineGraph* graph = filter_->tail_graph(q);
    if (graph == nullptr) continue;
    core::LevelBounds tail_bounds =
        plans[q].anchor >= 0
            ? analysis::ComputeMachineLevelBounds(
                  *graph, dtd, feasible[static_cast<size_t>(plans[q].anchor)],
                  trie_bounds[static_cast<size_t>(plans[q].anchor)])
            : analysis::ComputeMachineLevelBounds(*graph, dtd);
    stats_.bounded_machine_nodes += CountConstraining(tail_bounds);
    filter_->set_tail_level_bounds(q, std::move(tail_bounds));
  }

  stats_.bounded_trie_nodes = CountConstraining(trie_bounds);
  filter_->set_trie_level_bounds(std::move(trie_bounds));
}

Status AnalyzedEngine::Consume(const xml::InputChunk& chunk) {
  if (filter_ != nullptr) return filter_->Consume(chunk);
  return Status::Ok();
}

Status AnalyzedEngine::Pump(xml::ByteSource* source) {
  xml::InputChunk chunk;
  while (source->Next(&chunk)) {
    TWIGM_RETURN_IF_ERROR(Consume(chunk));
  }
  return Status::Ok();
}

void AnalyzedEngine::Reset() {
  if (filter_ != nullptr) filter_->Reset();
  total_results_ = 0;
}

void AnalyzedEngine::ExportMetrics(obs::MetricsRegistry* registry) const {
  registry->SetCounter("analysis.queries_total", stats_.queries_total);
  registry->SetCounter("analysis.queries_unsatisfiable",
                       stats_.queries_unsatisfiable);
  registry->SetCounter("analysis.queries_forwarded", stats_.queries_forwarded);
  registry->SetCounter("analysis.queries_pruned", stats_.queries_pruned());
  registry->SetCounter("analysis.branches_minimized",
                       stats_.branches_minimized);
  registry->SetCounter("analysis.bounded_trie_nodes",
                       stats_.bounded_trie_nodes);
  registry->SetCounter("analysis.bounded_machine_nodes",
                       stats_.bounded_machine_nodes);
  registry->SetCounter("analysis.decision_facts", stats_.decision_facts);
  if (filter_ != nullptr) filter_->ExportMetrics(registry);
}

}  // namespace twigm::filter
