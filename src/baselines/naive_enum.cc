#include "baselines/naive_enum.h"

#include "core/value_test.h"

namespace twigm::baselines {

Result<std::unique_ptr<NaiveEnumEngine>> NaiveEnumEngine::Create(
    const xpath::QueryTree& query, core::MatchObserver* sink,
    NaiveEnumOptions options) {
  if (sink == nullptr) {
    return Status::InvalidArgument("NaiveEnumEngine requires a result sink");
  }
  Result<core::MachineGraph> graph = core::MachineGraph::Build(query);
  if (!graph.ok()) return graph.status();
  for (const auto& node : graph.value().nodes()) {
    if (node->has_value_test) {
      return Status::NotSupported(
          "the enumeration engine does not support element value tests");
    }
  }
  auto engine = std::unique_ptr<NaiveEnumEngine>(new NaiveEnumEngine());
  engine->graph_ = std::move(graph).value();
  engine->sink_ = sink;
  engine->options_ = options;
  return engine;
}

void NaiveEnumEngine::StartElement(const xml::TagToken& tag, int level,
                                   xml::NodeId id,
                                   const std::vector<xml::Attribute>& attrs) {
  if (!status_.ok()) return;

  const size_t node_count = graph_.node_count();
  auto complete_or_store = [&](Match&& m) {
    ++stats_.matches_created;
    if (IsComplete(m)) {
      ++stats_.matches_completed;
      const xml::NodeId sol_id = m.ids[graph_.return_node()->id];
      if (emitted_.insert(sol_id).second) {
        sink_->OnResult(core::MatchInfo{sol_id});
        ++stats_.results;
      }
      return;  // complete matches need no further tracking
    }
    matches_.push_back(std::move(m));
  };

  for (const auto& node : graph_.nodes()) {
    const core::MachineNode* v = node.get();
    if (!v->is_wildcard && v->label != tag.text) continue;

    // Attribute tests gate assignment: a pattern match through an element
    // failing them can never exist.
    bool attrs_ok = true;
    for (const core::AttributeTest& test : v->attr_tests) {
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
        pass = core::EvalValueTest(value, test.op, test.literal,
                                   test.literal_is_number);
      }
      if (!pass) {
        attrs_ok = false;
        break;
      }
    }
    if (!attrs_ok) continue;

    if (v->parent == nullptr) {
      if (!v->edge.Satisfies(level)) continue;
      Match m;
      m.ids.assign(node_count, 0);
      m.levels.assign(node_count, -1);
      m.ids[v->id] = id;
      m.levels[v->id] = level;
      m.assigned = 1;
      complete_or_store(std::move(m));
    } else {
      // Fork every live match whose parent assignment can host this
      // element. The snapshot bound is taken per machine node so that forks
      // created by an ancestor node in this same event are extendable (an
      // element may be assigned to several query nodes of one match).
      const size_t snapshot = matches_.size();
      stats_.work += snapshot;
      for (size_t i = 0; i < snapshot; ++i) {
        const Match& m = matches_[i];
        if (m.ids[v->id] != 0) continue;
        const int parent_level = m.levels[v->parent->id];
        if (parent_level < 0 || !v->edge.Satisfies(level - parent_level)) {
          continue;
        }
        Match fork = m;
        fork.ids[v->id] = id;
        fork.levels[v->id] = level;
        ++fork.assigned;
        complete_or_store(std::move(fork));
      }
    }
    if (matches_.size() > options_.max_live_matches) {
      status_ = Status::ResourceExhausted(
          "explicit pattern-match enumeration exceeded " +
          std::to_string(options_.max_live_matches) + " live matches");
      matches_.clear();
      return;
    }
    if (options_.max_work != 0 && stats_.work > options_.max_work) {
      status_ = Status::ResourceExhausted(
          "explicit pattern-match enumeration exceeded the work budget");
      matches_.clear();
      return;
    }
  }
  if (matches_.size() > stats_.peak_live_matches) {
    stats_.peak_live_matches = matches_.size();
  }
  active_ids_.push_back(id);
}

void NaiveEnumEngine::EndElement(const xml::TagToken& tag, int level) {
  (void)tag;
  (void)level;
  if (!status_.ok()) return;
  const xml::NodeId closing_id = active_ids_.back();
  active_ids_.pop_back();

  // Garbage-collect matches that can no longer complete: some unassigned
  // query node's nearest assigned ancestor is the element closing now, so
  // no future element can fill it.
  stats_.work += matches_.size();
  if (options_.max_work != 0 && stats_.work > options_.max_work) {
    status_ = Status::ResourceExhausted(
        "explicit pattern-match enumeration exceeded the work budget");
    matches_.clear();
    return;
  }
  size_t keep = 0;
  for (size_t i = 0; i < matches_.size(); ++i) {
    const Match& m = matches_[i];
    bool dead = false;
    for (const auto& node : graph_.nodes()) {
      const core::MachineNode* v = node.get();
      if (m.ids[v->id] != 0) continue;  // assigned
      const core::MachineNode* anc = v->parent;
      while (anc != nullptr && m.ids[anc->id] == 0) anc = anc->parent;
      if (anc != nullptr && m.ids[anc->id] == closing_id) {
        dead = true;
        break;
      }
    }
    if (!dead) {
      if (keep != i) matches_[keep] = std::move(matches_[i]);
      ++keep;
    }
  }
  matches_.resize(keep);
}

void NaiveEnumEngine::EndDocument() {}

void NaiveEnumEngine::Reset() {
  matches_.clear();
  emitted_.clear();
  active_ids_.clear();
  stats_ = NaiveEnumStats();
  status_ = Status::Ok();
}

uint64_t NaiveEnumEngine::ApproximateMemoryBytes() const {
  const uint64_t per_match =
      sizeof(Match) +
      graph_.node_count() * (sizeof(xml::NodeId) + sizeof(int));
  return matches_.size() * per_match + emitted_.size() * sizeof(xml::NodeId);
}

}  // namespace twigm::baselines
