#include "filter/filter_index.h"

#include <string>

namespace twigm::filter {

namespace {

core::EdgeCondition EdgeForAxis(xpath::Axis axis) {
  core::EdgeCondition edge;
  edge.exact = axis == xpath::Axis::kChild;
  edge.distance = 1;
  return edge;
}

/// The root→sol output path, root first.
std::vector<const xpath::QueryNode*> Spine(const xpath::QueryTree& tree) {
  std::vector<const xpath::QueryNode*> spine;
  const xpath::QueryNode* node = tree.root();
  while (node != nullptr) {
    spine.push_back(node);
    const xpath::QueryNode* next = nullptr;
    for (const auto& child : node->children) {
      if (child->on_output_path) {
        next = child.get();
        break;
      }
    }
    node = next;
  }
  return spine;
}

/// A spine node is trunk-shareable iff it carries no predicate state of its
/// own: no value test, and its only child is the output-path continuation.
bool IsShareable(const xpath::QueryNode& node) {
  return !node.has_value_test && !node.is_attribute &&
         node.children.size() == 1 && node.children.front()->on_output_path;
}

}  // namespace

int FilterIndex::Intern(int parent, const xpath::QueryNode& step) {
  const core::EdgeCondition edge = EdgeForAxis(step.axis);
  std::vector<int>& siblings =
      parent < 0 ? root_children_ : nodes_[parent].children;
  for (int id : siblings) {
    const StepTrieNode& node = nodes_[id];
    if (node.edge.exact == edge.exact && node.is_wildcard == step.is_wildcard &&
        node.label == step.name) {
      return id;
    }
  }
  StepTrieNode node;
  node.label = step.name;
  node.is_wildcard = step.is_wildcard;
  node.edge = edge;
  node.parent = parent;
  const int id = static_cast<int>(nodes_.size());
  nodes_.push_back(std::move(node));
  // nodes_ may have reallocated; re-resolve the sibling list.
  (parent < 0 ? root_children_ : nodes_[parent].children).push_back(id);
  return id;
}

void FilterIndex::BindInterner(xml::TagInterner* interner) {
  for (StepTrieNode& node : nodes_) {
    if (!node.is_wildcard) node.symbol = interner->Intern(node.label);
  }
}

void FilterIndex::RemapAccepts(
    const std::vector<std::vector<size_t>>& report_as) {
  for (StepTrieNode& node : nodes_) {
    std::vector<size_t> remapped;
    for (size_t q : node.accept) {
      remapped.insert(remapped.end(), report_as[q].begin(), report_as[q].end());
    }
    node.accept = std::move(remapped);
  }
}

Result<FilterIndex> FilterIndex::Build(
    const std::vector<std::string>& queries) {
  if (queries.empty()) {
    return Status::InvalidArgument("no queries given");
  }
  FilterIndex index;
  index.plans_.reserve(queries.size());
  index.stats_.query_count = queries.size();

  for (size_t i = 0; i < queries.size(); ++i) {
    Result<xpath::QueryTree> tree = xpath::QueryTree::Parse(queries[i]);
    if (!tree.ok()) {
      return Status::InvalidArgument(
          "query #" + std::to_string(i) + ": " + tree.status().ToString());
    }
    const std::vector<const xpath::QueryNode*> spine = Spine(tree.value());

    QueryPlan plan;
    if (tree.value().is_linear() && !tree.value().has_value_tests()) {
      // Fully shared: intern the whole spine; the last node accepts.
      int node = -1;
      for (const xpath::QueryNode* step : spine) {
        node = index.Intern(node, *step);
      }
      index.nodes_[node].accept.push_back(i);
      plan.linear = true;
      plan.anchor = node;
      plan.trunk_steps = static_cast<int>(spine.size());
      index.stats_.total_steps += spine.size();
      ++index.stats_.linear_query_count;
    } else {
      // Shared trunk: the maximal prefix of shareable spine nodes. The
      // first non-shareable node becomes the tail machine's root.
      size_t trunk = 0;
      while (trunk < spine.size() && IsShareable(*spine[trunk])) ++trunk;
      int node = -1;
      for (size_t s = 0; s < trunk; ++s) {
        node = index.Intern(node, *spine[s]);
      }
      plan.anchor = node;
      plan.trunk_steps = static_cast<int>(trunk);
      plan.tail = xpath::QueryTree::RenderSubquery(spine[trunk]);
      index.stats_.total_steps += trunk;
      if (node >= 0) {
        ++index.stats_.tail_query_count;
      } else {
        ++index.stats_.unshared_query_count;
      }
    }
    index.plans_.push_back(std::move(plan));
  }
  index.stats_.trie_node_count = index.nodes_.size();
  return index;
}

}  // namespace twigm::filter
