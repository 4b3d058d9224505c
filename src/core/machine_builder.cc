#include "core/machine_builder.h"

namespace twigm::core {

namespace {

// A query node is folded into an edge label iff it is an interior wildcard:
// exactly one element child, not the return node, and no value test.
bool IsCollapsibleStar(const xpath::QueryNode* q, const xpath::QueryNode* sol) {
  return q->is_wildcard && q != sol && !q->has_value_test &&
         q->children.size() == 1 && !q->children[0]->is_attribute;
}

}  // namespace

FoldedStep FoldInteriorWildcards(const xpath::QueryNode* q,
                                 const xpath::QueryNode* sol) {
  FoldedStep step;
  step.edge.exact = q->axis == xpath::Axis::kChild;
  step.edge.distance = 1;
  while (IsCollapsibleStar(q, sol)) {
    q = q->children[0].get();
    if (q->axis == xpath::Axis::kDescendant) step.edge.exact = false;
    ++step.edge.distance;
  }
  step.node = q;
  return step;
}

class MachineGraphBuilder {
 public:
  explicit MachineGraphBuilder(const xpath::QueryTree& query) : query_(query) {}

  Result<MachineGraph> Run() {
    TWIGM_RETURN_IF_ERROR(BuildFrom(query_.root(), nullptr));
    return std::move(graph_);
  }

 private:
  // Builds the machine node that query node `q` folds to (interior
  // wildcards collapse into its edge label) under `parent`.
  Status BuildFrom(const xpath::QueryNode* q, MachineNode* parent) {
    const xpath::QueryNode* sol = query_.sol();
    const FoldedStep step = FoldInteriorWildcards(q, sol);
    q = step.node;

    auto owned = std::make_unique<MachineNode>();
    MachineNode* m = owned.get();
    m->label = q->name;
    m->is_wildcard = q->is_wildcard;
    m->edge = step.edge;
    m->parent = parent;
    m->on_output_path = q->on_output_path;
    m->is_return = (q == sol);
    m->has_value_test = q->has_value_test;
    m->op = q->op;
    m->literal = q->literal;
    m->literal_is_number = q->literal_is_number;
    m->id = static_cast<int>(graph_.nodes_.size());
    graph_.nodes_.push_back(std::move(owned));
    if (parent == nullptr) {
      graph_.root_ = m;
    } else {
      m->branch_slot = parent->num_slots++;
      parent->children.push_back(m);
    }
    if (m->is_return) graph_.return_ = m;

    for (const auto& child : q->children) {
      if (child->is_attribute) {
        AttributeTest test;
        test.name = child->name;
        test.has_value_test = child->has_value_test;
        test.op = child->op;
        test.literal = child->literal;
        test.literal_is_number = child->literal_is_number;
        test.branch_slot = m->num_slots++;
        m->attr_tests.push_back(std::move(test));
      } else {
        TWIGM_RETURN_IF_ERROR(BuildFrom(child.get(), m));
      }
    }
    if (m->num_slots > 64) {
      return Status::NotSupported(
          "a query node with more than 64 predicates/children is not "
          "supported");
    }
    m->required_mask =
        m->num_slots == 64 ? ~uint64_t{0}
                           : ((uint64_t{1} << m->num_slots) - 1);
    return Status::Ok();
  }

  const xpath::QueryTree& query_;
  MachineGraph graph_;
};

Result<MachineGraph> MachineGraph::Build(const xpath::QueryTree& query) {
  if (query.root() == nullptr) {
    return Status::InvalidArgument("empty query tree");
  }
  if (query.sol()->is_attribute) {
    return Status::NotSupported(
        "an attribute cannot be the return node of a query");
  }
  MachineGraphBuilder builder(query);
  return builder.Run();
}

std::string MachineGraph::ToString() const {
  std::string out;
  for (const auto& node : nodes_) {
    out += "v" + std::to_string(node->id) + " label=" + node->label +
           " edge=" + node->edge.ToString();
    if (node->parent != nullptr) {
      out += " parent=v" + std::to_string(node->parent->id);
      out += " beta=" + std::to_string(node->branch_slot);
    } else {
      out += " (root)";
    }
    if (node->is_return) out += " (return)";
    if (node->on_output_path) out += " (output-path)";
    if (node->has_value_test) {
      out += " valuetest[." + std::string(xpath::CmpOpToString(node->op)) +
             node->literal + "]";
    }
    for (const AttributeTest& t : node->attr_tests) {
      out += " @" + t.name + "(slot " + std::to_string(t.branch_slot) + ")";
    }
    out += " slots=" + std::to_string(node->num_slots);
    out += "\n";
  }
  return out;
}

}  // namespace twigm::core
