// Machine construction (section 4.2).
//
// Builds the machine-node graph for a query tree:
//   * one machine node per query node whose name is a tag, plus per
//     *branching or leaf* wildcard node;
//   * interior wildcard nodes (exactly one child, not the return node, no
//     value test) are collapsed into the parent-edge label of the next
//     machine node: c collapsed wildcards give (op, c+1), with op = '≥' iff
//     any collapsed query edge was '//';
//   * attribute query nodes become attribute tests attached to their parent
//     machine node (evaluated against the element's attributes at
//     startElement, footnote 2);
//   * each machine child is assigned a branch slot β(v) in its parent's
//     branch-match array.

#ifndef TWIGM_CORE_MACHINE_BUILDER_H_
#define TWIGM_CORE_MACHINE_BUILDER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/edge.h"
#include "xml/sax_event.h"
#include "xpath/ast.h"
#include "xpath/query_tree.h"

namespace twigm::core {

/// An attribute test hanging off a machine node: the element must have the
/// attribute, and (optionally) its value must satisfy the comparison.
struct AttributeTest {
  std::string name;
  bool has_value_test = false;
  xpath::CmpOp op = xpath::CmpOp::kEq;
  std::string literal;
  bool literal_is_number = false;
  int branch_slot = -1;  // β within the owning machine node
};

/// A query node after the section 4.2 folding: the node that becomes a
/// machine node, and the edge label that reaches it.
struct FoldedStep {
  const xpath::QueryNode* node = nullptr;
  EdgeCondition edge;
};

/// The wildcard collapse rule, shared by every planner over a query tree
/// (MachineGraph::Build, index::IndexedEvaluator). Starts from query node
/// `q` and its own incoming edge; while the node is an interior wildcard
/// (exactly one child, an element; not `sol`; no value test) it is folded
/// into the edge — distance + 1, and op '≥' once any folded query edge is
/// '//' — and the walk moves on to its child.
FoldedStep FoldInteriorWildcards(const xpath::QueryNode* q,
                                 const xpath::QueryNode* sol);

/// One machine node. Owned by MachineGraph.
struct MachineNode {
  std::string label;        // tag, or "*"
  bool is_wildcard = false;
  EdgeCondition edge;       // ζ(v): condition against the parent's entries
  MachineNode* parent = nullptr;
  std::vector<MachineNode*> children;      // element children, in β order
  std::vector<AttributeTest> attr_tests;   // attribute children

  /// β(v): this node's slot in parent's branch-match array (-1 for root).
  int branch_slot = -1;
  /// Number of branch slots this node's entries need (element children +
  /// attribute tests). At most 64 (enforced at build time).
  int num_slots = 0;
  /// Bitmask with one bit per slot; an entry is satisfied when
  /// (branch & required_mask) == required_mask and the value test passes.
  uint64_t required_mask = 0;

  bool on_output_path = false;
  bool is_return = false;   // sol

  /// Optional value test against the matched element's direct text.
  bool has_value_test = false;
  xpath::CmpOp op = xpath::CmpOp::kEq;
  std::string literal;
  bool literal_is_number = false;

  /// Dense index into the graph's node array.
  int id = -1;

  /// Interned id of `label`, stamped by the machine's BindInterner().
  /// kNoSymbol until bound (and always for wildcards).
  xml::SymbolId symbol = xml::kNoSymbol;
};

/// The machine-node graph for one query.
class MachineGraph {
 public:
  MachineGraph() = default;
  MachineGraph(MachineGraph&&) = default;
  MachineGraph& operator=(MachineGraph&&) = default;
  MachineGraph(const MachineGraph&) = delete;
  MachineGraph& operator=(const MachineGraph&) = delete;

  /// Builds the graph per section 4.2. Fails if the query's return node is
  /// an attribute or a node needs more than 64 branch slots.
  static Result<MachineGraph> Build(const xpath::QueryTree& query);

  const MachineNode* root() const { return root_; }
  const MachineNode* return_node() const { return return_; }

  /// Nodes in pre-order (parents before children).
  const std::vector<std::unique_ptr<MachineNode>>& nodes() const {
    return nodes_;
  }
  size_t node_count() const { return nodes_.size(); }

  /// Human-readable dump of nodes, edges and slots (for tests/debugging).
  std::string ToString() const;

 private:
  friend class MachineGraphBuilder;

  std::vector<std::unique_ptr<MachineNode>> nodes_;
  MachineNode* root_ = nullptr;
  MachineNode* return_ = nullptr;
};

}  // namespace twigm::core

#endif  // TWIGM_CORE_MACHINE_BUILDER_H_
