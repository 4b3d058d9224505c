// Step-trie index for large XPath query sets (the filtering workload of the
// paper's related work, section 6: YFilter/XTrie/XPush match thousands of
// queries against one stream).
//
// FilterIndex compiles a set of XP{/,//,*,[]} queries into one shared
// structure. Every query contributes its *shareable prefix* — the chain of
// output-path location steps up to (but excluding) the first node carrying a
// predicate or value test — to a node-labeled trie whose nodes are keyed by
// (axis, name test): `/a` and `//a` at the same position are distinct nodes,
// as are `a` and `*`. Linear queries (no predicates anywhere — the dominant
// filtering workload) are absorbed entirely: their last step becomes an
// *accepting* node carrying the query ids to notify. Queries with predicates
// share their trunk and record a QueryPlan naming the trie node their tail
// machine anchors to; FilterEngine builds the TwigM tail machines (via the
// existing machine construction) and attaches them with set_root_context. A query whose very first step already carries a
// predicate has no trunk (anchor = -1) and degenerates to the product
// construction for that one query.

#ifndef TWIGM_FILTER_FILTER_INDEX_H_
#define TWIGM_FILTER_FILTER_INDEX_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/edge.h"
#include "filter/filter_stats.h"
#include "xml/sax_event.h"
#include "xml/tag_interner.h"
#include "xpath/query_tree.h"

namespace twigm::filter {

/// One node of the step trie. The trie root is virtual (the document root,
/// at level 0); its children are listed by FilterIndex::root_children().
struct StepTrieNode {
  std::string label;         // tag, or "*"
  bool is_wildcard = false;
  core::EdgeCondition edge;  // (=,1) for '/', (>=,1) for '//'
  int parent = -1;           // trie-node id; -1 = the virtual root
  std::vector<int> children;
  /// Linear queries whose last step is this node: a push here is a result.
  std::vector<size_t> accept;
  /// `label` interned in the bound parser's tag dictionary (kNoSymbol for
  /// wildcards or before FilterIndex::BindInterner runs). The engine
  /// matches children by this integer alone.
  xml::SymbolId symbol = xml::kNoSymbol;
};

/// How one query of the set is evaluated.
struct QueryPlan {
  /// Fully shared: the query runs entirely in the trie.
  bool linear = false;
  /// Trie node the shared trunk ends at; -1 when the query has no trunk
  /// (linear queries record their accepting node here).
  int anchor = -1;
  /// Number of leading steps shared through the trie.
  int trunk_steps = 0;
  /// Rendered tail subquery (empty for linear queries). Its first step
  /// keeps the original axis into the tail root, evaluated against the
  /// anchor node's stack.
  std::string tail;
};

/// The compiled index: trie + per-query plans. Structurally immutable once
/// built; BindInterner only stamps each node's label with its SymbolId in
/// the stream's tag dictionary.
class FilterIndex {
 public:
  FilterIndex() = default;  // empty index (Result<T> requires this)
  FilterIndex(FilterIndex&&) = default;
  FilterIndex& operator=(FilterIndex&&) = default;
  FilterIndex(const FilterIndex&) = delete;
  FilterIndex& operator=(const FilterIndex&) = delete;

  /// Compiles every query; fails on the first bad one (the error message
  /// names its index).
  static Result<FilterIndex> Build(const std::vector<std::string>& queries);

  /// Rewrites every accept list from compiled-query indices to the
  /// caller's: compiled query i reports as each index in `report_as[i]`.
  /// Plans keep the compiled index space.
  void RemapAccepts(const std::vector<std::vector<size_t>>& report_as);

  /// Interns every non-wildcard node label into `interner` (the parser's
  /// dictionary) and records the SymbolId on the node, so per-event child
  /// matching dispatches on dense ids (DESIGN.md §10). Idempotent; symbols
  /// stay valid for the interner's lifetime.
  void BindInterner(xml::TagInterner* interner);

  const std::vector<StepTrieNode>& nodes() const { return nodes_; }
  const std::vector<int>& root_children() const { return root_children_; }
  const std::vector<QueryPlan>& plans() const { return plans_; }
  const FilterIndexStats& stats() const { return stats_; }

 private:
  /// Returns the child of `parent` (-1 = virtual root) matching the step,
  /// creating it if absent.
  int Intern(int parent, const xpath::QueryNode& step);

  std::vector<StepTrieNode> nodes_;
  std::vector<int> root_children_;
  std::vector<QueryPlan> plans_;
  FilterIndexStats stats_;
};

}  // namespace twigm::filter

#endif  // TWIGM_FILTER_FILTER_INDEX_H_
