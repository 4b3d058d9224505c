#include "analysis/query_analysis.h"

#include <algorithm>
#include <climits>
#include <map>
#include <memory>
#include <utility>

namespace twigm::analysis {

namespace {

using xpath::Axis;
using xpath::QueryNode;
using xpath::QueryTree;

// ---------------------------------------------------------------------------
// Pattern homomorphisms.
//
// Embeds(a, b) decides whether pattern subtree `a` maps into pattern
// subtree `b` with a ↦ b: label-compatible, and every child of `a` finds a
// target under `b` respecting its axis. A successful embedding proves that
// any document match of `b`'s subtree contains a match of `a`'s — the
// direction all the pruning below relies on. Wildcards and value tests are
// handled conservatively: `a` may be weaker than `b`, never stronger.
// ---------------------------------------------------------------------------

bool LabelCompatible(const QueryNode* a, const QueryNode* b) {
  if (a->is_attribute != b->is_attribute) return false;
  if (a->is_attribute) {
    if (a->name != b->name) return false;  // no attribute wildcards
  } else if (!a->is_wildcard) {
    if (b->is_wildcard || a->name != b->name) return false;
  }
  if (a->has_value_test) {
    // Conservative: require the identical test (no arithmetic implication).
    if (!b->has_value_test || a->op != b->op || a->literal != b->literal ||
        a->literal_is_number != b->literal_is_number) {
      return false;
    }
  }
  return true;
}

bool Embeds(const QueryNode* a, const QueryNode* b);

// Does some node below `b` accept `ca`? Child axis: a direct child of `b`
// reached by a child edge. Descendant axis: any node of `b`'s subtree
// strictly below `b` (every pattern edge implies >= 1 document level).
bool ExistsTarget(const QueryNode* ca, const QueryNode* b) {
  if (ca->axis == Axis::kChild) {
    for (const auto& cb : b->children) {
      if (cb->axis != Axis::kChild) continue;
      if (Embeds(ca, cb.get())) return true;
    }
    return false;
  }
  std::vector<const QueryNode*> stack;
  for (const auto& cb : b->children) stack.push_back(cb.get());
  while (!stack.empty()) {
    const QueryNode* node = stack.back();
    stack.pop_back();
    if (Embeds(ca, node)) return true;
    for (const auto& c : node->children) stack.push_back(c.get());
  }
  return false;
}

bool Embeds(const QueryNode* a, const QueryNode* b) {
  if (!LabelCompatible(a, b)) return false;
  for (const auto& ca : a->children) {
    if (!ExistsTarget(ca.get(), b)) return false;
  }
  return true;
}

// Does the existence of branch `q` (from some context node) imply the
// existence of branch `p` (from the same context)? Both are children of the
// same pattern node; axes are relative to that shared context.
bool BranchImplies(const QueryNode* q, const QueryNode* p) {
  if (p->axis == Axis::kChild) {
    // p needs an instance exactly one level below the context (or an
    // attribute of it); only q's own root can serve.
    return q->axis == Axis::kChild && Embeds(p, q);
  }
  // p accepts any strictly-lower instance: q's root (>= 1 level down under
  // either axis) or anything in q's subtree.
  if (Embeds(p, q)) return true;
  std::vector<const QueryNode*> stack;
  for (const auto& c : q->children) stack.push_back(c.get());
  while (!stack.empty()) {
    const QueryNode* node = stack.back();
    stack.pop_back();
    if (Embeds(p, node)) return true;
    for (const auto& c : node->children) stack.push_back(c.get());
  }
  return false;
}

// ---------------------------------------------------------------------------
// Cloning, minimization, canonicalization.
// ---------------------------------------------------------------------------

std::unique_ptr<QueryNode> CloneNode(const QueryNode* src, QueryNode* parent) {
  auto dst = std::make_unique<QueryNode>();
  dst->name = src->name;
  dst->is_wildcard = src->is_wildcard;
  dst->is_attribute = src->is_attribute;
  dst->axis = src->axis;
  dst->parent = parent;
  dst->on_output_path = src->on_output_path;
  dst->has_value_test = src->has_value_test;
  dst->op = src->op;
  dst->literal = src->literal;
  dst->literal_is_number = src->literal_is_number;
  dst->index = src->index;
  dst->children.reserve(src->children.size());
  for (const auto& child : src->children) {
    dst->children.push_back(CloneNode(child.get(), dst.get()));
  }
  return dst;
}

// Removes predicate branches of `v` implied by a sibling branch or by the
// output-path continuation (which includes every deeper spine predicate —
// any result witnesses it in full). Children are minimized first so
// implication is tested between already-minimal subtrees. Returns the
// number of branches removed in this subtree.
size_t MinimizeNode(QueryNode* v) {
  size_t removed = 0;
  for (auto& child : v->children) removed += MinimizeNode(child.get());

  std::vector<bool> alive(v->children.size(), true);
  for (size_t i = 0; i < v->children.size(); ++i) {
    QueryNode* p = v->children[i].get();
    if (p->on_output_path) continue;  // never remove the spine
    for (size_t j = 0; j < v->children.size(); ++j) {
      if (i == j || !alive[j]) continue;
      // Checking i ascending and skipping dead witnesses makes mutual
      // implication (duplicate predicates) keep the later copy's witness:
      // the earlier duplicate is removed first, the survivor stays.
      if (BranchImplies(v->children[j].get(), p)) {
        alive[i] = false;
        ++removed;
        break;
      }
    }
  }
  size_t w = 0;
  for (size_t i = 0; i < v->children.size(); ++i) {
    if (alive[i]) {
      if (w != i) v->children[w] = std::move(v->children[i]);
      ++w;
    }
  }
  v->children.resize(w);
  return removed;
}

// Orders predicate branches by their rendered text (spine child last) so
// equivalent queries that differ only in predicate order share one
// canonical rendering.
void CanonicalSort(QueryNode* v) {
  for (auto& child : v->children) CanonicalSort(child.get());
  std::stable_sort(v->children.begin(), v->children.end(),
                   [](const std::unique_ptr<QueryNode>& a,
                      const std::unique_ptr<QueryNode>& b) {
                     if (a->on_output_path != b->on_output_path) {
                       return !a->on_output_path;
                     }
                     if (a->on_output_path) return false;
                     return QueryTree::RenderSubquery(a.get()) <
                            QueryTree::RenderSubquery(b.get());
                   });
}

// ---------------------------------------------------------------------------
// DTD satisfiability.
// ---------------------------------------------------------------------------

std::string StepName(const QueryNode* node) {
  std::string out = node->axis == Axis::kChild ? "/" : "//";
  if (node->is_attribute) out += "@";
  out += node->name;
  return out;
}

// Checks the element node `node` (and recursively its subtree) against the
// DTD. `parent_feasible` is the element set the parent can bind, null for
// the query root. Returns an empty string when satisfiable.
std::string CheckSat(const QueryNode* node, const DtdStructure& dtd,
                     const std::vector<bool>* parent_feasible) {
  const size_t n = dtd.element_count();

  std::vector<bool> feasible(n, false);
  if (parent_feasible == nullptr) {
    feasible = node->axis == Axis::kChild ? dtd.AtDepthExact(1)
                                          : dtd.AtDepthAtLeast(1);
  } else {
    for (size_t p = 0; p < n; ++p) {
      if (!(*parent_feasible)[p]) continue;
      if (node->axis == Axis::kChild) {
        for (int c : dtd.info(static_cast<int>(p)).children) {
          feasible[static_cast<size_t>(c)] = true;
        }
      } else {
        for (size_t u = 0; u < n; ++u) {
          if (dtd.CanReach(static_cast<int>(p), static_cast<int>(u))) {
            feasible[u] = true;
          }
        }
      }
    }
  }
  if (!node->is_wildcard) {
    const int id = dtd.Find(node->name);
    if (id < 0) {
      return "step '" + StepName(node) + "': element '" + node->name +
             "' is not declared in the DTD";
    }
    const bool was_feasible = feasible[static_cast<size_t>(id)];
    feasible.assign(n, false);
    feasible[static_cast<size_t>(id)] = was_feasible;
  }
  bool any = false;
  for (size_t e = 0; e < n; ++e) any = any || feasible[e];
  if (!any) {
    return "step '" + StepName(node) +
           "': no DTD-valid document has this element at this position";
  }

  // A value test on direct text needs an element that can carry text (an
  // equality against "" still matches text-less elements).
  if (node->has_value_test && node->op == xpath::CmpOp::kEq &&
      !node->literal.empty()) {
    bool pcdata = false;
    for (size_t e = 0; e < n; ++e) {
      if (feasible[e] && dtd.info(static_cast<int>(e)).has_pcdata) {
        pcdata = true;
        break;
      }
    }
    if (!pcdata) {
      return "step '" + StepName(node) +
             "': value test against a text-less content model";
    }
  }

  for (const auto& child : node->children) {
    if (child->is_attribute) {
      // Parser guarantees attributes use the child axis.
      bool declared = false;
      const bool enum_checkable = child->has_value_test &&
                                  child->op == xpath::CmpOp::kEq &&
                                  !child->literal_is_number;
      bool value_possible = false;
      for (size_t p = 0; p < n; ++p) {
        if (!feasible[p] || !dtd.HasAttribute(static_cast<int>(p), child->name)) {
          continue;
        }
        declared = true;
        if (!enum_checkable) {
          value_possible = true;
        } else {
          const std::vector<std::string>* values =
              dtd.EnumValues(static_cast<int>(p), child->name);
          if (values == nullptr ||
              std::find(values->begin(), values->end(), child->literal) !=
                  values->end()) {
            value_possible = true;
          }
        }
      }
      if (!declared) {
        return "step '" + StepName(child.get()) + "': attribute '" + child->name +
               "' is not declared on any feasible element";
      }
      if (!value_possible) {
        return "step '" + StepName(child.get()) + "': literal \"" + child->literal +
               "\" is outside the attribute's enumerated type";
      }
      continue;
    }
    std::string diag = CheckSat(child.get(), dtd, &feasible);
    if (!diag.empty()) return diag;
  }
  return "";
}

// ---------------------------------------------------------------------------
// Containment (spine dynamic program).
// ---------------------------------------------------------------------------

std::vector<const QueryNode*> Spine(const QueryTree& q) {
  std::vector<const QueryNode*> spine;
  const QueryNode* cur = q.root();
  while (cur != nullptr) {
    spine.push_back(cur);
    const QueryNode* next = nullptr;
    for (const auto& child : cur->children) {
      if (child->on_output_path) {
        next = child.get();
        break;
      }
    }
    cur = next;
  }
  return spine;
}

// Can super-spine node a_i map onto sub-spine node b_j? Labels must be
// compatible and every predicate branch of a_i must embed below b_j
// (targets include b_j's whole subtree — spine continuation included).
bool SpineNodeOk(const QueryNode* a, const QueryNode* b) {
  if (!LabelCompatible(a, b)) return false;
  for (const auto& ca : a->children) {
    if (ca->on_output_path) continue;
    if (!ExistsTarget(ca.get(), b)) return false;
  }
  return true;
}

bool SpineMatch(const std::vector<const QueryNode*>& a,
                const std::vector<const QueryNode*>& b, size_t i, size_t j) {
  if (!SpineNodeOk(a[i], b[j])) return false;
  if (i + 1 == a.size()) return j + 1 == b.size();  // sol must map to sol
  if (j + 1 == b.size()) return false;
  const QueryNode* next = a[i + 1];
  if (next->axis == Axis::kChild) {
    // Exactly one level down in every match: the sub-spine edge must be a
    // child edge too.
    return b[j + 1]->axis == Axis::kChild && SpineMatch(a, b, i + 1, j + 1);
  }
  for (size_t jj = j + 1; jj < b.size(); ++jj) {
    if (SpineMatch(a, b, i + 1, jj)) return true;
  }
  return false;
}

}  // namespace

bool QueryContains(const QueryTree& super, const QueryTree& sub) {
  if (super.root() == nullptr || sub.root() == nullptr) return false;
  const std::vector<const QueryNode*> a = Spine(super);
  const std::vector<const QueryNode*> b = Spine(sub);
  if (a.size() > b.size()) return false;
  if (a[0]->axis == Axis::kChild) {
    // The super root pins level 1; so must the sub root.
    return b[0]->axis == Axis::kChild && SpineMatch(a, b, 0, 0);
  }
  for (size_t j = 0; j + a.size() <= b.size(); ++j) {
    if (SpineMatch(a, b, 0, j)) return true;
  }
  return false;
}

QueryAnalysis AnalyzeQuery(const QueryTree& query,
                           const AnalyzerOptions& options) {
  QueryAnalysis out;
  std::unique_ptr<QueryNode> root = CloneNode(query.root(), nullptr);
  out.branches_removed = MinimizeNode(root.get());
  CanonicalSort(root.get());
  out.minimized = QueryTree::RenderSubquery(root.get());
  if (options.dtd != nullptr) {
    out.diagnostic = CheckSat(root.get(), *options.dtd, nullptr);
    out.satisfiable = out.diagnostic.empty();
  }
  return out;
}

Result<QuerySetAnalysis> AnalyzeQuerySet(
    const std::vector<std::string>& queries, const AnalyzerOptions& options) {
  QuerySetAnalysis out;
  out.queries.resize(queries.size());

  // Equivalence classing: exact canonical-text hits are free; syntactically
  // distinct representatives are compared by mutual containment within
  // small buckets (same sol label + node count — equivalent minimal
  // patterns agree on both).
  std::map<std::string, size_t> canon_to_rep;
  std::map<std::string, std::vector<size_t>> buckets;
  std::map<size_t, QueryTree> rep_trees;

  for (size_t i = 0; i < queries.size(); ++i) {
    Result<QueryTree> tree = QueryTree::Parse(queries[i]);
    if (!tree.ok()) {
      return Status::InvalidArgument(
          "query #" + std::to_string(i) + ": " + tree.status().ToString());
    }
    QueryAnalysis a = AnalyzeQuery(tree.value(), options);
    QuerySetAnalysis::PerQuery& per = out.queries[i];
    per.satisfiable = a.satisfiable;
    per.diagnostic = std::move(a.diagnostic);
    per.minimized = a.minimized;
    per.branches_removed = a.branches_removed;
    per.forwarded_to = i;
    out.branches_minimized += a.branches_removed;
    if (!a.satisfiable) {
      ++out.unsatisfiable;
      continue;
    }

    auto [canon_it, inserted] = canon_to_rep.emplace(a.minimized, i);
    if (!inserted) {
      per.forwarded_to = canon_it->second;
      ++out.forwarded;
      continue;
    }
    Result<QueryTree> min_tree = QueryTree::Parse(a.minimized);
    if (!min_tree.ok()) {
      return Status::Internal("query #" + std::to_string(i) +
                              ": minimized form failed to re-parse: " +
                              a.minimized);
    }
    const std::string bucket_key =
        min_tree.value().sol()->name + "#" +
        std::to_string(min_tree.value().node_count());
    bool matched = false;
    for (size_t rep : buckets[bucket_key]) {
      const QueryTree& rep_tree = rep_trees.at(rep);
      if (QueryContains(rep_tree, min_tree.value()) &&
          QueryContains(min_tree.value(), rep_tree)) {
        per.forwarded_to = rep;
        ++out.forwarded;
        matched = true;
        break;
      }
    }
    if (!matched) {
      buckets[bucket_key].push_back(i);
      rep_trees.emplace(i, std::move(min_tree).value());
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Level bounds over a machine graph.
// ---------------------------------------------------------------------------

std::vector<bool> ReachableFromSet(const DtdStructure& dtd,
                                   const std::vector<bool>& from, int k,
                                   bool exact) {
  const size_t n = dtd.element_count();
  std::vector<bool> out(n, false);
  for (size_t f = 0; f < n; ++f) {
    if (!from[f]) continue;
    const std::vector<bool> reach =
        exact ? dtd.ReachableExact(static_cast<int>(f), k)
              : dtd.ReachableAtLeast(static_cast<int>(f), k);
    for (size_t e = 0; e < n; ++e) {
      if (reach[e]) out[e] = true;
    }
  }
  return out;
}

core::LevelRange IntersectDepthRange(const DtdStructure& dtd,
                                     const std::vector<bool>& feasible,
                                     core::LevelRange structural) {
  int elem_min = INT_MAX;
  int elem_max = 0;
  bool elem_unbounded = false;
  bool any = false;
  for (size_t e = 0; e < feasible.size(); ++e) {
    if (!feasible[e]) continue;
    any = true;
    const ElementInfo& info = dtd.info(static_cast<int>(e));
    elem_min = std::min(elem_min, info.min_depth);
    if (info.max_depth == kUnboundedDepth) {
      elem_unbounded = true;
    } else {
      elem_max = std::max(elem_max, info.max_depth);
    }
  }
  if (!any) return core::LevelRange::Nothing();
  core::LevelRange r;
  r.min_level = std::max(structural.min_level, elem_min);
  const int e_max = elem_unbounded ? -1 : elem_max;
  if (structural.max_level < 0) {
    r.max_level = e_max;
  } else if (e_max < 0) {
    r.max_level = structural.max_level;
  } else {
    r.max_level = std::min(structural.max_level, e_max);
  }
  return r;
}

namespace {

core::LevelBounds ComputeBoundsImpl(const core::MachineGraph& graph,
                                    const DtdStructure& dtd,
                                    const std::vector<bool>* context_feasible,
                                    core::LevelRange context_bounds) {
  const size_t count = graph.node_count();
  std::vector<std::vector<bool>> feasible(count);
  core::LevelBounds out(count, core::LevelRange::Everything());

  for (const auto& node : graph.nodes()) {  // pre-order: parents first
    const core::MachineNode* v = node.get();
    const int k = v->edge.distance;

    std::vector<bool> base;
    core::LevelRange structural;
    if (v->parent == nullptr) {
      if (context_feasible == nullptr) {
        base = v->edge.exact ? dtd.AtDepthExact(k) : dtd.AtDepthAtLeast(k);
        structural.min_level = k;
        structural.max_level = v->edge.exact ? k : -1;
      } else {
        base = ReachableFromSet(dtd, *context_feasible, k, v->edge.exact);
        structural.min_level = context_bounds.min_level + k;
        structural.max_level =
            (v->edge.exact && context_bounds.max_level >= 0)
                ? context_bounds.max_level + k
                : -1;
      }
    } else {
      base = ReachableFromSet(dtd, feasible[static_cast<size_t>(v->parent->id)],
                              k, v->edge.exact);
      const core::LevelRange& pb = out[static_cast<size_t>(v->parent->id)];
      structural.min_level = pb.min_level + k;
      structural.max_level =
          (v->edge.exact && pb.max_level >= 0) ? pb.max_level + k : -1;
    }

    if (!v->is_wildcard) {
      const int id = dtd.Find(v->label);
      const bool keep = id >= 0 && base[static_cast<size_t>(id)];
      base.assign(dtd.element_count(), false);
      if (keep) base[static_cast<size_t>(id)] = true;
    }

    out[static_cast<size_t>(v->id)] = IntersectDepthRange(dtd, base, structural);
    feasible[static_cast<size_t>(v->id)] = std::move(base);
  }
  return out;
}

}  // namespace

core::LevelBounds ComputeMachineLevelBounds(const core::MachineGraph& graph,
                                            const DtdStructure& dtd) {
  return ComputeBoundsImpl(graph, dtd, nullptr, core::LevelRange());
}

core::LevelBounds ComputeMachineLevelBounds(
    const core::MachineGraph& graph, const DtdStructure& dtd,
    const std::vector<bool>& context_feasible,
    core::LevelRange context_bounds) {
  return ComputeBoundsImpl(graph, dtd, &context_feasible, context_bounds);
}

}  // namespace twigm::analysis
