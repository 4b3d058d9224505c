#include "filter/early_decisions.h"

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace twigm::filter {

namespace {

// Memoized "a push at trie node n can matter below element e": the node
// accepts a query, anchors a predicate tail, or some matching child is
// DTD-reachable at its edge distance and is itself useful.
class TrieUsefulness {
 public:
  TrieUsefulness(const FilterIndex& index, const analysis::DtdStructure& dtd,
                 const std::vector<bool>& anchors)
      : index_(index), dtd_(dtd), anchors_(anchors),
        elems_(dtd.element_count()) {
    memo_.assign(index_.nodes().size() * elems_, 0);
  }

  bool Useful(int node, int e) {
    int8_t& memo = memo_[static_cast<size_t>(node) * elems_ +
                         static_cast<size_t>(e)];
    if (memo != 0) return memo == 1;
    const StepTrieNode& n = index_.nodes()[static_cast<size_t>(node)];
    bool useful = !n.accept.empty() || anchors_[static_cast<size_t>(node)];
    if (!useful) {
      for (int child : n.children) {
        const StepTrieNode& c = index_.nodes()[static_cast<size_t>(child)];
        const std::vector<bool>& reach = Reach(e, c.edge);
        for (size_t t = 0; t < elems_; ++t) {
          if (!reach[t]) continue;
          if (!c.is_wildcard &&
              c.label != dtd_.info(static_cast<int>(t)).name) {
            continue;
          }
          if (Useful(child, static_cast<int>(t))) {
            useful = true;
            break;
          }
        }
        if (useful) break;
      }
    }
    memo = useful ? 1 : 2;
    return useful;
  }

 private:
  const std::vector<bool>& Reach(int e, const core::EdgeCondition& edge) {
    auto key = std::make_tuple(e, edge.exact, edge.distance);
    auto it = reach_.find(key);
    if (it == reach_.end()) {
      it = reach_
               .emplace(key, edge.exact
                                 ? dtd_.ReachableExact(e, edge.distance)
                                 : dtd_.ReachableAtLeast(e, edge.distance))
               .first;
    }
    return it->second;
  }

  const FilterIndex& index_;
  const analysis::DtdStructure& dtd_;
  const std::vector<bool>& anchors_;
  const size_t elems_;
  std::vector<int8_t> memo_;  // 0 unknown, 1 useful, 2 useless
  std::map<std::tuple<int, bool, int>, std::vector<bool>> reach_;
};

}  // namespace

core::DecisionTable CompileTrieDecisions(const FilterIndex& index,
                                         const analysis::DtdStructure& dtd) {
  std::vector<std::string> names;
  names.reserve(dtd.element_count());
  for (size_t e = 0; e < dtd.element_count(); ++e) {
    names.push_back(dtd.info(static_cast<int>(e)).name);
  }
  core::DecisionTable table(index.nodes().size(), std::move(names));

  std::vector<bool> anchors(index.nodes().size(), false);
  for (const QueryPlan& plan : index.plans()) {
    if (!plan.linear && plan.anchor >= 0) {
      anchors[static_cast<size_t>(plan.anchor)] = true;
    }
  }
  TrieUsefulness useful(index, dtd, anchors);
  for (size_t n = 0; n < index.nodes().size(); ++n) {
    for (size_t e = 0; e < dtd.element_count(); ++e) {
      if (!useful.Useful(static_cast<int>(n), static_cast<int>(e))) {
        table.at(n, e).flags |= core::NodeDecision::kUseless;
      }
    }
  }
  return table;
}

}  // namespace twigm::filter
