// Parent-edge conditions ζ(v) of the TwigM machine (section 4.1).
//
// An edge label is a pair (op, k) with op ∈ {=, ≥} and k ≥ 1: an XML node at
// level l matches against a parent-stack entry at level l' iff
// op(l - l', k). Interior '*' query nodes are collapsed into k (machine
// construction, section 4.2): c interior wildcards between two machine nodes
// yield k = c + 1, and op is '≥' iff any collapsed query edge was '//'.

#ifndef TWIGM_CORE_EDGE_H_
#define TWIGM_CORE_EDGE_H_

#include <string>

namespace twigm::core {

/// The machine edge label (op, k).
struct EdgeCondition {
  /// True for '=', false for '≥'.
  bool exact = true;
  /// Required level difference (k ≥ 1).
  int distance = 1;

  /// Does a level difference `diff` satisfy this condition?
  bool Satisfies(int diff) const {
    return exact ? diff == distance : diff >= distance;
  }

  /// "(=,1)" / "(>=,2)" — for debugging and machine dumps.
  std::string ToString() const {
    return std::string("(") + (exact ? "=" : ">=") + "," +
           std::to_string(distance) + ")";
  }
};

}  // namespace twigm::core

#endif  // TWIGM_CORE_EDGE_H_
