#include "analysis/decision_analysis.h"

#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "core/evaluator.h"
#include "core/value_test.h"
#include "dtd/dtd_model.h"

namespace twigm::analysis {

namespace {

// Three-valued verdicts for static test evaluation.
enum Verdict : int { kRefutedV = -1, kOpenV = 0, kImpliedV = 1 };

class Compiler {
 public:
  Compiler(const core::MachineGraph& graph, const DtdStructure& dtd)
      : graph_(graph), dtd_(dtd), elems_(dtd.element_count()) {
    const size_t cells = graph_.node_count() * elems_;
    refuted_.assign(cells, 0);
    implied_.assign(cells, 0);
    output_.assign(cells, 0);
  }

  void Fill(core::DecisionTable* table) {
    for (const auto& node : graph_.nodes()) {
      const core::MachineNode* v = node.get();
      for (size_t e = 0; e < elems_; ++e) {
        core::NodeDecision& cell = table->at(static_cast<size_t>(v->id), e);
        const int elem = static_cast<int>(e);
        if (Refuted(v, elem)) {
          cell.flags |= core::NodeDecision::kRefuted;
          continue;
        }
        if (v->on_output_path && !OutputPossible(v, elem)) {
          cell.flags |= core::NodeDecision::kUseless;
        }
        if (v->has_value_test && StaticValueTest(v, elem) == kImpliedV) {
          cell.flags |= core::NodeDecision::kValueImplied;
        }
        uint64_t mask = 0;
        for (const core::MachineNode* c : v->children) {
          if (ImpliedBit(elem, c)) mask |= uint64_t{1} << c->branch_slot;
        }
        cell.implied_mask = mask;
      }
    }
  }

 private:
  size_t Cell(const core::MachineNode* v, int e) const {
    return static_cast<size_t>(v->id) * elems_ + static_cast<size_t>(e);
  }

  bool Matches(const core::MachineNode* c, int e) const {
    return c->is_wildcard || c->label == dtd_.info(e).name;
  }

  // Elements that *may* bind at a child with edge ζ below an instance of e.
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

  // Elements *guaranteed* to occur at an edge-compatible depth below every
  // valid instance of e.
  const std::vector<bool>& Guaranteed(int e, const core::EdgeCondition& edge) {
    auto key = std::make_tuple(e, edge.exact, edge.distance);
    auto it = required_.find(key);
    if (it == required_.end()) {
      it = required_
               .emplace(key, edge.exact
                                 ? dtd_.RequiredExact(e, edge.distance)
                                 : dtd_.RequiredAtLeast(e, edge.distance))
               .first;
    }
    return it->second;
  }

  // v's value test against an instance of element e, before its content
  // streams. Element-only content means the direct text a machine
  // accumulates is whitespace at most, so equality against a literal with
  // substance is decided statically; anything subtler stays open.
  Verdict StaticValueTest(const core::MachineNode* v, int e) const {
    if (!v->has_value_test) return kImpliedV;
    if (dtd_.info(e).has_pcdata) return kOpenV;
    bool literal_has_ink = false;
    for (char ch : v->literal) {
      if (ch != ' ' && ch != '\t' && ch != '\n' && ch != '\r') {
        literal_has_ink = true;
        break;
      }
    }
    if (!literal_has_ink) return kOpenV;
    if (v->op == xpath::CmpOp::kEq) return kRefutedV;
    if (v->op == xpath::CmpOp::kNe) return kImpliedV;
    return kOpenV;
  }

  // An attribute test of a machine node against element e. Valid documents
  // only carry declared attributes, and #REQUIRED/#FIXED declarations
  // guarantee presence; value tests are decided through #FIXED defaults and
  // enumerated value sets.
  Verdict StaticAttrTest(const core::AttributeTest& t, int e) const {
    const std::vector<dtd::AttrDecl>* decls =
        dtd_.dtd().FindAttlist(dtd_.info(e).name);
    const dtd::AttrDecl* decl = nullptr;
    if (decls != nullptr) {
      for (const dtd::AttrDecl& d : *decls) {
        if (d.name == t.name) {
          decl = &d;
          break;
        }
      }
    }
    if (decl == nullptr) return kRefutedV;
    const bool present = decl->default_kind == dtd::AttrDefault::kRequired ||
                         decl->default_kind == dtd::AttrDefault::kFixed;
    if (!t.has_value_test) return present ? kImpliedV : kOpenV;
    if (decl->default_kind == dtd::AttrDefault::kFixed) {
      return core::EvalValueTest(decl->default_value, t.op, t.literal,
                                 t.literal_is_number)
                 ? kImpliedV
                 : kRefutedV;
    }
    if (!decl->enum_values.empty()) {
      size_t passing = 0;
      for (const std::string& value : decl->enum_values) {
        if (core::EvalValueTest(value, t.op, t.literal, t.literal_is_number)) {
          ++passing;
        }
      }
      if (passing == 0) return kRefutedV;
      if (passing == decl->enum_values.size() && present) return kImpliedV;
    }
    return kOpenV;
  }

  // No binding of e at v can ever pop satisfied, whatever streams below it.
  bool Refuted(const core::MachineNode* v, int e) {
    int8_t& memo = refuted_[Cell(v, e)];
    if (memo != 0) return memo == 1;
    memo = 2;  // open the cell optimistically; the machine tree is acyclic
    bool refuted = StaticValueTest(v, e) == kRefutedV;
    if (!refuted) {
      for (const core::AttributeTest& t : v->attr_tests) {
        if (StaticAttrTest(t, e) == kRefutedV) {
          refuted = true;
          break;
        }
      }
    }
    if (!refuted) {
      for (const core::MachineNode* c : v->children) {
        const std::vector<bool>& reach = Reach(e, c->edge);
        bool bindable = false;
        for (size_t t = 0; t < elems_; ++t) {
          if (reach[t] && Matches(c, static_cast<int>(t)) &&
              !Refuted(c, static_cast<int>(t))) {
            bindable = true;
            break;
          }
        }
        if (!bindable) {
          refuted = true;
          break;
        }
      }
    }
    memo = refuted ? 1 : 2;
    return refuted;
  }

  // Every obligation of v's subtree holds on every valid completion of e:
  // each branch bit is implied, attribute tests are implied, the value
  // test is implied. Mere existence of the binding then guarantees a
  // satisfied pop.
  bool FullyImplied(const core::MachineNode* v, int e) {
    int8_t& memo = implied_[Cell(v, e)];
    if (memo != 0) return memo == 1;
    bool ok = StaticValueTest(v, e) == kImpliedV;
    if (ok) {
      for (const core::AttributeTest& t : v->attr_tests) {
        if (StaticAttrTest(t, e) != kImpliedV) {
          ok = false;
          break;
        }
      }
    }
    if (ok) {
      for (const core::MachineNode* c : v->children) {
        if (!ImpliedBit(e, c)) {
          ok = false;
          break;
        }
      }
    }
    memo = ok ? 1 : 2;
    return ok;
  }

  // The branch bit for child c is certain once an element e opens at c's
  // parent: some required descendant binds at c with a fully implied
  // subtree.
  bool ImpliedBit(int e, const core::MachineNode* c) {
    const std::vector<bool>& guaranteed = Guaranteed(e, c->edge);
    for (size_t t = 0; t < elems_; ++t) {
      if (guaranteed[t] && Matches(c, static_cast<int>(t)) &&
          FullyImplied(c, static_cast<int>(t))) {
        return true;
      }
    }
    return false;
  }

  // Some output chain can still complete below an instance of e bound at v.
  bool OutputPossible(const core::MachineNode* v, int e) {
    if (v->is_return) return true;
    int8_t& memo = output_[Cell(v, e)];
    if (memo != 0) return memo == 1;
    const core::MachineNode* spine = nullptr;
    for (const core::MachineNode* c : v->children) {
      if (c->on_output_path) {
        spine = c;
        break;
      }
    }
    bool possible = true;  // no spine child: stay conservative
    if (spine != nullptr) {
      possible = false;
      const std::vector<bool>& reach = Reach(e, spine->edge);
      for (size_t t = 0; t < elems_; ++t) {
        if (reach[t] && Matches(spine, static_cast<int>(t)) &&
            !Refuted(spine, static_cast<int>(t)) &&
            OutputPossible(spine, static_cast<int>(t))) {
          possible = true;
          break;
        }
      }
    }
    memo = possible ? 1 : 2;
    return possible;
  }

  const core::MachineGraph& graph_;
  const DtdStructure& dtd_;
  const size_t elems_;

  // Memo cells: 0 unknown, 1 true, 2 false, indexed node-major.
  std::vector<int8_t> refuted_;
  std::vector<int8_t> implied_;
  std::vector<int8_t> output_;

  // Reachability / requirement sets per (element, edge) — tiny maps, the
  // tables are compiled once per subscription.
  std::map<std::tuple<int, bool, int>, std::vector<bool>> reach_;
  std::map<std::tuple<int, bool, int>, std::vector<bool>> required_;
};

}  // namespace

core::DecisionTable CompileDecisionTable(const core::MachineGraph& graph,
                                         const DtdStructure& dtd) {
  std::vector<std::string> names;
  names.reserve(dtd.element_count());
  for (size_t e = 0; e < dtd.element_count(); ++e) {
    names.push_back(dtd.info(static_cast<int>(e)).name);
  }
  core::DecisionTable table(graph.node_count(), std::move(names));
  Compiler compiler(graph, dtd);
  compiler.Fill(&table);
  return table;
}

void EnableEarlyDecisions(core::XPathStreamProcessor* processor,
                          const DtdStructure& dtd) {
  processor->InstallDecisionTable(std::make_shared<core::DecisionTable>(
      CompileDecisionTable(processor->machine_graph(), dtd)));
}

}  // namespace twigm::analysis
