// Tests for the static analyzer (src/analysis/): the DtdStructure summary,
// DTD satisfiability with diagnostics, tree-pattern minimization (incl.
// idempotence), homomorphism containment (incl. the '//'+'*' traps), and
// level-bound result preservation on machines.

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/dtd_structure.h"
#include "analysis/query_analysis.h"
#include "core/evaluator.h"
#include "core/machine_builder.h"
#include "core/result_sink.h"
#include "core/twig_machine.h"
#include "dtd/dtd_generator.h"
#include "dtd/dtd_parser.h"
#include "gtest/gtest.h"
#include "xml/sax_parser.h"
#include "xpath/query_tree.h"

namespace twigm {
namespace {

using analysis::AnalyzerOptions;
using analysis::DtdStructure;
using analysis::kUnboundedDepth;
using analysis::QueryAnalysis;

// A small non-recursive DTD with an enumerated attribute:
//   a (depth 1) -> b* (depth 2) -> d (depth 3)
//              \-> c? (depth 2, #PCDATA)
constexpr char kFlatDtd[] = R"(
<!ELEMENT a (b*, c?)>
<!ELEMENT b (d)>
<!ELEMENT c (#PCDATA)>
<!ELEMENT d EMPTY>
<!ATTLIST a kind (x|y) #REQUIRED>
)";

// A recursive DTD: s nests itself.
constexpr char kRecursiveDtd[] = R"(
<!ELEMENT s (s?, t?)>
<!ELEMENT t EMPTY>
)";

DtdStructure BuildStructure(const dtd::Dtd& dtd) {
  Result<DtdStructure> built = DtdStructure::Build(dtd);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

dtd::Dtd ParseDtdOrDie(std::string_view text) {
  Result<dtd::Dtd> parsed = dtd::ParseDtd(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(parsed).value();
}

TEST(DtdStructureTest, DepthBoundsFlat) {
  dtd::Dtd dtd = ParseDtdOrDie(kFlatDtd);
  DtdStructure s = BuildStructure(dtd);
  EXPECT_EQ(s.max_document_depth(), 3);

  const int a = s.Find("a"), b = s.Find("b"), c = s.Find("c"), d = s.Find("d");
  ASSERT_GE(a, 0);
  ASSERT_GE(d, 0);
  EXPECT_EQ(s.info(a).min_depth, 1);
  EXPECT_EQ(s.info(a).max_depth, 1);
  EXPECT_EQ(s.info(b).min_depth, 2);
  EXPECT_EQ(s.info(b).max_depth, 2);
  EXPECT_EQ(s.info(c).min_depth, 2);
  EXPECT_EQ(s.info(c).max_depth, 2);
  EXPECT_EQ(s.info(d).min_depth, 3);
  EXPECT_EQ(s.info(d).max_depth, 3);
  EXPECT_EQ(s.Find("nope"), -1);

  EXPECT_TRUE(s.CanReach(a, d));
  EXPECT_FALSE(s.CanReach(c, d));
  EXPECT_TRUE(s.info(c).has_pcdata);
  EXPECT_FALSE(s.info(b).has_pcdata);
}

TEST(DtdStructureTest, DepthBoundsRecursive) {
  dtd::Dtd dtd = ParseDtdOrDie(kRecursiveDtd);
  DtdStructure st = BuildStructure(dtd);
  EXPECT_EQ(st.max_document_depth(), kUnboundedDepth);
  const int s = st.Find("s"), t = st.Find("t");
  EXPECT_EQ(st.info(s).min_depth, 1);
  EXPECT_EQ(st.info(s).max_depth, kUnboundedDepth);
  EXPECT_EQ(st.info(t).min_depth, 2);
  // t hangs below the recursive s, so it is depth-unbounded too.
  EXPECT_EQ(st.info(t).max_depth, kUnboundedDepth);
  EXPECT_TRUE(st.CanReach(s, s));
  EXPECT_FALSE(st.CanReach(t, s));
}

TEST(DtdStructureTest, Reachability) {
  dtd::Dtd dtd = ParseDtdOrDie(kFlatDtd);
  DtdStructure s = BuildStructure(dtd);
  const int a = s.Find("a"), b = s.Find("b"), d = s.Find("d");

  std::vector<bool> one = s.ReachableExact(a, 1);
  EXPECT_TRUE(one[b]);
  EXPECT_FALSE(one[d]);
  std::vector<bool> two = s.ReachableExact(a, 2);
  EXPECT_FALSE(two[b]);
  EXPECT_TRUE(two[d]);
  std::vector<bool> atleast = s.ReachableAtLeast(a, 1);
  EXPECT_TRUE(atleast[b]);
  EXPECT_TRUE(atleast[d]);

  std::vector<bool> depth2 = s.AtDepthExact(2);
  EXPECT_TRUE(depth2[b]);
  EXPECT_FALSE(depth2[a]);
  EXPECT_FALSE(depth2[d]);
}

TEST(DtdStructureTest, Attributes) {
  dtd::Dtd dtd = ParseDtdOrDie(kFlatDtd);
  DtdStructure s = BuildStructure(dtd);
  const int a = s.Find("a"), b = s.Find("b");
  EXPECT_TRUE(s.HasAttribute(a, "kind"));
  EXPECT_FALSE(s.HasAttribute(a, "other"));
  EXPECT_FALSE(s.HasAttribute(b, "kind"));
  const std::vector<std::string>* values = s.EnumValues(a, "kind");
  ASSERT_NE(values, nullptr);
  EXPECT_EQ(values->size(), 2u);
}

// --- Satisfiability -------------------------------------------------------

QueryAnalysis Analyze(const std::string& query, const DtdStructure* dtd) {
  Result<xpath::QueryTree> tree = xpath::QueryTree::Parse(query);
  EXPECT_TRUE(tree.ok()) << query << ": " << tree.status().ToString();
  AnalyzerOptions options;
  options.dtd = dtd;
  return analysis::AnalyzeQuery(tree.value(), options);
}

TEST(SatisfiabilityTest, FlatDtd) {
  dtd::Dtd dtd = ParseDtdOrDie(kFlatDtd);
  DtdStructure s = BuildStructure(dtd);

  EXPECT_TRUE(Analyze("/a/b/d", &s).satisfiable);
  EXPECT_TRUE(Analyze("//d", &s).satisfiable);
  EXPECT_TRUE(Analyze("/*/b", &s).satisfiable);
  EXPECT_TRUE(Analyze("/a[c]/b", &s).satisfiable);

  // d is not a direct child of a.
  EXPECT_FALSE(Analyze("/a/d", &s).satisfiable);
  // Unknown element.
  QueryAnalysis unknown = Analyze("//e", &s);
  EXPECT_FALSE(unknown.satisfiable);
  EXPECT_NE(unknown.diagnostic.find("'e'"), std::string::npos);
  // b cannot be the document root.
  EXPECT_FALSE(Analyze("/b", &s).satisfiable);
  // Nothing below d.
  EXPECT_FALSE(Analyze("//d//c", &s).satisfiable);
  EXPECT_FALSE(Analyze("//d/*", &s).satisfiable);
  // c occurs only at depth 2; a wildcard double step puts it at >= 3.
  EXPECT_FALSE(Analyze("/*/*/c", &s).satisfiable);
}

TEST(SatisfiabilityTest, ValueTests) {
  dtd::Dtd dtd = ParseDtdOrDie(kFlatDtd);
  DtdStructure s = BuildStructure(dtd);

  // c carries #PCDATA, b does not.
  EXPECT_TRUE(Analyze("/a[c=\"x\"]", &s).satisfiable);
  QueryAnalysis textless = Analyze("/a[b=\"x\"]", &s);
  EXPECT_FALSE(textless.satisfiable);
  EXPECT_NE(textless.diagnostic.find("text-less"), std::string::npos);
  // Equality against "" also matches text-less elements — keep it.
  EXPECT_TRUE(Analyze("/a[b=\"\"]", &s).satisfiable);
}

TEST(SatisfiabilityTest, AttributeDeclarations) {
  dtd::Dtd dtd = ParseDtdOrDie(kFlatDtd);
  DtdStructure s = BuildStructure(dtd);

  EXPECT_TRUE(Analyze("/a[@kind]", &s).satisfiable);
  EXPECT_TRUE(Analyze("/a[@kind=\"x\"]", &s).satisfiable);
  // Outside the enumerated type.
  QueryAnalysis outside = Analyze("/a[@kind=\"z\"]", &s);
  EXPECT_FALSE(outside.satisfiable);
  EXPECT_NE(outside.diagnostic.find("enumerated"), std::string::npos);
  // Undeclared attribute / wrong element.
  EXPECT_FALSE(Analyze("/a[@missing]", &s).satisfiable);
  EXPECT_FALSE(Analyze("/a/b[@kind]", &s).satisfiable);
}

TEST(SatisfiabilityTest, NoDtdMeansAlwaysSatisfiable) {
  QueryAnalysis a = Analyze("//zzz[@nope]", nullptr);
  EXPECT_TRUE(a.satisfiable);
  EXPECT_TRUE(a.diagnostic.empty());
}

// --- Minimization ---------------------------------------------------------

std::string Minimize(const std::string& query, size_t* removed = nullptr) {
  QueryAnalysis a = Analyze(query, nullptr);
  if (removed != nullptr) *removed = a.branches_removed;
  return a.minimized;
}

TEST(MinimizationTest, DuplicatePredicate) {
  size_t removed = 0;
  EXPECT_EQ(Minimize("//a[b][b]", &removed), "//a[b]");
  EXPECT_EQ(removed, 1u);
}

TEST(MinimizationTest, ImpliedBySiblingSubtree) {
  size_t removed = 0;
  EXPECT_EQ(Minimize("//a[b/c][b]", &removed), "//a[b[c]]");
  EXPECT_EQ(removed, 1u);
  // Same, in the other syntactic order.
  EXPECT_EQ(Minimize("//a[b][b/c]", &removed), "//a[b[c]]");
  EXPECT_EQ(removed, 1u);
}

TEST(MinimizationTest, ImpliedByOutputPathContinuation) {
  size_t removed = 0;
  EXPECT_EQ(Minimize("//a[b]/b", &removed), "//a/b");
  EXPECT_EQ(removed, 1u);
  EXPECT_EQ(Minimize("//a[//b]/c/b", &removed), "//a/c/b");
  EXPECT_EQ(removed, 1u);
}

TEST(MinimizationTest, DescendantImpliedByDeeperBranch) {
  size_t removed = 0;
  // The b inside [c/b] is strictly below the context, satisfying [//b].
  EXPECT_EQ(Minimize("//a[//b][c/b]", &removed), "//a[c[b]]");
  EXPECT_EQ(removed, 1u);
}

TEST(MinimizationTest, ValueTestImpliesBareBranch) {
  size_t removed = 0;
  EXPECT_EQ(Minimize("//a[b=\"1\"][b]", &removed), "//a[b=\"1\"]");
  EXPECT_EQ(removed, 1u);
}

TEST(MinimizationTest, KeepsIndependentBranches) {
  size_t removed = 0;
  Minimize("//a[b][c]", &removed);
  EXPECT_EQ(removed, 0u);
  Minimize("//a[b/c][b/d]", &removed);
  EXPECT_EQ(removed, 0u);
  // A value test is stronger than the bare branch: not removable.
  Minimize("//a[b=\"1\"]", &removed);
  EXPECT_EQ(removed, 0u);
}

TEST(MinimizationTest, Idempotent) {
  const std::vector<std::string> queries = {
      "//a[b][b]", "//a[b/c][b]", "//a[b]/b", "//a[//b][c/b]",
      "//a[b][c][b/d]",
  };
  for (const std::string& q : queries) {
    const std::string once = Minimize(q);
    size_t removed = 0;
    const std::string twice = Minimize(once, &removed);
    EXPECT_EQ(once, twice) << q;
    EXPECT_EQ(removed, 0u) << q;
  }
}

TEST(MinimizationTest, CanonicalPredicateOrder) {
  // Equivalent queries that differ only in branch order share one
  // canonical rendering.
  EXPECT_EQ(Minimize("//a[c][b]"), Minimize("//a[b][c]"));
}

TEST(MinimizationTest, PreservesResults) {
  const std::string doc =
      "<a><b><c/></b><b><d/></b><x><a><b><c/></b></a></x></a>";
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"//a[b][b]", Minimize("//a[b][b]")},
      {"//a[b/c][b]", Minimize("//a[b/c][b]")},
      {"//a[b]/b", Minimize("//a[b]/b")},
  };
  for (const auto& [original, minimized] : pairs) {
    Result<std::vector<xml::NodeId>> lhs = core::EvaluateToIds(original, doc);
    Result<std::vector<xml::NodeId>> rhs = core::EvaluateToIds(minimized, doc);
    ASSERT_TRUE(lhs.ok() && rhs.ok());
    std::vector<xml::NodeId> l = std::move(lhs).value();
    std::vector<xml::NodeId> r = std::move(rhs).value();
    std::sort(l.begin(), l.end());
    std::sort(r.begin(), r.end());
    EXPECT_EQ(l, r) << original << " vs " << minimized;
  }
}

// --- Containment ----------------------------------------------------------

bool Contains(const std::string& super, const std::string& sub) {
  Result<xpath::QueryTree> a = xpath::QueryTree::Parse(super);
  Result<xpath::QueryTree> b = xpath::QueryTree::Parse(sub);
  EXPECT_TRUE(a.ok() && b.ok());
  return analysis::QueryContains(a.value(), b.value());
}

TEST(ContainmentTest, AxisRelaxation) {
  EXPECT_TRUE(Contains("//a", "/x/a"));
  EXPECT_TRUE(Contains("//a/b", "/a/b"));
  EXPECT_FALSE(Contains("/a/b", "//a/b"));
  // //a//b admits deeper b's than //a/b.
  EXPECT_TRUE(Contains("//a//b", "//a/b"));
  EXPECT_FALSE(Contains("//a/b", "//a//b"));
}

TEST(ContainmentTest, WildcardTraps) {
  // '*' still costs exactly one level.
  EXPECT_TRUE(Contains("//a//b", "//a/*/b"));
  EXPECT_FALSE(Contains("//a/*/b", "//a//b"));
  EXPECT_TRUE(Contains("//*", "//a"));
  EXPECT_FALSE(Contains("//a", "//*"));
  EXPECT_TRUE(Contains("//*/b", "//a/b"));
}

TEST(ContainmentTest, Predicates) {
  EXPECT_TRUE(Contains("//a[b]", "//a[b][c]"));
  EXPECT_FALSE(Contains("//a[b][c]", "//a[b]"));
  // Predicate relaxation: [//b] is weaker than [c/b].
  EXPECT_TRUE(Contains("//a[//b]", "//a[c/b]"));
  EXPECT_FALSE(Contains("//a[c/b]", "//a[//b]"));
  // A predicate can be witnessed by the contained query's own spine
  // continuation: every //a/c result is also an //a[c]/c result.
  EXPECT_TRUE(Contains("//a[c]/c", "//a/c"));
  EXPECT_TRUE(Contains("//a/c", "//a[b]/c"));
}

TEST(ContainmentTest, MutualContainmentIsEquivalence) {
  EXPECT_TRUE(Contains("//a[b][c]", "//a[c][b]"));
  EXPECT_TRUE(Contains("//a[c][b]", "//a[b][c]"));
}

TEST(ContainmentTest, SolMustAgree) {
  // Same tree shape, different return node: no containment either way.
  EXPECT_FALSE(Contains("//a/b", "//a"));
  EXPECT_FALSE(Contains("//a", "//a/b"));
}

// --- Level bounds ---------------------------------------------------------

core::MachineGraph BuildGraph(const std::string& query) {
  Result<xpath::QueryTree> tree = xpath::QueryTree::Parse(query);
  EXPECT_TRUE(tree.ok());
  Result<core::MachineGraph> graph = core::MachineGraph::Build(tree.value());
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

TEST(LevelBoundsTest, FlatDtdWindows) {
  dtd::Dtd dtd = ParseDtdOrDie(kFlatDtd);
  DtdStructure s = BuildStructure(dtd);

  core::MachineGraph graph = BuildGraph("//d");
  core::LevelBounds bounds = analysis::ComputeMachineLevelBounds(graph, s);
  ASSERT_EQ(bounds.size(), 1u);
  EXPECT_EQ(bounds[0].min_level, 3);
  EXPECT_EQ(bounds[0].max_level, 3);

  core::MachineGraph miss = BuildGraph("/a/d");
  core::LevelBounds none = analysis::ComputeMachineLevelBounds(miss, s);
  EXPECT_TRUE(none.back().empty());
}

TEST(LevelBoundsTest, RecursiveDtdLeavesMaxOpen) {
  dtd::Dtd dtd = ParseDtdOrDie(kRecursiveDtd);
  DtdStructure st = BuildStructure(dtd);
  core::MachineGraph graph = BuildGraph("//t");
  core::LevelBounds bounds = analysis::ComputeMachineLevelBounds(graph, st);
  ASSERT_EQ(bounds.size(), 1u);
  EXPECT_EQ(bounds[0].min_level, 2);
  EXPECT_EQ(bounds[0].max_level, -1);
}

// Level-bounded machines must emit the same results with no more pushes.
TEST(LevelBoundsTest, PreservesResultsWithFewerPushes) {
  dtd::Dtd dtd = ParseDtdOrDie(kFlatDtd);
  DtdStructure s = BuildStructure(dtd);

  dtd::GeneratorOptions gen;
  gen.seed = 7;
  gen.max_repeats = 4;
  Result<std::string> doc = dtd::GenerateDocument(dtd, "a", gen);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();

  const std::vector<std::string> queries = {"//d", "//b/d", "/a//d",
                                            "//a[b]/c", "/a/b[d]"};
  for (const std::string& query : queries) {
    Result<xpath::QueryTree> tree = xpath::QueryTree::Parse(query);
    ASSERT_TRUE(tree.ok());

    auto run = [&](bool bounded, uint64_t* pushes) {
      core::VectorResultSink sink;
      Result<std::unique_ptr<core::TwigMachine>> machine =
          core::TwigMachine::Create(tree.value(), &sink);
      EXPECT_TRUE(machine.ok());
      if (bounded) {
        machine.value()->set_level_bounds(
            analysis::ComputeMachineLevelBounds(machine.value()->graph(), s));
      }
      xml::SaxParser parser(machine.value().get());
      machine.value()->BindInterner(parser.interner());
      EXPECT_TRUE(parser.ParseAll(doc.value()).ok());
      *pushes = machine.value()->stats().pushes;
      std::vector<xml::NodeId> ids = sink.TakeIds();
      std::sort(ids.begin(), ids.end());
      return ids;
    };

    uint64_t plain_pushes = 0, bounded_pushes = 0;
    std::vector<xml::NodeId> plain = run(false, &plain_pushes);
    std::vector<xml::NodeId> bounded = run(true, &bounded_pushes);
    EXPECT_EQ(plain, bounded) << query;
    EXPECT_LE(bounded_pushes, plain_pushes) << query;
  }
}

// --- Query-set analysis ---------------------------------------------------

TEST(QuerySetTest, PrunesAndForwards) {
  dtd::Dtd dtd = ParseDtdOrDie(kFlatDtd);
  DtdStructure s = BuildStructure(dtd);

  AnalyzerOptions options;
  options.dtd = &s;
  const std::vector<std::string> queries = {
      "//a[b][c]",  // 0: representative
      "//a[c][b]",  // 1: equivalent to 0 (order)
      "/a/d",       // 2: unsatisfiable
      "//d",        // 3: runs on its own
      "//a[b][b]",  // 4: minimizes to //a[b], runs on its own
  };
  Result<analysis::QuerySetAnalysis> analyzed =
      analysis::AnalyzeQuerySet(queries, options);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  const analysis::QuerySetAnalysis& a = analyzed.value();

  EXPECT_EQ(a.unsatisfiable, 1u);
  EXPECT_EQ(a.forwarded, 1u);
  EXPECT_EQ(a.pruned(), 2u);
  EXPECT_GE(a.branches_minimized, 1u);
  EXPECT_EQ(a.queries[1].forwarded_to, 0u);
  EXPECT_FALSE(a.queries[2].satisfiable);
  EXPECT_EQ(a.queries[3].forwarded_to, 3u);
  EXPECT_EQ(a.queries[4].minimized, "//a[b]");
}

TEST(QuerySetTest, BadQueryNamesIndex) {
  Result<analysis::QuerySetAnalysis> analyzed =
      analysis::AnalyzeQuerySet({"//a", "///"}, AnalyzerOptions());
  ASSERT_FALSE(analyzed.ok());
  EXPECT_NE(analyzed.status().message().find("query #1"), std::string::npos);
}

}  // namespace
}  // namespace twigm
