// Tests for the TwigM machine itself, including the paper's running
// examples (Figures 1–4) and the compactness claims of section 3.

#include "core/twig_machine.h"

#include <string>

#include "core/evaluator.h"
#include "data/adversarial.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "xml/sax_parser.h"

namespace twigm {
namespace {

using core::TwigMachine;
using core::TwigMachineOptions;
using core::VectorResultSink;
using testing::Ids;
using testing::MustEvaluate;

// Runs TwigM over `document` and returns (sorted ids, stats).
struct TwigRun {
  std::vector<xml::NodeId> ids;
  core::EngineStats stats;
};

TwigRun RunTwig(std::string_view query, std::string_view document,
                TwigMachineOptions options = TwigMachineOptions()) {
  Result<xpath::QueryTree> tree = xpath::QueryTree::Parse(query);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  VectorResultSink sink;
  Result<std::unique_ptr<TwigMachine>> machine =
      TwigMachine::Create(tree.value(), &sink, options);
  EXPECT_TRUE(machine.ok()) << machine.status().ToString();
  xml::EventDriver driver(machine.value().get());
  xml::SaxParser parser(&driver);
  machine.value()->BindInterner(parser.interner());
  EXPECT_TRUE(parser.ParseAll(document).ok());
  TwigRun run;
  run.ids = sink.TakeIds();
  std::sort(run.ids.begin(), run.ids.end());
  run.stats = machine.value()->stats();
  return run;
}

TEST(TwigMachineTest, SingleNodeQuery) {
  EXPECT_EQ(MustEvaluate("//a", "<a><a/><b><a/></b></a>"), Ids({1, 2, 4}));
  EXPECT_EQ(MustEvaluate("/a", "<a><a/></a>"), Ids({1}));
  EXPECT_EQ(MustEvaluate("/b", "<a><b/></a>"), Ids({}));
}

TEST(TwigMachineTest, ChildVsDescendant) {
  const std::string doc = "<a><b><c/></b><c/></a>";  // ids: a=1 b=2 c=3 c=4
  EXPECT_EQ(MustEvaluate("/a/c", doc), Ids({4}));
  EXPECT_EQ(MustEvaluate("/a//c", doc), Ids({3, 4}));
  EXPECT_EQ(MustEvaluate("/a/b/c", doc), Ids({3}));
}

TEST(TwigMachineTest, SimplePredicate) {
  // ids: a=1 b=2 d=3 b=4
  const std::string doc = "<a><b><d/></b><b/></a>";
  EXPECT_EQ(MustEvaluate("//b[d]", doc), Ids({2}));
  EXPECT_EQ(MustEvaluate("//a[b]", doc), Ids({1}));
  EXPECT_EQ(MustEvaluate("//b[x]", doc), Ids({}));
}

TEST(TwigMachineTest, PredicateResolvedAfterCandidate) {
  // The candidate (c) arrives before the predicate witness (d): the paper's
  // core buffering scenario.
  const std::string doc = "<a><b><c/></b><d/></a>";  // a=1 b=2 c=3 d=4
  EXPECT_EQ(MustEvaluate("//a[d]/b/c", doc), Ids({3}));
  EXPECT_EQ(MustEvaluate("//a[x]/b/c", doc), Ids({}));
}

TEST(TwigMachineTest, PaperFigure1Query) {
  // Q1 = //a[d]//b[e]//c on the Fig. 1 document family.
  for (int n : {1, 2, 3, 5, 10}) {
    data::AdversarialOptions options;
    options.n = n;
    const std::string doc = data::GenerateAdversarial(options);
    // Pre-order ids: a_1..a_n = 1..n, b_1..b_n = n+1..2n, c = 2n+1.
    const xml::NodeId c_id = static_cast<xml::NodeId>(2 * n + 1);
    EXPECT_EQ(MustEvaluate("//a[d]//b[e]//c", doc), Ids({c_id})) << "n=" << n;
  }
}

TEST(TwigMachineTest, PaperFigure1FailingPredicates) {
  data::AdversarialOptions options;
  options.n = 4;
  options.with_d = false;
  EXPECT_EQ(MustEvaluate("//a[d]//b[e]//c",
                         data::GenerateAdversarial(options)),
            Ids({}));
  options.with_d = true;
  options.with_e = false;
  EXPECT_EQ(MustEvaluate("//a[d]//b[e]//c",
                         data::GenerateAdversarial(options)),
            Ids({}));
}

TEST(TwigMachineTest, CompactEncodingStoresLinearEntries) {
  // Section 3.3: n² pattern matches encoded in ~2n stack entries. Verify
  // the peak entry count grows linearly, not quadratically.
  data::AdversarialOptions options;
  options.n = 50;
  const TwigRun run =
      RunTwig("//a[d]//b[e]//c", data::GenerateAdversarial(options));
  ASSERT_EQ(run.ids.size(), 1u);
  // a-stack holds n, b-stack n, c/e/d transiently: well under 3n, far
  // from n² = 2500.
  EXPECT_LE(run.stats.peak_stack_entries, static_cast<uint64_t>(3 * 50 + 5));
  EXPECT_GE(run.stats.peak_stack_entries, static_cast<uint64_t>(2 * 50));
}

TEST(TwigMachineTest, ChildAxisVariantOfFigure1) {
  // //a[d]/b[e]//c — only (a_n, b_1) can match the a/b edge.
  data::AdversarialOptions options;
  options.n = 3;
  const std::string doc = data::GenerateAdversarial(options);
  // e hangs off b_1 but d hangs off a_1, not a_n: no result.
  EXPECT_EQ(MustEvaluate("//a[d]/b[e]//c", doc), Ids({}));
  // Without the d requirement the chain (a_3, b_1, c) matches.
  EXPECT_EQ(MustEvaluate("//a/b[e]//c", doc), Ids({7}));
}

TEST(TwigMachineTest, RecursiveDataDuplicateElimination) {
  // c participates in matches under both a's; it must be returned once.
  const std::string doc = "<a><a><c/></a></a>";  // a=1 a=2 c=3
  EXPECT_EQ(MustEvaluate("//a//c", doc), Ids({3}));
  EXPECT_EQ(MustEvaluate("//a[c]//c", doc), Ids({3}));
}

TEST(TwigMachineTest, RootRecursionEmitsEachResultOnce) {
  // Both a's are roots of satisfied matches holding the same candidate.
  const std::string doc = "<a><a><b/><c/></a></a>";  // a=1 a=2 b=3 c=4
  EXPECT_EQ(MustEvaluate("//a[b]//c", doc), Ids({4}));
}

TEST(TwigMachineTest, MultiplePredicatesOnOneNode) {
  const std::string doc =
      "<r><s><t/><u/><v/></s><s><t/></s></r>";  // r=1 s=2 t=3 u=4 v=5 s=6 t=7
  EXPECT_EQ(MustEvaluate("//s[t][u]/v", doc), Ids({5}));
  EXPECT_EQ(MustEvaluate("//s[t][u][v]", doc), Ids({2}));
  EXPECT_EQ(MustEvaluate("//s[t][x]", doc), Ids({}));
}

TEST(TwigMachineTest, NestedPredicates) {
  const std::string doc =
      "<r><s><t><w/></t></s><s><t/></s></r>";  // r=1 s=2 t=3 w=4 s=5 t=6
  EXPECT_EQ(MustEvaluate("//s[t[w]]", doc), Ids({2}));
  EXPECT_EQ(MustEvaluate("//s[t]", doc), Ids({2, 5}));
}

TEST(TwigMachineTest, PathPredicates) {
  const std::string doc = "<r><s><t><w/></t></s></r>";
  EXPECT_EQ(MustEvaluate("//s[t/w]", doc), Ids({2}));
  EXPECT_EQ(MustEvaluate("//r[s//w]", doc), Ids({1}));
  EXPECT_EQ(MustEvaluate("//r[//w]", doc), Ids({1}));
}

TEST(TwigMachineTest, WildcardQueries) {
  const std::string doc = "<a><b><c/></b><d><c/></d></a>";  // 1 2 3 4 5
  EXPECT_EQ(MustEvaluate("//a/*/c", doc), Ids({3, 5}));
  EXPECT_EQ(MustEvaluate("//*[c]", doc), Ids({2, 4}));
  EXPECT_EQ(MustEvaluate("//*", doc), Ids({1, 2, 3, 4, 5}));
  EXPECT_EQ(MustEvaluate("/*/*", doc), Ids({2, 4}));
}

TEST(TwigMachineTest, CollapsedStarDistances) {
  const std::string doc =
      "<a><x><b/></x><b/><y><z><b/></z></y></a>";  // a=1 x=2 b=3 b=4 y=5 z=6 b=7
  EXPECT_EQ(MustEvaluate("//a/*/b", doc), Ids({3}));
  EXPECT_EQ(MustEvaluate("//a/*/*/b", doc), Ids({7}));
  EXPECT_EQ(MustEvaluate("//a/*//b", doc), Ids({3, 7}));
  EXPECT_EQ(MustEvaluate("//a//*/b", doc), Ids({3, 7}));
}

TEST(TwigMachineTest, AttributePredicates) {
  const std::string doc =
      "<r><s id=\"1\"><t/></s><s><t/></s></r>";  // r=1 s=2 t=3 s=4 t=5
  EXPECT_EQ(MustEvaluate("//s[@id]/t", doc), Ids({3}));
  EXPECT_EQ(MustEvaluate("//s[@id=\"1\"]/t", doc), Ids({3}));
  EXPECT_EQ(MustEvaluate("//s[@id=\"2\"]/t", doc), Ids({}));
  EXPECT_EQ(MustEvaluate("//s[@missing]/t", doc), Ids({}));
}

TEST(TwigMachineTest, AttributeValueComparisons) {
  const std::string doc = "<r><s n=\"10\"/><s n=\"3\"/><s n=\"x\"/></r>";
  EXPECT_EQ(MustEvaluate("//s[@n>5]", doc), Ids({2}));
  EXPECT_EQ(MustEvaluate("//s[@n<5]", doc), Ids({3}));
  EXPECT_EQ(MustEvaluate("//s[@n!=\"3\"]", doc), Ids({2, 4}));
}

TEST(TwigMachineTest, ElementValueTests) {
  const std::string doc =
      "<r><s><t>yes</t></s><s><t>no</t></s><s><t>yes</t><u/></s></r>";
  // ids: r=1 s=2 t=3 s=4 t=5 s=6 t=7 u=8
  EXPECT_EQ(MustEvaluate("//s[t=\"yes\"]", doc), Ids({2, 6}));
  EXPECT_EQ(MustEvaluate("//s[t=\"yes\"][u]", doc), Ids({6}));
  EXPECT_EQ(MustEvaluate("//s[t!=\"yes\"]", doc), Ids({4}));
}

TEST(TwigMachineTest, SelfValueTest) {
  const std::string doc = "<r><s>alpha</s><s>beta</s></r>";
  EXPECT_EQ(MustEvaluate("//s[.=\"alpha\"]", doc), Ids({2}));
  EXPECT_EQ(MustEvaluate("//s[.!=\"alpha\"]", doc), Ids({3}));
}

TEST(TwigMachineTest, NumericValueTests) {
  const std::string doc = "<r><p><v>10</v></p><p><v>2</v></p></r>";
  EXPECT_EQ(MustEvaluate("//p[v>=10]", doc), Ids({2}));
  EXPECT_EQ(MustEvaluate("//p[v<10]", doc), Ids({4}));
  EXPECT_EQ(MustEvaluate("//p[v=2]", doc), Ids({4}));
}

TEST(TwigMachineTest, ValueTestWithMixedContentUsesDirectText) {
  // Direct text of s is "ab" (the inner element's text is not included).
  const std::string doc = "<r><s>a<t>X</t>b</s></r>";
  EXPECT_EQ(MustEvaluate("//s[.=\"ab\"]", doc), Ids({2}));
  EXPECT_EQ(MustEvaluate("//s[.=\"aXb\"]", doc), Ids({}));
}

TEST(TwigMachineTest, ValueTestOnRecursiveTags) {
  // Nested same-tag elements with value tests: stack entries must keep
  // their text separate.
  const std::string doc = "<s>outer<s>inner</s></s>";
  EXPECT_EQ(MustEvaluate("//s[.=\"inner\"]", doc), Ids({2}));
  EXPECT_EQ(MustEvaluate("//s[.=\"outer\"]", doc), Ids({1}));
}

TEST(TwigMachineTest, SolInsidePredicateScope) {
  // Return node has predicates itself.
  const std::string doc = "<r><s><t/></s><s/></r>";  // r=1 s=2 t=3 s=4
  EXPECT_EQ(MustEvaluate("//s[t]", doc), Ids({2}));
  EXPECT_EQ(MustEvaluate("/r[s]", doc), Ids({1}));
}

TEST(TwigMachineTest, DeepRecursionStress) {
  // 200 nested a's; //a//a//a must return all but the two outermost.
  std::string doc;
  const int n = 200;
  for (int i = 0; i < n; ++i) doc += "<a>";
  for (int i = 0; i < n; ++i) doc += "</a>";
  std::vector<xml::NodeId> expected;
  for (int i = 3; i <= n; ++i) expected.push_back(static_cast<xml::NodeId>(i));
  EXPECT_EQ(MustEvaluate("//a//a//a", doc), expected);
}

TEST(TwigMachineTest, PruneOptionDoesNotChangeResults) {
  const std::string doc =
      "<r><s id=\"1\"><t/><c/></s><s><t/><c/></s></r>";
  TwigMachineOptions prune_on;
  prune_on.prune_static_failures = true;
  TwigMachineOptions prune_off;
  prune_off.prune_static_failures = false;
  const TwigRun on = RunTwig("//s[@id][t]/c", doc, prune_on);
  const TwigRun off = RunTwig("//s[@id][t]/c", doc, prune_off);
  EXPECT_EQ(on.ids, off.ids);
  // Pruning must not push entries for the s without @id.
  EXPECT_LT(on.stats.pushes, off.stats.pushes);
}

TEST(TwigMachineTest, StatsCountEventsAndResults) {
  const TwigRun run = RunTwig("//a//c", "<a><b/><c/><c/></a>");
  EXPECT_EQ(run.stats.start_events, 4u);
  EXPECT_EQ(run.stats.end_events, 4u);
  EXPECT_EQ(run.stats.results, 2u);
  EXPECT_GT(run.stats.pushes, 0u);
  EXPECT_EQ(run.stats.pushes, run.stats.pops);
}

TEST(TwigMachineTest, ResetAllowsReuse) {
  Result<xpath::QueryTree> tree = xpath::QueryTree::Parse("//a/b");
  ASSERT_TRUE(tree.ok());
  VectorResultSink sink;
  Result<std::unique_ptr<TwigMachine>> machine =
      TwigMachine::Create(tree.value(), &sink);
  ASSERT_TRUE(machine.ok());
  xml::EventDriver driver(machine.value().get());
  xml::SaxParser parser(&driver);
  machine.value()->BindInterner(parser.interner());
  for (int round = 0; round < 2; ++round) {
    machine.value()->Reset();
    parser.Reset();
    driver.Reset();
    ASSERT_TRUE(parser.ParseAll("<a><b/></a>").ok());
  }
  EXPECT_EQ(sink.ids().size(), 2u);  // one result per round
}

TEST(TwigMachineTest, EmptyDocumentNoResults) {
  EXPECT_EQ(MustEvaluate("//a/b", "<root/>"), Ids({}));
}

TEST(TwigMachineTest, ResultsEmittedIncrementally) {
  // With a predicate on the root, results surface at the root's end tag —
  // but candidates from disjoint subtrees must all be present.
  const std::string doc =
      "<r><x/><s><c/></s><s><c/></s></r>";  // r=1 x=2 s=3 c=4 s=5 c=6
  EXPECT_EQ(MustEvaluate("//r[x]//c", doc), Ids({4, 6}));
}

// XP{/,[]} — child axes and predicates, no '//' or '*' — is the query class
// of the paper's single-state BranchM (section 3.2). TwigM evaluates it
// directly: with only '/' edges each stack holds at most one live entry.
// The linear cases among them run predicate-free, emitting at
// startElement.
void ExpectChildOnly(const std::string& query, const std::string& doc,
                     const std::vector<xml::NodeId>& expected) {
  EXPECT_EQ(MustEvaluate(query, doc), expected) << query;
}

TEST(ChildOnlyPredicateTest, ChildOnlyPredicates) {
  const std::string doc =
      "<a><b><d/></b><b/><c/></a>";  // a=1 b=2 d=3 b=4 c=5
  ExpectChildOnly("/a/b[d]", doc, Ids({2}));
  ExpectChildOnly("/a[c]/b", doc, Ids({2, 4}));
  ExpectChildOnly("/a[b][c]", doc, Ids({1}));
  ExpectChildOnly("/a[x]/b", doc, Ids({}));
}

TEST(ChildOnlyPredicateTest, PaperFigure3Example) {
  // Q3 ≈ /a[d]/b[e]/c: candidate c buffered until both predicates resolve.
  const std::string doc =
      "<a><b><c/><e/></b><d/></a>";  // a=1 b=2 c=3 e=4 d=5
  ExpectChildOnly("/a[d]/b[e]/c", doc, Ids({3}));
  ExpectChildOnly("/a[d]/b[x]/c", doc, Ids({}));
}

TEST(ChildOnlyPredicateTest, SiblingCandidatesAccumulate) {
  const std::string doc =
      "<a><b><c/><c/></b><b><c/></b><d/></a>";  // c ids 3,4,6
  ExpectChildOnly("/a[d]/b/c", doc, Ids({3, 4, 6}));
}

TEST(ChildOnlyPredicateTest, AttributeAndValueTests) {
  const std::string doc =
      "<a><b id=\"1\"><t>x</t></b><b><t>y</t></b></a>";  // a=1 b=2 t=3 b=4 t=5
  ExpectChildOnly("/a/b[@id]", doc, Ids({2}));
  ExpectChildOnly("/a/b[t=\"y\"]", doc, Ids({4}));
  ExpectChildOnly("/a/b[.!=\"\"]", doc, Ids({}));  // b has no direct text
}

TEST(ChildOnlyPredicateTest, NestedPredicates) {
  const std::string doc = "<a><b><c><d/></c></b><b><c/></b></a>";
  ExpectChildOnly("/a/b[c[d]]", doc, Ids({2}));
}

TEST(ChildOnlyPredicateTest, RepeatedTagAtDifferentLevels) {
  // The same tag appears at several query depths.
  const std::string doc = "<a><a><a/></a></a>";
  ExpectChildOnly("/a/a/a", doc, Ids({3}));
  ExpectChildOnly("/a/a[a]", doc, Ids({2}));
}

TEST(ChildOnlyPredicateTest, StateResetBetweenSiblings) {
  // The first b satisfies [d]; the second must not inherit its match.
  const std::string doc = "<a><b><d/><c/></b><b><c/></b></a>";
  // ids: a=1 b=2 d=3 c=4 b=5 c=6
  ExpectChildOnly("/a/b[d]/c", doc, Ids({4}));
}

// XP{/,//,*} — the query class of the paper's PathM (section 3.1). With no
// attribute test, value test or off-path child anywhere in the graph, TwigM
// emits each result at its start tag and keeps levels only.

// Runs `query` hand-wired over `document` in `mode`, feeding `prefix`
// first; `emitted_after_prefix` reports the results already out by then.
struct PredicateFreeRun {
  size_t emitted_after_prefix = 0;
  std::vector<core::MatchInfo> matches;
  core::EngineStats stats;
  bool predicate_free = false;
};

PredicateFreeRun RunPredicateFree(std::string_view query,
                                  std::string_view prefix,
                                  std::string_view rest,
                                  core::EarlyDecisionMode mode) {
  PredicateFreeRun run;
  Result<xpath::QueryTree> tree = xpath::QueryTree::Parse(query);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  if (!tree.ok()) return run;
  VectorResultSink sink;
  Result<std::unique_ptr<TwigMachine>> machine =
      TwigMachine::Create(tree.value(), &sink);
  EXPECT_TRUE(machine.ok()) << machine.status().ToString();
  if (!machine.ok()) return run;
  uint64_t offset = 0;
  xml::EventDriver driver(machine.value().get());
  xml::SaxParser parser(&driver);
  parser.set_offset_slot(&offset);
  machine.value()->set_stream_offset(&offset);
  machine.value()->BindInterner(parser.interner());
  machine.value()->set_decisions(nullptr, mode);
  EXPECT_TRUE(parser.Consume({prefix, false}).ok());
  run.emitted_after_prefix = sink.ids().size();
  EXPECT_TRUE(parser.Consume({rest, true}).ok());
  run.matches = sink.matches();
  run.stats = machine.value()->stats();
  run.predicate_free = machine.value()->predicate_free();
  return run;
}

TEST(PredicateFreeTest, LinearQueries) {
  const std::string doc = "<a><b><c/></b><c/></a>";
  EXPECT_EQ(MustEvaluate("/a/c", doc), Ids({4}));
  EXPECT_EQ(MustEvaluate("/a//c", doc), Ids({3, 4}));
  EXPECT_EQ(MustEvaluate("//c", doc), Ids({3, 4}));
}

TEST(PredicateFreeTest, WildcardsAndCollapse) {
  const std::string doc = "<a><x><b/></x><b/></a>";  // a=1 x=2 b=3 b=4
  EXPECT_EQ(MustEvaluate("//a/*/b", doc), Ids({3}));
  EXPECT_EQ(MustEvaluate("//*", doc), Ids({1, 2, 3, 4}));
}

TEST(PredicateFreeTest, RecursiveData) {
  const std::string doc = "<a><a><b/></a></a>";  // a=1 a=2 b=3
  EXPECT_EQ(MustEvaluate("//a//b", doc), Ids({3}));
  EXPECT_EQ(MustEvaluate("//a//a", doc), Ids({2}));
}

TEST(PredicateFreeTest, DetectsSectionThreeOneCondition) {
  const core::EarlyDecisionMode off = core::EarlyDecisionMode::kOff;
  for (const char* query : {"//a", "/a/b", "//a//*/c", "//*"}) {
    EXPECT_TRUE(RunPredicateFree(query, "<a/>", "", off).predicate_free)
        << query;
  }
  for (const char* query : {"//a[b]", "//a[@x]", "//a[.=\"x\"]", "//a/b[*]",
                            "//a[b]/c"}) {
    EXPECT_FALSE(RunPredicateFree(query, "<a/>", "", off).predicate_free)
        << query;
  }
}

TEST(PredicateFreeTest, EmitsAtStartElement) {
  // The result is delivered the instant its start tag is seen, stamped
  // with that tag's offset, while the stream is still open — in every
  // early-decision mode. Under kObserve and kOn that emission is the
  // earliest point possible, so the one recorded gap is 0.
  const std::string prefix = "<a><b>";
  for (core::EarlyDecisionMode mode :
       {core::EarlyDecisionMode::kOff, core::EarlyDecisionMode::kObserve,
        core::EarlyDecisionMode::kOn}) {
    const PredicateFreeRun run =
        RunPredicateFree("//a/b", prefix, "</b></a>", mode);
    const int m = static_cast<int>(mode);
    EXPECT_TRUE(run.predicate_free) << m;
    EXPECT_EQ(run.emitted_after_prefix, 1u) << m;
    ASSERT_EQ(run.matches.size(), 1u) << m;
    EXPECT_EQ(run.matches[0].id, 2u) << m;
    EXPECT_EQ(run.matches[0].byte_offset, prefix.find("<b>")) << m;
    const bool gaps = mode != core::EarlyDecisionMode::kOff;
    EXPECT_EQ(run.stats.gap_count, gaps ? 1u : 0u) << m;
    EXPECT_EQ(run.stats.gap_sum_bytes, 0u) << m;
  }
}

TEST(PredicateFreeTest, StatsTrackStackDepth) {
  const PredicateFreeRun run = RunPredicateFree(
      "//a//a", "<a><a><a/></a></a>", "", core::EarlyDecisionMode::kOff);
  EXPECT_EQ(run.stats.results, 2u);
  // Stacks: node0 holds 3 a's, node1 holds 2 => peak 5.
  EXPECT_EQ(run.stats.peak_stack_entries, 5u);
  // Entries are levels only.
  EXPECT_EQ(run.stats.peak_state_bytes, 5 * sizeof(int));
}

#if defined(TWIGM_CHECK_INVARIANTS)
// Dispatch is by symbol only, so a machine never bound to its parser's
// interner would silently match wildcards only; the invariant build aborts
// on its first start event instead.
TEST(TwigMachineDeathTest, UnboundMachineTripsInvariant) {
  Result<xpath::QueryTree> tree = xpath::QueryTree::Parse("//a[b]");
  ASSERT_TRUE(tree.ok());
  VectorResultSink sink;
  Result<std::unique_ptr<TwigMachine>> machine =
      TwigMachine::Create(tree.value(), &sink);
  ASSERT_TRUE(machine.ok());
  xml::EventDriver driver(machine.value().get());
  xml::SaxParser parser(&driver);
  EXPECT_DEATH((void)parser.ParseAll("<a><b/></a>"), "never bound");
}
#endif

}  // namespace
}  // namespace twigm
