// Behavioural tests for the three baselines: the DOM oracle itself, the
// lazy DFA (XMLTK-style), and the explicit-enumeration engine (XSQ-style),
// including the exponential blow-up TwigM is designed to avoid.

#include <memory>
#include <string>

#include "baselines/dom_eval.h"
#include "baselines/lazy_dfa.h"
#include "baselines/naive_enum.h"
#include "core/evaluator.h"
#include "data/adversarial.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "xml/sax_parser.h"

namespace twigm {
namespace {

using baselines::LazyDfaEngine;
using baselines::NaiveEnumEngine;
using baselines::NaiveEnumOptions;
using core::VectorResultSink;
using testing::Ids;

std::vector<xml::NodeId> DomIds(std::string_view query,
                                std::string_view doc,
                                baselines::DomEvalStats* stats = nullptr) {
  Result<xpath::QueryTree> tree = xpath::QueryTree::Parse(query);
  EXPECT_TRUE(tree.ok());
  Result<std::vector<xml::NodeId>> result =
      baselines::EvaluateOnDom(tree.value(), doc, stats);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result).value()
                     : std::vector<xml::NodeId>{};
}

TEST(DomEvalTest, BasicQueries) {
  const std::string doc = "<a><b><c/></b><c/></a>";
  EXPECT_EQ(DomIds("/a/c", doc), Ids({4}));
  EXPECT_EQ(DomIds("//c", doc), Ids({3, 4}));
  EXPECT_EQ(DomIds("//b[c]", doc), Ids({2}));
  EXPECT_EQ(DomIds("//a[b/c]", doc), Ids({1}));
}

TEST(DomEvalTest, ValueAndAttributeTests) {
  const std::string doc = "<a><b id=\"7\">x</b><b>y</b></a>";
  EXPECT_EQ(DomIds("//b[@id]", doc), Ids({2}));
  EXPECT_EQ(DomIds("//b[.=\"y\"]", doc), Ids({3}));
  EXPECT_EQ(DomIds("//a[b=\"x\"]", doc), Ids({1}));
}

TEST(DomEvalTest, StatsReportMemory) {
  baselines::DomEvalStats stats;
  DomIds("//a//b", "<a><b/><b/><c><b/></c></a>", &stats);
  EXPECT_GT(stats.dom_bytes, 0u);
  EXPECT_GT(stats.memo_bytes, 0u);
  EXPECT_GT(stats.subtree_checks, 0u);
}

TEST(DomEvalTest, MemoKeepsRepeatedSubtreesCheap) {
  // Deep chain with // query: memoization must keep checks linear-ish.
  std::string doc;
  const int n = 300;
  for (int i = 0; i < n; ++i) doc += "<a>";
  doc += "<b/>";
  for (int i = 0; i < n; ++i) doc += "</a>";
  baselines::DomEvalStats stats;
  const std::vector<xml::NodeId> ids = DomIds("//a[//b]", doc, &stats);
  EXPECT_EQ(ids.size(), static_cast<size_t>(n));
  EXPECT_LE(stats.subtree_checks, static_cast<uint64_t>(2 * n + 10));
}

TEST(LazyDfaTest, MatchesSimplePaths) {
  Result<xpath::QueryTree> tree = xpath::QueryTree::Parse("//a//b");
  ASSERT_TRUE(tree.ok());
  VectorResultSink sink;
  auto engine = LazyDfaEngine::Create(tree.value(), &sink);
  ASSERT_TRUE(engine.ok());
  xml::SaxParser parser(engine.value().get());
  ASSERT_TRUE(parser.ParseAll("<a><x><b/></x><b/></a>").ok());
  EXPECT_EQ(sink.ids(), (std::vector<xml::NodeId>{3, 4}));
  EXPECT_GT(engine.value()->stats().dfa_states, 0u);
  EXPECT_GT(engine.value()->stats().dfa_transitions, 0u);
  EXPECT_EQ(engine.value()->stats().results, 2u);
}

TEST(LazyDfaTest, RejectsPredicates) {
  Result<xpath::QueryTree> tree = xpath::QueryTree::Parse("//a[b]");
  ASSERT_TRUE(tree.ok());
  VectorResultSink sink;
  auto engine = LazyDfaEngine::Create(tree.value(), &sink);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kNotSupported);
}

TEST(LazyDfaTest, DfaIsBuiltLazily) {
  Result<xpath::QueryTree> tree = xpath::QueryTree::Parse("//a/b/c");
  ASSERT_TRUE(tree.ok());
  VectorResultSink sink;
  auto engine = LazyDfaEngine::Create(tree.value(), &sink);
  ASSERT_TRUE(engine.ok());
  const uint64_t initial_states = engine.value()->stats().dfa_states;
  EXPECT_LE(initial_states, 1u);  // only the start state exists up front
  xml::SaxParser parser(engine.value().get());
  ASSERT_TRUE(parser.ParseAll("<a><b><c/></b></a>").ok());
  EXPECT_GT(engine.value()->stats().dfa_states, initial_states);
}

TEST(LazyDfaTest, TransitionCacheIsReused) {
  Result<xpath::QueryTree> tree = xpath::QueryTree::Parse("//a/b");
  ASSERT_TRUE(tree.ok());
  VectorResultSink sink;
  auto engine = LazyDfaEngine::Create(tree.value(), &sink);
  ASSERT_TRUE(engine.ok());
  // Many repetitions of the same structure: transitions computed once.
  std::string doc = "<a>";
  for (int i = 0; i < 100; ++i) doc += "<b/>";
  doc += "</a>";
  xml::SaxParser parser(engine.value().get());
  ASSERT_TRUE(parser.ParseAll(doc).ok());
  EXPECT_EQ(engine.value()->stats().results, 100u);
  EXPECT_LE(engine.value()->stats().dfa_transitions, 6u);
  EXPECT_GT(engine.value()->ApproximateMemoryBytes(), 0u);
}

TEST(LazyDfaTest, CollapsedStarsAndMixedAxes) {
  const std::string doc =
      "<a><x><b/></x><y><z><b/></z></y></a>";  // a=1 x=2 b=3 y=4 z=5 b=6
  for (const auto& [query, expected] :
       std::vector<std::pair<std::string, std::vector<xml::NodeId>>>{
           {"//a/*/b", {3}},
           {"//a/*/*/b", {6}},
           {"//a/*//b", {3, 6}},
           {"//*", {1, 2, 3, 4, 5, 6}},
       }) {
    Result<xpath::QueryTree> tree = xpath::QueryTree::Parse(query);
    ASSERT_TRUE(tree.ok());
    VectorResultSink sink;
    auto engine = LazyDfaEngine::Create(tree.value(), &sink);
    ASSERT_TRUE(engine.ok()) << query;
    xml::SaxParser parser(engine.value().get());
    ASSERT_TRUE(parser.ParseAll(doc).ok());
    std::vector<xml::NodeId> got = sink.TakeIds();
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << query;
  }
}

TEST(LazyDfaTest, ResetKeepsDfaCache) {
  Result<xpath::QueryTree> tree = xpath::QueryTree::Parse("//a/b");
  ASSERT_TRUE(tree.ok());
  VectorResultSink sink;
  auto engine = LazyDfaEngine::Create(tree.value(), &sink);
  ASSERT_TRUE(engine.ok());
  {
    xml::SaxParser parser(engine.value().get());
    ASSERT_TRUE(parser.ParseAll("<a><b/></a>").ok());
  }
  const uint64_t states = engine.value()->stats().dfa_states;
  engine.value()->Reset();
  EXPECT_EQ(engine.value()->stats().dfa_states, states);
  EXPECT_EQ(engine.value()->stats().results, 0u);
  xml::SaxParser parser(engine.value().get());
  ASSERT_TRUE(parser.ParseAll("<a><b/></a>").ok());
  EXPECT_EQ(engine.value()->stats().results, 1u);
}

struct NaiveRun {
  std::vector<xml::NodeId> ids;
  baselines::NaiveEnumStats stats;
  Status status;
};

NaiveRun RunNaive(std::string_view query, std::string_view doc,
                  NaiveEnumOptions options = NaiveEnumOptions()) {
  Result<xpath::QueryTree> tree = xpath::QueryTree::Parse(query);
  EXPECT_TRUE(tree.ok());
  VectorResultSink sink;
  auto engine = NaiveEnumEngine::Create(tree.value(), &sink, options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  xml::SaxParser parser(engine.value().get());
  EXPECT_TRUE(parser.ParseAll(doc).ok());
  NaiveRun run;
  run.ids = sink.TakeIds();
  std::sort(run.ids.begin(), run.ids.end());
  run.stats = engine.value()->stats();
  run.status = engine.value()->status();
  return run;
}

TEST(NaiveEnumTest, BasicCorrectness) {
  const std::string doc = "<a><b><c/></b><d/></a>";
  EXPECT_EQ(RunNaive("//a[d]/b/c", doc).ids, Ids({3}));
  EXPECT_EQ(RunNaive("//a[x]/b/c", doc).ids, Ids({}));
  EXPECT_EQ(RunNaive("//b/c", doc).ids, Ids({3}));
}

TEST(NaiveEnumTest, RejectsElementValueTests) {
  Result<xpath::QueryTree> tree = xpath::QueryTree::Parse("//a[b=\"x\"]");
  ASSERT_TRUE(tree.ok());
  VectorResultSink sink;
  auto engine = NaiveEnumEngine::Create(tree.value(), &sink);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kNotSupported);
}

TEST(NaiveEnumTest, AttributeTestsSupported) {
  const std::string doc = "<a><b id=\"1\"><c/></b><b><c/></b></a>";
  EXPECT_EQ(RunNaive("//b[@id]/c", doc).ids, Ids({3}));
}

TEST(NaiveEnumTest, MatchCountGrowsQuadraticallyOnFigure1) {
  // //a//b//c on the Fig. 1 family: the engine must materialize ~n² partial
  // matches where TwigM stores ~2n stack entries — the paper's core claim.
  auto peak_for = [&](int n) {
    data::AdversarialOptions options;
    options.n = n;
    const NaiveRun run =
        RunNaive("//a//b//c", data::GenerateAdversarial(options));
    EXPECT_TRUE(run.status.ok());
    EXPECT_EQ(run.ids.size(), 1u);
    return run.stats.peak_live_matches;
  };
  const uint64_t p8 = peak_for(8);
  const uint64_t p16 = peak_for(16);
  const uint64_t p32 = peak_for(32);
  // Quadratic growth: doubling n should roughly 4x the live matches.
  EXPECT_GT(p16, 3 * p8);
  EXPECT_GT(p32, 3 * p16);
  EXPECT_GE(p32, static_cast<uint64_t>(32) * 32 / 2);
}

TEST(NaiveEnumTest, CapAbortsGracefully) {
  NaiveEnumOptions options;
  options.max_live_matches = 100;
  data::AdversarialOptions adv;
  adv.n = 64;
  const NaiveRun run =
      RunNaive("//a//b//c", data::GenerateAdversarial(adv), options);
  EXPECT_EQ(run.status.code(), StatusCode::kResourceExhausted);
}

TEST(NaiveEnumTest, GarbageCollectsDeadMatches) {
  // Two sibling subtrees: matches rooted in the first must be collected
  // when it closes.
  std::string doc = "<r>";
  for (int i = 0; i < 50; ++i) doc += "<a><b/></a>";
  doc += "</r>";
  const NaiveRun run = RunNaive("//a[b]/b", doc);
  EXPECT_TRUE(run.status.ok());
  EXPECT_EQ(run.ids.size(), 50u);
  // Live matches never accumulate across closed siblings.
  EXPECT_LE(run.stats.peak_live_matches, 8u);
}

TEST(NaiveEnumTest, ResetClearsState) {
  Result<xpath::QueryTree> tree = xpath::QueryTree::Parse("//a/b");
  ASSERT_TRUE(tree.ok());
  VectorResultSink sink;
  auto engine = NaiveEnumEngine::Create(tree.value(), &sink);
  ASSERT_TRUE(engine.ok());
  {
    xml::SaxParser parser(engine.value().get());
    ASSERT_TRUE(parser.ParseAll("<a><b/></a>").ok());
  }
  engine.value()->Reset();
  EXPECT_EQ(engine.value()->stats().results, 0u);
  xml::SaxParser parser(engine.value().get());
  ASSERT_TRUE(parser.ParseAll("<a><b/></a>").ok());
  EXPECT_EQ(engine.value()->stats().results, 1u);
  EXPECT_EQ(sink.ids().size(), 2u);
}

}  // namespace
}  // namespace twigm
