// Parameterized sweeps (TEST_P): engine agreement across a query corpus,
// chunk-size invariance, and adversarial-family scaling.

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/dom_eval.h"
#include "baselines/lazy_dfa.h"
#include "core/evaluator.h"
#include "data/adversarial.h"
#include "gtest/gtest.h"
#include "xml/dom.h"

namespace twigm {
namespace {

// A corpus of documents exercising recursion, attributes, text, siblings.
const std::vector<std::string>& Corpus() {
  static const std::vector<std::string>* kDocs = new std::vector<std::string>{
      "<a/>",
      "<a><b/><c/></a>",
      "<a><b><c/></b><c/></a>",
      "<a><a><a><b/></a></a></a>",
      "<a><b x=\"1\"><c>t</c></b><b><c>u</c></b></a>",
      "<a>1<b>2</b>3<c><b>4</b></c></a>",
      "<a><b><a><b><c/></b></a></b></a>",
      "<a><c/><c/><c/><b><c/></b></a>",
      "<a><b y=\"10\"/><b y=\"3\"/><b/></a>",
      "<a><b><c><d><e/></d></c></b></a>",
  };
  return *kDocs;
}

std::vector<xml::NodeId> Oracle(const std::string& query,
                                const std::string& doc) {
  Result<xpath::QueryTree> tree = xpath::QueryTree::Parse(query);
  EXPECT_TRUE(tree.ok()) << query;
  Result<std::vector<xml::NodeId>> ids =
      baselines::EvaluateOnDom(tree.value(), doc);
  EXPECT_TRUE(ids.ok());
  return ids.ok() ? std::move(ids).value() : std::vector<xml::NodeId>{};
}

std::vector<xml::NodeId> Stream(const std::string& query,
                                const std::string& doc) {
  Result<std::vector<xml::NodeId>> ids = core::EvaluateToIds(query, doc);
  EXPECT_TRUE(ids.ok()) << ids.status().ToString();
  std::vector<xml::NodeId> out =
      ids.ok() ? std::move(ids).value() : std::vector<xml::NodeId>{};
  std::sort(out.begin(), out.end());
  return out;
}

// ---- TwigM vs oracle over a fixed query corpus ----

class TwigAgreementTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TwigAgreementTest, MatchesOracleOnCorpus) {
  const std::string query = GetParam();
  for (const std::string& doc : Corpus()) {
    EXPECT_EQ(Stream(query, doc), Oracle(query, doc))
        << "query " << query << " doc " << doc;
  }
}

INSTANTIATE_TEST_SUITE_P(
    QueryCorpus, TwigAgreementTest,
    ::testing::Values(
        "//a", "//b", "//c", "/a", "/a/b", "/a//c", "//a//b", "//a//b//c",
        "//a/b/c", "//*", "/*", "//a/*", "//*/c", "//a/*/c", "//a//*//c",
        "//a[b]", "//a[b]/c", "//a[b][c]", "//b[c]", "//a[b/c]",
        "//a[//c]", "//a[b[c]]", "//b[@x]", "//b[@y>5]", "//b[@x=\"1\"]",
        "//b[c=\"t\"]", "//b[.=\"2\"]", "//a[.!=\"zz\"]/b", "//*[c]",
        "//*[@y]", "//a[b]//c", "//a//b[c]", "/a[b][c]/b", "//b//c",
        "//a[c][b/c]", "//a/b[c]/c"));

// ---- linear queries: TwigM (predicate-free), LazyDfa and the oracle ----

class LinearAgreementTest : public ::testing::TestWithParam<const char*> {};

TEST_P(LinearAgreementTest, PathMTwigMDfaAgree) {
  const std::string query = GetParam();
  for (const std::string& doc : Corpus()) {
    const std::vector<xml::NodeId> expected = Oracle(query, doc);
    EXPECT_EQ(Stream(query, doc), expected)
        << "TwigM " << query << " " << doc;
    core::VectorResultSink sink;
    Result<xpath::QueryTree> tree = xpath::QueryTree::Parse(query);
    ASSERT_TRUE(tree.ok());
    auto dfa = baselines::LazyDfaEngine::Create(tree.value(), &sink);
    ASSERT_TRUE(dfa.ok());
    xml::EventDriver driver(dfa.value().get());
    xml::SaxParser parser(&driver);
    ASSERT_TRUE(parser.ParseAll(doc).ok());
    std::vector<xml::NodeId> got = sink.TakeIds();
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "LazyDfa " << query << " " << doc;
  }
}

INSTANTIATE_TEST_SUITE_P(
    LinearCorpus, LinearAgreementTest,
    ::testing::Values("//a", "/a/b", "/a//b", "//a//c", "//a/b//c", "//*",
                      "//a/*", "//*//c", "//a/*/c", "//a/*//c", "//a//*/c",
                      "/a/*/*/c", "//b//a", "//a//a", "//a//a//b"));

// ---- chunk-size invariance ----

class ChunkSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ChunkSizeTest, ResultsIndependentOfChunking) {
  const size_t chunk = GetParam();
  const std::string doc =
      "<a><b x=\"1\">alpha<c/></b><b>beta</b><c><b><d/></b></c></a>";
  const char* kQuery = "//a//b[@x]/c";
  const std::vector<xml::NodeId> expected = Stream(kQuery, doc);

  core::VectorResultSink sink;
  auto proc = core::XPathStreamProcessor::Create(kQuery, &sink);
  ASSERT_TRUE(proc.ok());
  for (size_t pos = 0; pos < doc.size(); pos += chunk) {
    ASSERT_TRUE(
        proc.value()->Consume({std::string_view(doc).substr(pos, chunk), false}).ok());
  }
  ASSERT_TRUE(proc.value()->Consume({std::string_view(), true}).ok());
  std::vector<xml::NodeId> got = sink.TakeIds();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
}

INSTANTIATE_TEST_SUITE_P(Chunks, ChunkSizeTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 64, 4096));

// ---- adversarial-family scaling: result + state invariants per n ----

class AdversarialScalingTest : public ::testing::TestWithParam<int> {};

TEST_P(AdversarialScalingTest, OneResultAndLinearState) {
  const int n = GetParam();
  data::AdversarialOptions options;
  options.n = n;
  const std::string doc = data::GenerateAdversarial(options);

  Result<xpath::QueryTree> tree =
      xpath::QueryTree::Parse("//a[d]//b[e]//c");
  ASSERT_TRUE(tree.ok());
  core::VectorResultSink sink;
  auto machine = core::TwigMachine::Create(tree.value(), &sink);
  ASSERT_TRUE(machine.ok());
  xml::EventDriver driver(machine.value().get());
  xml::SaxParser parser(&driver);
  machine.value()->BindInterner(parser.interner());
  ASSERT_TRUE(parser.ParseAll(doc).ok());

  ASSERT_EQ(sink.ids().size(), 1u);
  EXPECT_EQ(sink.ids()[0], static_cast<xml::NodeId>(2 * n + 1));
  // Compact encoding: peak entries within [2n, 2n + 3].
  const uint64_t peak = machine.value()->stats().peak_stack_entries;
  EXPECT_GE(peak, static_cast<uint64_t>(2 * n));
  EXPECT_LE(peak, static_cast<uint64_t>(2 * n + 3));
}

INSTANTIATE_TEST_SUITE_P(Ns, AdversarialScalingTest,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 32, 64, 128));

// ---- small queries that once ran forced onto a chosen engine ----

// Each row is (query, engine code): the code names the machine the row
// forced when EvaluatorOptions::engine still chose one, 1 for PathM and 2
// for TwigM. Every query now runs on TwigM, so the code only keeps the test
// names stable. The query is a std::string, not a const char*: gtest prints
// a char pointer with its address, which ASLR changes on every run, so the
// test names would differ from one test discovery to the next.
class EngineForcingTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(EngineForcingTest, ForcedEngineMatchesOracle) {
  const std::string query = std::get<0>(GetParam());
  const std::string doc =
      "<a><b><c/><d/></b><a><b><c/></b></a><c/></a>";
  EXPECT_EQ(Stream(query, doc), Oracle(query, doc)) << query;
}

INSTANTIATE_TEST_SUITE_P(
    ForcedEngines, EngineForcingTest,
    ::testing::Values(std::make_tuple(std::string("//a//c"), 1),
                      std::make_tuple(std::string("//a//c"), 2),
                      std::make_tuple(std::string("/a/b"), 2),
                      std::make_tuple(std::string("/a/b[c]"), 2),
                      std::make_tuple(std::string("/a/b[c][d]"), 2),
                      std::make_tuple(std::string("//a[b/c]//c"), 2)));

}  // namespace
}  // namespace twigm
