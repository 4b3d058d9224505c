// Tests for the XPathStreamProcessor facade: when results are emitted,
// chunked feeding, reuse, and error propagation.

#include "core/evaluator.h"

#include <string>

#include "common/random.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace twigm {
namespace {

using core::VectorResultSink;
using core::XPathStreamProcessor;
using testing::Ids;
using testing::MustEvaluate;

// Runs `query` over `doc` in one chunk and returns each result's
// (id, byte offset) in emission order.
std::vector<std::pair<xml::NodeId, uint64_t>> Emissions(
    std::string_view query, std::string_view doc) {
  VectorResultSink sink;
  auto proc = XPathStreamProcessor::Create(query, &sink);
  EXPECT_TRUE(proc.ok()) << proc.status().ToString();
  std::vector<std::pair<xml::NodeId, uint64_t>> out;
  if (!proc.ok()) return out;
  EXPECT_TRUE(proc.value()->Consume({doc, true}).ok());
  for (const core::MatchInfo& m : sink.matches()) {
    out.emplace_back(m.id, m.byte_offset);
  }
  return out;
}

using Hits = std::vector<std::pair<xml::NodeId, uint64_t>>;

TEST(EvaluatorTest, AutoSelectsPathMForLinearQueries) {
  // A linear query (the paper's PathM class, section 3.1) emits each
  // result at its own start tag.
  const std::string doc = "<a><b/><x><b/></x></a>";  // a=1 b=2 x=3 b=4
  EXPECT_EQ(Emissions("//a//b", doc),
            (Hits{{2, doc.find("<b/>")}, {4, doc.rfind("<b/>")}}));
}

TEST(EvaluatorTest, AutoSelectsTwigMForChildOnlyPredicates) {
  // XP{/,[]} (the paper's BranchM class, section 3.2) runs on TwigM: with
  // only '/' edges each TwigM stack holds at most one live entry, which is
  // exactly BranchM's single state. The result is output when the root
  // entry pops.
  const std::string doc = "<a><b><c/></b></a>";  // a=1 b=2 c=3
  EXPECT_EQ(Emissions("/a/b[c]", doc), (Hits{{2, doc.find("</a>")}}));
}

TEST(EvaluatorTest, AutoSelectsTwigMForTheRest) {
  // Predicates, wildcards with predicates, and value tests all wait for
  // the end tag that decides them.
  const std::string doc = "<a><b/><c/></a>";  // a=1 b=2 c=3
  EXPECT_EQ(Emissions("//a[b]//c", doc), (Hits{{3, doc.find("</a>")}}));
  EXPECT_EQ(Emissions("/*[b]", doc), (Hits{{1, doc.find("</a>")}}));
  const std::string text = "<r><a>x</a></r>";  // r=1 a=2
  EXPECT_EQ(Emissions("//a[.=\"x\"]", text),
            (Hits{{2, text.find("</a>")}}));
}

TEST(EvaluatorTest, AllEnginesAgreeWhereApplicable) {
  const std::string doc =
      "<a><b><c/></b><b><c/><d/></b></a>";  // a=1 b=2 c=3 b=4 c=5 d=6
  EXPECT_EQ(MustEvaluate("//a//c", doc), Ids({3, 5}));
  EXPECT_EQ(MustEvaluate("/a/b[d]/c", doc), Ids({5}));
}

TEST(EvaluatorTest, InvalidQueryFailsAtCreate) {
  VectorResultSink sink;
  auto proc = XPathStreamProcessor::Create("a[", &sink);
  ASSERT_FALSE(proc.ok());
  EXPECT_EQ(proc.status().code(), StatusCode::kParseError);
}

TEST(EvaluatorTest, MalformedXmlFailsAtFeed) {
  VectorResultSink sink;
  auto proc = XPathStreamProcessor::Create("//a", &sink);
  ASSERT_TRUE(proc.ok());
  EXPECT_FALSE(proc.value()->Consume({"<a><b></a>", false}).ok());
}

TEST(EvaluatorTest, ChunkedFeedingMatchesWholeDocument) {
  // Build a moderately sized recursive document.
  std::string doc = "<root>";
  Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    switch (rng.Below(4)) {
      case 0: doc += "<a><b>text</b></a>"; break;
      case 1: doc += "<a><a><c at=\"1\"/></a></a>"; break;
      case 2: doc += "<b><c/><c/></b>"; break;
      default: doc += "<c>5</c>"; break;
    }
  }
  doc += "</root>";

  const char* kQuery = "//a//c[@at]";
  const std::vector<xml::NodeId> expected = MustEvaluate(kQuery, doc);

  for (size_t chunk : {1u, 3u, 7u, 64u, 1000u}) {
    VectorResultSink sink;
    auto proc = XPathStreamProcessor::Create(kQuery, &sink);
    ASSERT_TRUE(proc.ok());
    size_t pos = 0;
    while (pos < doc.size()) {
      const size_t len = std::min(chunk, doc.size() - pos);
      ASSERT_TRUE(
          proc.value()->Consume({std::string_view(doc).substr(pos, len), false}).ok());
      pos += len;
    }
    ASSERT_TRUE(proc.value()->Consume({std::string_view(), true}).ok());
    std::vector<xml::NodeId> got = sink.TakeIds();
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "chunk=" << chunk;
  }
}

TEST(EvaluatorTest, ResetAllowsSecondDocument) {
  VectorResultSink sink;
  auto proc = XPathStreamProcessor::Create("//a/b", &sink);
  ASSERT_TRUE(proc.ok());
  ASSERT_TRUE(proc.value()->Consume({"<a><b/></a>", false}).ok());
  ASSERT_TRUE(proc.value()->Consume({std::string_view(), true}).ok());
  proc.value()->Reset();
  ASSERT_TRUE(proc.value()->Consume({"<a><b/><b/></a>", false}).ok());
  ASSERT_TRUE(proc.value()->Consume({std::string_view(), true}).ok());
  EXPECT_EQ(sink.ids().size(), 3u);
}

TEST(EvaluatorTest, NullSinkRejected) {
  auto proc = XPathStreamProcessor::Create("//a", nullptr);
  ASSERT_FALSE(proc.ok());
  EXPECT_EQ(proc.status().code(), StatusCode::kInvalidArgument);
}

TEST(EvaluatorTest, StatsAccessibleAfterRun) {
  VectorResultSink sink;
  auto proc = XPathStreamProcessor::Create("//a//b", &sink);
  ASSERT_TRUE(proc.ok());
  ASSERT_TRUE(proc.value()->Consume({"<a><b/><b/></a>", false}).ok());
  ASSERT_TRUE(proc.value()->Consume({std::string_view(), true}).ok());
  EXPECT_EQ(proc.value()->stats().results, 2u);
  EXPECT_EQ(proc.value()->stats().start_events, 3u);
}

}  // namespace
}  // namespace twigm
