// Tests for the XPathStreamProcessor facade: engine selection, chunked
// feeding, reuse, and error propagation.

#include "core/evaluator.h"

#include <string>

#include "common/random.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace twigm {
namespace {

using core::EngineKind;
using core::EvaluatorOptions;
using core::VectorResultSink;
using core::XPathStreamProcessor;
using testing::Ids;
using testing::MustEvaluate;

TEST(EvaluatorTest, AutoSelectsPathMForLinearQueries) {
  VectorResultSink sink;
  auto proc = XPathStreamProcessor::Create("//a//b", &sink);
  ASSERT_TRUE(proc.ok());
  EXPECT_EQ(proc.value()->engine_kind(), EngineKind::kPathM);
}

TEST(EvaluatorTest, AutoSelectsTwigMForChildOnlyPredicates) {
  // XP{/,[]} (the paper's BranchM class, section 3.2) runs on TwigM: with
  // only '/' edges each TwigM stack holds at most one live entry, which is
  // exactly BranchM's single state.
  VectorResultSink sink;
  auto proc = XPathStreamProcessor::Create("/a/b[c]", &sink);
  ASSERT_TRUE(proc.ok());
  EXPECT_EQ(proc.value()->engine_kind(), EngineKind::kTwigM);
}

TEST(EvaluatorTest, AutoSelectsTwigMForTheRest) {
  VectorResultSink sink;
  auto proc = XPathStreamProcessor::Create("//a[b]//c", &sink);
  ASSERT_TRUE(proc.ok());
  EXPECT_EQ(proc.value()->engine_kind(), EngineKind::kTwigM);

  VectorResultSink sink2;
  auto proc2 = XPathStreamProcessor::Create("/a/*[b]", &sink2);
  ASSERT_TRUE(proc2.ok());
  EXPECT_EQ(proc2.value()->engine_kind(), EngineKind::kTwigM);

  // Linear query with a value test also needs TwigM (PathM has no state
  // for text accumulation).
  VectorResultSink sink3;
  auto proc3 = XPathStreamProcessor::Create("//a[.=\"x\"]", &sink3);
  ASSERT_TRUE(proc3.ok());
  EXPECT_EQ(proc3.value()->engine_kind(), EngineKind::kTwigM);
}

TEST(EvaluatorTest, AllEnginesAgreeWhereApplicable) {
  const std::string doc =
      "<a><b><c/></b><b><c/><d/></b></a>";  // a=1 b=2 c=3 b=4 c=5 d=6
  EXPECT_EQ(MustEvaluate("//a//c", doc, EngineKind::kPathM),
            MustEvaluate("//a//c", doc, EngineKind::kTwigM));
  EXPECT_EQ(MustEvaluate("/a/b[d]/c", doc, EngineKind::kAuto),
            MustEvaluate("/a/b[d]/c", doc, EngineKind::kTwigM));
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
  const std::vector<xml::NodeId> expected =
      MustEvaluate(kQuery, doc, EngineKind::kTwigM);

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

TEST(EvaluatorTest, ForcedEngineRejectsUnsupportedQuery) {
  VectorResultSink sink;
  EvaluatorOptions options;
  options.engine = EngineKind::kPathM;
  auto proc = XPathStreamProcessor::Create("//a[b]", &sink, options);
  ASSERT_FALSE(proc.ok());
  EXPECT_EQ(proc.status().code(), StatusCode::kNotSupported);
}

TEST(EvaluatorTest, NullSinkRejected) {
  auto proc = XPathStreamProcessor::Create("//a", nullptr);
  ASSERT_FALSE(proc.ok());
  EXPECT_EQ(proc.status().code(), StatusCode::kInvalidArgument);
}

TEST(EvaluatorTest, EngineKindNames) {
  EXPECT_STREQ(EngineKindToString(EngineKind::kAuto), "auto");
  EXPECT_STREQ(EngineKindToString(EngineKind::kPathM), "PathM");
  EXPECT_STREQ(EngineKindToString(EngineKind::kTwigM), "TwigM");
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
