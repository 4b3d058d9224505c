#include "filter/union_query.h"

#include <algorithm>
#include <string>

#include "core/evaluator.h"
#include "gtest/gtest.h"

namespace twigm {
namespace {

using filter::SplitUnionQuery;
using filter::UnionQueryProcessor;
using core::VectorResultSink;

std::vector<xml::NodeId> RunUnion(std::string_view query,
                                  std::string_view doc) {
  VectorResultSink sink;
  auto proc = UnionQueryProcessor::Create(query, &sink);
  EXPECT_TRUE(proc.ok()) << proc.status().ToString();
  if (!proc.ok()) return {};
  EXPECT_TRUE(proc.value()->Consume({doc, false}).ok());
  EXPECT_TRUE(proc.value()->Consume({std::string_view(), true}).ok());
  std::vector<xml::NodeId> ids = sink.TakeIds();
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(SplitUnionQueryTest, Splitting) {
  Result<std::vector<std::string>> one = SplitUnionQuery("//a/b");
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one.value(), (std::vector<std::string>{"//a/b"}));

  Result<std::vector<std::string>> three =
      SplitUnionQuery("//a | /b[c] | //d//e");
  ASSERT_TRUE(three.ok());
  EXPECT_EQ(three.value(),
            (std::vector<std::string>{"//a", "/b[c]", "//d//e"}));
}

TEST(SplitUnionQueryTest, PipeInsideLiteralIsNotASeparator) {
  Result<std::vector<std::string>> split =
      SplitUnionQuery("//a[b=\"x|y\"] | //c");
  ASSERT_TRUE(split.ok());
  ASSERT_EQ(split.value().size(), 2u);
  EXPECT_EQ(split.value()[0], "//a[b=\"x|y\"]");
  EXPECT_EQ(split.value()[1], "//c");
}

TEST(SplitUnionQueryTest, EmptyBranchRejected) {
  EXPECT_FALSE(SplitUnionQuery("//a | ").ok());
  EXPECT_FALSE(SplitUnionQuery("| //a").ok());
  EXPECT_FALSE(SplitUnionQuery("//a || //b").ok());
}

TEST(UnionQueryTest, DisjointBranches) {
  const std::string doc = "<r><a/><b/><c/></r>";  // r=1 a=2 b=3 c=4
  EXPECT_EQ(RunUnion("//a | //c", doc), (std::vector<xml::NodeId>{2, 4}));
}

TEST(UnionQueryTest, OverlappingBranchesDeduplicate) {
  const std::string doc = "<r><a><b/></a></r>";  // r=1 a=2 b=3
  // Both branches match b=3; it must be reported once.
  EXPECT_EQ(RunUnion("//b | //a/b", doc), (std::vector<xml::NodeId>{3}));
  EXPECT_EQ(RunUnion("//* | //a", doc), (std::vector<xml::NodeId>{1, 2, 3}));
}

TEST(UnionQueryTest, MixedEngineBranches) {
  const std::string doc =
      "<r><a><b/></a><c><d/></c></r>";  // r=1 a=2 b=3 c=4 d=5
  // A linear branch and two predicate branches (child-only and
  // descendant) in one union.
  EXPECT_EQ(RunUnion("//b | /r/c[d] | //c[d]//d", doc),
            (std::vector<xml::NodeId>{3, 4, 5}));
}

TEST(UnionQueryTest, SingleBranchBehavesLikePlainQuery) {
  const std::string doc = "<r><a/><a/></r>";
  Result<std::vector<xml::NodeId>> plain = core::EvaluateToIds("//a", doc);
  ASSERT_TRUE(plain.ok());
  std::vector<xml::NodeId> expected = std::move(plain).value();
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(RunUnion("//a", doc), expected);
}

TEST(UnionQueryTest, BranchErrorsSurface) {
  VectorResultSink sink;
  auto proc = UnionQueryProcessor::Create("//a | b[", &sink);
  ASSERT_FALSE(proc.ok());
}

TEST(UnionQueryTest, BranchCountAndStats) {
  VectorResultSink sink;
  auto proc = UnionQueryProcessor::Create("//a | //b", &sink);
  ASSERT_TRUE(proc.ok());
  EXPECT_EQ(proc.value()->branch_count(), 2u);
  ASSERT_TRUE(proc.value()->Consume({"<r><a/><b/><b/></r>", false}).ok());
  ASSERT_TRUE(proc.value()->Consume({std::string_view(), true}).ok());
  EXPECT_EQ(proc.value()->results(), 3u);
}

TEST(UnionQueryTest, ResetClearsDedup) {
  VectorResultSink sink;
  auto proc = UnionQueryProcessor::Create("//a | //*", &sink);
  ASSERT_TRUE(proc.ok());
  ASSERT_TRUE(proc.value()->Consume({"<a/>", false}).ok());
  ASSERT_TRUE(proc.value()->Consume({std::string_view(), true}).ok());
  proc.value()->Reset();
  ASSERT_TRUE(proc.value()->Consume({"<a/>", false}).ok());
  ASSERT_TRUE(proc.value()->Consume({std::string_view(), true}).ok());
  // One result per document: the same id (1) both times.
  EXPECT_EQ(sink.ids().size(), 2u);
}

TEST(UnionQueryTest, ChunkedFeeding) {
  const std::string doc = "<r><a/><b><a/></b></r>";
  VectorResultSink sink;
  auto proc = UnionQueryProcessor::Create("//a | //b", &sink);
  ASSERT_TRUE(proc.ok());
  for (char c : doc) {
    ASSERT_TRUE(proc.value()->Consume({std::string_view(&c, 1), false}).ok());
  }
  ASSERT_TRUE(proc.value()->Consume({std::string_view(), true}).ok());
  EXPECT_EQ(sink.ids().size(), 3u);
}

TEST(BomTest, Utf8BomIsSkipped) {
  const std::string doc = "\xEF\xBB\xBF<a><b/></a>";
  Result<std::vector<xml::NodeId>> ids = core::EvaluateToIds("//b", doc);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  EXPECT_EQ(ids.value().size(), 1u);
}

TEST(BomTest, BomSplitAcrossChunks) {
  core::VectorResultSink sink;
  auto proc = core::XPathStreamProcessor::Create("//b", &sink);
  ASSERT_TRUE(proc.ok());
  ASSERT_TRUE(proc.value()->Consume({"\xEF", false}).ok());
  ASSERT_TRUE(proc.value()->Consume({"\xBB", false}).ok());
  ASSERT_TRUE(proc.value()->Consume({"\xBF<a><b/></a>", false}).ok());
  ASSERT_TRUE(proc.value()->Consume({std::string_view(), true}).ok());
  EXPECT_EQ(sink.ids().size(), 1u);
}

TEST(BomTest, NonBomGarbageStillFails) {
  EXPECT_FALSE(core::EvaluateToIds("//a", "\xEF\xBB<a/>").ok());
  EXPECT_FALSE(core::EvaluateToIds("//a", "junk<a/>").ok());
}

}  // namespace
}  // namespace twigm
