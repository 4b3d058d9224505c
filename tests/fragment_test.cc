// Tests for XML-fragment result delivery (footnote 3): the recorder must
// capture exactly the subtrees of result elements, across nesting, eager
// emission (predicate-free queries), and undecided candidates.

#include "core/fragment.h"

#include <algorithm>
#include <string>

#include "core/evaluator.h"
#include "gtest/gtest.h"

namespace twigm {
namespace {

using core::VectorFragmentSink;
using core::XPathStreamProcessor;

struct FragmentRun {
  std::vector<core::VectorFragmentSink::Item> fragments;
  std::vector<xml::NodeId> ids;
};

FragmentRun RunFragments(std::string_view query, std::string_view doc,
                         size_t chunk = 0) {
  // VectorFragmentSink::wants_fragments() turns fragment capture on — no
  // separate creation path.
  VectorFragmentSink sink;
  auto proc = XPathStreamProcessor::Create(query, &sink);
  EXPECT_TRUE(proc.ok()) << proc.status().ToString();
  FragmentRun run;
  if (!proc.ok()) return run;
  if (chunk == 0) {
    EXPECT_TRUE(proc.value()->Consume({doc, false}).ok());
  } else {
    for (size_t pos = 0; pos < doc.size(); pos += chunk) {
      EXPECT_TRUE(proc.value()->Consume({doc.substr(pos, chunk), false}).ok());
    }
  }
  EXPECT_TRUE(proc.value()->Consume({std::string_view(), true}).ok());
  run.fragments = sink.items();
  run.ids = sink.ids();
  return run;
}

TEST(FragmentTest, SimpleSubtree) {
  const FragmentRun run =
      RunFragments("//b", "<a><b><c>x</c></b></a>");
  ASSERT_EQ(run.fragments.size(), 1u);
  EXPECT_EQ(run.fragments[0].id, 2u);
  EXPECT_EQ(run.fragments[0].xml, "<b><c>x</c></b>");
}

TEST(FragmentTest, AttributesPreserved) {
  const FragmentRun run =
      RunFragments("//b", "<a><b k=\"v\" m=\"&lt;\"/></a>");
  ASSERT_EQ(run.fragments.size(), 1u);
  EXPECT_EQ(run.fragments[0].xml, "<b k=\"v\" m=\"&lt;\"></b>");
}

TEST(FragmentTest, TextEscapedOnOutput) {
  const FragmentRun run =
      RunFragments("//b", "<a><b>1 &lt; 2 &amp; 3</b></a>");
  ASSERT_EQ(run.fragments.size(), 1u);
  EXPECT_EQ(run.fragments[0].xml, "<b>1 &lt; 2 &amp; 3</b>");
}

TEST(FragmentTest, PredicateDecidedAfterSubtreeCloses) {
  // Result proven only when <d> appears, long after </b>.
  const FragmentRun run =
      RunFragments("//a[d]/b", "<a><b><c/></b><d/></a>");
  ASSERT_EQ(run.fragments.size(), 1u);
  EXPECT_EQ(run.fragments[0].xml, "<b><c></c></b>");
}

TEST(FragmentTest, FailedCandidatesProduceNothing) {
  const FragmentRun run =
      RunFragments("//a[x]/b", "<a><b><c/></b><d/></a>");
  EXPECT_TRUE(run.fragments.empty());
  EXPECT_TRUE(run.ids.empty());
}

TEST(FragmentTest, EagerPathMEmission) {
  // A predicate-free query (the paper's PathM class) announces the result
  // at startElement; the fragment must still be complete when delivered.
  const FragmentRun run =
      RunFragments("//a/b", "<a><b><c>deep</c></b></a>");
  ASSERT_EQ(run.fragments.size(), 1u);
  EXPECT_EQ(run.fragments[0].xml, "<b><c>deep</c></b>");
  EXPECT_EQ(run.ids.size(), 1u);
}

TEST(FragmentTest, NestedResults) {
  // Both b's match //b; the outer fragment contains the inner one.
  const FragmentRun run = RunFragments("//b", "<a><b>x<b>y</b></b></a>");
  ASSERT_EQ(run.fragments.size(), 2u);
  // Inner completes first.
  EXPECT_EQ(run.fragments[0].xml, "<b>y</b>");
  EXPECT_EQ(run.fragments[1].xml, "<b>x<b>y</b></b>");
}

// Child-only predicates (the paper's BranchM class): the candidate's
// fragment is buffered until [d] resolves after it.
TEST(FragmentTest, BranchMFragments) {
  const FragmentRun run =
      RunFragments("/a[d]/b", "<a><b><c/></b><d/></a>");
  ASSERT_EQ(run.fragments.size(), 1u);
  EXPECT_EQ(run.fragments[0].xml, "<b><c></c></b>");
}

TEST(FragmentTest, MultipleResultsInOrder) {
  const FragmentRun run =
      RunFragments("//b", "<a><b>1</b><b>2</b><b>3</b></a>");
  ASSERT_EQ(run.fragments.size(), 3u);
  EXPECT_EQ(run.fragments[0].xml, "<b>1</b>");
  EXPECT_EQ(run.fragments[1].xml, "<b>2</b>");
  EXPECT_EQ(run.fragments[2].xml, "<b>3</b>");
}

TEST(FragmentTest, ChunkedFeedingIdentical) {
  const std::string doc =
      "<a><b k=\"1\">text<c/>more</b><d/><b>two</b></a>";
  const FragmentRun whole = RunFragments("//a[d]//b", doc);
  for (size_t chunk : {1u, 3u, 5u}) {
    const FragmentRun chunked =
        RunFragments("//a[d]//b", doc, chunk);
    ASSERT_EQ(chunked.fragments.size(), whole.fragments.size());
    for (size_t i = 0; i < whole.fragments.size(); ++i) {
      EXPECT_EQ(chunked.fragments[i].xml, whole.fragments[i].xml);
    }
  }
}

TEST(FragmentTest, IdsSinkReceivesSameResults) {
  const FragmentRun run =
      RunFragments("//b[c]", "<a><b><c/></b><b/></a>");
  ASSERT_EQ(run.fragments.size(), 1u);
  ASSERT_EQ(run.ids.size(), 1u);
  EXPECT_EQ(run.fragments[0].id, run.ids[0]);
}

TEST(FragmentTest, ValueTestFragments) {
  const FragmentRun run = RunFragments(
      "//s[.=\"keep\"]", "<r><s>keep</s><s>drop</s></r>");
  ASSERT_EQ(run.fragments.size(), 1u);
  EXPECT_EQ(run.fragments[0].xml, "<s>keep</s>");
}

TEST(FragmentTest, ResetAllowsReuse) {
  VectorFragmentSink fragments;
  auto proc = XPathStreamProcessor::Create("//b", &fragments);
  ASSERT_TRUE(proc.ok());
  ASSERT_TRUE(proc.value()->Consume({"<a><b>1</b></a>", false}).ok());
  ASSERT_TRUE(proc.value()->Consume({std::string_view(), true}).ok());
  proc.value()->Reset();
  ASSERT_TRUE(proc.value()->Consume({"<a><b>2</b></a>", false}).ok());
  ASSERT_TRUE(proc.value()->Consume({std::string_view(), true}).ok());
  ASSERT_EQ(fragments.items().size(), 2u);
  EXPECT_EQ(fragments.items()[1].xml, "<b>2</b>");
}

TEST(FragmentTest, NullObserverRejected) {
  auto proc = XPathStreamProcessor::Create("//b", nullptr);
  ASSERT_FALSE(proc.ok());
  EXPECT_EQ(proc.status().code(), StatusCode::kInvalidArgument);
}

TEST(FragmentTest, CaptureForcedByOption) {
  // The observer's wants_fragments() is the one capture switch: the same
  // observer class gets OnFragment only when it opts in.
  class Capture : public core::MatchObserver {
   public:
    explicit Capture(bool wants) : wants_(wants) {}
    bool wants_fragments() const override { return wants_; }
    void OnResult(const core::MatchInfo&) override {}
    void OnFragment(xml::NodeId, std::string_view xml) override {
      fragments.emplace_back(xml);
    }
    std::vector<std::string> fragments;

   private:
    bool wants_;
  };
  for (bool wants : {false, true}) {
    Capture capture(wants);
    auto proc = XPathStreamProcessor::Create("//b", &capture);
    ASSERT_TRUE(proc.ok());
    ASSERT_TRUE(proc.value()->Consume({"<a><b>x</b></a>", false}).ok());
    ASSERT_TRUE(proc.value()->Consume({std::string_view(), true}).ok());
    if (!wants) {
      EXPECT_TRUE(capture.fragments.empty());
      continue;
    }
    ASSERT_EQ(capture.fragments.size(), 1u);
    EXPECT_EQ(capture.fragments[0], "<b>x</b>");
  }
}

TEST(FragmentTest, DeepRecursiveCandidates) {
  // Every a is a candidate and a result; fragments nest 50 deep.
  std::string doc;
  const int n = 50;
  for (int i = 0; i < n; ++i) doc += "<a>";
  for (int i = 0; i < n; ++i) doc += "</a>";
  const FragmentRun run = RunFragments("//a", doc);
  ASSERT_EQ(run.fragments.size(), static_cast<size_t>(n));
  // Innermost result is the empty chain.
  EXPECT_EQ(run.fragments[0].xml, "<a></a>");
  EXPECT_EQ(run.fragments.back().xml.size(), static_cast<size_t>(7 * n));
}

}  // namespace
}  // namespace twigm
