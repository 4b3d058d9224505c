#include "baselines/multi_query_processor.h"

#include <algorithm>
#include <string>

#include "gtest/gtest.h"

namespace twigm {
namespace {

using baselines::MultiQueryProcessor;
using core::VectorMultiQuerySink;

struct PerQuery {
  std::vector<xml::NodeId> ids;
};

std::vector<PerQuery> RunMulti(const std::vector<std::string>& queries,
                               std::string_view doc) {
  VectorMultiQuerySink sink;
  auto proc = MultiQueryProcessor::Create(queries, &sink);
  EXPECT_TRUE(proc.ok()) << proc.status().ToString();
  std::vector<PerQuery> out(queries.size());
  if (!proc.ok()) return out;
  EXPECT_TRUE(proc.value()->Consume({doc, false}).ok());
  EXPECT_TRUE(proc.value()->Consume({std::string_view(), true}).ok());
  for (const auto& item : sink.items()) {
    out[item.query_index].ids.push_back(item.id);
  }
  for (auto& q : out) std::sort(q.ids.begin(), q.ids.end());
  return out;
}

TEST(MultiQueryTest, IndependentQueriesIndependentResults) {
  const std::string doc =
      "<a><b><c/></b><d/><b/></a>";  // a=1 b=2 c=3 d=4 b=5
  const std::vector<PerQuery> results =
      RunMulti({"//b", "//b[c]", "//a[d]//c", "//x"}, doc);
  EXPECT_EQ(results[0].ids, (std::vector<xml::NodeId>{2, 5}));
  EXPECT_EQ(results[1].ids, (std::vector<xml::NodeId>{2}));
  EXPECT_EQ(results[2].ids, (std::vector<xml::NodeId>{3}));
  EXPECT_TRUE(results[3].ids.empty());
}

TEST(MultiQueryTest, MatchesSingleQueryProcessors) {
  const std::string doc =
      "<r><s id=\"1\"><t>x</t></s><s><t>y</t><u/></s></r>";
  const std::vector<std::string> queries = {
      "//s[@id]/t", "//s[u]", "/r/s/t", "//s[t=\"y\"]", "//*[t]"};
  const std::vector<PerQuery> multi = RunMulti(queries, doc);
  for (size_t i = 0; i < queries.size(); ++i) {
    Result<std::vector<xml::NodeId>> single =
        core::EvaluateToIds(queries[i], doc);
    ASSERT_TRUE(single.ok());
    std::vector<xml::NodeId> expected = std::move(single).value();
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(multi[i].ids, expected) << queries[i];
  }
}

TEST(MultiQueryTest, EnginesPickedPerQuery) {
  // Each query's machine decides when it emits: the predicate-free one at
  // its result's start tag, the others once their predicates resolve.
  using Hits = std::vector<std::pair<xml::NodeId, uint64_t>>;
  class OffsetSink : public core::MultiQueryResultSink {
   public:
    void OnResult(size_t query_index, const core::MatchInfo& match) override {
      hits[query_index].emplace_back(match.id, match.byte_offset);
    }
    std::vector<Hits> hits = std::vector<Hits>(3);
  };
  const std::string doc = "<a><b><c/></b><b/></a>";  // a=1 b=2 c=3 b=4
  OffsetSink sink;
  auto proc = MultiQueryProcessor::Create(
      {"//a//b", "/a/b[c]", "//a[b]//c"}, &sink);
  ASSERT_TRUE(proc.ok());
  ASSERT_TRUE(proc.value()->Consume({doc, true}).ok());
  const std::vector<Hits>& got = sink.hits;
  EXPECT_EQ(got[0], (Hits{{2, doc.find("<b>")}, {4, doc.find("<b/>")}}));
  EXPECT_EQ(got[1], (Hits{{2, doc.find("</a>")}}));
  EXPECT_EQ(got[2], (Hits{{3, doc.find("</a>")}}));
}

TEST(MultiQueryTest, BadQueryNamesItsIndex) {
  VectorMultiQuerySink sink;
  auto proc = MultiQueryProcessor::Create({"//a", "b[", "//c"}, &sink);
  ASSERT_FALSE(proc.ok());
  EXPECT_NE(proc.status().message().find("query #1"), std::string::npos);
}

TEST(MultiQueryTest, EmptyQuerySetRejected) {
  VectorMultiQuerySink sink;
  auto proc = MultiQueryProcessor::Create({}, &sink);
  ASSERT_FALSE(proc.ok());
}

TEST(MultiQueryTest, NullSinkRejected) {
  auto proc = MultiQueryProcessor::Create({"//a"}, nullptr);
  ASSERT_FALSE(proc.ok());
}

TEST(MultiQueryTest, ChunkedFeeding) {
  const std::string doc = "<a><b/><c/><b/></a>";
  VectorMultiQuerySink sink;
  auto proc = MultiQueryProcessor::Create({"//b", "//c"}, &sink);
  ASSERT_TRUE(proc.ok());
  for (char ch : doc) {
    ASSERT_TRUE(proc.value()->Consume({std::string_view(&ch, 1), false}).ok());
  }
  ASSERT_TRUE(proc.value()->Consume({std::string_view(), true}).ok());
  EXPECT_EQ(proc.value()->total_results(), 3u);
}

TEST(MultiQueryTest, StatsPerQuery) {
  const std::string doc = "<a><b/><b/></a>";
  VectorMultiQuerySink sink;
  auto proc = MultiQueryProcessor::Create({"//b", "//nope"}, &sink);
  ASSERT_TRUE(proc.ok());
  ASSERT_TRUE(proc.value()->Consume({doc, false}).ok());
  ASSERT_TRUE(proc.value()->Consume({std::string_view(), true}).ok());
  EXPECT_EQ(proc.value()->stats(0).results, 2u);
  EXPECT_EQ(proc.value()->stats(1).results, 0u);
  EXPECT_EQ(proc.value()->stats(1).start_events, 3u);
}

TEST(MultiQueryTest, ResetAllowsNewDocument) {
  VectorMultiQuerySink sink;
  auto proc = MultiQueryProcessor::Create({"//b"}, &sink);
  ASSERT_TRUE(proc.ok());
  ASSERT_TRUE(proc.value()->Consume({"<a><b/></a>", false}).ok());
  ASSERT_TRUE(proc.value()->Consume({std::string_view(), true}).ok());
  proc.value()->Reset();
  EXPECT_EQ(proc.value()->total_results(), 0u);
  ASSERT_TRUE(proc.value()->Consume({"<a><b/><b/></a>", false}).ok());
  ASSERT_TRUE(proc.value()->Consume({std::string_view(), true}).ok());
  EXPECT_EQ(proc.value()->total_results(), 2u);
  EXPECT_EQ(sink.items().size(), 3u);
}

TEST(MultiQueryTest, ManyQueriesOneParse) {
  // 100 queries over one document: results must be exactly per query.
  std::vector<std::string> queries;
  for (int i = 0; i < 100; ++i) {
    queries.push_back(i % 2 == 0 ? "//b" : "//c[d]");
  }
  const std::string doc = "<a><b/><c><d/></c></a>";  // b=2, c=3
  const std::vector<PerQuery> results = RunMulti(queries, doc);
  for (int i = 0; i < 100; ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(results[static_cast<size_t>(i)].ids,
                (std::vector<xml::NodeId>{2}));
    } else {
      EXPECT_EQ(results[static_cast<size_t>(i)].ids,
                (std::vector<xml::NodeId>{3}));
    }
  }
}

}  // namespace
}  // namespace twigm
