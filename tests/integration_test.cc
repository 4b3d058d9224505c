// End-to-end integration: the full Figure 6 query sets over (small
// instances of) the paper's three datasets, every streaming engine
// cross-checked against the DOM oracle — the experiment pipeline itself,
// run as a test.

#include <algorithm>
#include <string>

#include "baselines/dom_eval.h"
#include "baselines/naive_enum.h"
#include "core/evaluator.h"
#include "data/book.h"
#include "data/datasets.h"
#include "data/protein.h"
#include "data/xmark.h"
#include "gtest/gtest.h"
#include "xml/dom.h"
#include "xml/sax_parser.h"

namespace twigm {
namespace {

std::vector<xml::NodeId> OracleIds(const std::string& query,
                                   const xml::DomDocument& dom) {
  Result<xpath::QueryTree> tree = xpath::QueryTree::Parse(query);
  EXPECT_TRUE(tree.ok()) << query;
  Result<std::vector<xml::NodeId>> ids =
      baselines::EvaluateOnDom(tree.value(), dom);
  EXPECT_TRUE(ids.ok());
  return ids.ok() ? std::move(ids).value() : std::vector<xml::NodeId>{};
}

void CheckDataset(const std::string& doc,
                  const std::vector<data::QuerySpec>& queries) {
  Result<xml::DomDocument> dom = xml::DomDocument::Parse(doc);
  ASSERT_TRUE(dom.ok());
  uint64_t total = 0;
  for (const data::QuerySpec& spec : queries) {
    const std::vector<xml::NodeId> expected = OracleIds(spec.text, dom.value());
    total += expected.size();

    // TwigM must agree on every query.
    Result<std::vector<xml::NodeId>> got =
        core::EvaluateToIds(spec.text, doc);
    ASSERT_TRUE(got.ok()) << spec.name;
    std::vector<xml::NodeId> ids = std::move(got).value();
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, expected) << spec.name << ": " << spec.text;

    // Auto engine selection must agree too.
    Result<std::vector<xml::NodeId>> auto_got =
        core::EvaluateToIds(spec.text, doc);
    ASSERT_TRUE(auto_got.ok()) << spec.name;
    std::vector<xml::NodeId> auto_ids = std::move(auto_got).value();
    std::sort(auto_ids.begin(), auto_ids.end());
    EXPECT_EQ(auto_ids, expected) << spec.name;

    // The enumeration baseline, where it supports the query.
    Result<xpath::QueryTree> tree = xpath::QueryTree::Parse(spec.text);
    ASSERT_TRUE(tree.ok());
    core::VectorResultSink naive_sink;
    baselines::NaiveEnumOptions naive_options;
    naive_options.max_live_matches = 200'000;
    naive_options.max_work = 20'000'000;  // abort instead of thrashing
    auto naive = baselines::NaiveEnumEngine::Create(tree.value(), &naive_sink,
                                                    naive_options);
    if (naive.ok()) {
      xml::EventDriver driver(naive.value().get());
      xml::SaxParser parser(&driver);
      ASSERT_TRUE(parser.ParseAll(doc).ok());
      if (naive.value()->status().ok()) {
        std::vector<xml::NodeId> naive_ids = naive_sink.TakeIds();
        std::sort(naive_ids.begin(), naive_ids.end());
        EXPECT_EQ(naive_ids, expected) << "NaiveEnum " << spec.name;
      }
    }
  }
  // The query sets must actually produce results on their datasets.
  EXPECT_GT(total, 0u);
}

TEST(IntegrationTest, BookQueriesAllEnginesAgree) {
  data::BookOptions options;
  options.seed = 77;
  options.min_bytes = 150 * 1024;
  Result<std::string> doc = data::GenerateBook(options);
  ASSERT_TRUE(doc.ok());
  CheckDataset(doc.value(), data::BookQueries());
}

TEST(IntegrationTest, ProteinQueriesAllEnginesAgree) {
  data::ProteinOptions options;
  options.seed = 77;
  options.entries = 300;
  Result<std::string> doc = data::GenerateProtein(options);
  ASSERT_TRUE(doc.ok());
  CheckDataset(doc.value(), data::ProteinQueries());
}

TEST(IntegrationTest, AuctionQueriesAllEnginesAgree) {
  data::XmarkOptions options;
  options.seed = 77;
  options.people = 60;
  Result<std::string> doc = data::GenerateXmark(options);
  ASSERT_TRUE(doc.ok());
  CheckDataset(doc.value(), data::AuctionQueries());
}

TEST(IntegrationTest, DuplicatedBookScalesResultsLinearly) {
  // The Fig. 9/10 workload invariant: k identical copies => k × results.
  // Compare 2 vs 3 copies: both use the <collection> wrapper, so per-copy
  // content is byte-identical and results scale exactly.
  data::BookOptions base;
  base.seed = 13;
  base.copies = 2;
  data::BookOptions triple = base;
  triple.copies = 3;
  Result<std::string> doc2 = data::GenerateBook(base);
  Result<std::string> doc3 = data::GenerateBook(triple);
  ASSERT_TRUE(doc2.ok());
  ASSERT_TRUE(doc3.ok());
  for (const data::QuerySpec& spec : data::BookQueries()) {
    Result<std::vector<xml::NodeId>> r2 =
        core::EvaluateToIds(spec.text, doc2.value());
    Result<std::vector<xml::NodeId>> r3 =
        core::EvaluateToIds(spec.text, doc3.value());
    ASSERT_TRUE(r2.ok());
    ASSERT_TRUE(r3.ok());
    ASSERT_EQ(r2.value().size() % 2, 0u) << spec.name;
    EXPECT_EQ(r3.value().size(), 3 * (r2.value().size() / 2)) << spec.name;
  }
}

TEST(IntegrationTest, StreamingMemoryIndependentOfDataSize) {
  // Same query, 1x vs 4x data: TwigM peak entries must not grow with size
  // (the Fig. 10 claim), modulo candidate buffering which scales with the
  // largest *single* undecided region, identical across copies.
  // 2 vs 8 identical copies (both <collection>-wrapped): 4x the data.
  data::BookOptions small;
  small.seed = 5;
  small.copies = 2;
  data::BookOptions big = small;
  big.copies = 8;
  Result<std::string> doc1 = data::GenerateBook(small);
  Result<std::string> doc4 = data::GenerateBook(big);
  ASSERT_TRUE(doc1.ok());
  ASSERT_TRUE(doc4.ok());

  auto peak_for = [&](const std::string& doc) {
    core::VectorResultSink sink;
    auto proc = core::XPathStreamProcessor::Create(
        "//section[title]//figure", &sink);
    EXPECT_TRUE(proc.ok());
    EXPECT_TRUE(proc.value()->Consume({doc, false}).ok());
    EXPECT_TRUE(proc.value()->Consume({std::string_view(), true}).ok());
    return proc.value()->stats().peak_state_bytes;
  };
  const uint64_t peak1 = peak_for(doc1.value());
  const uint64_t peak4 = peak_for(doc4.value());
  EXPECT_EQ(peak4, peak1);  // flat, not 4x: copies are identical
}

}  // namespace
}  // namespace twigm
