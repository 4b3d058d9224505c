// Proves the zero-allocation steady state: after one warm pass, streaming
// the same document again through a Reset() processor performs no heap
// allocations at all — the parser buffers, interner, pooled stacks and
// candidate vectors all reuse their capacity. The same holds for repeated
// IndexedEvaluator::Evaluate calls over a stored index. Links
// twigm_alloc_hook, which replaces operator new/delete with counting
// versions (this is why these assertions live in their own binary).

#include <memory>
#include <string>
#include <vector>

#include "baselines/multi_query_processor.h"
#include "core/evaluator.h"
#include "core/result_sink.h"
#include "data/book.h"
#include "data/datasets.h"
#include "dtd/dtd_generator.h"
#include "dtd/dtd_parser.h"
#include "filter/filter_engine.h"
#include "filter/union_query.h"
#include "gtest/gtest.h"
#include "index/index_builder.h"
#include "index/index_reader.h"
#include "index/indexed_evaluator.h"
#include "obs/alloc_hook.h"

namespace twigm {
namespace {

std::string MakeDocument(uint64_t seed) {
  Result<dtd::Dtd> dtd = dtd::ParseDtd(R"(
    <!ELEMENT book (title, section*)>
    <!ELEMENT section (title?, (section | p | figure)*)>
    <!ELEMENT title (#PCDATA)>
    <!ELEMENT p (#PCDATA)>
    <!ELEMENT figure EMPTY>
    <!ATTLIST figure id CDATA #REQUIRED>
  )");
  EXPECT_TRUE(dtd.ok()) << dtd.status().ToString();
  dtd::GeneratorOptions options;
  options.seed = seed;
  options.number_levels = 12;
  options.max_repeats = 4;
  Result<std::string> doc = dtd::GenerateDocument(dtd.value(), "book",
                                                  options);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return doc.value();
}

TEST(HotpathAllocTest, HookIsLinked) {
  ASSERT_TRUE(obs::AllocHookActive())
      << "hotpath_alloc_test must link twigm_alloc_hook";
}

TEST(HotpathAllocTest, TwigMachineSteadyStateAllocatesNothing) {
  const std::string doc = MakeDocument(7);
  core::CountingResultSink sink;
  Result<std::unique_ptr<core::XPathStreamProcessor>> proc =
      core::XPathStreamProcessor::Create("//section[title]//figure", &sink);
  ASSERT_TRUE(proc.ok()) << proc.status().ToString();
  core::XPathStreamProcessor& p = *proc.value();

  auto stream_once = [&]() {
    Status s = p.Consume({doc, false});
    if (s.ok()) s = p.Consume({std::string_view(), true});
    ASSERT_TRUE(s.ok()) << s.ToString();
  };

  stream_once();  // warm: pools, interner, stacks grow here
  const uint64_t warm_results = sink.count();
  for (int pass = 0; pass < 3; ++pass) {
    p.Reset();
    const uint64_t before = obs::AllocHookNewCalls();
    stream_once();
    EXPECT_EQ(obs::AllocHookNewCalls() - before, 0u) << "pass " << pass;
  }
  // Reset + re-stream also reproduced the results each pass.
  EXPECT_EQ(sink.count(), warm_results * 4);
}

TEST(HotpathAllocTest, MultiQuerySteadyStateAllocatesNothing) {
  const std::string doc = MakeDocument(11);
  class CountSink : public core::MultiQueryResultSink {
   public:
    void OnResult(size_t, const core::MatchInfo&) override { ++count; }
    uint64_t count = 0;
  };
  CountSink sink;
  const std::vector<std::string> queries = {
      "//section/title", "//section[p]//figure", "/book//section[figure]"};
  Result<std::unique_ptr<baselines::MultiQueryProcessor>> proc =
      baselines::MultiQueryProcessor::Create(queries, &sink);
  ASSERT_TRUE(proc.ok()) << proc.status().ToString();
  baselines::MultiQueryProcessor& p = *proc.value();

  auto stream_once = [&]() {
    Status s = p.Consume({doc, false});
    if (s.ok()) s = p.Consume({std::string_view(), true});
    ASSERT_TRUE(s.ok()) << s.ToString();
  };

  stream_once();
  for (int pass = 0; pass < 3; ++pass) {
    p.Reset();
    const uint64_t before = obs::AllocHookNewCalls();
    stream_once();
    EXPECT_EQ(obs::AllocHookNewCalls() - before, 0u) << "pass " << pass;
  }
}

TEST(HotpathAllocTest, FilterEngineSteadyStateAllocatesNothing) {
  const std::string doc = MakeDocument(13);
  class CountSink : public core::MultiQueryResultSink {
   public:
    void OnResult(size_t, const core::MatchInfo&) override { ++count; }
    uint64_t count = 0;
  };
  CountSink sink;
  const std::vector<std::string> queries = {
      "//section/title", "//section//figure", "/book/section",
      "//*/figure",      "//section[p]",      "/book//p"};
  Result<std::unique_ptr<filter::FilterEngine>> engine =
      filter::FilterEngine::Create(queries, &sink);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  filter::FilterEngine& e = *engine.value();

  auto stream_once = [&]() {
    Status s = e.Consume({doc, false});
    if (s.ok()) s = e.Consume({std::string_view(), true});
    ASSERT_TRUE(s.ok()) << s.ToString();
  };

  stream_once();
  for (int pass = 0; pass < 3; ++pass) {
    e.Reset();
    const uint64_t before = obs::AllocHookNewCalls();
    stream_once();
    EXPECT_EQ(obs::AllocHookNewCalls() - before, 0u) << "pass " << pass;
  }
}

// A union dedups branch results by id. Overlapping branches make every
// //section/title match arrive twice, and each must be dropped without
// allocating.
TEST(HotpathAllocTest, UnionSteadyStateAllocatesNothing) {
  const std::string doc = MakeDocument(17);
  core::CountingResultSink sink;
  Result<std::unique_ptr<filter::UnionQueryProcessor>> proc =
      filter::UnionQueryProcessor::Create(
          "//section/title | //section[p]/title | //figure | //*/title",
          &sink);
  ASSERT_TRUE(proc.ok()) << proc.status().ToString();
  filter::UnionQueryProcessor& p = *proc.value();

  auto stream_once = [&]() {
    Status s = p.Consume({doc, false});
    if (s.ok()) s = p.Consume({std::string_view(), true});
    ASSERT_TRUE(s.ok()) << s.ToString();
  };

  stream_once();
  const uint64_t warm_results = sink.count();
  EXPECT_GT(warm_results, 0u);
  for (int pass = 0; pass < 3; ++pass) {
    p.Reset();
    const uint64_t before = obs::AllocHookNewCalls();
    stream_once();
    EXPECT_EQ(obs::AllocHookNewCalls() - before, 0u) << "pass " << pass;
  }
  EXPECT_EQ(sink.count(), warm_results * 4);
}

// Capacity survives document *switches*, not just re-streams of the same
// bytes: after warming on the largest document, streaming a mix of smaller
// documents allocates nothing either (same tag vocabulary, smaller shapes).
TEST(HotpathAllocTest, ResetRetainsCapacityAcrossDocuments) {
  std::vector<std::string> docs;
  for (uint64_t seed : {21, 22, 23, 24}) docs.push_back(MakeDocument(seed));

  core::CountingResultSink sink;
  Result<std::unique_ptr<core::XPathStreamProcessor>> proc =
      core::XPathStreamProcessor::Create("//section[title]//figure", &sink);
  ASSERT_TRUE(proc.ok()) << proc.status().ToString();
  core::XPathStreamProcessor& p = *proc.value();

  auto stream = [&](const std::string& doc) {
    Status s = p.Consume({doc, false});
    if (s.ok()) s = p.Consume({std::string_view(), true});
    ASSERT_TRUE(s.ok()) << s.ToString();
  };

  // Warm on every document once: each may have the deepest recursion or the
  // longest text run, any of which can grow a buffer.
  for (const std::string& doc : docs) {
    p.Reset();
    stream(doc);
  }
  // Second cycle through all documents: everything is at capacity.
  for (size_t i = 0; i < docs.size(); ++i) {
    p.Reset();
    const uint64_t before = obs::AllocHookNewCalls();
    stream(docs[i]);
    EXPECT_EQ(obs::AllocHookNewCalls() - before, 0u) << "doc " << i;
  }
}

// Warm re-query of a stored index: after one Evaluate, every further
// Evaluate of the same evaluator allocates nothing — postings are read in
// place and the per-node buffers, match flags and level table keep their
// capacity. Covers the Book queries (Q6, Q8 and Q10 carry attribute and
// value tests) and wildcard chains that fold into (=,k) and (≥,k) edges on
// both join sides, plus an enumerated return '*', and attribute tests
// merged against the per-name postings, on tags and on '*'.
TEST(HotpathAllocTest, IndexedEvaluatorSteadyStateAllocatesNothing) {
  data::BookOptions book;
  book.seed = 5;
  book.number_levels = 20;
  book.max_repeats = 6;
  book.min_bytes = 100000;
  Result<std::string> doc = data::GenerateBook(book);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  index::IndexBuilder builder;
  ASSERT_TRUE(builder.Consume({doc.value(), true}).ok());
  std::string image;
  ASSERT_TRUE(builder.Serialize(&image).ok());
  Result<std::unique_ptr<index::IndexReader>> reader =
      index::IndexReader::OpenBytes(std::move(image));
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();

  std::vector<std::string> queries;
  for (const data::QuerySpec& q : data::BookQueries()) {
    queries.push_back(q.text);
  }
  for (const char* q :
       {"//section/*/*/title", "/*//section//*", "//section[*/image]//p",
        "//book/*//figure/*", "//*[*//image]/title",
        "//section[title=\"data\"]/*", "//section[@id]", "//*[@id]",
        "//figure[@width][@height>=10]", "//section[@id=\"id3\"]//figure",
        "//*[@ghost]", "//*[title=\"data\"]"}) {
    queries.push_back(q);
  }
  for (const std::string& query : queries) {
    Result<std::unique_ptr<index::IndexedEvaluator>> eval =
        index::IndexedEvaluator::Create(query, reader.value().get());
    ASSERT_TRUE(eval.ok()) << query << ": " << eval.status().ToString();
    core::CountingResultSink sink;
    ASSERT_TRUE(eval.value()->Evaluate(&sink).ok());  // warm
    const uint64_t warm_results = sink.count();
    for (int pass = 0; pass < 3; ++pass) {
      const uint64_t before = obs::AllocHookNewCalls();
      ASSERT_TRUE(eval.value()->Evaluate(&sink).ok());
      EXPECT_EQ(obs::AllocHookNewCalls() - before, 0u)
          << query << " pass " << pass;
    }
    EXPECT_EQ(sink.count(), warm_results * 4) << query;
  }
}

}  // namespace
}  // namespace twigm
