// Differential test for the interned-tag dispatch path (DESIGN.md §10):
// every engine dispatches on SymbolIds through per-symbol postings, and
// must agree with an oracle that shares none of that dispatch code. The
// single-query TwigM run is checked id-for-id against the DOM evaluator;
// MultiQueryProcessor, FilterEngine and Reset-reuse are checked against
// one XPathStreamProcessor per query on (query, node id, proof byte
// offset) triples. Documents are randomized recursive instances generated
// from a DTD, so the same tag appears at many levels and the
// dedup/propagation machinery is exercised, not just simple matches. (The
// test names predate the removal of the byte-comparing dispatch they were
// first compared against.)

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/dom_eval.h"
#include "baselines/multi_query_processor.h"
#include "core/evaluator.h"
#include "core/result_sink.h"
#include "dtd/dtd_generator.h"
#include "dtd/dtd_parser.h"
#include "filter/filter_engine.h"
#include "gtest/gtest.h"
#include "xpath/query_tree.h"

namespace twigm {
namespace {

constexpr int kDocuments = 100;

// A recursive document grammar: <section> nests under itself, so generated
// instances are recursive to the generator's level limit.
const char kDtd[] = R"(
  <!ELEMENT book (title, author*, section*)>
  <!ELEMENT section (title?, (section | p | figure)*)>
  <!ELEMENT title (#PCDATA)>
  <!ELEMENT author (#PCDATA)>
  <!ELEMENT p (#PCDATA)>
  <!ELEMENT figure EMPTY>
  <!ATTLIST figure id CDATA #REQUIRED>
  <!ATTLIST section difficulty CDATA #IMPLIED>
)";

std::vector<std::string> GenerateDocuments() {
  Result<dtd::Dtd> parsed = dtd::ParseDtd(kDtd);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::vector<std::string> docs;
  docs.reserve(kDocuments);
  for (int i = 0; i < kDocuments; ++i) {
    dtd::GeneratorOptions options;
    options.seed = 1000 + static_cast<uint64_t>(i);
    options.number_levels = 10;
    options.max_repeats = 3;
    Result<std::string> doc = dtd::GenerateDocument(parsed.value(), "book",
                                                    options);
    EXPECT_TRUE(doc.ok()) << doc.status().ToString();
    docs.push_back(std::move(doc.value()));
  }
  return docs;
}

// (query index, node id, proof byte offset) — sorted before comparison
// because emission order across queries differs between the engines
// without changing the match set.
using Hit = std::tuple<size_t, xml::NodeId, uint64_t>;

class CollectingMultiSink : public core::MultiQueryResultSink {
 public:
  void OnResult(size_t query_index, const core::MatchInfo& match) override {
    hits.push_back({query_index, match.id, match.byte_offset});
  }
  std::vector<Hit> hits;
};

class CollectingObserver : public core::MatchObserver {
 public:
  void OnResult(const core::MatchInfo& match) override {
    hits.push_back({0, match.id, match.byte_offset});
  }
  std::vector<Hit> hits;
};

std::vector<Hit> Sorted(std::vector<Hit> hits) {
  std::sort(hits.begin(), hits.end());
  return hits;
}

const std::vector<std::string>& TwigQueries() {
  static const std::vector<std::string>* queries = new std::vector<std::string>{
      "//section[title]//figure",
      "/book//section[p][figure]",
      "//section//section/title",
      "//section[@difficulty]",
      "//*[figure]/p",
      "/book/section//section[section]",
  };
  return *queries;
}

// One XPathStreamProcessor per query: the per-query reference the
// multi-query engines must reproduce.
std::vector<Hit> RunPerQuery(const std::vector<std::string>& queries,
                             const std::string& doc) {
  std::vector<Hit> hits;
  for (size_t q = 0; q < queries.size(); ++q) {
    CollectingObserver observer;
    Result<std::unique_ptr<core::XPathStreamProcessor>> proc =
        core::XPathStreamProcessor::Create(queries[q], &observer);
    EXPECT_TRUE(proc.ok()) << queries[q] << ": " << proc.status().ToString();
    Status s = proc.value()->Consume({doc, false});
    if (s.ok()) s = proc.value()->Consume({std::string_view(), true});
    EXPECT_TRUE(s.ok()) << s.ToString();
    for (const Hit& h : observer.hits) {
      hits.push_back({q, std::get<1>(h), std::get<2>(h)});
    }
  }
  return Sorted(std::move(hits));
}

TEST(HotpathDifferentialTest, TwigMachineMatchesLegacyDispatch) {
  const std::vector<std::string> docs = GenerateDocuments();
  for (size_t d = 0; d < docs.size(); ++d) {
    for (const std::string& query : TwigQueries()) {
      Result<std::vector<xml::NodeId>> streamed =
          core::EvaluateToIds(query, docs[d]);
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
      std::vector<xml::NodeId> ids = std::move(streamed).value();
      std::sort(ids.begin(), ids.end());
      Result<xpath::QueryTree> tree = xpath::QueryTree::Parse(query);
      ASSERT_TRUE(tree.ok());
      Result<std::vector<xml::NodeId>> oracle =
          baselines::EvaluateOnDom(tree.value(), docs[d]);
      ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
      ASSERT_EQ(ids, oracle.value()) << "doc seed " << (1000 + d)
                                     << " query " << query;
    }
  }
}

std::vector<Hit> RunMultiQuery(const std::vector<std::string>& queries,
                               const std::string& doc) {
  CollectingMultiSink sink;
  Result<std::unique_ptr<baselines::MultiQueryProcessor>> proc =
      baselines::MultiQueryProcessor::Create(queries, &sink);
  EXPECT_TRUE(proc.ok()) << proc.status().ToString();
  Status s = proc.value()->Consume({doc, false});
  if (s.ok()) s = proc.value()->Consume({std::string_view(), true});
  EXPECT_TRUE(s.ok()) << s.ToString();
  return Sorted(std::move(sink.hits));
}

TEST(HotpathDifferentialTest, MultiQueryProcessorMatchesLegacyDispatch) {
  const std::vector<std::string> docs = GenerateDocuments();
  for (size_t d = 0; d < docs.size(); ++d) {
    ASSERT_EQ(RunMultiQuery(TwigQueries(), docs[d]),
              RunPerQuery(TwigQueries(), docs[d]))
        << "doc seed " << (1000 + d);
  }
}

std::vector<Hit> RunFilter(const std::vector<std::string>& queries,
                           const std::string& doc) {
  CollectingMultiSink sink;
  Result<std::unique_ptr<filter::FilterEngine>> engine =
      filter::FilterEngine::Create(queries, &sink);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  Status s = engine.value()->Consume({doc, false});
  if (s.ok()) s = engine.value()->Consume({std::string_view(), true});
  EXPECT_TRUE(s.ok()) << s.ToString();
  return Sorted(std::move(sink.hits));
}

TEST(HotpathDifferentialTest, FilterEngineMatchesLegacyDispatch) {
  // Shared prefixes on purpose: the trie collapses these, so the symbol
  // dispatch at the trie root and at active trie nodes both get exercised.
  const std::vector<std::string> queries = {
      "//section/title",
      "//section/figure",
      "//section//figure",
      "/book/section",
      "/book//p",
      "//*/figure",
      "//section[p]/title",
      "//section[@difficulty]//figure",
  };
  const std::vector<std::string> docs = GenerateDocuments();
  for (size_t d = 0; d < docs.size(); ++d) {
    ASSERT_EQ(RunFilter(queries, docs[d]), RunPerQuery(queries, docs[d]))
        << "doc seed " << (1000 + d);
  }
}

// Reset + re-stream must also agree with fresh per-query processors:
// pooled state and interned symbols from the previous document must not
// leak into results.
TEST(HotpathDifferentialTest, ResetReuseMatchesLegacyDispatch) {
  const std::vector<std::string> docs = GenerateDocuments();
  CollectingMultiSink sink;
  core::EvaluatorOptions options;
  Result<std::unique_ptr<baselines::MultiQueryProcessor>> proc =
      baselines::MultiQueryProcessor::Create(TwigQueries(), &sink, options);
  ASSERT_TRUE(proc.ok()) << proc.status().ToString();
  for (size_t d = 0; d < 20 && d < docs.size(); ++d) {
    sink.hits.clear();
    proc.value()->Reset();
    Status s = proc.value()->Consume({docs[d], false});
    if (s.ok()) s = proc.value()->Consume({std::string_view(), true});
    ASSERT_TRUE(s.ok()) << s.ToString();
    const std::vector<Hit> reused = Sorted(sink.hits);
    ASSERT_EQ(reused, RunPerQuery(TwigQueries(), docs[d]))
        << "doc seed " << (1000 + d);
  }
}

}  // namespace
}  // namespace twigm
