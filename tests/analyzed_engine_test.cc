// Differential tests for AnalyzedEngine: on random DTD-generated documents
// the analyzed-and-pruned engine must emit exactly the same
// (query, id) sets as an unanalyzed MultiQueryProcessor over the original
// query texts — the soundness proof-by-execution for all three analyzer
// passes plus the level-bound pruning.

#include "filter/analyzed_engine.h"

#include <algorithm>
#include <string>
#include <vector>

#include "core/multi_query.h"
#include "data/book.h"
#include "dtd/dtd_generator.h"
#include "dtd/dtd_parser.h"
#include "gtest/gtest.h"

namespace twigm {
namespace {

using analysis::DtdStructure;
using core::MultiQueryProcessor;
using core::VectorMultiQuerySink;
using filter::AnalyzedEngine;

// The Book DTD plus the synthetic <collection> wrapper the generator uses,
// so multi-book documents are valid w.r.t. the analyzed DTD.
std::string CollectionBookDtd() {
  return std::string("<!ELEMENT collection (book*)>\n") + data::kBookDtd;
}

// A workload exercising every pass: satisfiable queries of all shapes,
// statically unsatisfiable ones, equivalent pairs, and redundant branches.
std::vector<std::string> Workload() {
  return {
      "//section/title",                  // plain
      "/collection/book/title",           // exact-depth chain
      "//figure[image]/title",            // predicate
      "//section[figure][p]",             // twig
      "//section[p][figure]",             // equivalent to the previous
      "//book[author]//image",            // descendant below predicate
      "//section[title][title]",          // redundant branch
      "//section[title]/title",           // continuation-implied branch
      "//section/book",                   // unsat: book never nests in section
      "//title/author",                   // unsat: title is a leaf
      "//figure[@width]/image",           // attribute predicate
      "//p[x]",                           // unsat: p has no element children
      "//section//figure/image",          // deep
      "/collection/book/title",           // duplicate of #1
  };
}

std::vector<std::vector<xml::NodeId>> Collect(const VectorMultiQuerySink& sink,
                                              size_t n) {
  std::vector<std::vector<xml::NodeId>> out(n);
  for (const auto& item : sink.items()) {
    out[item.query_index].push_back(item.id);
  }
  for (auto& ids : out) std::sort(ids.begin(), ids.end());
  return out;
}

std::vector<std::vector<xml::NodeId>> RunBaseline(
    const std::vector<std::string>& queries, const std::string& doc) {
  VectorMultiQuerySink sink;
  Result<std::unique_ptr<MultiQueryProcessor>> proc =
      MultiQueryProcessor::Create(queries, &sink);
  EXPECT_TRUE(proc.ok()) << proc.status().ToString();
  EXPECT_TRUE(proc.value()->Consume({doc, false}).ok());
  EXPECT_TRUE(proc.value()->Consume({std::string_view(), true}).ok());
  return Collect(sink, queries.size());
}

std::vector<std::vector<xml::NodeId>> RunAnalyzed(
    const std::vector<std::string>& queries, const std::string& doc,
    const AnalyzedEngine::Options& options,
    AnalyzedEngine::AnalysisStats* stats_out = nullptr) {
  VectorMultiQuerySink sink;
  Result<std::unique_ptr<AnalyzedEngine>> engine =
      AnalyzedEngine::Create(queries, &sink, options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE(engine.value()->Consume({doc, false}).ok());
  EXPECT_TRUE(engine.value()->Consume({std::string_view(), true}).ok());
  if (stats_out != nullptr) *stats_out = engine.value()->analysis_stats();
  return Collect(sink, queries.size());
}

TEST(AnalyzedEngineTest, DifferentialOnRandomBooks) {
  Result<dtd::Dtd> dtd = dtd::ParseDtd(CollectionBookDtd());
  ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
  Result<DtdStructure> structure = DtdStructure::Build(dtd.value());
  ASSERT_TRUE(structure.ok()) << structure.status().ToString();

  const std::vector<std::string> queries = Workload();
  for (uint64_t seed : {1u, 7u, 23u}) {
    data::BookOptions book;
    book.seed = seed;
    book.number_levels = 8;
    book.max_repeats = 3;
    book.copies = 2;
    Result<std::string> doc = data::GenerateBook(book);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();

    const std::vector<std::vector<xml::NodeId>> expected =
        RunBaseline(queries, doc.value());

    AnalyzedEngine::Options options;
    options.dtd = &structure.value();
    AnalyzedEngine::AnalysisStats stats;
    const std::vector<std::vector<xml::NodeId>> got =
        RunAnalyzed(queries, doc.value(), options, &stats);
    EXPECT_EQ(got, expected) << "seed " << seed;
    EXPECT_EQ(stats.queries_unsatisfiable, 3u);
    EXPECT_GE(stats.queries_forwarded, 2u);  // equivalent pair + duplicate
    EXPECT_GE(stats.branches_minimized, 2u);
  }
}

TEST(AnalyzedEngineTest, DifferentialWithoutDtd) {
  // Without a DTD, only the rewrite passes run — still result-preserving on
  // any document, including ones no DTD describes.
  const std::string doc =
      "<collection><misc><section><title/><p/></section></misc>"
      "<book><title/><author/></book></collection>";
  const std::vector<std::string> queries = {
      "//section[title][title]", "//section[p][title]", "//section[title][p]",
      "//book[author]/title",    "//book[author][title]/title",
  };
  const std::vector<std::vector<xml::NodeId>> expected =
      RunBaseline(queries, doc);
  EXPECT_EQ(RunAnalyzed(queries, doc, AnalyzedEngine::Options()), expected);
}

TEST(AnalyzedEngineTest, RandomDtdDocuments) {
  // A recursive synthetic DTD stresses the unbounded-depth paths of the
  // level-bound derivation.
  constexpr char kDtdText[] = R"(
<!ELEMENT r (s*, leaf?)>
<!ELEMENT s (s?, t*, leaf?)>
<!ELEMENT t (#PCDATA)>
<!ELEMENT leaf EMPTY>
<!ATTLIST leaf kind (hot|cold) #IMPLIED>
)";
  Result<dtd::Dtd> dtd = dtd::ParseDtd(kDtdText);
  ASSERT_TRUE(dtd.ok());
  Result<DtdStructure> structure = DtdStructure::Build(dtd.value());
  ASSERT_TRUE(structure.ok()) << structure.status().ToString();

  const std::vector<std::string> queries = {
      "//s/t",         "//s[t]/leaf",     "//s[leaf][t]",
      "//s[t][leaf]",  "/r/s/s//t",       "//leaf[@kind=\"hot\"]",
      "//t/s",         // unsat: t is a leaf
      "//r//r",        // unsat: r only at the root
      "//s[//t][t]",  // redundant descendant branch
  };
  for (uint64_t seed : {3u, 11u, 31u, 59u}) {
    dtd::GeneratorOptions gen;
    gen.seed = seed;
    gen.number_levels = 9;
    gen.max_repeats = 3;
    Result<std::string> doc = dtd::GenerateDocument(dtd.value(), "r", gen);
    ASSERT_TRUE(doc.ok());

    const std::vector<std::vector<xml::NodeId>> expected =
        RunBaseline(queries, doc.value());
    AnalyzedEngine::Options options;
    options.dtd = &structure.value();
    EXPECT_EQ(RunAnalyzed(queries, doc.value(), options), expected)
        << "seed " << seed;
  }
}

TEST(AnalyzedEngineTest, AllQueriesPrunedStreamsNothing) {
  Result<dtd::Dtd> dtd = dtd::ParseDtd(CollectionBookDtd());
  ASSERT_TRUE(dtd.ok());
  Result<DtdStructure> structure = DtdStructure::Build(dtd.value());
  ASSERT_TRUE(structure.ok());

  AnalyzedEngine::Options options;
  options.dtd = &structure.value();
  VectorMultiQuerySink sink;
  Result<std::unique_ptr<AnalyzedEngine>> engine = AnalyzedEngine::Create(
      {"//section/book", "//title/author"}, &sink, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine.value()->filter_engine(), nullptr);
  EXPECT_TRUE(engine.value()->Consume({"<collection></collection>", false}).ok());
  EXPECT_TRUE(engine.value()->Consume({std::string_view(), true}).ok());
  EXPECT_TRUE(sink.items().empty());
  EXPECT_EQ(engine.value()->analysis_stats().queries_pruned(), 2u);
}

TEST(AnalyzedEngineTest, ResetSupportsReplay) {
  const std::vector<std::string> queries = {"//section/title",
                                            "//section[p]/title"};
  const std::string doc =
      "<book><title/><author/><section><title/><p/></section></book>";
  VectorMultiQuerySink sink;
  Result<std::unique_ptr<AnalyzedEngine>> engine =
      AnalyzedEngine::Create(queries, &sink);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine.value()->Consume({doc, false}).ok());
  ASSERT_TRUE(engine.value()->Consume({std::string_view(), true}).ok());
  const size_t first_run = sink.items().size();
  EXPECT_GT(first_run, 0u);

  engine.value()->Reset();
  ASSERT_TRUE(engine.value()->Consume({doc, false}).ok());
  ASSERT_TRUE(engine.value()->Consume({std::string_view(), true}).ok());
  EXPECT_EQ(sink.items().size(), 2 * first_run);
}

}  // namespace
}  // namespace twigm
