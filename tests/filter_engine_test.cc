// Tests for the shared-prefix filter engine (src/filter/): trie
// construction, the sharing-sensitive edge cases (duplicates, prefix
// queries, '*' vs tag at the same step), tail demultiplexing, and a
// randomized differential test against N independent XPathStreamProcessor
// runs and against the product-construction baseline
// (baselines::MultiQueryProcessor) — the correctness contract is
// emission-set equality per query. The FilterEngineDtdTest cases hold the
// engine built with a DTD (unsatisfiable queries dropped, equivalent ones
// forwarded, texts minimized, level windows and decision tables installed)
// to the same contract on DTD-valid documents.

#include "filter/filter_engine.h"

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "baselines/multi_query_processor.h"
#include "analysis/dtd_structure.h"
#include "common/random.h"
#include "core/evaluator.h"
#include "data/book.h"
#include "dtd/dtd_generator.h"
#include "dtd/dtd_parser.h"
#include "filter/filter_index.h"
#include "gtest/gtest.h"
#include "xml/xml_writer.h"

namespace twigm {
namespace {

using analysis::DtdStructure;
using core::EarlyDecisionMode;
using core::VectorMultiQuerySink;
using filter::FilterEngine;
using filter::FilterIndex;

std::vector<std::vector<xml::NodeId>> RunFilter(
    const std::vector<std::string>& queries, std::string_view doc,
    const FilterEngine** engine_out = nullptr) {
  static std::unique_ptr<FilterEngine> keep_alive;  // for engine_out users
  VectorMultiQuerySink sink;
  auto engine = FilterEngine::Create(queries, &sink);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  std::vector<std::vector<xml::NodeId>> out(queries.size());
  if (!engine.ok()) return out;
  EXPECT_TRUE(engine.value()->Consume({doc, false}).ok());
  EXPECT_TRUE(engine.value()->Consume({std::string_view(), true}).ok());
  for (const auto& item : sink.items()) {
    out[item.query_index].push_back(item.id);
  }
  for (auto& ids : out) std::sort(ids.begin(), ids.end());
  if (engine_out != nullptr) {
    keep_alive = std::move(engine).value();
    *engine_out = keep_alive.get();
  }
  return out;
}

std::vector<xml::NodeId> SingleQuery(const std::string& query,
                                     std::string_view doc) {
  Result<std::vector<xml::NodeId>> ids = core::EvaluateToIds(query, doc);
  EXPECT_TRUE(ids.ok()) << query << ": " << ids.status().ToString();
  std::vector<xml::NodeId> out =
      ids.ok() ? std::move(ids).value() : std::vector<xml::NodeId>{};
  std::sort(out.begin(), out.end());
  return out;
}

TEST(FilterIndexTest, SharesCommonPrefixes) {
  auto index = FilterIndex::Build(
      {"//a/b/c", "//a/b/d", "//a/b", "//a/b/c", "/a/b"});
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  const auto& stats = index.value().stats();
  // //a/b/c + //a/b/d + //a/b + //a/b/c + /a/b = 3+3+2+3+2 = 13 steps.
  EXPECT_EQ(stats.total_steps, 13u);
  // Distinct nodes: //a, //a/b, //a/b/c, //a/b/d, /a, /a/b.
  EXPECT_EQ(stats.trie_node_count, 6u);
  EXPECT_EQ(stats.linear_query_count, 5u);
}

TEST(FilterIndexTest, PlansClassifyQueries) {
  VectorMultiQuerySink sink;
  auto engine = FilterEngine::Create(
      {"//a/b", "//a/b[c]/d", "/a/b[c]", "//a[b]", "//a/*[b]/c"}, &sink);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE(engine.value()->plan(0).linear);
  // //a/b[c]/d shares trunk //a, tail rooted at b.
  EXPECT_FALSE(engine.value()->plan(1).linear);
  EXPECT_EQ(engine.value()->plan(1).trunk_steps, 1);
  // Child-only, wildcard-free: a TwigM tail like every other predicate
  // query, anchored below the /a trunk.
  EXPECT_FALSE(engine.value()->plan(2).linear);
  EXPECT_EQ(engine.value()->plan(2).trunk_steps, 1);
  // Predicate on the first step: no trunk.
  EXPECT_FALSE(engine.value()->plan(3).linear);
  EXPECT_EQ(engine.value()->plan(3).trunk_steps, 0);
  EXPECT_EQ(engine.value()->plan(3).anchor, -1);
  // Wildcard tail root still shares the //a trunk.
  EXPECT_FALSE(engine.value()->plan(4).linear);
  EXPECT_EQ(engine.value()->plan(4).trunk_steps, 1);
}

TEST(FilterEngineTest, DuplicateQueriesEachGetResults) {
  const std::string doc = "<a><b/><b/></a>";  // a=1 b=2 b=3
  const auto results = RunFilter({"//b", "//b", "//b"}, doc);
  for (int q = 0; q < 3; ++q) {
    EXPECT_EQ(results[static_cast<size_t>(q)],
              (std::vector<xml::NodeId>{2, 3}));
  }
}

TEST(FilterEngineTest, QueryPrefixOfAnother) {
  // //a accepts at an interior trie node of //a/b.
  const std::string doc = "<a><a><b/></a><c/></a>";  // a=1 a=2 b=3 c=4
  const auto results = RunFilter({"//a", "//a/b", "//a/b/c"}, doc);
  EXPECT_EQ(results[0], (std::vector<xml::NodeId>{1, 2}));
  EXPECT_EQ(results[1], (std::vector<xml::NodeId>{3}));
  EXPECT_TRUE(results[2].empty());
}

TEST(FilterEngineTest, WildcardAndTagOverlapAtSameStep) {
  const std::string doc = "<a><b><d/></b><c><d/></c></a>";  // 1 2 3 4 5
  const auto results =
      RunFilter({"//a/*/d", "//a/b/d", "/a/*", "//*"}, doc);
  EXPECT_EQ(results[0], (std::vector<xml::NodeId>{3, 5}));
  EXPECT_EQ(results[1], (std::vector<xml::NodeId>{3}));
  EXPECT_EQ(results[2], (std::vector<xml::NodeId>{2, 4}));
  EXPECT_EQ(results[3], (std::vector<xml::NodeId>{1, 2, 3, 4, 5}));
}

TEST(FilterEngineTest, ChildVsDescendantAreDistinctTrieNodes) {
  const std::string doc = "<a><x><b/></x><b/></a>";  // a=1 x=2 b=3 b=4
  const auto results = RunFilter({"/a/b", "//a//b", "/a//b"}, doc);
  EXPECT_EQ(results[0], (std::vector<xml::NodeId>{4}));
  EXPECT_EQ(results[1], (std::vector<xml::NodeId>{3, 4}));
  EXPECT_EQ(results[2], (std::vector<xml::NodeId>{3, 4}));
}

TEST(FilterEngineTest, PredicateTailsMatchSingleQueryEngines) {
  const std::string doc =
      "<r><s id=\"1\"><t>x</t></s><s><t>y</t><u/></s>"
      "<s><s><t>y</t></s></s></r>";
  const std::vector<std::string> queries = {
      "//s[@id]/t",  "//s[u]",        "/r/s/t",      "//s[t=\"y\"]",
      "//*[t]",      "//r//s[t]/t",   "//s[s[t]]",   "/r/s[t=\"x\"]/t",
  };
  const auto multi = RunFilter(queries, doc);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(multi[i], SingleQuery(queries[i], doc)) << queries[i];
  }
}

TEST(FilterEngineTest, SharedTrunkRecursiveDescendant) {
  // Recursive document: '//' trunks with nested matches must stay exact.
  const std::string doc =
      "<a><b><a><b><c/></b></a></b><b><c/></b></a>";
  const std::vector<std::string> queries = {"//a//b[c]", "//a//b[c]/c",
                                            "//a/b/c", "//b//c"};
  const auto multi = RunFilter(queries, doc);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(multi[i], SingleQuery(queries[i], doc)) << queries[i];
  }
}

TEST(FilterEngineTest, DormantTailsReceiveNoEvents) {
  // The tail for //z[b]/c can never engage: no <z> in the document.
  const std::string doc = "<a><b/><b/><c/></a>";
  const FilterEngine* engine = nullptr;
  RunFilter({"//b", "//z/y[b]/c"}, doc, &engine);
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->runtime_stats().peak_engaged_tails, 0u);
  EXPECT_GT(engine->runtime_stats().start_events, 0u);
}

TEST(FilterEngineTest, ChunkedFeedingAndReset) {
  const std::string doc = "<a><b/><c><d/></c></a>";
  VectorMultiQuerySink sink;
  auto engine = FilterEngine::Create({"//b", "//c[d]"}, &sink);
  ASSERT_TRUE(engine.ok());
  for (char ch : doc) {
    ASSERT_TRUE(engine.value()->Consume({std::string_view(&ch, 1), false}).ok());
  }
  ASSERT_TRUE(engine.value()->Consume({std::string_view(), true}).ok());
  EXPECT_EQ(engine.value()->total_results(), 2u);
  engine.value()->Reset();
  EXPECT_EQ(engine.value()->total_results(), 0u);
  ASSERT_TRUE(engine.value()->Consume({doc, false}).ok());
  ASSERT_TRUE(engine.value()->Consume({std::string_view(), true}).ok());
  EXPECT_EQ(engine.value()->total_results(), 2u);
  EXPECT_EQ(sink.items().size(), 4u);
}

TEST(FilterEngineTest, BadQueryNamesItsIndex) {
  VectorMultiQuerySink sink;
  auto engine = FilterEngine::Create({"//a", "b[", "//c"}, &sink);
  ASSERT_FALSE(engine.ok());
  EXPECT_NE(engine.status().message().find("query #1"), std::string::npos);
}

TEST(FilterEngineTest, EmptySetAndNullSinkRejected) {
  VectorMultiQuerySink sink;
  EXPECT_FALSE(FilterEngine::Create({}, &sink).ok());
  EXPECT_FALSE(FilterEngine::Create({"//a"}, nullptr).ok());
}

// ---------- randomized differential testing ----------

struct DocParams {
  int max_depth = 6;
  int max_children = 4;
};

void EmitRandomElement(Rng* rng, const DocParams& params, int depth,
                       xml::XmlWriter* w) {
  static const char* kTags[] = {"a", "b", "c", "d", "e"};
  static const char* kAttrs[] = {"x", "y"};
  static const char* kTexts[] = {"u", "v", "w", "10", "3"};
  w->Open(depth == 1 ? "a" : kTags[rng->Below(5)]);
  if (rng->Chance(0.3)) w->Attr(kAttrs[rng->Below(2)], kTexts[rng->Below(5)]);
  if (rng->Chance(0.3)) w->Text(kTexts[rng->Below(5)]);
  if (depth < params.max_depth) {
    const int children = static_cast<int>(
        rng->Below(static_cast<uint64_t>(params.max_children) + 1));
    for (int i = 0; i < children; ++i) {
      EmitRandomElement(rng, params, depth + 1, w);
    }
  }
  w->Close();
}

std::string RandomDocument(Rng* rng) {
  xml::XmlWriter w(/*with_declaration=*/false);
  EmitRandomElement(rng, DocParams(), 1, &w);
  return std::move(w).TakeString();
}

std::string RandomName(Rng* rng) {
  static const char* kTags[] = {"a", "b", "c", "d", "e"};
  return kTags[rng->Below(5)];
}

std::string RandomStep(Rng* rng, bool allow_predicates) {
  std::string out = rng->Chance(0.15) ? "*" : RandomName(rng);
  if (allow_predicates) {
    while (rng->Chance(0.3)) {
      if (rng->Chance(0.25)) {
        out += rng->Chance(0.5) ? "[@x]" : "[@y=\"u\"]";
      } else if (rng->Chance(0.25)) {
        out += "[" + RandomName(rng) + "=\"" +
               std::string(rng->Chance(0.5) ? "u" : "10") + "\"]";
      } else {
        out += "[";
        out += rng->Chance(0.3) ? "//" : "";
        out += RandomName(rng);
        if (rng->Chance(0.4)) out += "/" + RandomName(rng);
        out += "]";
      }
    }
  }
  return out;
}

std::string RandomQuery(Rng* rng) {
  // ~60% linear queries: the filtering workload is linear-dominant, and
  // this exercises both the fully-shared path and the tail demux.
  const bool allow_predicates = rng->Chance(0.4);
  const int steps = 1 + static_cast<int>(rng->Below(3));
  std::string out;
  for (int i = 0; i < steps; ++i) {
    out += rng->Chance(0.4) ? "//" : "/";
    out += RandomStep(rng, allow_predicates);
  }
  return out;
}

// Acceptance criterion: for ≥50 seeded (query set, document) pairs, the
// filter engine emits exactly the same (query_index, id) set as both
// MultiQueryProcessor and N independent XPathStreamProcessor runs.
TEST(FilterEngineDifferentialTest, MatchesIndependentProcessorsAndProduct) {
  Rng rng(0xF117E6);
  int nonempty = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const std::string doc = RandomDocument(&rng);
    std::vector<std::string> queries;
    const int count = 8 + static_cast<int>(rng.Below(8));
    for (int q = 0; q < count; ++q) {
      // Re-use earlier queries sometimes: duplicates must keep working.
      if (!queries.empty() && rng.Chance(0.2)) {
        queries.push_back(queries[rng.Below(queries.size())]);
      } else {
        queries.push_back(RandomQuery(&rng));
      }
    }
    // Every set also holds one child-only query whose predicate tail
    // anchors below a '/'-only trunk (the paper's XP{/,[]} class).
    static const char* const kChildOnly[] = {
        "/a/b[c]", "/a/b/c[d]/e", "/a/d[b][c]", "/a/c[@x]/d", "/a/b[c/d][e]"};
    queries.push_back(kChildOnly[trial % 5]);

    const auto filtered = RunFilter(queries, doc);

    // N independent single-query streaming runs.
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(filtered[i], SingleQuery(queries[i], doc))
          << "trial " << trial << " query " << queries[i] << "\ndoc " << doc;
      if (!filtered[i].empty()) ++nonempty;
    }

    // The product construction.
    VectorMultiQuerySink product_sink;
    auto product =
        baselines::MultiQueryProcessor::Create(queries, &product_sink);
    ASSERT_TRUE(product.ok()) << product.status().ToString();
    ASSERT_TRUE(product.value()->Consume({doc, false}).ok());
    ASSERT_TRUE(product.value()->Consume({std::string_view(), true}).ok());
    std::vector<std::vector<xml::NodeId>> expected(queries.size());
    for (const auto& item : product_sink.items()) {
      expected[item.query_index].push_back(item.id);
    }
    for (auto& ids : expected) std::sort(ids.begin(), ids.end());
    ASSERT_EQ(filtered, expected) << "trial " << trial << "\ndoc " << doc;
  }
  // The generators must actually exercise matching queries.
  EXPECT_GT(nonempty, 100);
}

// An engine is not thread-*safe*, but it is thread-*agnostic*: Reset() and
// re-Feed must work from a different thread than the one that constructed
// it (the serve/ shard workers rely on this — engines are built on the
// control thread and run on workers).
TEST(FilterEngineTest, ResetAndFeedFromDifferentThreads) {
  const std::vector<std::string> queries = {"//a/b", "//b[d]", "//a//d"};
  const std::string doc = "<a><b><d/></b><b/><d/></a>";
  VectorMultiQuerySink sink;
  auto engine = FilterEngine::Create(queries, &sink);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  auto run_on_thread = [&engine, &doc] {
    std::thread t([&engine, &doc] {
      ASSERT_TRUE(engine.value()->Consume({doc, false}).ok());
      ASSERT_TRUE(engine.value()->Consume({std::string_view(), true}).ok());
      engine.value()->Reset();
    });
    t.join();
  };
  run_on_thread();  // thread A
  const std::vector<VectorMultiQuerySink::Item> first = sink.items();
  EXPECT_FALSE(first.empty());
  run_on_thread();  // thread B, after A's Reset
  ASSERT_EQ(sink.items().size(), first.size() * 2);
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(sink.items()[first.size() + i].query_index,
              first[i].query_index);
    EXPECT_EQ(sink.items()[first.size() + i].id, first[i].id);
  }
}

// Results are emitted exactly once per (query, id) pair.
TEST(FilterEngineDifferentialTest, NoDuplicateEmissions) {
  Rng rng(0xD0D0);
  for (int trial = 0; trial < 50; ++trial) {
    const std::string doc = RandomDocument(&rng);
    std::vector<std::string> queries;
    for (int q = 0; q < 6; ++q) queries.push_back(RandomQuery(&rng));
    VectorMultiQuerySink sink;
    auto engine = FilterEngine::Create(queries, &sink);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE(engine.value()->Consume({doc, false}).ok());
    ASSERT_TRUE(engine.value()->Consume({std::string_view(), true}).ok());
    std::vector<std::pair<size_t, xml::NodeId>> pairs;
    for (const auto& item : sink.items()) {
      pairs.emplace_back(item.query_index, item.id);
    }
    std::sort(pairs.begin(), pairs.end());
    EXPECT_EQ(std::adjacent_find(pairs.begin(), pairs.end()), pairs.end())
        << "duplicate emission, trial " << trial << "\ndoc " << doc;
  }
}

// --- Built with a DTD ------------------------------------------------------

// The Book DTD plus the synthetic <collection> wrapper the generator uses,
// so multi-book documents are valid w.r.t. the analyzed DTD.
const DtdStructure& CollectionBookStructure() {
  static const DtdStructure* structure = [] {
    Result<dtd::Dtd> dtd = dtd::ParseDtd(
        std::string("<!ELEMENT collection (book*)>\n") + data::kBookDtd);
    EXPECT_TRUE(dtd.ok()) << dtd.status().ToString();
    Result<DtdStructure> built = DtdStructure::Build(dtd.value());
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return new DtdStructure(std::move(built).value());
  }();
  return *structure;
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

std::vector<std::vector<xml::NodeId>> RunProduct(
    const std::vector<std::string>& queries, const std::string& doc) {
  VectorMultiQuerySink sink;
  auto proc = baselines::MultiQueryProcessor::Create(queries, &sink);
  EXPECT_TRUE(proc.ok()) << proc.status().ToString();
  EXPECT_TRUE(proc.value()->Consume({doc, false}).ok());
  EXPECT_TRUE(proc.value()->Consume({std::string_view(), true}).ok());
  return Collect(sink, queries.size());
}

std::vector<std::vector<xml::NodeId>> RunWithDtd(
    const std::vector<std::string>& queries, const std::string& doc,
    const DtdStructure& dtd, EarlyDecisionMode mode,
    filter::AnalysisStats* stats_out = nullptr) {
  VectorMultiQuerySink sink;
  core::EvaluatorOptions options;
  options.enable_early_decisions = mode;
  auto engine = FilterEngine::Create(queries, &sink, options, &dtd);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine.value()->query_count(), queries.size());
  EXPECT_TRUE(engine.value()->Consume({doc, false}).ok());
  EXPECT_TRUE(engine.value()->Consume({std::string_view(), true}).ok());
  if (stats_out != nullptr) *stats_out = engine.value()->analysis_stats();
  return Collect(sink, queries.size());
}

TEST(FilterEngineDtdTest, DifferentialOnRandomBooks) {
  // A workload exercising every analyzer pass: satisfiable queries of all
  // shapes, statically unsatisfiable ones, equivalent pairs, and redundant
  // branches.
  const std::vector<std::string> queries = {
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
  for (uint64_t seed : {1u, 7u, 23u}) {
    data::BookOptions book;
    book.seed = seed;
    book.number_levels = 8;
    book.max_repeats = 3;
    book.copies = 2;
    Result<std::string> doc = data::GenerateBook(book);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();

    const std::vector<std::vector<xml::NodeId>> expected =
        RunProduct(queries, doc.value());
    for (EarlyDecisionMode mode :
         {EarlyDecisionMode::kOff, EarlyDecisionMode::kOn}) {
      filter::AnalysisStats stats;
      EXPECT_EQ(RunWithDtd(queries, doc.value(), CollectionBookStructure(),
                           mode, &stats),
                expected)
          << "seed " << seed << " mode " << static_cast<int>(mode);
      EXPECT_EQ(stats.queries_unsatisfiable, 3u);
      EXPECT_GE(stats.queries_forwarded, 2u);  // equivalent pair + duplicate
      EXPECT_GE(stats.branches_minimized, 2u);
      EXPECT_EQ(stats.decision_facts > 0, mode == EarlyDecisionMode::kOn);
    }
  }
}

TEST(FilterEngineDtdTest, RandomDtdDocuments) {
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
        RunProduct(queries, doc.value());
    for (EarlyDecisionMode mode :
         {EarlyDecisionMode::kOff, EarlyDecisionMode::kOn}) {
      EXPECT_EQ(RunWithDtd(queries, doc.value(), structure.value(), mode),
                expected)
          << "seed " << seed << " mode " << static_cast<int>(mode);
    }
  }
}

TEST(FilterEngineDtdTest, AllQueriesPrunedStillParses) {
  // The DTD refutes both queries, so the trie is empty — but the document
  // is still parsed, and a malformed one still fails.
  VectorMultiQuerySink sink;
  const std::vector<std::string> queries = {"//section/book",
                                            "//title/author"};
  auto engine = FilterEngine::Create(queries, &sink, core::EvaluatorOptions(),
                                     &CollectionBookStructure());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine.value()->query_count(), 2u);
  EXPECT_EQ(engine.value()->analysis_stats().queries_pruned(), 2u);
  EXPECT_TRUE(engine.value()->index().nodes().empty());
  Status s =
      engine.value()->Consume({"<collection><book></collection>", false});
  if (s.ok()) s = engine.value()->Consume({std::string_view(), true});
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(sink.items().empty());
}

TEST(FilterEngineDtdTest, ResetSupportsReplay) {
  // A forwarded duplicate and an unsatisfiable query ride along: results
  // keep fanning out to the caller's indices across Reset.
  const std::vector<std::string> queries = {
      "//section/title", "//section[p]/title", "//section/title",
      "//title/author"};
  const std::string doc =
      "<collection><book><title/><author/><section id=\"s1\"><title/><p/>"
      "</section></book></collection>";
  VectorMultiQuerySink sink;
  auto engine = FilterEngine::Create(queries, &sink, core::EvaluatorOptions(),
                                     &CollectionBookStructure());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine.value()->analysis_stats().queries_forwarded, 1u);
  EXPECT_EQ(engine.value()->analysis_stats().queries_unsatisfiable, 1u);
  ASSERT_TRUE(engine.value()->Consume({doc, false}).ok());
  ASSERT_TRUE(engine.value()->Consume({std::string_view(), true}).ok());
  const std::vector<std::vector<xml::NodeId>> first =
      Collect(sink, queries.size());
  EXPECT_EQ(first, RunProduct(queries, doc));
  EXPECT_EQ(first[0], (std::vector<xml::NodeId>{6}));
  EXPECT_EQ(first[2], first[0]);
  EXPECT_TRUE(first[3].empty());

  engine.value()->Reset();
  ASSERT_TRUE(engine.value()->Consume({doc, false}).ok());
  ASSERT_TRUE(engine.value()->Consume({std::string_view(), true}).ok());
  EXPECT_EQ(sink.items().size(), 2 * (first[0].size() + first[1].size() +
                                      first[2].size()));
}

}  // namespace
}  // namespace twigm
