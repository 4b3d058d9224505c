// Differential tests for earliest query answering (DESIGN.md §13).
//
// The contracts under test, over ~100 DTD-constrained generated documents:
//
//   * kObserve is *byte-exact* to kOff — it measures the emission gap
//     without perturbing results, offsets, or emission order;
//   * kOn emits the same (id) result multiset as kOff, never later
//     (per-result byte offsets can only shrink), and agrees with the
//     DomEvaluator oracle;
//   * with a DTD the documents cannot be trusted to follow (absent /
//     partial / contradicting), the null decision table leaves the engine
//     exact on any well-formed document — no static proofs, and the
//     dynamic certainty cascade alone stays sound;
//   * the shared-prefix FilterEngine built with the DTD (decision tables
//     installed) agrees per query with the unanalyzed product-construction
//     baseline (baselines::MultiQueryProcessor).

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/decision_analysis.h"
#include "analysis/dtd_structure.h"
#include "baselines/dom_eval.h"
#include "baselines/multi_query_processor.h"
#include "core/evaluator.h"
#include "data/book.h"
#include "dtd/dtd_generator.h"
#include "dtd/dtd_parser.h"
#include "filter/filter_engine.h"
#include "gtest/gtest.h"
#include "xpath/query_tree.h"

namespace twigm {
namespace {

using core::EarlyDecisionMode;
using core::MatchInfo;

// Predicate-heavy Book queries: every class of static fact fires on at
// least one of them (implied branches, attribute tests, value tests,
// useless-subtree pruning, wildcard binding). The last one is child-only
// (the paper's XP{/,[]} class): a '/' trunk with a predicate tail.
const char* const kQueries[] = {
    "//section[title]/figure",
    "//section[@id]//figure",
    "//figure[image]/title",
    "//section[title=\"data\"]//image",
    "//*[title][figure[image]]//p",
    "//section[figure[image]][@id]//section[p]/title",
    "//book[author]//section[title]",
    "//section[p][figure]/title",
    "/book/section[figure]/section[title]/p",
};

std::string BookDtdText() {
  return std::string("<!ELEMENT collection (book*)>\n") + data::kBookDtd;
}

const dtd::Dtd& BookDtd() {
  static const dtd::Dtd* dtd = [] {
    auto parsed = dtd::ParseDtd(BookDtdText());
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    return new dtd::Dtd(std::move(parsed).value());
  }();
  return *dtd;
}

const analysis::DtdStructure& BookStructure() {
  static const analysis::DtdStructure* dtds = [] {
    auto built = analysis::DtdStructure::Build(BookDtd());
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return new analysis::DtdStructure(std::move(built).value());
  }();
  return *dtds;
}

// One small DTD-valid Book document per seed; depth/density vary with the
// seed so the corpus covers shallow, deep, sparse, and bushy shapes.
std::string GeneratedDoc(uint64_t seed, const char* root = "book") {
  dtd::GeneratorOptions options;
  options.seed = seed;
  options.number_levels = 6 + static_cast<int>(seed % 7);
  options.max_repeats = 3;
  options.optional_probability = 0.4 + 0.1 * static_cast<double>(seed % 5);
  auto doc = dtd::GenerateDocument(BookDtd(), root, options);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return doc.ok() ? std::move(doc).value() : std::string();
}

// Streams `doc` through one single-query processor in `mode`; `dtds`
// (when given) installs its compiled decision table, which `drop_table`
// then replaces with the null table — the route for a DTD the documents
// cannot be trusted to follow.
std::vector<MatchInfo> RunStream(const std::string& query, std::string_view doc,
                           const analysis::DtdStructure* dtds,
                           EarlyDecisionMode mode, bool drop_table = false) {
  core::VectorResultSink sink;
  core::EvaluatorOptions options;
  options.enable_early_decisions = mode;
  auto proc = core::XPathStreamProcessor::Create(query, &sink, options);
  EXPECT_TRUE(proc.ok()) << query << ": " << proc.status().ToString();
  if (!proc.ok()) return {};
  if (dtds != nullptr && mode != EarlyDecisionMode::kOff) {
    analysis::EnableEarlyDecisions(proc.value().get(), *dtds);
    if (drop_table) proc.value()->InstallDecisionTable(nullptr);
  }
  // Two chunks: early emission must be insensitive to chunk boundaries.
  const size_t half = doc.size() / 2;
  EXPECT_TRUE(proc.value()->Consume({doc.substr(0, half), false}).ok());
  EXPECT_TRUE(proc.value()->Consume({doc.substr(half), false}).ok());
  EXPECT_TRUE(proc.value()->Consume({std::string_view(), true}).ok());
  return sink.matches();
}

std::vector<xml::NodeId> SortedIds(const std::vector<MatchInfo>& matches) {
  std::vector<xml::NodeId> ids;
  ids.reserve(matches.size());
  for (const MatchInfo& m : matches) ids.push_back(m.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

// kOn may only move a result's emission *earlier*; ids are unique per
// document (one emission per node per epoch), so pairing by id is exact.
void ExpectSameIdsNeverLater(const std::vector<MatchInfo>& off,
                             const std::vector<MatchInfo>& on,
                             const std::string& label) {
  ASSERT_EQ(SortedIds(off), SortedIds(on)) << label;
  std::map<xml::NodeId, uint64_t> off_offset;
  for (const MatchInfo& m : off) off_offset[m.id] = m.byte_offset;
  for (const MatchInfo& m : on) {
    EXPECT_LE(m.byte_offset, off_offset[m.id])
        << label << " id " << m.id << " emitted later under kOn";
  }
}

constexpr uint64_t kCorpusSeeds = 100;

TEST(EarlyDecisionDifferential, ObserveIsByteExactAndOnAgreesWithDom) {
  const analysis::DtdStructure& dtds = BookStructure();
  for (uint64_t seed = 1; seed <= kCorpusSeeds; ++seed) {
    const std::string doc = GeneratedDoc(seed);
    ASSERT_FALSE(doc.empty());
    for (const char* query : kQueries) {
      const std::string label =
          std::string(query) + " seed " + std::to_string(seed);
      const std::vector<MatchInfo> off =
          RunStream(query, doc, nullptr, EarlyDecisionMode::kOff);
      const std::vector<MatchInfo> observe =
          RunStream(query, doc, &dtds, EarlyDecisionMode::kObserve);
      // Observe mode must not perturb anything: same results, same
      // emission order, same byte offsets.
      ASSERT_EQ(off.size(), observe.size()) << label;
      for (size_t i = 0; i < off.size(); ++i) {
        EXPECT_EQ(off[i].id, observe[i].id) << label << " result " << i;
        EXPECT_EQ(off[i].byte_offset, observe[i].byte_offset)
            << label << " result " << i;
      }

      const std::vector<MatchInfo> on =
          RunStream(query, doc, &dtds, EarlyDecisionMode::kOn);
      ExpectSameIdsNeverLater(off, on, label);

      // All three modes agree with the DOM oracle.
      auto tree = xpath::QueryTree::Parse(query);
      ASSERT_TRUE(tree.ok()) << label;
      auto oracle = baselines::EvaluateOnDom(tree.value(), doc);
      ASSERT_TRUE(oracle.ok()) << label << ": "
                               << oracle.status().ToString();
      std::vector<xml::NodeId> expected = std::move(oracle).value();
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(expected, SortedIds(off)) << label;
      EXPECT_EQ(expected, SortedIds(on)) << label;
    }
  }
}

TEST(EarlyDecisionDifferential, AdversarialDtdsStayExact) {
  // Documents are valid for the *Book* DTD; the adversarial DTDs describe
  // something else entirely. Replacing their tables with the null table
  // must leave only the (input-agnostic) dynamic certainty cascade.
  const char* const kAdversarialDtds[] = {
      // Partial: most elements undeclared.
      "<!ELEMENT figure (title, image)>\n"
      "<!ELEMENT title (#PCDATA)>\n"
      "<!ELEMENT image EMPTY>\n",
      // Contradicting: models disagree with the documents (section demands
      // figure, forbids title; book forbids sections entirely).
      "<!ELEMENT book (title)>\n"
      "<!ELEMENT title (#PCDATA)>\n"
      "<!ELEMENT section (figure+)>\n"
      "<!ELEMENT figure EMPTY>\n"
      "<!ELEMENT p (#PCDATA)>\n"
      "<!ELEMENT author (#PCDATA)>\n"
      "<!ELEMENT image EMPTY>\n",
  };
  std::vector<analysis::DtdStructure> structures;
  for (const char* text : kAdversarialDtds) {
    auto parsed = dtd::ParseDtd(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    auto built = analysis::DtdStructure::Build(parsed.value());
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    structures.push_back(std::move(built).value());
  }

  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const std::string doc = GeneratedDoc(seed);
    for (const char* query : kQueries) {
      const std::string label =
          std::string(query) + " seed " + std::to_string(seed);
      const std::vector<MatchInfo> off =
          RunStream(query, doc, nullptr, EarlyDecisionMode::kOff);
      // Absent: kOn with no table installed at all.
      ExpectSameIdsNeverLater(
          off, RunStream(query, doc, nullptr, EarlyDecisionMode::kOn),
          label + " [absent]");
      for (size_t d = 0; d < structures.size(); ++d) {
        const std::string which =
            label + (d == 0 ? " [partial]" : " [contradicting]");
        ExpectSameIdsNeverLater(
            off,
            RunStream(query, doc, &structures[d], EarlyDecisionMode::kOn,
                      /*drop_table=*/true),
            which);
        // Observe with the null table stays byte-exact too.
        const std::vector<MatchInfo> observe =
            RunStream(query, doc, &structures[d], EarlyDecisionMode::kObserve,
                      /*drop_table=*/true);
        ASSERT_EQ(off.size(), observe.size()) << which;
        for (size_t i = 0; i < off.size(); ++i) {
          EXPECT_EQ(off[i].byte_offset, observe[i].byte_offset) << which;
        }
      }
    }
  }
}

class PerQuerySink : public core::MultiQueryResultSink {
 public:
  void OnResult(size_t query_index, const MatchInfo& match) override {
    ids_[query_index].push_back(match.id);
  }
  std::vector<xml::NodeId> Sorted(size_t query_index) const {
    auto it = ids_.find(query_index);
    std::vector<xml::NodeId> ids =
        it != ids_.end() ? it->second : std::vector<xml::NodeId>{};
    std::sort(ids.begin(), ids.end());
    return ids;
  }

 private:
  std::map<size_t, std::vector<xml::NodeId>> ids_;
};

TEST(EarlyDecisionDifferential, FilterEngineMatchesProduct) {
  // The shared-prefix trie backend with trie-usefulness skips and
  // tail-machine decision tables must agree per query with the unanalyzed
  // product construction — including on queries the tables refute outright.
  std::vector<std::string> queries(kQueries, kQueries + 8);
  queries.push_back("//section/book");              // refuted: no such child
  queries.push_back("//figure[p]/title");           // refuted predicate
  queries.push_back("//section[title][title]");     // duplicate obligation
  queries.push_back("//book[author][author]//p");   // implied duplicate
  queries.push_back("//figure/image");
  queries.push_back("//book/title");
  // Child-only trunk /collection/book anchoring a predicate tail.
  queries.push_back("/collection/book/section[figure]/title");

  const analysis::DtdStructure& dtds = BookStructure();
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    // The analyzer's level bounds assume the DTD's document root, so these
    // documents start at <collection> (0–2 books each at max_repeats 2).
    const std::string doc = GeneratedDoc(seed, "collection");

    PerQuerySink base_sink;
    auto base = baselines::MultiQueryProcessor::Create(queries, &base_sink);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    ASSERT_TRUE(base.value()->Consume({doc, false}).ok());
    ASSERT_TRUE(base.value()->Consume({std::string_view(), true}).ok());

    core::EvaluatorOptions options;
    options.enable_early_decisions = EarlyDecisionMode::kOn;
    PerQuerySink early_sink;
    auto early =
        filter::FilterEngine::Create(queries, &early_sink, options, &dtds);
    ASSERT_TRUE(early.ok()) << early.status().ToString();
    EXPECT_GT(early.value()->analysis_stats().decision_facts, 0u);
    ASSERT_TRUE(early.value()->Consume({doc, false}).ok());
    ASSERT_TRUE(early.value()->Consume({std::string_view(), true}).ok());

    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(base_sink.Sorted(q), early_sink.Sorted(q))
          << queries[q] << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace twigm
