// Property-based differential tests: every engine must agree with the DOM
// oracle on randomly generated (recursive) documents and randomly generated
// queries from the fragments it supports. This is the strongest correctness
// evidence for TwigM's compact-encoding algorithm: the oracle is an
// independent implementation with random access, per the non-streaming
// engines of section 5.

#include <algorithm>
#include <string>
#include <vector>

#include "baselines/dom_eval.h"
#include "baselines/lazy_dfa.h"
#include "baselines/naive_enum.h"
#include "common/random.h"
#include "core/evaluator.h"
#include "gtest/gtest.h"
#include "xml/dom.h"
#include "xml/sax_parser.h"
#include "xml/xml_writer.h"

namespace twigm {
namespace {

using core::VectorResultSink;

// ---------- random document generation ----------

struct DocParams {
  int max_depth = 6;
  int max_children = 4;
  double attr_probability = 0.3;
  double text_probability = 0.3;
};

void EmitRandomElement(Rng* rng, const DocParams& params, int depth,
                       xml::XmlWriter* w) {
  static const char* kTags[] = {"a", "b", "c", "d", "e"};
  static const char* kAttrs[] = {"x", "y"};
  static const char* kTexts[] = {"u", "v", "w", "10", "3"};
  // The root is always <a> so anchored queries have a realistic hit rate.
  w->Open(depth == 1 ? "a" : kTags[rng->Below(5)]);
  if (rng->Chance(params.attr_probability)) {
    w->Attr(kAttrs[rng->Below(2)], kTexts[rng->Below(5)]);
  }
  if (rng->Chance(params.text_probability)) {
    w->Text(kTexts[rng->Below(5)]);
  }
  if (depth < params.max_depth) {
    const int children = static_cast<int>(
        rng->Below(static_cast<uint64_t>(params.max_children) + 1));
    for (int i = 0; i < children; ++i) {
      EmitRandomElement(rng, params, depth + 1, w);
    }
  }
  w->Close();
}

std::string RandomDocument(Rng* rng, const DocParams& params = DocParams()) {
  xml::XmlWriter w(/*with_declaration=*/false);
  EmitRandomElement(rng, params, 1, &w);
  return std::move(w).TakeString();
}

// ---------- random query generation ----------

std::string RandomName(Rng* rng) {
  static const char* kTags[] = {"a", "b", "c", "d", "e"};
  return kTags[rng->Below(5)];
}

// Fragment knobs.
struct QueryParams {
  bool allow_descendant = true;
  bool allow_wildcard = true;
  bool allow_predicates = true;
  bool allow_value_tests = true;
  int max_steps = 3;
  int max_pred_depth = 2;
};

std::string RandomSteps(Rng* rng, const QueryParams& params, int pred_depth,
                        bool first_is_anchored);

std::string RandomPredicate(Rng* rng, const QueryParams& params,
                            int pred_depth) {
  // Attribute test?
  if (rng->Chance(0.25)) {
    std::string out = "[@";
    out += rng->Chance(0.5) ? "x" : "y";
    if (params.allow_value_tests && rng->Chance(0.4)) {
      out += "=\"" + std::string(rng->Chance(0.5) ? "u" : "10") + "\"";
    }
    out += "]";
    return out;
  }
  std::string out = "[";
  out += RandomSteps(rng, params, pred_depth, /*first_is_anchored=*/false);
  if (params.allow_value_tests && rng->Chance(0.3)) {
    static const char* kOps[] = {"=", "!=", "<", ">="};
    out += kOps[rng->Below(4)];
    out += rng->Chance(0.5) ? "\"u\"" : "5";
  }
  out += "]";
  return out;
}

std::string RandomStep(Rng* rng, const QueryParams& params, int pred_depth) {
  std::string out;
  if (params.allow_wildcard && rng->Chance(0.15)) {
    out = "*";
  } else {
    out = RandomName(rng);
  }
  if (params.allow_predicates && pred_depth < params.max_pred_depth) {
    while (rng->Chance(0.3)) {
      out += RandomPredicate(rng, params, pred_depth + 1);
    }
  }
  return out;
}

std::string RandomSteps(Rng* rng, const QueryParams& params, int pred_depth,
                        bool first_is_anchored) {
  const int steps =
      1 + static_cast<int>(rng->Below(
              static_cast<uint64_t>(params.max_steps)));
  std::string out;
  for (int i = 0; i < steps; ++i) {
    const bool descendant =
        params.allow_descendant && rng->Chance(0.4);
    if (i == 0) {
      if (first_is_anchored) {
        out += descendant ? "//" : "/";
      } else if (descendant) {
        out += "//";
      }
    } else {
      out += descendant ? "//" : "/";
    }
    out += RandomStep(rng, params, pred_depth);
  }
  return out;
}

std::string RandomQuery(Rng* rng, const QueryParams& params) {
  return RandomSteps(rng, params, 0, /*first_is_anchored=*/true);
}

// ---------- engines under test ----------

std::vector<xml::NodeId> OracleEval(const xpath::QueryTree& query,
                                    std::string_view doc) {
  Result<std::vector<xml::NodeId>> result =
      baselines::EvaluateOnDom(query, doc);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result).value()
                     : std::vector<xml::NodeId>{};
}

std::vector<xml::NodeId> StreamEval(std::string_view query,
                                    std::string_view doc, bool prune) {
  core::EvaluatorOptions options;
  options.twig.prune_static_failures = prune;
  Result<std::vector<xml::NodeId>> result =
      core::EvaluateToIds(query, doc, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  std::vector<xml::NodeId> ids =
      result.ok() ? std::move(result).value() : std::vector<xml::NodeId>{};
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<xml::NodeId> LazyDfaEval(const xpath::QueryTree& query,
                                     std::string_view doc) {
  VectorResultSink sink;
  Result<std::unique_ptr<baselines::LazyDfaEngine>> engine =
      baselines::LazyDfaEngine::Create(query, &sink);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  if (!engine.ok()) return {};
  xml::SaxParser parser(engine.value().get());
  EXPECT_TRUE(parser.ParseAll(doc).ok());
  std::vector<xml::NodeId> ids = sink.TakeIds();
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<xml::NodeId> NaiveEval(const xpath::QueryTree& query,
                                   std::string_view doc) {
  VectorResultSink sink;
  Result<std::unique_ptr<baselines::NaiveEnumEngine>> engine =
      baselines::NaiveEnumEngine::Create(query, &sink);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  if (!engine.ok()) return {};
  xml::SaxParser parser(engine.value().get());
  EXPECT_TRUE(parser.ParseAll(doc).ok());
  EXPECT_TRUE(engine.value()->status().ok())
      << engine.value()->status().ToString();
  std::vector<xml::NodeId> ids = sink.TakeIds();
  std::sort(ids.begin(), ids.end());
  return ids;
}

// ---------- the properties ----------

TEST(DifferentialTest, TwigMMatchesOracleOnFullFragment) {
  Rng rng(0xD1FF);
  QueryParams params;  // full XP{/,//,*,[]} + value tests
  int nonempty = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::string doc = RandomDocument(&rng);
    const std::string query = RandomQuery(&rng, params);
    Result<xpath::QueryTree> tree = xpath::QueryTree::Parse(query);
    ASSERT_TRUE(tree.ok()) << query << ": " << tree.status().ToString();
    const std::vector<xml::NodeId> expected = OracleEval(tree.value(), doc);
    const std::vector<xml::NodeId> twig =
        StreamEval(query, doc, /*prune=*/true);
    ASSERT_EQ(twig, expected) << "query " << query << "\ndoc " << doc;
    const std::vector<xml::NodeId> twig_noprune =
        StreamEval(query, doc, /*prune=*/false);
    ASSERT_EQ(twig_noprune, expected) << "query " << query << "\ndoc " << doc;
    if (!expected.empty()) ++nonempty;
  }
  // The generators must actually exercise matching queries.
  EXPECT_GT(nonempty, 50);
}

TEST(DifferentialTest, PathMAndLazyDfaMatchOracleOnLinearFragment) {
  Rng rng(0xA11CE);
  QueryParams params;
  params.allow_predicates = false;
  params.allow_value_tests = false;
  int nonempty = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::string doc = RandomDocument(&rng);
    const std::string query = RandomQuery(&rng, params);
    Result<xpath::QueryTree> tree = xpath::QueryTree::Parse(query);
    ASSERT_TRUE(tree.ok()) << query;
    const std::vector<xml::NodeId> expected = OracleEval(tree.value(), doc);
    // TwigM runs these predicate-free, emitting at startElement.
    ASSERT_EQ(StreamEval(query, doc, true), expected)
        << "TwigM, query " << query << "\ndoc " << doc;
    ASSERT_EQ(LazyDfaEval(tree.value(), doc), expected)
        << "LazyDfa, query " << query << "\ndoc " << doc;
    if (!expected.empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, 50);
}

// XP{/,[]}, the query class of the paper's BranchM (section 3.2). TwigM
// evaluates it; its linear queries run predicate-free, the rest decide at
// endElement, so both emission paths are checked.
TEST(DifferentialTest, BranchMMatchesOracleOnChildOnlyFragment) {
  Rng rng(0xB0B);
  QueryParams params;
  params.allow_descendant = false;
  params.allow_wildcard = false;
  params.max_steps = 2;
  int nonempty = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::string doc = RandomDocument(&rng);
    // Anchor at the (fixed) root tag so a useful fraction of the child-only
    // queries actually matches something.
    const std::string query =
        "/a/" + RandomSteps(&rng, params, 0, /*first_is_anchored=*/false);
    Result<xpath::QueryTree> tree = xpath::QueryTree::Parse(query);
    ASSERT_TRUE(tree.ok()) << query;
    const std::vector<xml::NodeId> expected = OracleEval(tree.value(), doc);
    ASSERT_EQ(StreamEval(query, doc, true), expected)
        << "TwigM, query " << query << "\ndoc " << doc;
    if (!expected.empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, 40);
}

TEST(DifferentialTest, NaiveEnumMatchesOracleOnStructuralFragment) {
  Rng rng(0xE2E);
  QueryParams params;
  params.allow_value_tests = false;  // XSQ-style restriction
  params.max_steps = 2;              // keep enumeration tractable
  params.max_pred_depth = 1;
  DocParams doc_params;
  doc_params.max_depth = 5;
  doc_params.max_children = 3;
  int nonempty = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::string doc = RandomDocument(&rng, doc_params);
    const std::string query = RandomQuery(&rng, params);
    Result<xpath::QueryTree> tree = xpath::QueryTree::Parse(query);
    ASSERT_TRUE(tree.ok()) << query;
    const std::vector<xml::NodeId> expected = OracleEval(tree.value(), doc);
    ASSERT_EQ(NaiveEval(tree.value(), doc), expected)
        << "NaiveEnum, query " << query << "\ndoc " << doc;
    if (!expected.empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, 40);
}

TEST(DifferentialTest, ResultsNeverContainDuplicates) {
  Rng rng(0xD0B);
  QueryParams params;
  for (int trial = 0; trial < 200; ++trial) {
    const std::string doc = RandomDocument(&rng);
    const std::string query = RandomQuery(&rng, params);
    Result<std::vector<xml::NodeId>> result = core::EvaluateToIds(query, doc);
    ASSERT_TRUE(result.ok());
    std::vector<xml::NodeId> ids = result.value();
    std::sort(ids.begin(), ids.end());
    const auto unique_end = std::unique(ids.begin(), ids.end());
    EXPECT_EQ(unique_end, ids.end())
        << "duplicate results for " << query << " on " << doc;
  }
}

}  // namespace
}  // namespace twigm
