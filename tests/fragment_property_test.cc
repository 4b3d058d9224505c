// Property tests tying fragment mode to id mode: on random documents and
// queries, the fragment stream must carry exactly the id results, each
// fragment must reparse, and its root tag / subtree size must match the
// result node in the original document. Also: random query strings must
// never crash the front end.

#include <algorithm>
#include <map>
#include <string>

#include "common/random.h"
#include "core/evaluator.h"
#include "filter/union_query.h"
#include "gtest/gtest.h"
#include "xml/dom.h"
#include "xml/xml_writer.h"
#include "xpath/query_tree.h"

namespace twigm {
namespace {

// --- reuse small generators (independent of differential_test's) ---

void EmitRandom(Rng* rng, int depth, xml::XmlWriter* w) {
  static const char* kTags[] = {"a", "b", "c"};
  w->Open(depth == 1 ? "a" : kTags[rng->Below(3)]);
  if (rng->Chance(0.25)) w->Attr("x", "1");
  if (rng->Chance(0.25)) w->Text("t");
  if (depth < 5) {
    const int children = static_cast<int>(rng->Below(4));
    for (int i = 0; i < children; ++i) EmitRandom(rng, depth + 1, w);
  }
  w->Close();
}

std::string RandomDoc(Rng* rng) {
  xml::XmlWriter w(false);
  EmitRandom(rng, 1, &w);
  return std::move(w).TakeString();
}

std::string RandomQuery(Rng* rng) {
  static const char* kSteps[] = {"a", "b", "c", "*"};
  std::string q;
  const int steps = 1 + static_cast<int>(rng->Below(3));
  for (int i = 0; i < steps; ++i) {
    q += rng->Chance(0.5) ? "//" : "/";
    if (i == 0) q = "//";  // keep it anchored but permissive
    q += kSteps[rng->Below(4)];
    if (rng->Chance(0.3)) {
      q += "[";
      q += kSteps[rng->Below(3)];
      q += "]";
    }
    if (rng->Chance(0.15)) q += "[@x]";
  }
  return q;
}

// Counts elements in a subtree of the original document.
size_t SubtreeSize(const xml::DomNode* node) {
  size_t total = 1;
  for (const xml::DomNode* c : node->children) total += SubtreeSize(c);
  return total;
}

TEST(FragmentPropertyTest, FragmentsMatchIdResults) {
  Rng rng(0xF7A6);
  for (int trial = 0; trial < 250; ++trial) {
    const std::string doc = RandomDoc(&rng);
    const std::string query = RandomQuery(&rng);

    core::VectorFragmentSink fragments;
    auto proc = core::XPathStreamProcessor::Create(query, &fragments);
    ASSERT_TRUE(proc.ok()) << query;
    ASSERT_TRUE(proc.value()->Consume({doc, false}).ok());
    ASSERT_TRUE(proc.value()->Consume({std::string_view(), true}).ok());

    // One fragment per id result, same multiset of ids.
    ASSERT_EQ(fragments.items().size(), fragments.ids().size()) << query;
    std::vector<xml::NodeId> frag_ids;
    for (const auto& item : fragments.items()) frag_ids.push_back(item.id);
    std::vector<xml::NodeId> result_ids = fragments.ids();
    std::sort(frag_ids.begin(), frag_ids.end());
    std::sort(result_ids.begin(), result_ids.end());
    EXPECT_EQ(frag_ids, result_ids) << query;

    // Each fragment reparses and structurally matches the original node.
    Result<xml::DomDocument> original = xml::DomDocument::Parse(doc);
    ASSERT_TRUE(original.ok());
    std::map<xml::NodeId, const xml::DomNode*> by_id;
    for (const xml::DomNode& n : original.value().nodes()) {
      by_id[n.id] = &n;
    }
    for (const auto& item : fragments.items()) {
      Result<xml::DomDocument> reparsed =
          xml::DomDocument::Parse(item.xml);
      ASSERT_TRUE(reparsed.ok())
          << "fragment does not reparse: " << item.xml;
      const xml::DomNode* node = by_id.at(item.id);
      EXPECT_EQ(reparsed.value().root()->tag, node->tag) << query;
      EXPECT_EQ(reparsed.value().size(), SubtreeSize(node)) << query;
      EXPECT_EQ(reparsed.value().root()->text, node->text) << query;
    }
  }
}

TEST(FragmentPropertyTest, UnionAgreesWithBranchUnion) {
  Rng rng(0x0111);
  for (int trial = 0; trial < 150; ++trial) {
    const std::string doc = RandomDoc(&rng);
    const std::string q1 = RandomQuery(&rng);
    const std::string q2 = RandomQuery(&rng);

    core::VectorResultSink sink;
    auto proc = filter::UnionQueryProcessor::Create(q1 + " | " + q2, &sink);
    ASSERT_TRUE(proc.ok()) << q1 << " | " << q2;
    ASSERT_TRUE(proc.value()->Consume({doc, false}).ok());
    ASSERT_TRUE(proc.value()->Consume({std::string_view(), true}).ok());
    std::vector<xml::NodeId> got = sink.TakeIds();
    std::sort(got.begin(), got.end());

    Result<std::vector<xml::NodeId>> r1 = core::EvaluateToIds(q1, doc);
    Result<std::vector<xml::NodeId>> r2 = core::EvaluateToIds(q2, doc);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    std::vector<xml::NodeId> expected = r1.value();
    expected.insert(expected.end(), r2.value().begin(), r2.value().end());
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    EXPECT_EQ(got, expected) << q1 << " | " << q2;
  }
}

TEST(QueryFuzzTest, RandomQueryStringsNeverCrash) {
  Rng rng(0xFA22);
  static const char* kPieces[] = {"/",  "//", "a",  "b",   "*",   "[",
                                  "]",  "@",  "=",  "\"v\"", "'w'", "<",
                                  ">=", ".",  "|",  "5",   " ",   "!="};
  int parsed_ok = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    std::string query;
    const int len = 1 + static_cast<int>(rng.Below(10));
    for (int i = 0; i < len; ++i) {
      query += kPieces[rng.Below(18)];
    }
    Result<xpath::QueryTree> tree = xpath::QueryTree::Parse(query);
    if (tree.ok()) {
      ++parsed_ok;
      // Anything that parses must also compile to a machine and run.
      core::VectorResultSink sink;
      auto proc = core::XPathStreamProcessor::Create(query, &sink);
      if (proc.ok()) {
        EXPECT_TRUE(proc.value()->Consume({"<a><b x=\"1\">t</b></a>", false}).ok());
        EXPECT_TRUE(proc.value()->Consume({std::string_view(), true}).ok());
      }
    } else {
      EXPECT_FALSE(tree.status().message().empty());
    }
  }
  // The generator should produce at least a few valid queries.
  EXPECT_GT(parsed_ok, 5);
}

}  // namespace
}  // namespace twigm
