#include "xpath/query_tree.h"

#include <string>

#include "core/machine_builder.h"
#include "gtest/gtest.h"
#include "xpath/parser.h"

namespace twigm {
namespace {

using xpath::Axis;
using xpath::QueryNode;
using xpath::QueryTree;

QueryTree MustParse(std::string_view query) {
  Result<QueryTree> result = QueryTree::Parse(query);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

// A query whose deepest step chain is `depth` steps long, built by
// nesting predicates ("//a[b[b...]]") or by chaining steps ("//a/a/...").
std::string NestedQuery(int depth) {
  std::string q = "//a";
  for (int i = 1; i < depth; ++i) q += "[b";
  return q + std::string(static_cast<size_t>(depth - 1), ']');
}
std::string ChainQuery(int depth) {
  std::string q = "//a";
  for (int i = 1; i < depth; ++i) q += "/a";
  return q;
}

TEST(QueryTreeTest, DepthCapIsAParseErrorNotACrash) {
  // The cap is checked on the flat token list before any recursive
  // descent, so 100000 levels come back as a ParseError naming the limit.
  EXPECT_TRUE(QueryTree::Parse(NestedQuery(xpath::kMaxQueryDepth)).ok());
  EXPECT_TRUE(QueryTree::Parse(ChainQuery(xpath::kMaxQueryDepth)).ok());
  for (int depth : {xpath::kMaxQueryDepth + 1, 100000}) {
    for (const std::string& query : {NestedQuery(depth), ChainQuery(depth)}) {
      Result<QueryTree> tree = QueryTree::Parse(query);
      ASSERT_FALSE(tree.ok()) << "depth " << depth;
      EXPECT_EQ(tree.status().code(), StatusCode::kParseError);
      EXPECT_NE(tree.status().message().find(
                    std::to_string(xpath::kMaxQueryDepth)),
                std::string::npos)
          << tree.status().ToString();
    }
  }
}

TEST(QueryTreeTest, LinearQueryShape) {
  QueryTree tree = MustParse("//a/b//c");
  ASSERT_NE(tree.root(), nullptr);
  EXPECT_EQ(tree.root()->name, "a");
  EXPECT_EQ(tree.root()->axis, Axis::kDescendant);
  ASSERT_EQ(tree.root()->children.size(), 1u);
  const QueryNode* b = tree.root()->children[0].get();
  EXPECT_EQ(b->name, "b");
  EXPECT_EQ(b->axis, Axis::kChild);
  const QueryNode* c = b->children[0].get();
  EXPECT_EQ(c->axis, Axis::kDescendant);
  EXPECT_EQ(tree.sol(), c);
  EXPECT_TRUE(c->on_output_path);
  EXPECT_TRUE(tree.is_linear());
  EXPECT_EQ(tree.node_count(), 3);
}

TEST(QueryTreeTest, PredicatesAreOffPath) {
  QueryTree tree = MustParse("//a[d]//b[e]//c");
  EXPECT_TRUE(tree.has_predicates());
  EXPECT_FALSE(tree.is_linear());
  const QueryNode* a = tree.root();
  ASSERT_EQ(a->children.size(), 2u);
  // Predicate child first (built in query order), then path continuation.
  const QueryNode* d = a->children[0].get();
  const QueryNode* b = a->children[1].get();
  EXPECT_EQ(d->name, "d");
  EXPECT_FALSE(d->on_output_path);
  EXPECT_TRUE(b->on_output_path);
  EXPECT_EQ(tree.sol()->name, "c");
  EXPECT_EQ(tree.node_count(), 5);
}

TEST(QueryTreeTest, Classification) {
  EXPECT_TRUE(MustParse("//a//b").has_descendant_axis());
  EXPECT_FALSE(MustParse("/a/b").has_descendant_axis());
  EXPECT_TRUE(MustParse("/a/*").has_wildcard());
  EXPECT_FALSE(MustParse("/a/b").has_wildcard());
  EXPECT_TRUE(MustParse("/a[b=\"x\"]").has_value_tests());
  EXPECT_TRUE(MustParse("/a[@id=\"1\"]").has_value_tests());
  EXPECT_FALSE(MustParse("/a[b]").has_value_tests());
  EXPECT_TRUE(MustParse("/a[b]").has_predicates());
  EXPECT_FALSE(MustParse("/a/b").has_predicates());
}

TEST(QueryTreeTest, SelfTestAttachesToNode) {
  QueryTree tree = MustParse("//a[.=\"x\"]/b");
  EXPECT_TRUE(tree.root()->has_value_test);
  EXPECT_EQ(tree.root()->literal, "x");
  // A self test alone creates no extra node.
  EXPECT_EQ(tree.node_count(), 2);
}

TEST(QueryTreeTest, ValueTestOnPredicateLeaf) {
  QueryTree tree = MustParse("//a[b/c=\"v\"]");
  const QueryNode* b = tree.root()->children[0].get();
  const QueryNode* c = b->children[0].get();
  EXPECT_FALSE(b->has_value_test);
  EXPECT_TRUE(c->has_value_test);
  EXPECT_EQ(c->literal, "v");
}

TEST(QueryTreeTest, AttributeNode) {
  QueryTree tree = MustParse("//a[@id=\"7\"]/b");
  const QueryNode* attr = tree.root()->children[0].get();
  EXPECT_TRUE(attr->is_attribute);
  EXPECT_EQ(attr->name, "id");
  EXPECT_TRUE(attr->has_value_test);
}

TEST(QueryTreeTest, MultipleSelfTestsRejected) {
  Result<QueryTree> result = QueryTree::Parse("//a[.=\"x\"][.=\"y\"]");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotSupported);
}

TEST(QueryTreeTest, AttributeReturnNodeRejected) {
  Result<QueryTree> result = QueryTree::Parse("//a/@id");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotSupported);
}

TEST(QueryTreeTest, ToStringRoundTrip) {
  for (const char* query :
       {"/a/b/c", "//a//b//c", "//a[d]//b[e]//c", "//a[b[c]]/d",
        "//*[title]//p", "//a[@id]/b", "//a[.=\"x\"]/b",
        "//a[b=\"x\"][c]/d"}) {
    EXPECT_EQ(MustParse(query).ToString(), query) << query;
  }
}

TEST(QueryTreeTest, NodesPreOrder) {
  QueryTree tree = MustParse("//a[d]/b[e]//c");
  std::vector<const QueryNode*> nodes = tree.NodesPreOrder();
  ASSERT_EQ(nodes.size(), 5u);
  EXPECT_EQ(nodes[0]->name, "a");
  EXPECT_EQ(nodes[0]->index, 0);
  EXPECT_EQ(nodes[1]->name, "d");
  EXPECT_EQ(nodes[2]->name, "b");
  EXPECT_EQ(nodes[3]->name, "e");
  EXPECT_EQ(nodes[4]->name, "c");
  EXPECT_EQ(nodes[4]->index, 4);
}

// --- machine construction (section 4.2) ---

using core::MachineGraph;

MachineGraph MustBuild(std::string_view query) {
  QueryTree tree = MustParse(query);
  Result<MachineGraph> graph = MachineGraph::Build(tree);
  EXPECT_TRUE(graph.ok()) << graph.status().ToString();
  return std::move(graph).value();
}

TEST(MachineBuilderTest, SimpleChainEdges) {
  MachineGraph graph = MustBuild("//a/b//c");
  ASSERT_EQ(graph.node_count(), 3u);
  EXPECT_EQ(graph.root()->edge.ToString(), "(>=,1)");
  EXPECT_EQ(graph.root()->children[0]->edge.ToString(), "(=,1)");
  EXPECT_EQ(graph.root()->children[0]->children[0]->edge.ToString(),
            "(>=,1)");
  EXPECT_TRUE(graph.return_node()->is_return);
}

TEST(MachineBuilderTest, AbsoluteRootEdge) {
  MachineGraph graph = MustBuild("/a/b");
  EXPECT_EQ(graph.root()->edge.ToString(), "(=,1)");
}

TEST(MachineBuilderTest, InteriorStarsCollapse) {
  // a/*/b: one interior star => (=,2).
  MachineGraph graph = MustBuild("//a/*/b");
  ASSERT_EQ(graph.node_count(), 2u);
  EXPECT_EQ(graph.root()->children[0]->edge.ToString(), "(=,2)");
}

TEST(MachineBuilderTest, StarWithDescendantCollapses) {
  // a/*//b: '//' somewhere in the chain => (>=,2).
  EXPECT_EQ(MustBuild("//a/*//b").root()->children[0]->edge.ToString(),
            "(>=,2)");
  // a//*/b: same.
  EXPECT_EQ(MustBuild("//a//*/b").root()->children[0]->edge.ToString(),
            "(>=,2)");
  // a/*/*/b: two stars => (=,3).
  EXPECT_EQ(MustBuild("//a/*/*/b").root()->children[0]->edge.ToString(),
            "(=,3)");
}

TEST(MachineBuilderTest, LeadingStarsCollapseIntoRootEdge) {
  // //*/a: the star collapses into the root edge (>=,2).
  MachineGraph graph = MustBuild("//*/a");
  ASSERT_EQ(graph.node_count(), 1u);
  EXPECT_EQ(graph.root()->edge.ToString(), "(>=,2)");
  // /*/a: exact (=,2).
  EXPECT_EQ(MustBuild("/*/a").root()->edge.ToString(), "(=,2)");
}

TEST(MachineBuilderTest, BranchingStarGetsMachineNode) {
  // The star has two children -> machine node labeled '*'.
  MachineGraph graph = MustBuild("//a/*[d]/b");
  ASSERT_EQ(graph.node_count(), 4u);
  const core::MachineNode* star = graph.root()->children[0];
  EXPECT_TRUE(star->is_wildcard);
  EXPECT_EQ(star->label, "*");
  EXPECT_EQ(star->num_slots, 2);
}

TEST(MachineBuilderTest, LeafStarGetsMachineNode) {
  MachineGraph graph = MustBuild("//a/*");
  ASSERT_EQ(graph.node_count(), 2u);
  EXPECT_TRUE(graph.return_node()->is_wildcard);
}

TEST(MachineBuilderTest, AttributeTestsBecomeSlots) {
  MachineGraph graph = MustBuild("//a[@id][b]/c");
  ASSERT_EQ(graph.node_count(), 3u);  // a, b, c — @id is a slot, not a node
  const core::MachineNode* a = graph.root();
  EXPECT_EQ(a->num_slots, 3);  // @id + b + c
  ASSERT_EQ(a->attr_tests.size(), 1u);
  EXPECT_EQ(a->attr_tests[0].name, "id");
  EXPECT_EQ(a->required_mask, 0b111u);
}

TEST(MachineBuilderTest, BranchSlotsAreDense) {
  MachineGraph graph = MustBuild("//a[b][c][d]/e");
  const core::MachineNode* a = graph.root();
  EXPECT_EQ(a->num_slots, 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(a->children[static_cast<size_t>(i)]->branch_slot, i);
  }
}

TEST(MachineBuilderTest, PaperQ1Machine) {
  // Q1 = //a[d]//b[e]//c — five machine nodes (Fig. 4).
  MachineGraph graph = MustBuild("//a[d]//b[e]//c");
  EXPECT_EQ(graph.node_count(), 5u);
  EXPECT_EQ(graph.root()->label, "a");
  EXPECT_EQ(graph.root()->num_slots, 2);
  EXPECT_EQ(graph.return_node()->label, "c");
  EXPECT_EQ(graph.return_node()->edge.ToString(), "(>=,1)");
}

TEST(MachineBuilderTest, ToStringMentionsStructure) {
  MachineGraph graph = MustBuild("//a[@id]//b");
  const std::string dump = graph.ToString();
  EXPECT_NE(dump.find("label=a"), std::string::npos);
  EXPECT_NE(dump.find("@id"), std::string::npos);
  EXPECT_NE(dump.find("(return)"), std::string::npos);
}

}  // namespace
}  // namespace twigm
