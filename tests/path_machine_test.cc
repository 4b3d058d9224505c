// Tests for PathM (section 3.1, XP{/,//,*}), including its applicability
// limit and its fully incremental emission. Child-only predicate queries
// (the paper's BranchM class, section 3.2) run on TwigM and are tested in
// twig_machine_test.cc.

#include <memory>
#include <string>

#include "core/path_machine.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "xml/sax_parser.h"

namespace twigm {
namespace {

using core::EngineKind;
using core::PathMachine;
using core::VectorResultSink;
using testing::Ids;
using testing::MustEvaluate;

TEST(PathMachineTest, LinearQueries) {
  const std::string doc = "<a><b><c/></b><c/></a>";
  EXPECT_EQ(MustEvaluate("/a/c", doc, EngineKind::kPathM), Ids({4}));
  EXPECT_EQ(MustEvaluate("/a//c", doc, EngineKind::kPathM), Ids({3, 4}));
  EXPECT_EQ(MustEvaluate("//c", doc, EngineKind::kPathM), Ids({3, 4}));
}

TEST(PathMachineTest, WildcardsAndCollapse) {
  const std::string doc = "<a><x><b/></x><b/></a>";  // a=1 x=2 b=3 b=4
  EXPECT_EQ(MustEvaluate("//a/*/b", doc, EngineKind::kPathM), Ids({3}));
  EXPECT_EQ(MustEvaluate("//*", doc, EngineKind::kPathM), Ids({1, 2, 3, 4}));
}

TEST(PathMachineTest, RecursiveData) {
  const std::string doc = "<a><a><b/></a></a>";  // a=1 a=2 b=3
  EXPECT_EQ(MustEvaluate("//a//b", doc, EngineKind::kPathM), Ids({3}));
  EXPECT_EQ(MustEvaluate("//a//a", doc, EngineKind::kPathM), Ids({2}));
}

TEST(PathMachineTest, RejectsPredicates) {
  Result<xpath::QueryTree> tree = xpath::QueryTree::Parse("//a[b]/c");
  ASSERT_TRUE(tree.ok());
  VectorResultSink sink;
  Result<std::unique_ptr<PathMachine>> machine =
      PathMachine::Create(tree.value(), &sink);
  ASSERT_FALSE(machine.ok());
  EXPECT_EQ(machine.status().code(), StatusCode::kNotSupported);
}

TEST(PathMachineTest, EmitsAtStartElement) {
  // PathM emits the instant the candidate's start tag is seen: the result
  // must be delivered before the document is finished.
  Result<xpath::QueryTree> tree = xpath::QueryTree::Parse("//a/b");
  ASSERT_TRUE(tree.ok());
  VectorResultSink sink;
  Result<std::unique_ptr<PathMachine>> machine =
      PathMachine::Create(tree.value(), &sink);
  ASSERT_TRUE(machine.ok());
  xml::EventDriver driver(machine.value().get());
  xml::SaxParser parser(&driver);
  machine.value()->BindInterner(parser.interner());
  ASSERT_TRUE(parser.Consume({"<a><b>", false}).ok());
  EXPECT_EQ(sink.ids().size(), 1u);  // already emitted, stream still open
  ASSERT_TRUE(parser.Consume({"</b></a>", false}).ok());
  ASSERT_TRUE(parser.Consume({std::string_view(), true}).ok());
  EXPECT_EQ(sink.ids().size(), 1u);
}

TEST(PathMachineTest, StatsTrackStackDepth) {
  Result<xpath::QueryTree> tree = xpath::QueryTree::Parse("//a//a");
  ASSERT_TRUE(tree.ok());
  VectorResultSink sink;
  Result<std::unique_ptr<PathMachine>> machine =
      PathMachine::Create(tree.value(), &sink);
  ASSERT_TRUE(machine.ok());
  xml::EventDriver driver(machine.value().get());
  xml::SaxParser parser(&driver);
  machine.value()->BindInterner(parser.interner());
  ASSERT_TRUE(parser.ParseAll("<a><a><a/></a></a>").ok());
  EXPECT_EQ(machine.value()->stats().results, 2u);
  // Stacks: node0 holds 3 a's, node1 holds 2 => peak 5.
  EXPECT_EQ(machine.value()->stats().peak_stack_entries, 5u);
}

}  // namespace
}  // namespace twigm
