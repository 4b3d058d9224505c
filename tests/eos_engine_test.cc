// Tests for the XAOS-style end-of-stream engine: correct results, blocking
// emission (nothing before EndDocument), and full-document buffering.

#include "baselines/eos_engine.h"

#include <algorithm>
#include <string>

#include "core/evaluator.h"
#include "gtest/gtest.h"
#include "xml/sax_parser.h"

namespace twigm {
namespace {

using baselines::EosEngine;
using core::VectorResultSink;

struct EosRun {
  std::vector<xml::NodeId> ids;
  baselines::EosEngineStats stats;
};

EosRun RunEos(std::string_view query, std::string_view doc) {
  VectorResultSink sink;
  auto engine = EosEngine::Create(query, &sink);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  xml::SaxParser parser(engine.value().get());
  EXPECT_TRUE(parser.ParseAll(doc).ok());
  EXPECT_TRUE(engine.value()->status().ok());
  EosRun run;
  run.ids = sink.TakeIds();
  std::sort(run.ids.begin(), run.ids.end());
  run.stats = engine.value()->stats();
  return run;
}

TEST(EosEngineTest, MatchesTwigMResults) {
  const std::string doc =
      "<a><b x=\"1\"><c>t</c></b><b><c/></b><d/></a>";
  for (const char* query :
       {"//b", "//b[c]", "//a[d]//c", "//b[@x]/c", "//b[c=\"t\"]",
        "//*[c]"}) {
    Result<std::vector<xml::NodeId>> expected =
        core::EvaluateToIds(query, doc);
    ASSERT_TRUE(expected.ok());
    std::vector<xml::NodeId> want = std::move(expected).value();
    std::sort(want.begin(), want.end());
    EXPECT_EQ(RunEos(query, doc).ids, want) << query;
  }
}

TEST(EosEngineTest, EmitsNothingBeforeEndOfStream) {
  VectorResultSink sink;
  auto engine = EosEngine::Create("//b", &sink);
  ASSERT_TRUE(engine.ok());
  xml::SaxParser parser(engine.value().get());
  ASSERT_TRUE(parser.Consume({"<a><b/><b/><b/>", false}).ok());
  EXPECT_TRUE(sink.ids().empty());  // blocking output
  ASSERT_TRUE(parser.Consume({"</a>", false}).ok());
  ASSERT_TRUE(parser.Consume({std::string_view(), true}).ok());
  EXPECT_EQ(sink.ids().size(), 3u);
}

TEST(EosEngineTest, BuffersWholeDocument) {
  std::string doc = "<r>";
  for (int i = 0; i < 1000; ++i) doc += "<x>text</x>";
  doc += "</r>";
  const EosRun run = RunEos("//x", doc);
  EXPECT_EQ(run.ids.size(), 1000u);
  EXPECT_EQ(run.stats.buffered_nodes, 1001u);
  // The matching structure costs more than the engine's result count —
  // this is the contrast with TwigM's constant state.
  EXPECT_GT(run.stats.buffered_bytes, 1000u * sizeof(xml::DomNode));
}

TEST(EosEngineTest, BadQueryFailsAtCreate) {
  VectorResultSink sink;
  auto engine = EosEngine::Create("b[", &sink);
  ASSERT_FALSE(engine.ok());
}

TEST(EosEngineTest, ResetClearsBuffer) {
  VectorResultSink sink;
  auto engine = EosEngine::Create("//b", &sink);
  ASSERT_TRUE(engine.ok());
  {
    xml::SaxParser parser(engine.value().get());
    ASSERT_TRUE(parser.ParseAll("<a><b/></a>").ok());
  }
  engine.value()->Reset();
  EXPECT_EQ(engine.value()->stats().results, 0u);
  xml::SaxParser parser(engine.value().get());
  ASSERT_TRUE(parser.ParseAll("<a><b/><b/></a>").ok());
  EXPECT_EQ(engine.value()->stats().results, 2u);
  EXPECT_EQ(sink.ids().size(), 3u);
}

}  // namespace
}  // namespace twigm
