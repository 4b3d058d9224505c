#include <string>

#include "gtest/gtest.h"
#include "xml/dom.h"
#include "xml/sax_parser.h"
#include "xml/xml_writer.h"

namespace twigm::xml {
namespace {

TEST(XmlWriterTest, SimpleDocument) {
  XmlWriter w(/*with_declaration=*/false);
  w.Open("a").Open("b").Text("hi").Close().Close();
  EXPECT_EQ(std::move(w).TakeString(), "<a><b>hi</b></a>");
}

TEST(XmlWriterTest, SelfClosesEmptyElements) {
  XmlWriter w(false);
  w.Open("a").Open("b").Close().Close();
  EXPECT_EQ(std::move(w).TakeString(), "<a><b/></a>");
}

TEST(XmlWriterTest, AttributesAreEscaped) {
  XmlWriter w(false);
  w.Open("a").Attr("x", "<\"&>").Close();
  EXPECT_EQ(std::move(w).TakeString(),
            "<a x=\"&lt;&quot;&amp;&gt;\"/>");
}

TEST(XmlWriterTest, TextIsEscaped) {
  XmlWriter w(false);
  w.Open("a").Text("1 < 2 & 3 > 2").Close();
  EXPECT_EQ(std::move(w).TakeString(), "<a>1 &lt; 2 &amp; 3 &gt; 2</a>");
}

TEST(XmlWriterTest, DeclarationEmittedByDefault) {
  XmlWriter w;
  w.Open("a").Close();
  const std::string doc = std::move(w).TakeString();
  EXPECT_EQ(doc.find("<?xml"), 0u);
}

TEST(XmlWriterTest, TakeStringClosesOpenElements) {
  XmlWriter w(false);
  w.Open("a").Open("b").Text("x");
  EXPECT_EQ(std::move(w).TakeString(), "<a><b>x</b></a>");
}

TEST(XmlWriterTest, DepthTracksOpens) {
  XmlWriter w(false);
  EXPECT_EQ(w.depth(), 0u);
  w.Open("a");
  w.Open("b");
  EXPECT_EQ(w.depth(), 2u);
  w.Close();
  EXPECT_EQ(w.depth(), 1u);
}

TEST(XmlWriterTest, AttrAfterContentIsIgnored) {
  XmlWriter w(false);
  w.Open("a").Text("t").Attr("x", "1").Close();
  EXPECT_EQ(std::move(w).TakeString(), "<a>t</a>");
}

TEST(XmlWriterTest, WriterOutputReparses) {
  XmlWriter w;
  w.Open("root").Attr("k", "a&b");
  w.Open("child").Text("x < y").Close();
  w.Close();
  const std::string doc = std::move(w).TakeString();
  Result<DomDocument> parsed = DomDocument::Parse(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().root()->tag, "root");
  EXPECT_EQ(*parsed.value().root()->FindAttribute("k"), "a&b");
  EXPECT_EQ(parsed.value().root()->children[0]->text, "x < y");
}

TEST(DomTest, BuildsTreeWithIdsAndLevels) {
  Result<DomDocument> doc = DomDocument::Parse("<a><b><c/></b><b/></a>");
  ASSERT_TRUE(doc.ok());
  const DomNode* root = doc.value().root();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->tag, "a");
  EXPECT_EQ(root->id, 1u);
  EXPECT_EQ(root->level, 1);
  ASSERT_EQ(root->children.size(), 2u);
  EXPECT_EQ(root->children[0]->tag, "b");
  EXPECT_EQ(root->children[0]->id, 2u);
  EXPECT_EQ(root->children[0]->children[0]->id, 3u);
  EXPECT_EQ(root->children[0]->children[0]->level, 3);
  EXPECT_EQ(root->children[1]->id, 4u);
  EXPECT_EQ(doc.value().size(), 4u);
  EXPECT_EQ(doc.value().depth(), 3);
}

TEST(DomTest, ParentPointers) {
  Result<DomDocument> doc = DomDocument::Parse("<a><b/></a>");
  ASSERT_TRUE(doc.ok());
  const DomNode* root = doc.value().root();
  EXPECT_EQ(root->parent, nullptr);
  EXPECT_EQ(root->children[0]->parent, root);
}

TEST(DomTest, DirectTextOnly) {
  Result<DomDocument> doc =
      DomDocument::Parse("<a>x<b>inner</b>y</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root()->text, "xy");
  EXPECT_EQ(doc.value().root()->children[0]->text, "inner");
}

TEST(DomTest, AttributesAccessible) {
  Result<DomDocument> doc = DomDocument::Parse("<a x=\"1\" y=\"2\"/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(*doc.value().root()->FindAttribute("x"), "1");
  EXPECT_EQ(*doc.value().root()->FindAttribute("y"), "2");
  EXPECT_EQ(doc.value().root()->FindAttribute("z"), nullptr);
}

TEST(DomTest, ParseErrorPropagates) {
  Result<DomDocument> doc = DomDocument::Parse("<a><b></a>");
  EXPECT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kParseError);
}

TEST(DomTest, MemoryEstimatePositive) {
  Result<DomDocument> doc =
      DomDocument::Parse("<a><b attr=\"value\">text</b></a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_GT(doc.value().ApproximateMemoryBytes(), sizeof(DomNode) * 2);
}

// The parser assigns levels and pre-order ids; the EventDriver shim passes
// them through unchanged and counts the elements.
TEST(EventDriverTest, AssignsLevelsAndPreOrderIds) {
  struct Recorder : StreamEventSink {
    std::string log;
    void StartElement(const TagToken& tag, int level, NodeId id,
                      const std::vector<Attribute>&) override {
      log += "+" + std::string(tag.text) + "/" + std::to_string(level) + "#" +
             std::to_string(id) + " ";
    }
    void EndElement(const TagToken& tag, int level) override {
      log += "-" + std::string(tag.text) + "/" + std::to_string(level) + " ";
    }
    void Text(std::string_view text, int level) override {
      log += "t" + std::to_string(level) + "(" + std::string(text) + ") ";
    }
    void EndDocument() override { log += "eof"; }
  };
  Recorder recorder;
  EventDriver driver(&recorder);
  SaxParser parser(&driver);
  ASSERT_TRUE(parser.ParseAll("<a><b>x</b><c><d/></c></a>").ok());
  EXPECT_EQ(recorder.log,
            "+a/1#1 +b/2#2 t2(x) -b/2 +c/2#3 +d/3#4 -d/3 -c/2 -a/1 eof");
  EXPECT_EQ(driver.element_count(), 4u);
  EXPECT_EQ(parser.elements_started(), 4u);
  EXPECT_EQ(parser.elements_ended(), 4u);
}

}  // namespace
}  // namespace twigm::xml
