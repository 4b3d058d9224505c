#include "xml/sax_parser.h"

#include <string>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "xml/sax_event.h"

namespace twigm::xml {
namespace {

// Records every event as a compact trace string for easy assertions.
class TraceHandler : public StreamEventSink {
 public:
  void StartDocument() override { trace_ += "D+ "; }
  void EndDocument() override { trace_ += "D- "; }
  void StartElement(const TagToken& tag, int, NodeId,
                    const std::vector<Attribute>& attrs) override {
    trace_ += "<" + std::string(tag.text);
    for (const Attribute& a : attrs) {
      trace_ += " " + std::string(a.name) + "='" + std::string(a.value) + "'";
    }
    trace_ += "> ";
  }
  void EndElement(const TagToken& tag, int) override {
    trace_ += "</" + std::string(tag.text) + "> ";
  }
  void Text(std::string_view text, int) override {
    trace_ += "T(" + std::string(text) + ") ";
  }
  void Comment(std::string_view text) override {
    trace_ += "C(" + std::string(text) + ") ";
  }
  void ProcessingInstruction(std::string_view target,
                             std::string_view data) override {
    trace_ += "PI(" + std::string(target) + "," + std::string(data) + ") ";
  }

  const std::string& trace() const { return trace_; }

 private:
  std::string trace_;
};

std::string ParseTrace(std::string_view doc, Status* status = nullptr) {
  TraceHandler handler;
  SaxParser parser(&handler);
  Status s = parser.ParseAll(doc);
  if (status != nullptr) *status = s;
  return handler.trace();
}

Status ParseStatus(std::string_view doc) {
  Status s;
  ParseTrace(doc, &s);
  return s;
}

TEST(SaxParserTest, MinimalDocument) {
  Status s;
  EXPECT_EQ(ParseTrace("<a/>", &s), "D+ <a> </a> D- ");
  EXPECT_TRUE(s.ok());
}

TEST(SaxParserTest, NestedElements) {
  Status s;
  EXPECT_EQ(ParseTrace("<a><b><c/></b></a>", &s),
            "D+ <a> <b> <c> </c> </b> </a> D- ");
  EXPECT_TRUE(s.ok());
}

TEST(SaxParserTest, CharacterData) {
  EXPECT_EQ(ParseTrace("<a>hello</a>"), "D+ <a> T(hello) </a> D- ");
}

TEST(SaxParserTest, MixedContent) {
  EXPECT_EQ(ParseTrace("<a>x<b/>y</a>"),
            "D+ <a> T(x) <b> </b> T(y) </a> D- ");
}

TEST(SaxParserTest, Attributes) {
  EXPECT_EQ(ParseTrace("<a x=\"1\" y='two'/>"),
            "D+ <a x='1' y='two'> </a> D- ");
}

TEST(SaxParserTest, AttributeWithAngleInValueViaEntity) {
  EXPECT_EQ(ParseTrace("<a x=\"&lt;&gt;&amp;&quot;&apos;\"/>"),
            "D+ <a x='<>&\"''> </a> D- ");
}

TEST(SaxParserTest, AttributeValueMayContainRawGt) {
  // '>' is legal inside a quoted attribute value.
  EXPECT_EQ(ParseTrace("<a x=\"1>2\"/>"), "D+ <a x='1>2'> </a> D- ");
}

TEST(SaxParserTest, PredefinedEntitiesInText) {
  EXPECT_EQ(ParseTrace("<a>&lt;tag&gt; &amp; &quot;q&quot; &apos;</a>"),
            "D+ <a> T(<tag> & \"q\" ') </a> D- ");
}

TEST(SaxParserTest, DecimalAndHexCharRefs) {
  EXPECT_EQ(ParseTrace("<a>&#65;&#x42;</a>"), "D+ <a> T(AB) </a> D- ");
}

TEST(SaxParserTest, MultibyteCharRef) {
  // U+00E9 (é) is C3 A9 in UTF-8.
  EXPECT_EQ(ParseTrace("<a>&#233;</a>"), "D+ <a> T(\xC3\xA9) </a> D- ");
}

TEST(SaxParserTest, CdataSection) {
  EXPECT_EQ(ParseTrace("<a><![CDATA[<not> & parsed]]></a>"),
            "D+ <a> T(<not> & parsed) </a> D- ");
}

TEST(SaxParserTest, Comments) {
  EXPECT_EQ(ParseTrace("<!-- head --><a><!-- in --></a>"),
            "D+ C( head ) <a> C( in ) </a> D- ");
}

TEST(SaxParserTest, ProcessingInstruction) {
  EXPECT_EQ(ParseTrace("<a><?target some data?></a>"),
            "D+ <a> PI(target,some data) </a> D- ");
}

TEST(SaxParserTest, XmlDeclarationIsSilent) {
  EXPECT_EQ(ParseTrace("<?xml version=\"1.0\" encoding=\"UTF-8\"?><a/>"),
            "D+ <a> </a> D- ");
}

TEST(SaxParserTest, DoctypeIsSkipped) {
  EXPECT_EQ(ParseTrace("<!DOCTYPE a [<!ELEMENT a EMPTY>]><a/>"),
            "D+ <a> </a> D- ");
}

TEST(SaxParserTest, WhitespaceAroundRoot) {
  EXPECT_EQ(ParseTrace("\n  <a/>  \n"), "D+ <a> </a> D- ");
}

TEST(SaxParserTest, SelfClosingWithAttributes) {
  EXPECT_EQ(ParseTrace("<a><b k=\"v\"/></a>"),
            "D+ <a> <b k='v'> </b> </a> D- ");
}

TEST(SaxParserTest, EndTagWithWhitespace) {
  EXPECT_EQ(ParseTrace("<a></a >"), "D+ <a> </a> D- ");
}

// --- error cases ---

TEST(SaxParserErrorTest, MismatchedTags) {
  const Status s = ParseStatus("<a><b></a></b>");
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_NE(s.message().find("mismatched end tag"), std::string::npos);
}

TEST(SaxParserErrorTest, UnclosedElement) {
  EXPECT_EQ(ParseStatus("<a><b></b>").code(), StatusCode::kParseError);
}

TEST(SaxParserErrorTest, NoRootElement) {
  EXPECT_EQ(ParseStatus("   ").code(), StatusCode::kParseError);
  EXPECT_EQ(ParseStatus("<!-- only a comment -->").code(),
            StatusCode::kParseError);
}

TEST(SaxParserErrorTest, MultipleRoots) {
  EXPECT_EQ(ParseStatus("<a/><b/>").code(), StatusCode::kParseError);
}

TEST(SaxParserErrorTest, TextOutsideRoot) {
  EXPECT_EQ(ParseStatus("<a/>junk").code(), StatusCode::kParseError);
  EXPECT_EQ(ParseStatus("junk<a/>").code(), StatusCode::kParseError);
}

TEST(SaxParserErrorTest, DuplicateAttribute) {
  EXPECT_EQ(ParseStatus("<a x=\"1\" x=\"2\"/>").code(),
            StatusCode::kParseError);
}

TEST(SaxParserErrorTest, UnquotedAttribute) {
  EXPECT_EQ(ParseStatus("<a x=1/>").code(), StatusCode::kParseError);
}

TEST(SaxParserErrorTest, MissingEqualsInAttribute) {
  EXPECT_EQ(ParseStatus("<a x \"1\"/>").code(), StatusCode::kParseError);
}

TEST(SaxParserErrorTest, InvalidElementName) {
  EXPECT_EQ(ParseStatus("<1a/>").code(), StatusCode::kParseError);
  EXPECT_EQ(ParseStatus("<-a/>").code(), StatusCode::kParseError);
}

TEST(SaxParserErrorTest, UnknownEntity) {
  EXPECT_EQ(ParseStatus("<a>&nope;</a>").code(), StatusCode::kParseError);
}

TEST(SaxParserErrorTest, UnterminatedEntity) {
  EXPECT_EQ(ParseStatus("<a>&amp</a>").code(), StatusCode::kParseError);
}

TEST(SaxParserErrorTest, InvalidCharRef) {
  EXPECT_EQ(ParseStatus("<a>&#xZZ;</a>").code(), StatusCode::kParseError);
  EXPECT_EQ(ParseStatus("<a>&#1114112;</a>").code(),
            StatusCode::kParseError);  // > U+10FFFF
  EXPECT_EQ(ParseStatus("<a>&#xD800;</a>").code(),
            StatusCode::kParseError);  // surrogate
}

TEST(SaxParserErrorTest, DoubleHyphenInComment) {
  EXPECT_EQ(ParseStatus("<a><!-- x -- y --></a>").code(),
            StatusCode::kParseError);
}

TEST(SaxParserErrorTest, EndTagWithoutOpen) {
  EXPECT_EQ(ParseStatus("</a>").code(), StatusCode::kParseError);
}

TEST(SaxParserErrorTest, RawLtInAttributeValue) {
  EXPECT_EQ(ParseStatus("<a x=\"<\"/>").code(), StatusCode::kParseError);
}

TEST(SaxParserErrorTest, FeedAfterFinishFails) {
  TraceHandler handler;
  SaxParser parser(&handler);
  ASSERT_TRUE(parser.ParseAll("<a/>").ok());
  EXPECT_FALSE(parser.Consume({"<b/>", false}).ok());
}

TEST(SaxParserErrorTest, ErrorIsSticky) {
  TraceHandler handler;
  SaxParser parser(&handler);
  ASSERT_FALSE(parser.Consume({"<a><b></a>", false}).ok());
  EXPECT_FALSE(parser.Consume({"</b></a>", false}).ok());
}

TEST(SaxParserErrorTest, MaxDepthEnforced) {
  SaxParserOptions options;
  options.max_depth = 4;
  TraceHandler handler;
  SaxParser parser(&handler, options);
  const Status s = parser.ParseAll("<a><a><a><a><a></a></a></a></a></a>");
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
}

TEST(SaxParserErrorTest, ReportsLineAndColumn) {
  const Status s = ParseStatus("<a>\n<b>\n</c>\n</a>");
  EXPECT_NE(s.message().find("line 3"), std::string::npos);
}

// --- incremental feeding ---

TEST(SaxParserChunkTest, ByteAtATimeMatchesWholeParse) {
  const std::string doc =
      "<?xml version=\"1.0\"?><root a=\"1\"><!-- c --><x>text &amp; "
      "more</x><![CDATA[raw]]><y k='v'/></root>";
  TraceHandler whole;
  {
    SaxParser parser(&whole);
    ASSERT_TRUE(parser.ParseAll(doc).ok());
  }
  TraceHandler chunked;
  {
    SaxParser parser(&chunked);
    for (char c : doc) {
      ASSERT_TRUE(parser.Consume({std::string_view(&c, 1), false}).ok());
    }
    ASSERT_TRUE(parser.Consume({std::string_view(), true}).ok());
  }
  EXPECT_EQ(whole.trace(), chunked.trace());
}

TEST(SaxParserChunkTest, RandomChunkBoundaries) {
  const std::string doc =
      "<doc><a x=\"&#65;\">alpha</a><b><![CDATA[<&>]]></b><?pi data?>"
      "<!--note--><c/><d>tail &lt;</d></doc>";
  TraceHandler whole;
  {
    SaxParser parser(&whole);
    ASSERT_TRUE(parser.ParseAll(doc).ok());
  }
  Rng rng(2024);
  for (int trial = 0; trial < 25; ++trial) {
    TraceHandler chunked;
    SaxParser parser(&chunked);
    size_t pos = 0;
    while (pos < doc.size()) {
      const size_t len =
          std::min<size_t>(1 + rng.Below(7), doc.size() - pos);
      ASSERT_TRUE(parser.Consume({std::string_view(doc).substr(pos, len), false}).ok());
      pos += len;
    }
    ASSERT_TRUE(parser.Consume({std::string_view(), true}).ok());
    EXPECT_EQ(whole.trace(), chunked.trace()) << "trial " << trial;
  }
}

TEST(SaxParserChunkTest, TruncatedDocumentFailsAtFinish) {
  TraceHandler handler;
  SaxParser parser(&handler);
  ASSERT_TRUE(parser.Consume({"<a><b>unfinished", false}).ok());
  EXPECT_FALSE(parser.Consume({std::string_view(), true}).ok());
}

TEST(SaxParserTest, IsValidXmlName) {
  EXPECT_TRUE(IsValidXmlName("a"));
  EXPECT_TRUE(IsValidXmlName("a-b.c_d"));
  EXPECT_TRUE(IsValidXmlName("_x"));
  EXPECT_TRUE(IsValidXmlName("ns:tag"));
  EXPECT_FALSE(IsValidXmlName(""));
  EXPECT_FALSE(IsValidXmlName("1a"));
  EXPECT_FALSE(IsValidXmlName("-a"));
  EXPECT_FALSE(IsValidXmlName("a b"));
}

TEST(SaxParserTest, BytesConsumedAdvances) {
  TraceHandler handler;
  SaxParser parser(&handler);
  ASSERT_TRUE(parser.ParseAll("<a>xy</a>").ok());
  EXPECT_EQ(parser.bytes_consumed(), 9u);
}

TEST(SaxParserTest, LargeDocumentBufferCompaction) {
  // Exercise the internal buffer-compaction path with a long document fed
  // in pieces.
  std::string doc = "<r>";
  for (int i = 0; i < 20000; ++i) {
    doc += "<item id=\"" + std::to_string(i) + "\">value</item>";
  }
  doc += "</r>";
  TraceHandler handler;
  SaxParser parser(&handler);
  size_t pos = 0;
  while (pos < doc.size()) {
    const size_t len = std::min<size_t>(4096, doc.size() - pos);
    ASSERT_TRUE(parser.Consume({std::string_view(doc).substr(pos, len), false}).ok());
    pos += len;
  }
  ASSERT_TRUE(parser.Consume({std::string_view(), true}).ok());
  EXPECT_EQ(parser.bytes_consumed(), doc.size());
}

TEST(SaxParserTest, MaxBufferBytesStopsUnterminatedConstruct) {
  // A CDATA section that never closes would otherwise buffer forever.
  SaxParserOptions options;
  options.max_buffer_bytes = 1024;
  TraceHandler handler;
  SaxParser parser(&handler, options);
  ASSERT_TRUE(parser.Consume({"<r><![CDATA[", false}).ok());
  Status error;
  for (int i = 0; i < 64 && error.ok(); ++i) {
    error = parser.Consume({std::string(128, 'x'), false});
  }
  ASSERT_FALSE(error.ok());
  EXPECT_EQ(error.code(), StatusCode::kResourceExhausted);
  // Error carries a position like the other well-formedness failures.
  EXPECT_NE(error.ToString().find("line"), std::string::npos);
  // The error is sticky.
  EXPECT_FALSE(parser.Consume({"]]></r>", false}).ok());
}

TEST(SaxParserTest, MaxBufferBytesAllowsCompletedConstructs) {
  // Completed constructs drain the buffer, so a document much larger than
  // the cap parses fine as long as no single construct exceeds it.
  SaxParserOptions options;
  options.max_buffer_bytes = 256;
  TraceHandler handler;
  SaxParser parser(&handler, options);
  ASSERT_TRUE(parser.Consume({"<r>", false}).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(parser.Consume({"<item>abcdefgh</item>", false}).ok()) << i;
  }
  ASSERT_TRUE(parser.Consume({"</r>", false}).ok());
  ASSERT_TRUE(parser.Consume({std::string_view(), true}).ok());
}

TEST(SaxParserTest, MaxBufferBytesZeroDisablesLimit) {
  SaxParserOptions options;
  options.max_buffer_bytes = 0;
  TraceHandler handler;
  SaxParser parser(&handler, options);
  ASSERT_TRUE(parser.Consume({"<r><![CDATA[", false}).ok());
  ASSERT_TRUE(parser.Consume({std::string(1 << 20, 'x'), false}).ok());
  ASSERT_TRUE(parser.Consume({"]]></r>", false}).ok());
  EXPECT_TRUE(parser.Consume({std::string_view(), true}).ok());
}

}  // namespace
}  // namespace twigm::xml
