// Robustness / failure-injection tests: mutated and truncated inputs must
// produce clean errors (never crashes, hangs, or silent wrong results), and
// engines must stay inert after a parse error.

#include <string>

#include "common/random.h"
#include "common/stopwatch.h"
#include "core/evaluator.h"
#include "core/value_test.h"
#include "gtest/gtest.h"
#include "xml/dom.h"
#include "xml/sax_parser.h"
#include "xml/xml_writer.h"

namespace twigm {
namespace {

TEST(RobustnessTest, RandomByteMutationsNeverCrash) {
  const std::string base =
      "<?xml version=\"1.0\"?><a><b x=\"1\">t&amp;t</b><!--c--><c><![CDATA["
      "raw]]></c><d/></a>";
  Rng rng(0xF002);
  int errors = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string doc = base;
    const int mutations = 1 + static_cast<int>(rng.Below(4));
    for (int m = 0; m < mutations; ++m) {
      const size_t pos = rng.Below(doc.size());
      switch (rng.Below(3)) {
        case 0:
          doc[pos] = static_cast<char>(rng.Below(256));
          break;
        case 1:
          doc.erase(pos, 1);
          break;
        default:
          doc.insert(pos, 1, static_cast<char>("<>&\"'/="[rng.Below(7)]));
      }
    }
    core::VectorResultSink sink;
    auto proc = core::XPathStreamProcessor::Create("//b[x]//c", &sink);
    ASSERT_TRUE(proc.ok());
    Status s = proc.value()->Consume({doc, false});
    if (s.ok()) s = proc.value()->Consume({std::string_view(), true});
    if (!s.ok()) ++errors;
    // Either way: no crash, and the status is well-formed.
    EXPECT_TRUE(s.ok() || !s.message().empty());
  }
  // Most mutations must be detected as malformed.
  EXPECT_GT(errors, 1000);
}

TEST(RobustnessTest, TruncationAtEveryPrefixFailsCleanly) {
  const std::string doc = "<a><b x=\"1\">text</b><c/></a>";
  for (size_t len = 0; len < doc.size(); ++len) {
    xml::SaxHandler handler;
    xml::SaxParser parser(&handler);
    Status s = parser.Consume({std::string_view(doc).substr(0, len), false});
    if (s.ok()) s = parser.Consume({std::string_view(), true});
    EXPECT_FALSE(s.ok()) << "prefix length " << len;
  }
}

TEST(RobustnessTest, ErrorsAfterPartialResultsLeaveEmittedResultsValid) {
  // The engine emits what it can prove, then the document breaks. Results
  // emitted before the error must be correct; no extras after.
  core::VectorResultSink sink;
  auto proc = core::XPathStreamProcessor::Create("//b", &sink);
  ASSERT_TRUE(proc.ok());
  ASSERT_TRUE(proc.value()->Consume({"<a><b/><b/>", false}).ok());
  EXPECT_EQ(sink.ids().size(), 2u);  // emitted at startElement
  EXPECT_FALSE(proc.value()->Consume({"</c>", false}).ok());
  EXPECT_FALSE(proc.value()->Consume({"<b/>", false}).ok());  // poisoned
  EXPECT_EQ(sink.ids().size(), 2u);
}

TEST(RobustnessTest, HugeFlatDocumentStaysBoundedMemory) {
  // 200k siblings; engine state must remain tiny (no growth with |D|).
  core::VectorResultSink sink;
  auto proc = core::XPathStreamProcessor::Create("//row[v]", &sink);
  ASSERT_TRUE(proc.ok());
  ASSERT_TRUE(proc.value()->Consume({"<table>", false}).ok());
  for (int i = 0; i < 200000; ++i) {
    ASSERT_TRUE(proc.value()->Consume({"<row><v/></row>", false}).ok());
  }
  ASSERT_TRUE(proc.value()->Consume({"</table>", false}).ok());
  ASSERT_TRUE(proc.value()->Consume({std::string_view(), true}).ok());
  EXPECT_EQ(sink.ids().size(), 200000u);
  EXPECT_LE(proc.value()->stats().peak_stack_entries, 4u);
}

TEST(RobustnessTest, PathologicalDeepNestingHitsDepthLimit) {
  core::VectorResultSink sink;
  core::EvaluatorOptions options;
  options.sax.max_depth = 1000;
  auto proc = core::XPathStreamProcessor::Create("//a", &sink, options);
  ASSERT_TRUE(proc.ok());
  Status s;
  for (int i = 0; i < 2000; ++i) {
    s = proc.value()->Consume({"<a>", false});
    if (!s.ok()) break;
  }
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
}

// Parses `doc` with `chunk` bytes per Consume (0 = one last chunk) and
// returns the best wall time of three runs, in milliseconds.
double BestParseMs(const std::string& doc, size_t chunk) {
  double best = 0;
  for (int run = 0; run < 3; ++run) {
    xml::SaxHandler handler;
    xml::SaxParser parser(&handler);
    Stopwatch sw;
    Status s;
    if (chunk == 0) {
      s = parser.ParseAll(doc);
    } else {
      for (size_t at = 0; at < doc.size() && s.ok(); at += chunk) {
        s = parser.Consume({std::string_view(doc).substr(at, chunk), false});
      }
      if (s.ok()) s = parser.Consume({std::string_view(), true});
    }
    const double ms = sw.ElapsedMillis();
    EXPECT_TRUE(s.ok()) << s.ToString();
    if (run == 0 || ms < best) best = ms;
  }
  return best;
}

TEST(RobustnessTest, ChunkedLongConstructsStayLinear) {
  // A construct still open at the end of a chunk resumes where its walk
  // stopped; re-walking it from its start on every Consume would make
  // these shapes quadratic in their length under small chunks.
  auto repeat = [](std::string_view unit, size_t bytes) {
    std::string out;
    while (out.size() < bytes) out.append(unit);
    return out;
  };
  constexpr size_t kTwoMb = size_t{2} << 20;
  const struct {
    const char* shape;
    std::string doc;
  } cases[] = {
      {"comment full of '>'", "<a><!--" + repeat("x>", kTwoMb) + "--></a>"},
      {"5 MB of &amp; text", "<a>" + repeat("&amp;", 5 * (size_t{1} << 20)) +
                                 "</a>"},
      {"'-dense attribute value",
       "<a b=\"" + repeat("'", kTwoMb) + "\"/>"},
      {"DOCTYPE internal subset",
       "<!DOCTYPE a [" + repeat("<!ENTITY e '[x]>'>", kTwoMb) + "]><a/>"},
  };
  for (const auto& c : cases) {
    const double whole_ms = BestParseMs(c.doc, 0);
    const double chunked_ms = BestParseMs(c.doc, 1024);
    // 1 KB chunks may cost per-call overhead, never a re-walk: within 10x
    // of one chunk (the quadratic walk measured 70-900x on these shapes).
    EXPECT_LE(chunked_ms, 10 * whole_ms)
        << c.shape << ": whole " << whole_ms << " ms, 1 KB chunks "
        << chunked_ms << " ms";
  }
}

TEST(ValueTestSemantics, NumericVsStringComparison) {
  using core::EvalValueTest;
  using xpath::CmpOp;
  // Numeric literal + numeric text: numeric comparison.
  EXPECT_TRUE(EvalValueTest("10", CmpOp::kGt, "9", true));
  EXPECT_TRUE(EvalValueTest(" 10 ", CmpOp::kEq, "10", true));
  EXPECT_TRUE(EvalValueTest("2.5", CmpOp::kLt, "2.75", true));
  // Numeric literal + non-numeric text: only != holds.
  EXPECT_FALSE(EvalValueTest("abc", CmpOp::kEq, "10", true));
  EXPECT_TRUE(EvalValueTest("abc", CmpOp::kNe, "10", true));
  EXPECT_FALSE(EvalValueTest("abc", CmpOp::kLt, "10", true));
  // String literal: bytewise.
  EXPECT_TRUE(EvalValueTest("10", CmpOp::kLt, "9", false));  // "1" < "9"
  EXPECT_TRUE(EvalValueTest("abc", CmpOp::kEq, "abc", false));
  EXPECT_FALSE(EvalValueTest("abc", CmpOp::kEq, "ABC", false));
  EXPECT_TRUE(EvalValueTest("", CmpOp::kEq, "", false));
}

TEST(ValueTestSemantics, EdgeNumbers) {
  using core::EvalValueTest;
  using xpath::CmpOp;
  EXPECT_TRUE(EvalValueTest("0", CmpOp::kEq, "0.0", true));
  EXPECT_TRUE(EvalValueTest("-3", CmpOp::kLt, "0", true));
  EXPECT_FALSE(EvalValueTest("", CmpOp::kEq, "0", true));
  EXPECT_FALSE(EvalValueTest("1e", CmpOp::kEq, "1", true));
  EXPECT_TRUE(EvalValueTest("1e2", CmpOp::kEq, "100", true));
}

TEST(EdgeConditionTest, SatisfiesSemantics) {
  core::EdgeCondition exact{true, 2};
  EXPECT_TRUE(exact.Satisfies(2));
  EXPECT_FALSE(exact.Satisfies(1));
  EXPECT_FALSE(exact.Satisfies(3));
  EXPECT_EQ(exact.ToString(), "(=,2)");

  core::EdgeCondition ge{false, 3};
  EXPECT_FALSE(ge.Satisfies(2));
  EXPECT_TRUE(ge.Satisfies(3));
  EXPECT_TRUE(ge.Satisfies(30));
  EXPECT_EQ(ge.ToString(), "(>=,3)");
}

TEST(RobustnessTest, WriterParserRoundTripProperty) {
  // Random content through XmlWriter must reparse to the same text/attrs.
  Rng rng(0x5150);
  for (int trial = 0; trial < 200; ++trial) {
    std::string text;
    const int len = static_cast<int>(rng.Below(30));
    for (int i = 0; i < len; ++i) {
      text.push_back(static_cast<char>(32 + rng.Below(95)));
    }
    xml::XmlWriter w(false);
    w.Open("r").Attr("k", text).Text(text).Close();
    const std::string doc = std::move(w).TakeString();
    Result<xml::DomDocument> parsed = xml::DomDocument::Parse(doc);
    ASSERT_TRUE(parsed.ok()) << doc;
    EXPECT_EQ(parsed.value().root()->text, text);
    EXPECT_EQ(*parsed.value().root()->FindAttribute("k"), text);
  }
}

}  // namespace
}  // namespace twigm
