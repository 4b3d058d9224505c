// Tests for the persistent structural index (src/index/): builder/reader
// round-trips, label correctness, and a differential suite pinning the
// IndexedEvaluator to the DOM oracle and the streaming engines over 100+
// random documents — indexed, streaming, and DOM runs must produce
// identical match sets (same pre-order NodeIds), and every indexed match
// must carry the byte offset of its element's start tag.

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/dom_eval.h"
#include "common/random.h"
#include "data/book.h"
#include "data/protein.h"
#include "data/xmark.h"
#include "core/evaluator.h"
#include "core/machine_builder.h"
#include "core/result_sink.h"
#include "gtest/gtest.h"
#include "index/index_builder.h"
#include "index/index_reader.h"
#include "index/indexed_evaluator.h"
#include "xml/xml_writer.h"
#include "xpath/query_tree.h"

namespace twigm::index {
namespace {

// Builds the index image for `doc`, feeding it in `chunk`-byte pieces
// (0 means one chunk). Fails the test on any builder error.
std::string MustBuildImage(std::string_view doc, size_t chunk = 0) {
  IndexBuilder builder;
  if (chunk == 0) chunk = doc.size();
  for (size_t pos = 0; pos < doc.size(); pos += chunk) {
    const size_t len = std::min(chunk, doc.size() - pos);
    EXPECT_TRUE(builder.Consume({doc.substr(pos, len), false}).ok());
  }
  EXPECT_TRUE(builder.Consume({std::string_view(), true}).ok());
  std::string image;
  EXPECT_TRUE(builder.Serialize(&image).ok());
  return image;
}

std::unique_ptr<IndexReader> MustOpen(std::string_view doc) {
  Result<std::unique_ptr<IndexReader>> reader =
      IndexReader::OpenBytes(MustBuildImage(doc));
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  return reader.ok() ? std::move(reader).value() : nullptr;
}

// Runs `query` through the IndexedEvaluator; returns matches in emission
// order (which must already be document order).
std::vector<core::MatchInfo> IndexedMatches(const IndexReader& reader,
                                            std::string_view query) {
  Result<std::unique_ptr<IndexedEvaluator>> eval =
      IndexedEvaluator::Create(query, &reader);
  EXPECT_TRUE(eval.ok()) << query << ": " << eval.status().ToString();
  if (!eval.ok()) return {};
  core::VectorResultSink sink;
  EXPECT_TRUE(eval.value()->Evaluate(&sink).ok());
  return sink.matches();
}

std::vector<xml::NodeId> IndexedIds(const IndexReader& reader,
                                    std::string_view query) {
  std::vector<xml::NodeId> ids;
  for (const core::MatchInfo& m : IndexedMatches(reader, query)) {
    ids.push_back(m.id);
  }
  return ids;
}

// ---------------------------------------------------------------------------
// Labels and stored facts

TEST(IndexBuilderTest, LabelsPrePostLevel) {
  // <a>          pre=1 post=4 level=1
  //   <b/>       pre=2 post=1 level=2
  //   <c>        pre=3 post=3 level=2
  //     <b/>     pre=4 post=2 level=3
  //   </c>
  // </a>
  const std::string doc = "<a><b/><c><b/></c></a>";
  std::unique_ptr<IndexReader> reader = MustOpen(doc);
  ASSERT_NE(reader, nullptr);
  ASSERT_EQ(reader->element_count(), 4u);
  const uint32_t* post = reader->post();
  const uint16_t* level = reader->level();
  EXPECT_EQ(post[0], 4u);
  EXPECT_EQ(post[1], 1u);
  EXPECT_EQ(post[2], 3u);
  EXPECT_EQ(post[3], 2u);
  EXPECT_EQ(level[0], 1u);
  EXPECT_EQ(level[1], 2u);
  EXPECT_EQ(level[2], 2u);
  EXPECT_EQ(level[3], 3u);
  // Containment via the labels.
  EXPECT_TRUE(reader->IsAncestor(1, 2));
  EXPECT_TRUE(reader->IsAncestor(1, 4));
  EXPECT_TRUE(reader->IsAncestor(3, 4));
  EXPECT_FALSE(reader->IsAncestor(2, 4));
  EXPECT_FALSE(reader->IsAncestor(2, 3));
  EXPECT_FALSE(reader->IsAncestor(1, 1));
}

TEST(IndexBuilderTest, PostingsAreSortedPerSymbol) {
  std::unique_ptr<IndexReader> reader =
      MustOpen("<a><b/><c><b/></c><b/></a>");
  ASSERT_NE(reader, nullptr);
  const xml::SymbolId b = reader->FindSymbol("b");
  ASSERT_NE(b, xml::kNoSymbol);
  const IndexReader::U32Span postings = reader->postings(b);
  ASSERT_EQ(postings.size, 3u);
  EXPECT_EQ(postings.data[0], 2u);
  EXPECT_EQ(postings.data[1], 4u);
  EXPECT_EQ(postings.data[2], 5u);
  // A name the corpus never used as a tag has empty postings.
  EXPECT_EQ(reader->FindSymbol("ghost"), xml::kNoSymbol);
  EXPECT_EQ(reader->postings(xml::kNoSymbol).size, 0u);
}

TEST(IndexBuilderTest, DirectTextConcatenatesAroundChildren) {
  // Mixed content: the direct text of <a> is "xz" and of <c> "pq" (the
  // text inside a child belongs to the child).
  std::unique_ptr<IndexReader> reader =
      MustOpen("<a>x<b>y</b>z<c>p<d/>q</c></a>");
  ASSERT_NE(reader, nullptr);
  EXPECT_EQ(reader->DirectText(1), "xz");
  EXPECT_EQ(reader->DirectText(2), "y");
  EXPECT_EQ(reader->DirectText(3), "pq");
  EXPECT_EQ(reader->DirectText(4), "");
}

TEST(IndexBuilderTest, ElementsWithoutTextReadAsEmpty) {
  std::unique_ptr<IndexReader> reader = MustOpen("<a><b/><c>t</c><d></d></a>");
  ASSERT_NE(reader, nullptr);
  EXPECT_EQ(reader->DirectText(1), "");
  EXPECT_EQ(reader->DirectText(2), "");
  EXPECT_EQ(reader->DirectText(3), "t");
  EXPECT_EQ(reader->DirectText(4), "");
}

// The pre ids of `reader`'s attribute postings for `name`.
std::vector<uint32_t> AttrHolders(const IndexReader& reader,
                                  std::string_view name) {
  const IndexReader::AttrPostings attrs =
      reader.attributes(reader.FindSymbol(name));
  return std::vector<uint32_t>(attrs.pre, attrs.pre + attrs.size);
}

// The value element `pre` gives attribute `name`, or nullopt without one.
std::optional<std::string_view> AttrValue(const IndexReader& reader,
                                          uint32_t pre,
                                          std::string_view name) {
  const IndexReader::AttrPostings attrs =
      reader.attributes(reader.FindSymbol(name));
  const uint32_t* it = std::lower_bound(attrs.pre, attrs.pre + attrs.size, pre);
  if (it == attrs.pre + attrs.size || *it != pre) return std::nullopt;
  return attrs.value(static_cast<size_t>(it - attrs.pre));
}

TEST(IndexBuilderTest, AttributesStoredInDocumentOrder) {
  // Each name's postings hold its elements in document (pre) order, with
  // the value each one gives it; <a> carries several attributes.
  std::unique_ptr<IndexReader> reader = MustOpen(
      "<a x=\"1\" y=\"two\" z=\"\"><b y=\"3\"/><c/><b x=\"4\" y=\"5\"/></a>");
  ASSERT_NE(reader, nullptr);
  EXPECT_EQ(AttrHolders(*reader, "x"), (std::vector<uint32_t>{1, 4}));
  EXPECT_EQ(AttrHolders(*reader, "y"), (std::vector<uint32_t>{1, 2, 4}));
  EXPECT_EQ(AttrHolders(*reader, "z"), (std::vector<uint32_t>{1}));
  const IndexReader::AttrPostings y =
      reader->attributes(reader->FindSymbol("y"));
  ASSERT_EQ(y.size, 3u);
  EXPECT_EQ(y.value(0), "two");
  EXPECT_EQ(y.value(1), "3");
  EXPECT_EQ(y.value(2), "5");
  EXPECT_EQ(AttrValue(*reader, 1, "x"), std::optional<std::string_view>("1"));
  EXPECT_EQ(AttrValue(*reader, 4, "x"), std::optional<std::string_view>("4"));
  EXPECT_EQ(AttrValue(*reader, 2, "x"), std::nullopt);
  EXPECT_EQ(AttrValue(*reader, 3, "x"), std::nullopt);  // no attributes
  // An empty value is stored, and differs from an absent attribute.
  EXPECT_EQ(AttrValue(*reader, 1, "z"), std::optional<std::string_view>(""));
  EXPECT_EQ(AttrValue(*reader, 2, "z"), std::nullopt);
  // Tags carry no attribute postings, and unknown names none either.
  EXPECT_EQ(reader->attributes(reader->FindSymbol("b")).size, 0u);
  EXPECT_EQ(reader->attributes(xml::kNoSymbol).size, 0u);
}

TEST(IndexBuilderTest, NameUsedAsTagAndAttributeKeepsBothPostings) {
  // One symbol names both the <id> elements and the id attributes.
  std::unique_ptr<IndexReader> reader =
      MustOpen("<r id=\"r1\"><id>7</id><s id=\"s1\"><id/></s></r>");
  ASSERT_NE(reader, nullptr);
  const xml::SymbolId id = reader->FindSymbol("id");
  ASSERT_NE(id, xml::kNoSymbol);
  const IndexReader::U32Span tags = reader->postings(id);
  EXPECT_EQ(std::vector<uint32_t>(tags.begin(), tags.end()),
            (std::vector<uint32_t>{2, 4}));
  EXPECT_EQ(AttrHolders(*reader, "id"), (std::vector<uint32_t>{1, 3}));
  EXPECT_EQ(AttrValue(*reader, 3, "id"), std::optional<std::string_view>("s1"));
  EXPECT_EQ(reader->DirectText(2), "7");
  EXPECT_EQ(IndexedIds(*reader, "//*[@id]"), (std::vector<xml::NodeId>{1, 3}));
  EXPECT_EQ(IndexedIds(*reader, "//*[id]"), (std::vector<xml::NodeId>{1, 3}));
  EXPECT_EQ(IndexedIds(*reader, "//id"), (std::vector<xml::NodeId>{2, 4}));
}

TEST(IndexBuilderTest, NestingDeeperThanTheLevelColumnIsRefused) {
  // The level column is 16 bits wide; the parser's own depth bound can be
  // raised past it.
  xml::SaxParserOptions sax;
  sax.max_depth = static_cast<int>(kMaxLevel) + 10;
  auto nested = [](size_t depth) {
    std::string doc;
    for (size_t i = 0; i < depth; ++i) doc += "<d>";
    for (size_t i = 0; i < depth; ++i) doc += "</d>";
    return doc;
  };
  {
    IndexBuilder builder(sax);
    ASSERT_TRUE(builder.Consume({nested(kMaxLevel), true}).ok());
    std::string image;
    ASSERT_TRUE(builder.Serialize(&image).ok());
    Result<std::unique_ptr<IndexReader>> reader =
        IndexReader::OpenBytes(std::move(image));
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_EQ(reader.value()->max_depth(), kMaxLevel);
  }
  IndexBuilder builder(sax);
  const Status s = builder.Consume({nested(kMaxLevel + 1), true});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
  EXPECT_NE(s.message().find("16 bits"), std::string::npos) << s.ToString();
  std::string image;
  EXPECT_FALSE(builder.Serialize(&image).ok());
}

TEST(IndexBuilderTest, ByteOffsetsPointAtStartTags) {
  const std::string doc =
      "<root>text<child a=\"v\">more</child><child/><deep><x/></deep></root>";
  std::unique_ptr<IndexReader> reader = MustOpen(doc);
  ASSERT_NE(reader, nullptr);
  const uint64_t* offsets = reader->byte_offset();
  const uint32_t* symbols = reader->symbol();
  for (uint64_t pre = 1; pre <= reader->element_count(); ++pre) {
    const uint64_t off = offsets[pre - 1];
    ASSERT_LT(off, doc.size());
    EXPECT_EQ(doc[off], '<') << "pre=" << pre;
    const std::string_view name = reader->dictionary().name(symbols[pre - 1]);
    EXPECT_EQ(doc.substr(off + 1, name.size()), name) << "pre=" << pre;
  }
}

TEST(IndexBuilderTest, ChunkingDoesNotChangeTheImage) {
  const std::string doc =
      "<catalog><book id=\"1\"><title>T&amp;A</title></book>"
      "<!-- note --><misc/><longtagname attr='v'>text</longtagname>"
      "</catalog>";
  const std::string whole = MustBuildImage(doc);
  for (size_t chunk = 1; chunk <= 17; ++chunk) {
    EXPECT_EQ(MustBuildImage(doc, chunk), whole) << "chunk=" << chunk;
  }
}

TEST(IndexBuilderTest, SerializeBeforeLastChunkFails) {
  IndexBuilder builder;
  ASSERT_TRUE(builder.Consume({"<a><b/>", false}).ok());
  std::string image;
  EXPECT_FALSE(builder.Serialize(&image).ok());
}

TEST(IndexBuilderTest, MalformedDocumentIsStickyError) {
  IndexBuilder builder;
  EXPECT_FALSE(builder.Consume({"<a></b>", true}).ok());
  EXPECT_FALSE(builder.Consume({"", true}).ok());  // still the same error
  std::string image;
  EXPECT_FALSE(builder.Serialize(&image).ok());
}

TEST(IndexReaderTest, WriteFileOpenRoundTrip) {
  const std::string doc = "<a><b>t</b><c><b/></c></a>";
  IndexBuilder builder;
  ASSERT_TRUE(builder.Consume({doc, true}).ok());
  const std::string path = ::testing::TempDir() + "/roundtrip.twgmidx";
  ASSERT_TRUE(builder.WriteFile(path).ok());
  Result<std::unique_ptr<IndexReader>> reader = IndexReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader.value()->element_count(), 4u);
  EXPECT_EQ(reader.value()->document_bytes(), doc.size());
  EXPECT_EQ(IndexedIds(*reader.value(), "//b"),
            (std::vector<xml::NodeId>{2, 4}));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// IndexedEvaluator semantics on hand-checked documents

TEST(IndexedEvaluatorTest, AxesAndAnchoring) {
  std::unique_ptr<IndexReader> reader =
      MustOpen("<a><b><a><b/></a></b></a>");
  ASSERT_NE(reader, nullptr);
  EXPECT_EQ(IndexedIds(*reader, "//b"), (std::vector<xml::NodeId>{2, 4}));
  EXPECT_EQ(IndexedIds(*reader, "/a/b"), (std::vector<xml::NodeId>{2}));
  EXPECT_EQ(IndexedIds(*reader, "/b"), (std::vector<xml::NodeId>{}));
  EXPECT_EQ(IndexedIds(*reader, "//a//b"), (std::vector<xml::NodeId>{2, 4}));
  EXPECT_EQ(IndexedIds(*reader, "//a/b/a"), (std::vector<xml::NodeId>{3}));
  EXPECT_EQ(IndexedIds(*reader, "//*"),
            (std::vector<xml::NodeId>{1, 2, 3, 4}));
}

TEST(IndexedEvaluatorTest, PredicatesAndValueTests) {
  std::unique_ptr<IndexReader> reader = MustOpen(
      "<lib><book year=\"2001\"><title>x</title></book>"
      "<book year=\"1999\"><title>y</title></book>"
      "<book><title>x</title></book></lib>");
  ASSERT_NE(reader, nullptr);
  EXPECT_EQ(IndexedIds(*reader, "//book[@year]"),
            (std::vector<xml::NodeId>{2, 4}));
  EXPECT_EQ(IndexedIds(*reader, "//book[@year=\"2001\"]"),
            (std::vector<xml::NodeId>{2}));
  EXPECT_EQ(IndexedIds(*reader, "//book[@year>2000]"),
            (std::vector<xml::NodeId>{2}));
  EXPECT_EQ(IndexedIds(*reader, "//book[title=\"x\"]"),
            (std::vector<xml::NodeId>{2, 6}));
  EXPECT_EQ(IndexedIds(*reader, "//book[title=\"x\"]/title"),
            (std::vector<xml::NodeId>{3, 7}));
  EXPECT_EQ(IndexedIds(*reader, "//book[@missing]"),
            (std::vector<xml::NodeId>{}));
}

TEST(IndexedEvaluatorTest, UnknownTagYieldsNoMatchesNotAnError) {
  std::unique_ptr<IndexReader> reader = MustOpen("<a><b/></a>");
  ASSERT_NE(reader, nullptr);
  EXPECT_EQ(IndexedIds(*reader, "//nosuchtag"), (std::vector<xml::NodeId>{}));
  EXPECT_EQ(IndexedIds(*reader, "//a[nosuchtag]"),
            (std::vector<xml::NodeId>{}));
}

TEST(IndexedEvaluatorTest, AttributeReturnNodeIsRejected) {
  std::unique_ptr<IndexReader> reader = MustOpen("<a x=\"1\"/>");
  ASSERT_NE(reader, nullptr);
  Result<std::unique_ptr<IndexedEvaluator>> eval =
      IndexedEvaluator::Create("//a/@x", reader.get());
  EXPECT_FALSE(eval.ok());
}

TEST(IndexedEvaluatorTest, EvaluateIsRepeatable) {
  std::unique_ptr<IndexReader> reader =
      MustOpen("<a><b/><c><b/></c></a>");
  ASSERT_NE(reader, nullptr);
  Result<std::unique_ptr<IndexedEvaluator>> eval =
      IndexedEvaluator::Create("//a//b", reader.get());
  ASSERT_TRUE(eval.ok());
  for (int run = 0; run < 3; ++run) {
    core::VectorResultSink sink;
    ASSERT_TRUE(eval.value()->Evaluate(&sink).ok());
    EXPECT_EQ(sink.ids(), (std::vector<xml::NodeId>{2, 4})) << "run " << run;
    EXPECT_EQ(eval.value()->stats().results, 2u);
  }
}

// One document for the join rules. Every join edge is (op, k) after the
// section 4.2 wildcard folding; one case per rule and side.
//
//   <a>                 pre 1  level 1
//     <b>               pre 2  level 2
//       <c><d/></c>     pre 3, 4   levels 3, 4
//       <d/>            pre 5  level 3
//     </b>
//     <c>               pre 6  level 2
//       <b>             pre 7  level 3
//         <e><d/></e>   pre 8, 9   levels 4, 5
//       </b>
//     </c>
//     <d/>              pre 10 level 2
//   </a>
constexpr std::string_view kJoinDoc =
    "<a><b><c><d/></c><d/></b><c><b><e><d/></e></b></c><d/></a>";

TEST(IndexedEvaluatorTest, DescendantSideExactDistance) {
  std::unique_ptr<IndexReader> reader = MustOpen(kJoinDoc);
  ASSERT_NE(reader, nullptr);
  // (=,1): d whose parent is a b.
  EXPECT_EQ(IndexedIds(*reader, "//b/d"), (std::vector<xml::NodeId>{5}));
  // (=,2): d exactly two levels below a b.
  EXPECT_EQ(IndexedIds(*reader, "//b/*/d"),
            (std::vector<xml::NodeId>{4, 9}));
  // (=,2) and (=,3) below the root a.
  EXPECT_EQ(IndexedIds(*reader, "//a/*/d"), (std::vector<xml::NodeId>{5}));
  EXPECT_EQ(IndexedIds(*reader, "//a/*/*/d"), (std::vector<xml::NodeId>{4}));
}

TEST(IndexedEvaluatorTest, DescendantSideAtLeastDistance) {
  std::unique_ptr<IndexReader> reader = MustOpen(kJoinDoc);
  ASSERT_NE(reader, nullptr);
  // (≥,1).
  EXPECT_EQ(IndexedIds(*reader, "//b//d"),
            (std::vector<xml::NodeId>{4, 5, 9}));
  // (≥,2): d4 and d9 sit two below a b, d5 only one.
  EXPECT_EQ(IndexedIds(*reader, "//b/*//d"),
            (std::vector<xml::NodeId>{4, 9}));
  EXPECT_EQ(IndexedIds(*reader, "//b//*/d"),
            (std::vector<xml::NodeId>{4, 9}));
  // (≥,2) and (≥,3) below the root a.
  EXPECT_EQ(IndexedIds(*reader, "//a/*//d"),
            (std::vector<xml::NodeId>{4, 5, 9}));
  EXPECT_EQ(IndexedIds(*reader, "//a/*/*//d"),
            (std::vector<xml::NodeId>{4, 9}));
}

TEST(IndexedEvaluatorTest, AncestorSideExactDistance) {
  std::unique_ptr<IndexReader> reader = MustOpen(kJoinDoc);
  ASSERT_NE(reader, nullptr);
  // (=,1): b with a child d (b7's d is a grandchild).
  EXPECT_EQ(IndexedIds(*reader, "//b[d]"), (std::vector<xml::NodeId>{2}));
  // (=,1) with a wildcard anchor: every parent of a d.
  EXPECT_EQ(IndexedIds(*reader, "//*[d]"),
            (std::vector<xml::NodeId>{1, 2, 3, 8}));
  // (=,2): grandparents of a d.
  EXPECT_EQ(IndexedIds(*reader, "//*[*/d]"),
            (std::vector<xml::NodeId>{1, 2, 7}));
  // (=,3): great-grandparents of a d.
  EXPECT_EQ(IndexedIds(*reader, "//*[*/*/d]"),
            (std::vector<xml::NodeId>{1, 6}));
}

TEST(IndexedEvaluatorTest, AncestorSideAtLeastDistance) {
  std::unique_ptr<IndexReader> reader = MustOpen(kJoinDoc);
  ASSERT_NE(reader, nullptr);
  // (≥,1): c with any d below it.
  EXPECT_EQ(IndexedIds(*reader, "//c[//d]"), (std::vector<xml::NodeId>{3, 6}));
  // (≥,2): a d at least two levels down; c3's d is its child, e8's too.
  EXPECT_EQ(IndexedIds(*reader, "//*[*//d]"),
            (std::vector<xml::NodeId>{1, 2, 6, 7}));
  // (≥,3): b2 and b7 hold a d only two levels down.
  EXPECT_EQ(IndexedIds(*reader, "//*[*/*//d]"),
            (std::vector<xml::NodeId>{1, 6}));
}

TEST(IndexedEvaluatorTest, WildcardsFoldIntoTheRootAnchor) {
  std::unique_ptr<IndexReader> reader = MustOpen(kJoinDoc);
  ASSERT_NE(reader, nullptr);
  EXPECT_EQ(IndexedIds(*reader, "/*/c"), (std::vector<xml::NodeId>{6}));
  EXPECT_EQ(IndexedIds(*reader, "/*/*/d"), (std::vector<xml::NodeId>{5}));
  EXPECT_EQ(IndexedIds(*reader, "/*//d"),
            (std::vector<xml::NodeId>{4, 5, 9, 10}));
  EXPECT_EQ(IndexedIds(*reader, "//*//*"),
            (std::vector<xml::NodeId>{2, 3, 4, 5, 6, 7, 8, 9, 10}));
}

TEST(IndexedEvaluatorTest, ReturnWildcardIsEnumeratedFromAncestors) {
  std::unique_ptr<IndexReader> reader = MustOpen(kJoinDoc);
  ASSERT_NE(reader, nullptr);
  EXPECT_EQ(IndexedIds(*reader, "//c/*"), (std::vector<xml::NodeId>{4, 7}));
  EXPECT_EQ(IndexedIds(*reader, "//c//*"),
            (std::vector<xml::NodeId>{4, 7, 8, 9}));
  EXPECT_EQ(IndexedIds(*reader, "//b/*/*"), (std::vector<xml::NodeId>{4, 9}));
  EXPECT_EQ(IndexedIds(*reader, "//e/*"), (std::vector<xml::NodeId>{9}));
  EXPECT_EQ(IndexedIds(*reader, "//d/*"), (std::vector<xml::NodeId>{}));
  // Nested ancestors (a1 holds b2, c3 and e8) enumerate each id once.
  EXPECT_EQ(IndexedIds(*reader, "//*[d]//*"),
            (std::vector<xml::NodeId>{2, 3, 4, 5, 6, 7, 8, 9, 10}));
  EXPECT_EQ(IndexedIds(*reader, "//*[d]/*"),
            (std::vector<xml::NodeId>{2, 3, 4, 5, 6, 9, 10}));
}

// A '*' with an element predicate child and no attribute test starts from
// the ancestors of its smallest predicate child's list at that child's edge
// (one pass over the level column), not from all elements.
std::string ExplainAfterEvaluate(const IndexReader& reader,
                                 std::string_view query) {
  Result<std::unique_ptr<IndexedEvaluator>> eval =
      IndexedEvaluator::Create(query, &reader);
  EXPECT_TRUE(eval.ok()) << query << ": " << eval.status().ToString();
  if (!eval.ok()) return "";
  core::VectorResultSink sink;
  EXPECT_TRUE(eval.value()->Evaluate(&sink).ok());
  return eval.value()->Explain();
}

TEST(IndexedEvaluatorTest, WildcardIsSeededFromItsPredicateChild) {
  std::unique_ptr<IndexReader> reader = MustOpen(kJoinDoc);
  ASSERT_NE(reader, nullptr);
  const uint64_t n = reader->element_count();
  struct Case {
    const char* query;
    std::vector<xml::NodeId> ids;
    const char* seed;  // the Explain() line naming the seed
  };
  const Case cases[] = {
      // (=,1), and the folded (=,2) and (=,3).
      {"//*[d]", {1, 2, 3, 8}, "seeded from node 1 d at (=,1)"},
      {"//*[*/d]", {1, 2, 7}, "seeded from node 1 d at (=,2)"},
      {"//*[*/*/d]", {1, 6}, "seeded from node 1 d at (=,3)"},
      // (≥,k): every ancestor at least k levels up.
      {"//*[*//d]", {1, 2, 6, 7}, "seeded from node 1 d at (>=,2)"},
      {"//*[//d]", {1, 2, 3, 6, 7, 8}, "seeded from node 1 d at (>=,1)"},
      // Root-anchored: the seed, then the level-1 anchor.
      {"/*[b]", {1}, "seeded from node 1 b at (=,1)"},
      {"/*[e]", {}, "seeded from node 1 e at (=,1)"},
      // The root a's parent is the document node: no element.
      {"//*[a]", {}, "seeded from node 1 a at (=,1)"},
  };
  for (const Case& c : cases) {
    Result<std::unique_ptr<IndexedEvaluator>> eval =
        IndexedEvaluator::Create(c.query, reader.get());
    ASSERT_TRUE(eval.ok()) << c.query;
    core::VectorResultSink sink;
    ASSERT_TRUE(eval.value()->Evaluate(&sink).ok());
    EXPECT_EQ(sink.ids(), c.ids) << c.query;
    const std::string explain = eval.value()->Explain();
    EXPECT_NE(explain.find(c.seed), std::string::npos)
        << c.query << "\n" << explain;
    EXPECT_EQ(explain.find("all elements"), std::string::npos) << explain;
    // The seed reads its child's list, not all n elements.
    EXPECT_LT(eval.value()->stats().postings_touched, n) << c.query;
  }
  // An element-only document: its one element has no element parent.
  std::unique_ptr<IndexReader> single = MustOpen("<a/>");
  ASSERT_NE(single, nullptr);
  EXPECT_EQ(IndexedIds(*single, "//*[a]"), (std::vector<xml::NodeId>{}));
  EXPECT_EQ(IndexedIds(*single, "//*[//a]"), (std::vector<xml::NodeId>{}));
}

TEST(IndexedEvaluatorTest, LargerPredicateJoinsAfterTheSeed) {
  std::unique_ptr<IndexReader> reader = MustOpen(kJoinDoc);
  ASSERT_NE(reader, nullptr);
  // Parents of a d are {1, 2, 3, 8}; of those, a1 (c6) and b2 (c3) have a
  // c child. c's two postings seed the list; d's four join after it.
  const std::string explain = ExplainAfterEvaluate(*reader, "//*[d][c]");
  EXPECT_NE(explain.find("seeded from node 2 c at (=,1): 2"),
            std::string::npos)
      << explain;
  EXPECT_NE(explain.find("join node 1 d at (=,1): 2"), std::string::npos)
      << explain;
  EXPECT_EQ(IndexedIds(*reader, "//*[d][c]"), (std::vector<xml::NodeId>{1, 2}));
  EXPECT_EQ(IndexedIds(*reader, "//*[c][d]"), (std::vector<xml::NodeId>{1, 2}));
  // Before any Evaluate the plan names the rule, not a child.
  Result<std::unique_ptr<IndexedEvaluator>> fresh =
      IndexedEvaluator::Create("//*[d][c]", reader.get());
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(fresh.value()->Explain().find(
                "seeded from its smallest predicate child"),
            std::string::npos);
}

TEST(IndexedEvaluatorTest, SeedBitmapIsClearedBetweenPasses) {
  std::unique_ptr<IndexReader> reader = MustOpen(kJoinDoc);
  ASSERT_NE(reader, nullptr);
  // Two seeded nodes per Evaluate: '*[d]' (parents of a d: 1, 2, 3, 8) is
  // seeded first, then '*[e]' (b7 only). A bit left over from the first
  // pass would add 1, 2, 3 and 8 to the second and let 2, 3 match.
  Result<std::unique_ptr<IndexedEvaluator>> eval =
      IndexedEvaluator::Create("//*[e]/*[d]", reader.get());
  ASSERT_TRUE(eval.ok());
  for (int run = 0; run < 3; ++run) {
    core::VectorResultSink sink;
    ASSERT_TRUE(eval.value()->Evaluate(&sink).ok());
    EXPECT_EQ(sink.ids(), (std::vector<xml::NodeId>{8})) << "run " << run;
  }
}

TEST(IndexedEvaluatorTest, BookQ9SeedsTheWildcardFromFigure) {
  data::BookOptions o;
  o.seed = 11;
  o.number_levels = 20;
  o.max_repeats = 6;
  o.min_bytes = 40000;
  std::unique_ptr<IndexReader> reader =
      MustOpen(data::GenerateBook(o).value());
  ASSERT_NE(reader, nullptr);
  const std::string explain =
      ExplainAfterEvaluate(*reader, "//*[title][figure[image]]//p");
  EXPECT_NE(explain.find("node 0 *"), std::string::npos) << explain;
  EXPECT_NE(explain.find("seeded from node 2 figure at (=,1)"),
            std::string::npos)
      << explain;
  EXPECT_NE(explain.find("join node 1 title at (=,1)"), std::string::npos)
      << explain;
  EXPECT_EQ(explain.find("all elements"), std::string::npos) << explain;
}

// ---------------------------------------------------------------------------
// Differential suite: random documents + random XP{/,//,*,[]} queries; the
// indexed evaluator must agree with the DOM oracle and the streaming TwigM
// engine on every one.

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

std::string RandomDocument(Rng* rng) {
  xml::XmlWriter w(/*with_declaration=*/false);
  EmitRandomElement(rng, DocParams(), 1, &w);
  return std::move(w).TakeString();
}

std::string RandomSteps(Rng* rng, int pred_depth, bool first_is_anchored);

std::string RandomPredicate(Rng* rng, int pred_depth) {
  if (rng->Chance(0.25)) {
    std::string out = "[@";
    out += rng->Chance(0.5) ? "x" : "y";
    if (rng->Chance(0.4)) {
      out += "=\"" + std::string(rng->Chance(0.5) ? "u" : "10") + "\"";
    }
    out += "]";
    return out;
  }
  std::string out = "[";
  out += RandomSteps(rng, pred_depth, /*first_is_anchored=*/false);
  if (rng->Chance(0.3)) {
    static const char* kOps[] = {"=", "!=", "<", ">="};
    out += kOps[rng->Below(4)];
    out += rng->Chance(0.5) ? "\"u\"" : "5";
  }
  out += "]";
  return out;
}

std::string RandomStep(Rng* rng, int pred_depth) {
  static const char* kTags[] = {"a", "b", "c", "d", "e"};
  std::string out = rng->Chance(0.15) ? "*" : kTags[rng->Below(5)];
  if (pred_depth < 2) {
    while (rng->Chance(0.3)) {
      out += RandomPredicate(rng, pred_depth + 1);
    }
  }
  return out;
}

std::string RandomSteps(Rng* rng, int pred_depth, bool first_is_anchored) {
  const int steps = 1 + static_cast<int>(rng->Below(3));
  std::string out;
  for (int i = 0; i < steps; ++i) {
    const bool descendant = rng->Chance(0.4);
    if (i == 0) {
      if (first_is_anchored) {
        out += descendant ? "//" : "/";
      } else if (descendant) {
        out += "//";
      }
    } else {
      out += descendant ? "//" : "/";
    }
    out += RandomStep(rng, pred_depth);
  }
  return out;
}

// Checks one (document, query) pair: the indexed ids equal the DOM oracle's
// and streaming TwigM's, come out in document order, and carry their start
// tags' byte offsets. A predicate-free query streams each match at its start
// tag (section 3.1), so its streaming offsets must equal the indexed ones;
// `*start_tag_checked` counts the queries whose matches were so checked.
// Returns the number of matches.
size_t ExpectIndexedAgrees(const std::string& doc, const std::string& query,
                           int* start_tag_checked) {
  Result<xpath::QueryTree> tree = xpath::QueryTree::Parse(query);
  EXPECT_TRUE(tree.ok()) << query << ": " << tree.status().ToString();
  if (!tree.ok()) return 0;

  // DOM oracle.
  Result<std::vector<xml::NodeId>> oracle =
      baselines::EvaluateOnDom(tree.value(), doc);
  EXPECT_TRUE(oracle.ok()) << oracle.status().ToString();
  if (!oracle.ok()) return 0;
  std::vector<xml::NodeId> expected = std::move(oracle).value();
  std::sort(expected.begin(), expected.end());

  // Streaming TwigM.
  core::VectorResultSink stream;
  Result<std::unique_ptr<core::XPathStreamProcessor>> proc =
      core::XPathStreamProcessor::Create(query, &stream);
  EXPECT_TRUE(proc.ok()) << proc.status().ToString();
  if (!proc.ok()) return 0;
  const Status fed = proc.value()->Consume({doc, /*last=*/true});
  EXPECT_TRUE(fed.ok()) << fed.ToString();
  std::vector<xml::NodeId> stream_ids = stream.ids();
  std::sort(stream_ids.begin(), stream_ids.end());
  EXPECT_EQ(stream_ids, expected) << "query " << query << "\ndoc " << doc;

  // Indexed: build, persist, reload, evaluate.
  Result<std::unique_ptr<IndexReader>> reader =
      IndexReader::OpenBytes(MustBuildImage(doc));
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  if (!reader.ok()) return 0;
  const std::vector<core::MatchInfo> matches =
      IndexedMatches(*reader.value(), query);
  std::vector<xml::NodeId> indexed_ids;
  for (const core::MatchInfo& m : matches) indexed_ids.push_back(m.id);
  // Emission order is document order, which for pre ids is sorted order.
  EXPECT_TRUE(std::is_sorted(indexed_ids.begin(), indexed_ids.end()));
  EXPECT_EQ(indexed_ids, expected) << "query " << query << "\ndoc " << doc;

  // Every match carries its element's start-tag byte offset.
  for (const core::MatchInfo& m : matches) {
    const uint64_t off = reader.value()->byte_offset()[m.id - 1];
    EXPECT_EQ(m.byte_offset, off);
    EXPECT_LT(off, doc.size());
    if (off < doc.size()) {
      EXPECT_EQ(doc[off], '<');
    }
  }
  if (!tree.value().has_predicates() && !tree.value().has_value_tests() &&
      !stream.matches().empty()) {
    for (const core::MatchInfo& m : stream.matches()) {
      EXPECT_EQ(m.byte_offset, reader.value()->byte_offset()[m.id - 1])
          << "streamed match " << m.id << " of query " << query << "\ndoc "
          << doc;
    }
    ++*start_tag_checked;
  }
  return expected.size();
}

TEST(IndexedDifferentialTest, MatchesOracleAndStreamingOn100Documents) {
  Rng rng(0x1DEC5);
  int nonempty = 0;
  int start_tag_checked = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const std::string doc = RandomDocument(&rng);
    const std::string query = RandomSteps(&rng, 0, /*first_is_anchored=*/true);
    const size_t matches = ExpectIndexedAgrees(doc, query, &start_tag_checked);
    if (::testing::Test::HasFailure()) return;
    if (matches > 0) ++nonempty;
  }
  EXPECT_GT(nonempty, 20);
  EXPECT_GT(start_tag_checked, 20);
}

// Deep documents with same-tag recursion and wildcard-heavy queries: after
// the section 4.2 folding every join edge is (=,k) or (≥,k), and this suite
// reaches each rule on both join sides with k ≥ 2 (counted below), plus
// return and leaf wildcards, wildcards with predicates and wildcards inside
// predicates ("a[*//b]", "a[*/b]").

// Emits one element and, depth and `budget` allowing, its children. A child
// repeats its parent's tag with probability 0.35 (same-tag recursion).
void EmitDeepElement(Rng* rng, int depth, int max_depth,
                     const std::string& parent_tag, int* budget,
                     xml::XmlWriter* w) {
  static const char* kTags[] = {"a", "b", "c", "d", "e"};
  static const char* kAttrs[] = {"x", "y"};
  static const char* kTexts[] = {"u", "v", "w", "10", "3"};
  const std::string tag = depth == 1               ? std::string("a")
                          : rng->Chance(0.35)      ? parent_tag
                                                   : kTags[rng->Below(5)];
  --*budget;
  w->Open(tag);
  if (rng->Chance(0.3)) w->Attr(kAttrs[rng->Below(2)], kTexts[rng->Below(5)]);
  if (rng->Chance(0.3)) w->Text(kTexts[rng->Below(5)]);
  if (depth < max_depth) {
    const int children = static_cast<int>(rng->Below(4));
    for (int i = 0; i < children && *budget > 0; ++i) {
      EmitDeepElement(rng, depth + 1, max_depth, tag, budget, w);
    }
  }
  w->Close();
}

std::string RandomDeepDocument(Rng* rng) {
  xml::XmlWriter w(/*with_declaration=*/false);
  int budget = 30 + static_cast<int>(rng->Below(120));
  const int max_depth = 4 + static_cast<int>(rng->Below(9));  // 4..12
  EmitDeepElement(rng, 1, max_depth, "a", &budget, &w);
  return std::move(w).TakeString();
}

std::string WildSteps(Rng* rng, int pred_depth, bool first_is_anchored);

std::string WildPredicate(Rng* rng, int pred_depth) {
  static const char* kTags[] = {"a", "b", "c", "d", "e"};
  const uint64_t kind = rng->Below(10);
  if (kind < 2) {
    std::string out = "[@";
    out += rng->Chance(0.5) ? "x" : "y";
    if (rng->Chance(0.4)) out += "=\"u\"";
    return out + "]";
  }
  if (kind < 4) {  // a wildcard inside the predicate: [*/b], [*//b]
    return std::string("[*") + (rng->Chance(0.5) ? "/" : "//") +
           kTags[rng->Below(5)] + "]";
  }
  std::string out = "[" + WildSteps(rng, pred_depth, false);
  if (rng->Chance(0.2)) out += rng->Chance(0.5) ? "=\"u\"" : ">=5";
  return out + "]";
}

std::string WildSteps(Rng* rng, int pred_depth, bool first_is_anchored) {
  static const char* kTags[] = {"a", "b", "c", "d", "e"};
  const int steps = 1 + static_cast<int>(rng->Below(4));
  std::string out;
  for (int i = 0; i < steps; ++i) {
    const bool descendant = rng->Chance(0.4);
    if (i > 0 || first_is_anchored || descendant) {
      out += descendant ? "//" : "/";
    }
    const bool last = i == steps - 1;
    out += rng->Chance(last ? 0.4 : 0.45) ? "*" : kTags[rng->Below(5)];
    if (pred_depth < 2) {
      while (rng->Chance(0.25)) out += WildPredicate(rng, pred_depth + 1);
    }
  }
  return out;
}

TEST(IndexedDifferentialTest, MatchesOracleAndStreamingOnDeepWildcardQueries) {
  Rng rng(0x5EED20);
  int nonempty = 0;
  // Folded edges seen, by [ancestor side (predicate) / descendant side
  // (output path)][exact / at least].
  int folded[2][2] = {};
  int start_tag_checked = 0;
  for (int trial = 0; trial < 1200; ++trial) {
    const std::string doc = RandomDeepDocument(&rng);
    const std::string query = WildSteps(&rng, 0, /*first_is_anchored=*/true);
    const size_t matches = ExpectIndexedAgrees(doc, query, &start_tag_checked);
    if (::testing::Test::HasFailure()) return;
    if (matches > 0) ++nonempty;
    Result<xpath::QueryTree> tree = xpath::QueryTree::Parse(query);
    ASSERT_TRUE(tree.ok());
    Result<core::MachineGraph> graph = core::MachineGraph::Build(tree.value());
    ASSERT_TRUE(graph.ok()) << query;
    for (const auto& node : graph.value().nodes()) {
      if (node->parent == nullptr || node->edge.distance < 2) continue;
      ++folded[node->on_output_path ? 1 : 0][node->edge.exact ? 0 : 1];
    }
  }
  EXPECT_GT(nonempty, 250);
  EXPECT_GT(start_tag_checked, 200);
  for (int side = 0; side < 2; ++side) {
    for (int op = 0; op < 2; ++op) {
      EXPECT_GT(folded[side][op], 20) << "side " << side << " op " << op;
    }
  }

  // Seeded wildcards on the generated corpora: a '*' with predicates, one
  // whose predicate folds to (=,2), and one with an enumerated '*' below.
  // Book's rows are empty elsewhere; each corpus adds its own analogues.
  data::BookOptions book;
  book.seed = 11;
  book.number_levels = 20;
  book.max_repeats = 6;
  book.min_bytes = 40000;
  data::XmarkOptions xmark;
  xmark.seed = 4;
  xmark.people = 20;
  data::ProteinOptions protein;
  protein.seed = 6;
  protein.entries = 40;
  const std::vector<std::string> book_rows = {
      "//*[title][figure[image]]", "//*[*/image]", "//*[figure]//*"};
  const struct {
    std::string doc;
    std::vector<std::string> own;
  } corpora[] = {
      {data::GenerateBook(book).value(), {}},
      {data::GenerateXmark(xmark).value(),
       {"//*[name][profile[interest]]", "//*[*/increase]",
        "//*[bidder]//*"}},
      {data::GenerateProtein(protein).value(),
       {"//*[header][protein[classification]]", "//*[*/author]",
        "//*[citation]//*"}},
  };
  int corpus_nonempty = 0;
  for (const auto& corpus : corpora) {
    std::vector<std::string> rows = book_rows;
    rows.insert(rows.end(), corpus.own.begin(), corpus.own.end());
    for (const std::string& query : rows) {
      if (ExpectIndexedAgrees(corpus.doc, query, &start_tag_checked) > 0) {
        ++corpus_nonempty;
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
  EXPECT_EQ(corpus_nonempty, 9);
}

// Attribute and value tests over the generated corpora, answered from the
// attribute postings and the direct-text column, with the index built at
// several chunk sizes: the same ids as the DOM oracle, in document order,
// each with its element's start-tag offset as a streaming run of "//*"
// (which emits every element at its start tag) reports it.
TEST(IndexedDifferentialTest, AttributeAndValueTestsOnCorpora) {
  struct Corpus {
    const char* name;
    std::string doc;
    std::vector<std::string> queries;
  };
  std::vector<Corpus> corpora;
  {
    data::BookOptions o;
    o.seed = 11;
    o.number_levels = 20;
    o.max_repeats = 6;
    o.min_bytes = 40000;
    corpora.push_back(
        {"book",
         data::GenerateBook(o).value(),
         {"//section[@id=\"id3\"]//figure", "//section[@id=\"id40\"]",
          "//figure[@width>50]/image", "//figure[@width<=50]",
          "//figure[@width][@height]", "//section[@id][@difficulty]//p",
          "//*[@id]", "//*[@source]", "//section[@ghost]", "//*[@ghost]",
          "//section[title=\"data\"]", "//*[title=\"data\"]//image",
          "//book[@year]/title[@short]", "//*[@short!=\"data\"]",
          "//section[@id][figure[@height>=10]]//section[p]/title"}});
  }
  {
    data::XmarkOptions o;
    o.seed = 4;
    o.people = 20;
    corpora.push_back(
        {"xmark",
         data::GenerateXmark(o).value(),
         {"//person[@id=\"person3\"]/name", "//profile[@income>50000]",
          "//profile[@income<60000][business=\"Yes\"]",
          "//edge[@from][@to]", "//*[@id]", "//*[@person]",
          "//open_auction[@id]//increase", "//item[@ghost]", "//*[@ghost]",
          "//*[title=\"data\"]", "//address[country=\"United States\"]"}});
  }
  {
    data::ProteinOptions o;
    o.seed = 6;
    o.entries = 40;
    corpora.push_back(
        {"protein",
         data::GenerateProtein(o).value(),
         {"//ProteinEntry[@id=\"PE3\"]//author", "//ProteinEntry[@id!=\"PE1\"]",
          "//ProteinEntry[@id>3]", "//citation[@type=\"journal\"][@ghost]",
          "//refinfo[@refid][citation[@type]]", "//*[@id]", "//*[@refid]",
          "//*[@ghost]", "//*[title=\"data\"]",
          "//organism[common=\"human\"]/source"}});
  }
  int nonempty = 0;
  int queries = 0;
  for (const Corpus& corpus : corpora) {
    // Start-tag offsets by pre id, from the streaming engine.
    core::VectorResultSink all;
    auto proc = core::XPathStreamProcessor::Create("//*", &all);
    ASSERT_TRUE(proc.ok());
    ASSERT_TRUE(proc.value()->Consume({corpus.doc, true}).ok());
    std::vector<uint64_t> start_tag(all.matches().size() + 1, 0);
    for (const core::MatchInfo& m : all.matches()) {
      ASSERT_LT(m.id, start_tag.size());
      start_tag[m.id] = m.byte_offset;
    }
    for (size_t chunk : {size_t{7}, size_t{4096}, size_t{0}}) {
      Result<std::unique_ptr<IndexReader>> reader =
          IndexReader::OpenBytes(MustBuildImage(corpus.doc, chunk));
      ASSERT_TRUE(reader.ok()) << reader.status().ToString();
      ASSERT_EQ(reader.value()->element_count() + 1, start_tag.size());
      for (const std::string& query : corpus.queries) {
        Result<xpath::QueryTree> tree = xpath::QueryTree::Parse(query);
        ASSERT_TRUE(tree.ok()) << query;
        Result<std::vector<xml::NodeId>> oracle =
            baselines::EvaluateOnDom(tree.value(), corpus.doc);
        ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
        std::vector<xml::NodeId> expected = std::move(oracle).value();
        std::sort(expected.begin(), expected.end());
        const std::vector<core::MatchInfo> matches =
            IndexedMatches(*reader.value(), query);
        std::vector<xml::NodeId> ids;
        for (const core::MatchInfo& m : matches) {
          ids.push_back(m.id);
          EXPECT_EQ(m.byte_offset, start_tag[m.id])
              << corpus.name << " " << query << " id " << m.id;
        }
        EXPECT_EQ(ids, expected)
            << corpus.name << " chunk " << chunk << ": " << query;
        if (chunk == 0) {
          ++queries;
          if (!expected.empty()) ++nonempty;
        }
      }
    }
  }
  // Most queries match something; the unknown-name ones cannot.
  EXPECT_GE(nonempty, queries * 2 / 3) << nonempty << " of " << queries;
}

}  // namespace
}  // namespace twigm::index
