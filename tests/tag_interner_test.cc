#include <string>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"
#include "xml/sax_event.h"
#include "xml/sax_parser.h"
#include "xml/tag_interner.h"

namespace twigm::xml {
namespace {

TEST(TagInternerTest, AssignsDenseStableIds) {
  TagInterner interner;
  EXPECT_EQ(interner.size(), 0u);
  const SymbolId a = interner.Intern("a");
  const SymbolId b = interner.Intern("b");
  const SymbolId c = interner.Intern("c");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(c, 2u);
  EXPECT_EQ(interner.size(), 3u);
  // Re-interning is idempotent and does not grow the dictionary.
  EXPECT_EQ(interner.Intern("b"), b);
  EXPECT_EQ(interner.Intern("a"), a);
  EXPECT_EQ(interner.size(), 3u);
}

TEST(TagInternerTest, FindDoesNotIntern) {
  TagInterner interner;
  EXPECT_EQ(interner.Find("ghost"), kNoSymbol);
  EXPECT_EQ(interner.size(), 0u);
  const SymbolId id = interner.Intern("ghost");
  EXPECT_EQ(interner.Find("ghost"), id);
  EXPECT_EQ(interner.Find("other"), kNoSymbol);
}

TEST(TagInternerTest, NameRoundTrips) {
  TagInterner interner;
  const SymbolId id = interner.Intern("chapter");
  EXPECT_EQ(interner.name(id), "chapter");
}

TEST(TagInternerTest, InternCopiesTheBytes) {
  TagInterner interner;
  std::string volatile_name = "section";
  const SymbolId id = interner.Intern(volatile_name);
  // Clobber the source: the interner must have copied into its arena.
  volatile_name.assign("XXXXXXX");
  EXPECT_EQ(interner.name(id), "section");
  EXPECT_EQ(interner.Find("section"), id);
}

TEST(TagInternerTest, ViewsStayValidAcrossGrowth) {
  TagInterner interner;
  const SymbolId first = interner.Intern("first-symbol");
  const std::string_view early_view = interner.name(first);
  // Force many rehashes and arena chunks.
  std::vector<SymbolId> ids;
  for (int i = 0; i < 10000; ++i) {
    ids.push_back(interner.Intern("tag_" + std::to_string(i)));
  }
  EXPECT_EQ(interner.size(), 10001u);
  // The early view still points at live arena bytes.
  EXPECT_EQ(early_view, "first-symbol");
  EXPECT_EQ(interner.name(first), "first-symbol");
  // Every symbol is distinct and still resolvable.
  for (int i = 0; i < 10000; ++i) {
    const std::string name = "tag_" + std::to_string(i);
    EXPECT_EQ(interner.Find(name), ids[i]) << name;
    EXPECT_EQ(interner.name(ids[i]), name);
  }
}

TEST(TagInternerTest, DistinguishesPrefixes) {
  TagInterner interner;
  const SymbolId a = interner.Intern("ab");
  const SymbolId b = interner.Intern("abc");
  const SymbolId c = interner.Intern("a");
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_NE(a, c);
  EXPECT_EQ(interner.Find("ab"), a);
  EXPECT_EQ(interner.Find("abc"), b);
  EXPECT_EQ(interner.Find("a"), c);
}

// ---------------------------------------------------------------------------
// Chunk-split fuzz: the symbols a parser stamps into its TagTokens must not
// depend on how the input bytes were split across Feed() calls, even when a
// split lands mid-tag-name and the buffer compacts between chunks.

// Records "tag:symbol" per element event.
class SymbolRecorder : public StreamEventSink {
 public:
  void StartElement(const TagToken& tag, int, NodeId,
                    const std::vector<Attribute>&) override {
    log_ += "+" + std::string(tag.text) + ":" + std::to_string(tag.symbol) +
            " ";
  }
  void EndElement(const TagToken& tag, int) override {
    log_ += "-" + std::string(tag.text) + ":" + std::to_string(tag.symbol) +
            " ";
  }
  void Text(std::string_view, int) override {}
  void EndDocument() override { log_ += "."; }

  const std::string& log() const { return log_; }

 private:
  std::string log_;
};

std::string ParseInChunks(std::string_view doc, size_t chunk) {
  SymbolRecorder recorder;
  SaxParser parser(&recorder);
  for (size_t pos = 0; pos < doc.size(); pos += chunk) {
    const size_t len = std::min(chunk, doc.size() - pos);
    EXPECT_TRUE(parser.Consume({doc.substr(pos, len), false}).ok());
  }
  EXPECT_TRUE(parser.Consume({std::string_view(), true}).ok());
  return recorder.log();
}

TEST(TagInternerChunkFuzzTest, SymbolsIndependentOfChunking) {
  const std::string doc =
      "<catalog><book id=\"1\"><title>T&amp;A</title><author>x</author>"
      "<book id=\"2\"><title><![CDATA[raw <stuff>]]></title></book></book>"
      "<!-- note --><misc/><longtagname attr='v'>text</longtagname>"
      "</catalog>";
  const std::string whole = ParseInChunks(doc, doc.size());
  // Every chunk size from 1 byte up, so each boundary eventually lands
  // inside every construct (tag names, attributes, CDATA, comment).
  for (size_t chunk = 1; chunk <= 17; ++chunk) {
    EXPECT_EQ(ParseInChunks(doc, chunk), whole) << "chunk=" << chunk;
  }
}

TEST(TagInternerChunkFuzzTest, SplitAtEveryPosition) {
  const std::string doc = "<aa><bb x=\"1\"/><aa><cc>t</cc></aa></aa>";
  const std::string whole = ParseInChunks(doc, doc.size());
  for (size_t split = 1; split < doc.size(); ++split) {
    SymbolRecorder recorder;
    SaxParser parser(&recorder);
    ASSERT_TRUE(parser.Consume({std::string_view(doc).substr(0, split), false}).ok());
    ASSERT_TRUE(parser.Consume({std::string_view(doc).substr(split), false}).ok());
    ASSERT_TRUE(parser.Consume({std::string_view(), true}).ok());
    EXPECT_EQ(recorder.log(), whole) << "split=" << split;
  }
}

TEST(TagInternerChunkFuzzTest, ResetKeepsSymbolsStable) {
  SymbolRecorder recorder;
  SaxParser parser(&recorder);
  ASSERT_TRUE(parser.ParseAll("<a><b/></a>").ok());
  const SymbolId a = parser.interner()->Find("a");
  const SymbolId b = parser.interner()->Find("b");
  ASSERT_NE(a, kNoSymbol);
  ASSERT_NE(b, kNoSymbol);
  parser.Reset();
  // Second document reuses the dictionary: same names, same symbols.
  ASSERT_TRUE(parser.ParseAll("<b><a/><c/></b>").ok());
  EXPECT_EQ(parser.interner()->Find("a"), a);
  EXPECT_EQ(parser.interner()->Find("b"), b);
  EXPECT_NE(parser.interner()->Find("c"), kNoSymbol);
}

// ---------------------------------------------------------------------------
// Serialize/Load: the persistence path of the structural index. A loaded
// dictionary must reproduce the exact SymbolId for every name, no matter
// how the original document was chunked when the symbols were first
// interned.

TEST(TagInternerPersistTest, SerializeLoadRoundTrip) {
  TagInterner original;
  const SymbolId a = original.Intern("alpha");
  const SymbolId b = original.Intern("b");
  const SymbolId c = original.Intern("a-rather-longer-tag-name");
  std::string bytes;
  original.Serialize(&bytes);

  TagInterner loaded;
  ASSERT_TRUE(loaded.Load(bytes).ok());
  EXPECT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded.Find("alpha"), a);
  EXPECT_EQ(loaded.Find("b"), b);
  EXPECT_EQ(loaded.Find("a-rather-longer-tag-name"), c);
  EXPECT_EQ(loaded.name(a), "alpha");
  EXPECT_EQ(loaded.name(b), "b");
  EXPECT_EQ(loaded.Find("never-seen"), kNoSymbol);
}

TEST(TagInternerPersistTest, EmptyDictionaryRoundTrips) {
  TagInterner original;
  std::string bytes;
  original.Serialize(&bytes);
  TagInterner loaded;
  ASSERT_TRUE(loaded.Load(bytes).ok());
  EXPECT_EQ(loaded.size(), 0u);
}

TEST(TagInternerPersistTest, RoundTripSurvivesManySymbols) {
  TagInterner original;
  std::vector<SymbolId> ids;
  for (int i = 0; i < 5000; ++i) {
    ids.push_back(original.Intern("tag_" + std::to_string(i)));
  }
  std::string bytes;
  original.Serialize(&bytes);
  TagInterner loaded;
  ASSERT_TRUE(loaded.Load(bytes).ok());
  ASSERT_EQ(loaded.size(), 5000u);
  for (int i = 0; i < 5000; ++i) {
    const std::string name = "tag_" + std::to_string(i);
    ASSERT_EQ(loaded.Find(name), ids[i]) << name;
  }
}

TEST(TagInternerPersistTest, LoadRejectsTruncation) {
  TagInterner original;
  original.Intern("alpha");
  original.Intern("beta");
  std::string bytes;
  original.Serialize(&bytes);
  for (size_t len = 0; len < bytes.size(); ++len) {
    TagInterner loaded;
    EXPECT_FALSE(loaded.Load(bytes.substr(0, len)).ok()) << "len=" << len;
  }
}

TEST(TagInternerPersistTest, LoadRejectsTrailingGarbage) {
  TagInterner original;
  original.Intern("alpha");
  std::string bytes;
  original.Serialize(&bytes);
  bytes.push_back('x');
  TagInterner loaded;
  EXPECT_FALSE(loaded.Load(bytes).ok());
}

TEST(TagInternerPersistTest, LoadRequiresEmptyInterner) {
  TagInterner original;
  original.Intern("alpha");
  std::string bytes;
  original.Serialize(&bytes);
  TagInterner occupied;
  occupied.Intern("resident");
  EXPECT_FALSE(occupied.Load(bytes).ok());
}

// Fuzz leg: serialize the dictionary a chunk-split parse produced, load it
// into a fresh parser, re-ingest the same document under a different
// chunking, and require every event to carry the original symbol.
TEST(TagInternerPersistTest, ReingestAfterLoadKeepsSymbolsStable) {
  const std::string doc =
      "<catalog><book id=\"1\"><title>T&amp;A</title><author>x</author>"
      "<book id=\"2\"><title><![CDATA[raw <stuff>]]></title></book></book>"
      "<!-- note --><misc/><longtagname attr='v'>text</longtagname>"
      "</catalog>";
  for (size_t first_chunk = 1; first_chunk <= 13; ++first_chunk) {
    // First ingest, chunked at `first_chunk` bytes.
    SymbolRecorder recorder;
    SaxParser parser(&recorder);
    for (size_t pos = 0; pos < doc.size(); pos += first_chunk) {
      const size_t len = std::min(first_chunk, doc.size() - pos);
      ASSERT_TRUE(parser.Consume({std::string_view(doc).substr(pos, len),
                                  false}).ok());
    }
    ASSERT_TRUE(parser.Consume({std::string_view(), true}).ok());
    std::string bytes;
    parser.interner()->Serialize(&bytes);

    // Re-ingest under every other chunking with the loaded dictionary: the
    // event log (tag:symbol pairs) must be identical.
    for (size_t chunk = 1; chunk <= 13; chunk += 3) {
      SymbolRecorder recheck;
      SaxParser reparser(&recheck);
      ASSERT_TRUE(reparser.interner()->Load(bytes).ok());
      for (size_t pos = 0; pos < doc.size(); pos += chunk) {
        const size_t len = std::min(chunk, doc.size() - pos);
        ASSERT_TRUE(reparser.Consume({std::string_view(doc).substr(pos, len),
                                      false}).ok());
      }
      ASSERT_TRUE(reparser.Consume({std::string_view(), true}).ok());
      ASSERT_EQ(recheck.log(), recorder.log())
          << "first_chunk=" << first_chunk << " chunk=" << chunk;
    }
  }
}

}  // namespace
}  // namespace twigm::xml
