// Encoding/robustness conformance for the ByteSource front end (DESIGN.md
// §12): BOM detection (UTF-8, UTF-16 LE/BE, split across chunks), UTF-16
// transcoding (surrogate pairs, split code units), NUL and malformed
// character-reference rejection, XML-declaration placement, split-buffer
// edge cases, the canonical-buffer max_buffer_bytes cap — and the
// SIMD-vs-scalar differential fuzz: both structural scanners must produce
// byte-offset-identical event streams over randomly chunked documents.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "xml/byte_source.h"
#include "xml/sax_event.h"
#include "xml/sax_parser.h"
#include "xml/structural_scan.h"

namespace twigm::xml {
namespace {

// Records every event as a compact trace string, each prefixed with the
// stream byte offset published through the parser's offset slot — so two
// traces compare equal only if the event streams are byte-offset-identical.
class OffsetTraceHandler : public SaxHandler {
 public:
  void OnStartDocument() override { Stamp("D+"); }
  void OnEndDocument() override { Stamp("D-"); }
  void OnStartElement(const TagToken& tag,
                      const std::vector<Attribute>& attrs) override {
    Stamp("<" + std::string(tag.text));
    for (const Attribute& a : attrs) {
      trace_ += " " + std::string(a.name) + "='" + std::string(a.value) + "'";
    }
  }
  void OnEndElement(const TagToken& tag) override {
    Stamp("</" + std::string(tag.text) + ">");
  }
  void OnCharacters(std::string_view text) override {
    Stamp("T(" + std::string(text) + ")");
  }
  void OnComment(std::string_view text) override {
    Stamp("C(" + std::string(text) + ")");
  }
  void OnProcessingInstruction(std::string_view target,
                               std::string_view data) override {
    Stamp("PI(" + std::string(target) + "," + std::string(data) + ")");
  }

  const std::string& trace() const { return trace_; }
  uint64_t* offset_slot() { return &offset_; }

 private:
  void Stamp(const std::string& event) {
    trace_ += "@" + std::to_string(offset_) + event + " ";
  }
  uint64_t offset_ = 0;
  std::string trace_;
};

struct ParseOutcome {
  std::string trace;
  Status status;
};

// Parses `doc` in chunks of `chunk_size` bytes (0 = one last chunk).
ParseOutcome Parse(std::string_view doc, size_t chunk_size = 0,
                   SaxParserOptions options = SaxParserOptions()) {
  OffsetTraceHandler handler;
  SaxParser parser(&handler, options);
  parser.set_offset_slot(handler.offset_slot());
  StringByteSource source(doc, chunk_size);
  ParseOutcome out;
  out.status = parser.Pump(&source);
  out.trace = handler.trace();
  return out;
}

// --- byte order marks -----------------------------------------------------

std::string EncodeUtf16(const std::u32string& cps, bool le, bool bom) {
  std::string out;
  auto push_unit = [&](uint32_t u) {
    if (le) {
      out += static_cast<char>(u & 0xFF);
      out += static_cast<char>(u >> 8);
    } else {
      out += static_cast<char>(u >> 8);
      out += static_cast<char>(u & 0xFF);
    }
  };
  if (bom) push_unit(0xFEFF);
  for (char32_t c : cps) {
    const uint32_t cp = static_cast<uint32_t>(c);
    if (cp >= 0x10000) {
      push_unit(0xD800 + ((cp - 0x10000) >> 10));
      push_unit(0xDC00 + ((cp - 0x10000) & 0x3FF));
    } else {
      push_unit(cp);
    }
  }
  return out;
}

std::u32string ToU32(std::string_view ascii) {
  return std::u32string(ascii.begin(), ascii.end());
}

TEST(ConformanceBom, Utf8BomIsStripped) {
  const ParseOutcome plain = Parse("<a>x</a>");
  const ParseOutcome bommed = Parse("\xEF\xBB\xBF<a>x</a>");
  EXPECT_TRUE(bommed.status.ok()) << bommed.status.message();
  // Offsets count canonical bytes, BOM excluded — traces are identical.
  EXPECT_EQ(bommed.trace, plain.trace);
}

TEST(ConformanceBom, Utf8BomFollowedByXmlDeclaration) {
  // Regression: the pre-ByteSource parser counted the BOM as consumed
  // bytes, so a following XML declaration was wrongly rejected as "not at
  // the start of the document".
  const ParseOutcome out =
      Parse("\xEF\xBB\xBF<?xml version=\"1.0\" encoding=\"UTF-8\"?><a/>");
  EXPECT_TRUE(out.status.ok()) << out.status.message();
}

TEST(ConformanceBom, BomSplitAcrossChunks) {
  const std::string doc = "\xEF\xBB\xBF<a>x</a>";
  const ParseOutcome whole = Parse(doc);
  for (size_t chunk = 1; chunk <= 4; ++chunk) {
    const ParseOutcome split = Parse(doc, chunk);
    EXPECT_TRUE(split.status.ok()) << split.status.message();
    EXPECT_EQ(split.trace, whole.trace) << "chunk=" << chunk;
  }
}

TEST(ConformanceBom, PartialBomLookalikeIsContent) {
  // 0xEF 0xBB not followed by 0xBF is ordinary (malformed) content, not a
  // BOM — the parser must decide UTF-8 and then fail on the garbage, not
  // wait forever or misinterpret.
  const ParseOutcome out = Parse("\xEF\xBB<a/>");
  EXPECT_FALSE(out.status.ok());
  // A lone potential-BOM byte at end of input is content too.
  const ParseOutcome lone = Parse("\xFE");
  EXPECT_FALSE(lone.status.ok());
}

TEST(ConformanceBom, Utf16LittleEndian) {
  const ParseOutcome plain = Parse("<a y='2'>hi</a>");
  const std::string doc =
      EncodeUtf16(ToU32("<a y='2'>hi</a>"), /*le=*/true, /*bom=*/true);
  const ParseOutcome out = Parse(doc);
  EXPECT_TRUE(out.status.ok()) << out.status.message();
  // Offsets count canonical (transcoded UTF-8) bytes, so the trace equals
  // the plain UTF-8 parse exactly.
  EXPECT_EQ(out.trace, plain.trace);
}

TEST(ConformanceBom, Utf16BigEndian) {
  const ParseOutcome plain = Parse("<a>hi</a>");
  const std::string doc =
      EncodeUtf16(ToU32("<a>hi</a>"), /*le=*/false, /*bom=*/true);
  const ParseOutcome out = Parse(doc);
  EXPECT_TRUE(out.status.ok()) << out.status.message();
  EXPECT_EQ(out.trace, plain.trace);
}

TEST(ConformanceBom, Utf16NonAsciiAndSurrogatePairs) {
  // é (U+00E9, 2 UTF-8 bytes) and 𝄞 (U+1D11E, a surrogate pair, 4 UTF-8
  // bytes) must transcode correctly in both endiannesses.
  std::u32string cps = ToU32("<a>");
  cps += U'é';
  cps += U'\U0001D11E';
  cps += ToU32("</a>");
  for (bool le : {true, false}) {
    const ParseOutcome out = Parse(EncodeUtf16(cps, le, /*bom=*/true));
    EXPECT_TRUE(out.status.ok()) << out.status.message();
    EXPECT_NE(out.trace.find("T(\xC3\xA9\xF0\x9D\x84\x9E)"),
              std::string::npos)
        << out.trace;
  }
}

TEST(ConformanceBom, Utf16SplitAtEveryChunkSize) {
  std::u32string cps = ToU32("<a b='1'>x");
  cps += U'\U0001D11E';
  cps += ToU32("y</a>");
  for (bool le : {true, false}) {
    const std::string doc = EncodeUtf16(cps, le, /*bom=*/true);
    const ParseOutcome whole = Parse(doc);
    ASSERT_TRUE(whole.status.ok()) << whole.status.message();
    // Chunk size 1 splits the BOM, every code unit, and the surrogate pair.
    for (size_t chunk = 1; chunk <= 5; ++chunk) {
      const ParseOutcome split = Parse(doc, chunk);
      EXPECT_TRUE(split.status.ok()) << split.status.message();
      EXPECT_EQ(split.trace, whole.trace) << "le=" << le << " chunk=" << chunk;
    }
  }
}

TEST(ConformanceBom, TruncatedUtf16IsRejected) {
  // Odd byte count: the document ends mid code unit.
  std::string doc = EncodeUtf16(ToU32("<a/>"), /*le=*/true, /*bom=*/true);
  doc.pop_back();
  const ParseOutcome out = Parse(doc);
  EXPECT_FALSE(out.status.ok());
  EXPECT_NE(out.status.message().find("UTF-16"), std::string::npos)
      << out.status.message();
}

TEST(ConformanceBom, UnpairedSurrogatesAreRejected) {
  // A high surrogate followed by a non-low unit.
  std::string high = EncodeUtf16(ToU32("<a>"), true, true);
  high += EncodeUtf16({0xD800, 'x'}, true, false);
  EXPECT_FALSE(Parse(high).status.ok());
  // A lone low surrogate.
  std::string low = EncodeUtf16(ToU32("<a>"), true, true);
  low += EncodeUtf16({0xDC00}, true, false);
  EXPECT_FALSE(Parse(low).status.ok());
  // A high surrogate left dangling at end of input.
  std::string dangling = EncodeUtf16(ToU32("<a>x</a>"), true, true);
  dangling += EncodeUtf16({0xD800}, true, false);
  EXPECT_FALSE(Parse(dangling).status.ok());
}

// --- NUL and character-reference rejection --------------------------------

TEST(ConformanceNul, NulByteIsRejectedEverywhere) {
  const std::string docs[] = {
      std::string("<a>x\0y</a>", 10),          // in text
      std::string("<a b=\"x\0\"/>", 11),       // in an attribute value
      std::string("<a><![CDATA[\0]]></a>", 20),  // in CDATA
      std::string("\0<a/>", 5),                // before the root
  };
  for (const std::string& doc : docs) {
    const ParseOutcome out = Parse(doc);
    EXPECT_FALSE(out.status.ok());
    EXPECT_NE(out.status.message().find("NUL"), std::string::npos)
        << out.status.message();
  }
}

TEST(ConformanceNul, NulRejectionIsChunkInvariant) {
  // The same error must surface no matter where chunk boundaries fall, and
  // no event may be emitted for constructs at or past the NUL.
  const std::string doc("<a><b>ok</b>\0<c/></a>", 21);
  const ParseOutcome whole = Parse(doc);
  ASSERT_FALSE(whole.status.ok());
  EXPECT_NE(whole.trace.find("<b"), std::string::npos);
  EXPECT_EQ(whole.trace.find("<c"), std::string::npos);
  for (size_t chunk = 1; chunk <= 6; ++chunk) {
    const ParseOutcome split = Parse(doc, chunk);
    EXPECT_EQ(split.status.message(), whole.status.message())
        << "chunk=" << chunk;
    EXPECT_EQ(split.trace, whole.trace) << "chunk=" << chunk;
  }
}

TEST(ConformanceCharRef, ReferencesToNonXmlCharsAreRejected) {
  // NUL, other C0 controls, surrogates and the FFFE/FFFF non-characters
  // are not XML Chars; references to them are malformed.
  for (const char* doc :
       {"<a>&#0;</a>", "<a>&#x0;</a>", "<a>&#1;</a>", "<a>&#x1F;</a>",
        "<a>&#xD800;</a>", "<a>&#xFFFE;</a>", "<a>&#xFFFF;</a>",
        "<a>&#1114112;</a>", "<a b='&#0;'/>"}) {
    const ParseOutcome out = Parse(doc);
    EXPECT_FALSE(out.status.ok()) << doc;
    EXPECT_NE(out.status.message().find("character reference"),
              std::string::npos)
        << doc << ": " << out.status.message();
  }
}

TEST(ConformanceCharRef, ValidBoundaryReferencesAreAccepted) {
  // Tab, newline, CR, the basic-plane edges and the astral plane are fine.
  for (const char* doc :
       {"<a>&#9;</a>", "<a>&#xA;</a>", "<a>&#xD;</a>", "<a>&#x20;</a>",
        "<a>&#xD7FF;</a>", "<a>&#xE000;</a>", "<a>&#xFFFD;</a>",
        "<a>&#x10FFFF;</a>"}) {
    EXPECT_TRUE(Parse(doc).status.ok()) << doc;
  }
}

// --- XML declaration placement --------------------------------------------

TEST(ConformanceDecl, DeclarationAtStartIsAccepted) {
  EXPECT_TRUE(Parse("<?xml version=\"1.0\"?><a/>").status.ok());
}

TEST(ConformanceDecl, MisplacedDeclarationsAreRejected) {
  for (const char* doc :
       {" <?xml version=\"1.0\"?><a/>",          // after whitespace
        "<!--c--><?xml version=\"1.0\"?><a/>",   // after a comment
        "<a><?xml version=\"1.0\"?></a>",        // inside the root
        "<a/><?xml version=\"1.0\"?>",           // after the root
        "<?xml?><?xml?><a/>"}) {                 // duplicated
    const ParseOutcome out = Parse(doc);
    EXPECT_FALSE(out.status.ok()) << doc;
    EXPECT_NE(out.status.message().find("XML declaration"), std::string::npos)
        << doc << ": " << out.status.message();
  }
}

// --- split-buffer edge cases ----------------------------------------------

TEST(ConformanceSplit, CorpusIsChunkInvariant) {
  // Every construct kind, split at every small chunk size: the event
  // streams (offsets included) must be identical to the whole-document
  // parse.
  const char* corpus[] = {
      "<?xml version=\"1.0\"?><a/>",
      "<!DOCTYPE a [<!ELEMENT a ANY>]><a>t</a>",
      "<!--x--><a b=\"1\" c='2'>mid<!-- in --><b/>tail</a><!--y-->",
      "<a><![CDATA[raw <>&'\" ]] text]]></a>",
      "<r><?pi some data?>x&amp;y&#65;&#x42;<e f='&lt;&gt;'/></r>",
      "<a>\n line2\n line3 <b\n  c='multi\nline'/>\n</a>",
      "<a>\xC3\xA9\xE4\xB8\x80\xF0\x9D\x84\x9E</a>",  // 2/3/4-byte UTF-8
      "<a><b><c><d><e>deep</e></d></c></b></a>",
  };
  for (const char* doc : corpus) {
    const ParseOutcome whole = Parse(doc);
    ASSERT_TRUE(whole.status.ok())
        << doc << ": " << whole.status.message();
    for (size_t chunk = 1; chunk <= 7; ++chunk) {
      const ParseOutcome split = Parse(doc, chunk);
      EXPECT_TRUE(split.status.ok()) << split.status.message();
      EXPECT_EQ(split.trace, whole.trace) << doc << " chunk=" << chunk;
    }
  }
}

TEST(ConformanceSplit, ErrorsAreChunkInvariantToo) {
  const char* corpus[] = {
      "<a><b></a></b>",       // mismatched tags
      "<a>&bogus;</a>",       // unknown entity
      "<a><b x=y></b></a>",   // unquoted attribute
      "<a/><b/>",             // multiple roots
      // An unclosed DOCTYPE literal swallows the rest of the input.
      "<!DOCTYPE a [ <!ENTITY e \"]> ]><a/>",
      "<!DOCTYPE a SYSTEM 'x><a/>",
      "<!DOCTYPE a [ <!-- ]><a/>",
      "<!DOCTYPE a [ <?pi ]><a/>",
  };
  for (const char* doc : corpus) {
    const ParseOutcome whole = Parse(doc);
    ASSERT_FALSE(whole.status.ok()) << doc;
    for (size_t chunk = 1; chunk <= 5; ++chunk) {
      const ParseOutcome split = Parse(doc, chunk);
      EXPECT_EQ(split.status.message(), whole.status.message())
          << doc << " chunk=" << chunk;
      EXPECT_EQ(split.trace, whole.trace) << doc << " chunk=" << chunk;
    }
  }
}

// --- DOCTYPE literals --------------------------------------------------------

// Parses `doc` as two chunks split at byte `at`.
ParseOutcome ParseSplitAt(std::string_view doc, size_t at) {
  OffsetTraceHandler handler;
  SaxParser parser(&handler);
  parser.set_offset_slot(handler.offset_slot());
  ParseOutcome out;
  out.status = parser.Consume({doc.substr(0, at), false});
  if (out.status.ok()) out.status = parser.Consume({doc.substr(at), true});
  out.trace = handler.trace();
  return out;
}

TEST(ConformanceDoctype, LiteralsHideBracketsAndGt) {
  // '[', ']' and '>' inside a quoted literal, a comment or a PI are not
  // DOCTYPE structure: the declaration ends at the real '>', so the root
  // starts right after it — whole, at every two-chunk split point, and at
  // small chunk sizes.
  const char* corpus[] = {
      "<!DOCTYPE a [ <!ENTITY e \"[\"> ]><a/>",
      "<!DOCTYPE a [ <!ENTITY e ']'> ]><a/>",
      "<!DOCTYPE a [ <!ENTITY e \"x>y]>\"> ]><a/>",
      "<!DOCTYPE a [ <!ENTITY e '\"[>'> <!ENTITY f \"'>]\"> ]><a/>",
      "<!DOCTYPE a SYSTEM \"x>y[.dtd\"><a/>",
      "<!DOCTYPE a PUBLIC 'p]>' 's>'><a/>",
      "<!DOCTYPE a [ <!-- ] > [ ' \" - -- --> <!ELEMENT a ANY> ]><a/>",
      "<!DOCTYPE a [ <!----> <!---]>--> ]><a/>",
      "<!DOCTYPE a [ <?pi ] > ' \" ? ?> <!ATTLIST a x CDATA \"[\"> ]><a/>",
  };
  for (const char* doc : corpus) {
    const std::string_view view(doc);
    const std::string expected =
        "@0D+ @" + std::to_string(view.rfind("<a/>")) + "<a @" +
        std::to_string(view.rfind("<a/>")) + "</a> @" +
        std::to_string(view.size()) + "D- ";
    const ParseOutcome whole = Parse(doc);
    ASSERT_TRUE(whole.status.ok()) << doc << ": " << whole.status.message();
    EXPECT_EQ(whole.trace, expected) << doc;
    for (size_t at = 0; at <= view.size(); ++at) {
      const ParseOutcome split = ParseSplitAt(doc, at);
      EXPECT_TRUE(split.status.ok()) << doc << " at=" << at;
      EXPECT_EQ(split.trace, expected) << doc << " at=" << at;
    }
    for (size_t chunk = 1; chunk <= 7; ++chunk) {
      const ParseOutcome split = Parse(doc, chunk);
      EXPECT_TRUE(split.status.ok()) << doc << " chunk=" << chunk;
      EXPECT_EQ(split.trace, expected) << doc << " chunk=" << chunk;
    }
  }
}

// --- canonical-buffer cap -------------------------------------------------

TEST(ConformanceBuffer, MaxBufferBindsOnCanonicalBytes) {
  // 600 × U+4E00: 1200 raw UTF-16 bytes but 1800 canonical UTF-8 bytes.
  // With the cap at 1500 the raw stream alone would fit — the cap must
  // bind on the post-transcode buffer.
  std::u32string cps = ToU32("<a>");
  cps.append(600, U'一');
  const std::string doc = EncodeUtf16(cps, /*le=*/true, /*bom=*/true);

  SaxParserOptions options;
  options.max_buffer_bytes = 1500;
  OffsetTraceHandler handler;
  SaxParser parser(&handler, options);
  const Status s = parser.Consume({doc, false});  // no last chunk: text stays buffered
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("max_buffer_bytes"), std::string::npos)
      << s.message();
}

// --- SIMD vs scalar differential fuzz -------------------------------------

// Generates a random well-formed document exercising every construct kind.
void BuildElement(Rng& rng, int depth, std::string* out) {
  const std::string name = rng.Word(1, 8);
  *out += "<" + name;
  const int nattrs = static_cast<int>(rng.Below(3));
  for (int a = 0; a < nattrs; ++a) {
    const char quote = rng.Chance(0.5) ? '"' : '\'';
    *out += " " + std::string(1, static_cast<char>('p' + a)) +
            rng.Word(0, 4) + "=" + quote;
    switch (rng.Below(4)) {
      case 0: *out += rng.Word(0, 6); break;
      case 1: *out += "v&amp;w"; break;
      case 2: *out += "&#233;"; break;
      default: *out += "a b\tc"; break;
    }
    *out += quote;
  }
  if (rng.Chance(0.2)) {
    *out += "/>";
    return;
  }
  *out += ">";
  const int nchildren = depth >= 4 ? 0 : static_cast<int>(rng.Below(4));
  for (int c = 0; c < nchildren; ++c) {
    switch (rng.Below(6)) {
      case 0: BuildElement(rng, depth + 1, out); break;
      case 1: *out += rng.Word(1, 12); break;
      case 2: *out += "x&lt;" + rng.Word(0, 4) + "&gt;&#x42;"; break;
      case 3: *out += "<!--" + rng.Word(0, 8) + "-->"; break;
      case 4: *out += "<![CDATA[" + rng.Word(0, 6) + " <>&'\" ]]>"; break;
      default: *out += "<?pi" + rng.Word(1, 3) + " " + rng.Word(0, 5) + "?>";
    }
  }
  *out += "</" + name + ">";
}

std::string BuildDocument(Rng& rng) {
  std::string doc;
  if (rng.Chance(0.3)) doc += "\xEF\xBB\xBF";
  if (rng.Chance(0.5)) doc += "<?xml version=\"1.0\"?>";
  if (rng.Chance(0.3)) doc += "<!--head-->\n";
  BuildElement(rng, 0, &doc);
  if (rng.Chance(0.3)) doc += "\n<!--tail-->";
  return doc;
}

ParseOutcome ParseRandomChunks(std::string_view doc, bool scalar,
                               uint64_t seed) {
  Rng rng(seed);
  SaxParserOptions options;
  options.force_scalar_scan = scalar;
  OffsetTraceHandler handler;
  SaxParser parser(&handler, options);
  parser.set_offset_slot(handler.offset_slot());
  size_t offset = 0;
  ParseOutcome out;
  while (offset < doc.size()) {
    const size_t n =
        std::min<size_t>(1 + rng.Below(9), doc.size() - offset);
    out.status = parser.Consume({doc.substr(offset, n), false});
    if (!out.status.ok()) break;
    offset += n;
  }
  if (out.status.ok()) out.status = parser.Consume({std::string_view(), true});
  out.trace = handler.trace();
  return out;
}

TEST(ConformanceDifferential, SimdAndScalarScannersAreIndistinguishable) {
  // 100 random documents, random chunk splits: the build-selected scanner
  // and the byte-loop reference must yield byte-offset-identical event
  // streams. (Under -DTWIGM_FORCE_SCALAR_SCAN both sides run SWAR and this
  // degenerates to a chunking-invariance check, which is still useful.)
  Rng doc_rng(0xC0FFEE);
  for (int i = 0; i < 100; ++i) {
    const std::string doc = BuildDocument(doc_rng);
    const uint64_t chunk_seed = 0x5EED0000 + static_cast<uint64_t>(i);
    const ParseOutcome fast = ParseRandomChunks(doc, false, chunk_seed);
    const ParseOutcome scalar = ParseRandomChunks(doc, true, chunk_seed);
    ASSERT_TRUE(fast.status.ok())
        << "doc " << i << ": " << fast.status.message() << "\n" << doc;
    ASSERT_TRUE(scalar.status.ok())
        << "doc " << i << ": " << scalar.status.message() << "\n" << doc;
    ASSERT_EQ(fast.trace, scalar.trace) << "doc " << i << "\n" << doc;
    // Whole-document parse must agree as well (chunking invariance).
    const ParseOutcome whole = Parse(doc, 0);
    ASSERT_EQ(whole.trace, fast.trace) << "doc " << i << "\n" << doc;
  }
}

TEST(ConformanceDifferential, ScannersAgreeOnTheRawIndex) {
  // Below the parser: both scanners must produce identical mark streams
  // over random binary-ish buffers, at every split of the two-call append.
  Rng rng(0xBADF00D);
  for (int round = 0; round < 20; ++round) {
    std::string buf;
    const size_t len = 1 + rng.Below(257);
    for (size_t i = 0; i < len; ++i) {
      // Bias toward structural characters so blocks have dense hits.
      static const char kPool[] = "<>&\"'\nx =ab/!?-[]";
      buf += kPool[rng.Below(sizeof(kPool) - 1)];
    }
    StructuralIndex fast, scalar;
    const size_t split = rng.Below(len + 1);
    ScanStructural(buf, 0, split, &fast);
    ScanStructural(buf, split, buf.size(), &fast);
    ScanStructuralScalar(buf, 0, split, &scalar);
    ScanStructuralScalar(buf, split, buf.size(), &scalar);
    ASSERT_EQ(fast.marks, scalar.marks) << "round " << round;
  }
}

TEST(ConformanceApi, PumpMatchesPushedChunks) {
  const std::string doc = "<a><b>x</b><c d='1'/></a>";
  const ParseOutcome pushed = Parse(doc, 3);
  OffsetTraceHandler handler;
  SaxParser parser(&handler);
  parser.set_offset_slot(handler.offset_slot());
  StringByteSource source(doc, 3);
  ASSERT_TRUE(parser.Pump(&source).ok());
  EXPECT_EQ(handler.trace(), pushed.trace);
}

TEST(ConformanceApi, ConsumeAfterLastChunkIsRejected) {
  OffsetTraceHandler handler;
  SaxParser parser(&handler);
  ASSERT_TRUE(parser.Consume({"<a/>", true}).ok());
  EXPECT_TRUE(parser.Consume({std::string_view(), true}).ok());  // idempotent end-of-input marker
  EXPECT_FALSE(parser.Consume({"<b/>", false}).ok());
}

}  // namespace
}  // namespace twigm::xml
