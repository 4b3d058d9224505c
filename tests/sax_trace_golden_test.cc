// Golden-trace oracle for the SAX tokenizer.
//
// Every SaxHandler callback — element names and their interned symbols,
// attribute names and values, text pieces, comments, processing
// instructions — is serialized together with the value of the parser's
// offset slot at the moment the callback fires. The final Status message
// (with line:column), the index of the Consume call that returned it,
// bytes_consumed() and the parser's line/column are appended. The
// serialization is folded into a 64-bit FNV-1a digest per (input, chunk
// size) and compared against digests committed below.
//
// The committed digests pin the tokenizer's observable behaviour: any
// rewrite of the parser must reproduce them byte for byte, on every
// structural-scan kernel. Inputs are the generated Book/XMark/Protein
// corpora, the Fig. 1 a^n b^n family, a conformance corpus with one case
// per error message, long constructs that straddle chunk boundaries and
// buffer compaction, and every prefix and single-byte mutation of a small
// document that uses every construct kind. Chunk sizes: 1, 7, 4096 and the
// whole document.
//
// To add a case, append it to Cases() and run the binary with
// TWIGM_GOLDEN_PRINT=1: it prints the table for the new entry. Existing
// entries must never be regenerated to make a change pass.

#include <cstdint>
#include <cstdlib>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "data/adversarial.h"
#include "data/book.h"
#include "data/protein.h"
#include "data/xmark.h"
#include "gtest/gtest.h"
#include "xml/sax_event.h"
#include "xml/sax_parser.h"

namespace twigm::xml {
namespace {

constexpr size_t kChunkSizes[] = {1, 7, 4096, 0};  // 0 = whole document
constexpr size_t kChunkings = sizeof(kChunkSizes) / sizeof(kChunkSizes[0]);

// Streams the serialized trace into an FNV-1a digest instead of keeping it.
class Digest {
 public:
  void Bytes(std::string_view s) {
    for (char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 1099511628211ull;
    }
  }
  void Field(std::string_view s) {
    Number(s.size());
    Bytes(s);
  }
  void Number(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 1099511628211ull;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

class DigestHandler : public SaxHandler {
 public:
  explicit DigestHandler(Digest* digest) : d_(digest) {}

  void OnStartDocument() override { Stamp('D'); }
  void OnEndDocument() override { Stamp('E'); }
  void OnStartElement(const TagToken& tag,
                      const std::vector<Attribute>& attrs) override {
    Stamp('<');
    d_->Field(tag.text);
    d_->Number(tag.symbol);
    d_->Number(attrs.size());
    for (const Attribute& a : attrs) {
      d_->Field(a.name);
      d_->Field(a.value);
    }
  }
  void OnEndElement(const TagToken& tag) override {
    Stamp('>');
    d_->Field(tag.text);
    d_->Number(tag.symbol);
  }
  void OnCharacters(std::string_view text) override {
    Stamp('T');
    d_->Field(text);
  }
  void OnComment(std::string_view text) override {
    Stamp('C');
    d_->Field(text);
  }
  void OnProcessingInstruction(std::string_view target,
                               std::string_view data) override {
    Stamp('P');
    d_->Field(target);
    d_->Field(data);
  }

  uint64_t* offset_slot() { return &offset_; }

 private:
  void Stamp(char kind) {
    d_->Bytes(std::string_view(&kind, 1));
    d_->Number(offset_);
  }

  Digest* d_;
  uint64_t offset_ = 0;
};

// Feeds `doc` in `chunk_size` pieces (0 = one piece). The 4096 chunking
// ends with an empty last chunk; the others carry `last` on their final
// data chunk, as StringByteSource does.
void DigestParse(std::string_view doc, size_t chunk_size,
                 const SaxParserOptions& options, Digest* digest) {
  DigestHandler handler(digest);
  SaxParser parser(&handler, options);
  parser.set_offset_slot(handler.offset_slot());
  const size_t step = chunk_size == 0 ? doc.size() : chunk_size;
  const bool trailing_empty_last = chunk_size == 4096;
  Status status;
  uint64_t call = 0;
  size_t at = 0;
  do {
    const size_t n = std::min(step, doc.size() - at);
    const bool last = !trailing_empty_last && at + n >= doc.size();
    status = parser.Consume({doc.substr(at, n), last});
    at += n;
    ++call;
    if (last) break;
  } while (status.ok() && at < doc.size());
  if (status.ok() && trailing_empty_last) {
    status = parser.Consume({std::string_view(), true});
    ++call;
  }
  digest->Bytes("S");
  digest->Number(static_cast<uint64_t>(status.code()));
  digest->Field(status.message());
  digest->Number(call);
  digest->Number(parser.bytes_consumed());
  digest->Number(parser.line());
  digest->Number(parser.column());
}

struct Case {
  std::string name;
  std::vector<std::string> docs;  // folded into one digest, in order
  SaxParserOptions options;
};

std::string Repeat(std::string_view s, size_t n) {
  std::string out;
  out.reserve(s.size() * n);
  for (size_t i = 0; i < n; ++i) out.append(s);
  return out;
}

// A small document that uses every construct kind once.
constexpr char kKitchenSink[] =
    "<?xml version=\"1.0\"?>\n"
    "<!DOCTYPE r [<!ELEMENT r ANY><!ATTLIST r a CDATA #IMPLIED>]>\n"
    "<!--c-->\n"
    "<r a=\"1&amp;2\" b='x>y'>t&lt;x&#65;<e/><?p d?>"
    "<![CDATA[<&]]><f g = \"'\" h='\"'>u</f ></r>\n";

std::vector<Case> Cases() {
  std::vector<Case> cases;
  auto add = [&](std::string name, std::vector<std::string> docs,
                 SaxParserOptions options = SaxParserOptions()) {
    cases.push_back({std::move(name), std::move(docs), options});
  };

  // --- generated corpora ----------------------------------------------
  {
    data::BookOptions o;
    o.seed = 5;
    o.number_levels = 12;
    o.max_repeats = 4;
    add("book", {data::GenerateBook(o).value()});
  }
  {
    data::XmarkOptions o;
    o.seed = 3;
    o.people = 12;
    add("xmark", {data::GenerateXmark(o).value()});
  }
  {
    data::ProteinOptions o;
    o.seed = 9;
    o.entries = 60;
    add("protein", {data::GenerateProtein(o).value()});
  }
  {
    std::vector<std::string> docs;
    for (int n : {1, 2, 8, 64}) {
      for (int variant = 0; variant < 4; ++variant) {
        data::AdversarialOptions o;
        o.n = n;
        o.with_d = (variant & 1) != 0;
        o.with_e = (variant & 2) != 0;
        o.c_count = 1 + variant;
        docs.push_back(data::GenerateAdversarial(o));
      }
    }
    add("fig1_anbn", docs);
  }

  // --- conformance corpus: well-formed ----------------------------------
  add("ok_constructs",
      {"<?xml version=\"1.0\"?><a/>",
       "<!DOCTYPE a [<!ELEMENT a ANY>]><a>t</a>",
       "<!--x--><a b=\"1\" c='2'>mid<!-- in --><b/>tail</a><!--y-->",
       "<a><![CDATA[raw <>&'\" ]] text]]></a>",
       "<r><?pi some data?>x&amp;y&#65;&#x42;<e f='&lt;&gt;'/></r>",
       "<a>\n line2\n line3 <b\n  c='multi\nline'/>\n</a>",
       "<a>\xC3\xA9\xE4\xB8\x80\xF0\x9D\x84\x9E</a>",
       "<a><b><c><d><e>deep</e></d></c></b></a>",
       "<a x=\"1>2\" y='\"' z=\"'\"/>",
       "<a>&lt;tag&gt; &amp; &quot;q&quot; &apos;</a>",
       "<a>&#9;&#xA;&#xD;&#x20;&#xD7FF;&#xE000;&#xFFFD;&#x10FFFF;</a>",
       "<a x=\"&#233;\" y='&amp;&amp;'>&#233;</a>",
       "\xEF\xBB\xBF<?xml version=\"1.0\"?><a/>",
       "<a/>\n\n  ",
       "  \n<a>  </a>",
       "<a\tb = 'c'\n/>",
       "<a></a >",
       "<a:b c:d='1'><_x.y-z/></a:b>",
       "<a>]]></a>",
       "<a>x>y</a>",
       // A bracket inside a quoted literal is not DOCTYPE structure.
       "<!DOCTYPE a [ <!ENTITY e \"[\"> ]><a/>",
       "<!DOCTYPE a><a/>",
       "<?xml-stylesheet href='s'?><a/>",
       "<?XML x?><a/>",
       "<a><?t?></a>",
       "<a><!----></a>",
       "<a><![CDATA[]]></a>",
       "<a x='1'y='2'/>"});
  {
    SaxParserOptions o;
    o.force_scalar_scan = true;
    add("ok_scalar_scan", {kKitchenSink, "<a b='\"'>&amp;</a>"}, o);
  }

  // --- conformance corpus: one case per error message -------------------
  add("err_structure",
      {"", "   ", "<a>", "<a><b></a></b>", "</a>", "<a></b>", "<a/><b/>",
       "<a/>junk", "junk<a/>", "<a><b>", "<a/></a>", "<a/><!-- x", "<a",
       "<a b='1'"});
  add("err_names",
      {"<1a/>", "<-a/>", "< a/>", "<a 1b='x'/>", "<a b/>", "<a b c='1'/>",
       "<a b='1' b='2'/>", "<a b='1'c d='2'/>", "<a/ >", "<a / >",
       "<a></ a>", "<a></a b>", "<a></1>", "<a x=1/>", "<a x \"1\"/>",
       "<a x=\"<\"/>", "<a x='<'/>", "<a <b>", "<a x='1'<b>", "<a\"b\"/>",
       "<a></a<b>"});
  add("err_references",
      {"<a>&nope;</a>", "<a>&amp</a>", "<a>&#xZZ;</a>", "<a>&#1114112;</a>",
       "<a>&#xD800;</a>", "<a>&#0;</a>", "<a>&#x1F;</a>", "<a>&#xFFFE;</a>",
       "<a>&#;</a>", "<a>&#x;</a>", "<a>&;</a>", "<a b='&#0;'/>",
       "<a b='&bad;'/>", "<a b='&amp'/>", "<a b='x&#xZ;'/>"});
  add("err_markup",
      {"<a><!-- a -- b --></a>", "<![CDATA[x]]><a/>", "<a/><![CDATA[x]]>",
       "<a/><!DOCTYPE a>", "<a><!DOCTYPE a></a>", "<!BOGUS thing><a/>",
       "<a><!x></a>", "<a><!-x--></a>", "<a><? x?></a>", "<a><?" "?></a>",
       "<a><?1x?></a>", " <?xml version=\"1.0\"?><a/>",
       "<!--c--><?xml version=\"1.0\"?><a/>", "<a><?xml version=\"1.0\"?></a>",
       "<a/><?xml version=\"1.0\"?>", "<?xml?><?xml?><a/>", "<a><!-",
       "<a><![CDA", "<!DOCTY", "<a><!-->", "<a><!--->", "<a><?>",
       "<!DOCTYPE a [ ]]><a/>", "<!DOCTYPE a [", "<a><![CDATA[x]></a>"});
  add("err_nul",
      {std::string("<a>x\0y</a>", 10), std::string("<a b=\"x\0\"/>", 11),
       std::string("<a><![CDATA[\0]]></a>", 20), std::string("\0<a/>", 5),
       std::string("<a><b>ok</b>\0<c/></a>", 21), std::string("<\0a/>", 5),
       std::string("<a></a\0>", 8), std::string("<a><!--\0--></a>", 15),
       std::string("<!DOCTYPE a [\0]><a/>", 20),
       std::string("<a><!-\0 x y z w></a>", 20)});
  add("err_encoding",
      {std::string("\xFF\xFE<\0a\0/\0>\0", 10),
       std::string("\xFE\xFF\0<\0a\0/\0>", 10),
       std::string("\xFF\xFE<\0a\0/\0>", 9),
       std::string("\xFF\xFE<\0a\0>\0\x00\xDC", 10),
       std::string("\xFF\xFE<\0a\0>\0\x00\xD8<\0", 12),
       std::string("\xFF\xFE<\0a\0/\0>\0\x00\xD8", 12),
       std::string("\xFF\xFE<\0a\0>\0\x3D\xD8\x00\xDE<\0/\0a\0>\0", 20),
       "\xEF\xBB<a/>", "\xEF<a/>", "\xFE<a/>"});
  {
    SaxParserOptions o;
    o.max_depth = 3;
    add("err_max_depth", {"<a><b><c/></b></a>", "<a><b><c><d/></c></b></a>"},
        o);
  }
  {
    SaxParserOptions o;
    o.max_buffer_bytes = 64;
    add("err_max_buffer",
        {"<a>" + std::string(100, 'x') + "</a>",
         "<a><!--" + std::string(100, '-') + "</a>",
         "<a b='" + std::string(100, 'v') + "'/>",
         "<a>" + Repeat("<b>t</b>", 40) + "</a>"},
        o);
  }

  // --- long constructs across chunk boundaries and buffer compaction ----
  {
    // 66,920 bytes of complete elements (or comments) first: the long
    // construct then starts between the 4 KB chunk boundaries at 64 KiB
    // and 68 KiB, so at 4096-byte chunks Drain compacts the buffer while
    // the construct is still pending.
    const std::string pad = Repeat("<p q='1'>x</p>", 4780);
    const std::string prolog = Repeat("<!--pad-->\n", 6090);
    add("long_constructs",
        {"<a>" + Repeat("&amp;x", 3000) + "</a>",
         "<a>" + pad + Repeat("t&lt;", 2000) + "</a>",
         "<a><!--" + Repeat("->", 5000) + "-->" + pad + "<!--" +
             Repeat("> -", 5000) + "--></a>",
         "<a>" + pad + "<![CDATA[" + Repeat("]>]", 5000) + "]]></a>",
         "<a>" + pad + "<?pi " + Repeat("?>x", 5000) + "?></a>",
         "<a>" + pad + "<b c=\"" + Repeat("'>&amp;", 1000) + "\" d='" +
             Repeat("\"x", 1000) + "'/></a>",
         "<a>" + pad + "<b x='1'" + Repeat("\n   ", 5000) + "/></a>",
         "<a>" + pad + "<b></b" + Repeat(" ", 20000) + "></a>",
         prolog + "<!DOCTYPE r [" + Repeat("<!ENTITY e '>'>[]", 600) +
             "]><r/>",
         "<!DOCTYPE r [" + Repeat("[]>", 2000) + "]><r/>",
         "<a>" + pad + "<b c=\"" + Repeat("x<", 1000) + "\"/></a>",
         "<a>" + pad + Repeat("x&bogus;", 1000) + "</a>"});
  }

  // --- every prefix and single-byte mutation of a small document --------
  {
    const std::string base = kKitchenSink;
    std::vector<std::string> prefixes;
    for (size_t n = 0; n <= base.size(); ++n) {
      prefixes.push_back(base.substr(0, n));
    }
    add("kitchen_sink_prefixes", prefixes);
    std::vector<std::string> mutants;
    static const char kBytes[] = "<>&\"'/!?-] =x\n;#";
    for (size_t i = 0; i < base.size(); ++i) {
      for (size_t b = 0; b + 1 < sizeof(kBytes); ++b) {
        if (base[i] == kBytes[b]) continue;
        std::string m = base;
        m[i] = kBytes[b];
        mutants.push_back(std::move(m));
      }
      std::string nul = base;
      nul[i] = '\0';
      mutants.push_back(std::move(nul));
      std::string cut = base;
      cut.erase(i, 1);
      mutants.push_back(std::move(cut));
    }
    add("kitchen_sink_mutants", mutants);
  }
  return cases;
}

struct Golden {
  const char* name;
  uint64_t digest[kChunkings];  // chunk sizes 1, 7, 4096, whole
};

// Digests of the parser's behaviour; see the file comment before editing.
constexpr Golden kGolden[] = {
    {"book",
     {0x212f70b6692ac673ull, 0x85b7978e2c235781ull,
      0x40c5bcc4f2ec82deull, 0x99551a71f1dd23ddull}},
    {"xmark",
     {0x58ed29d294ec1034ull, 0xe54ac2ba99d4b17aull,
      0xc62a63c7c6466486ull, 0xfdc195aa4655cefeull}},
    {"protein",
     {0xb5088ad1662f4c56ull, 0x0ec73599a34d5a59ull,
      0x57ea585d2ce10d71ull, 0x45e58cadffcf220bull}},
    {"fig1_anbn",
     {0x8fa4e1d6d78082f7ull, 0x0b31a9ae8157878full,
      0x5505b65e12258b7full, 0x2e8b1be31eb8affbull}},
    {"ok_constructs",
     {0xd64618fc254bbc4bull, 0x65a787ed009eb5fbull,
      0xeaece680c98fea5bull, 0xdb7f7bb92b3f49f9ull}},
    {"ok_scalar_scan",
     {0xf20074bee8ab8668ull, 0xafd6c777c60aac82ull,
      0xf55355689bfee48bull, 0xce7db3cf040c3641ull}},
    {"err_structure",
     {0x67166a440fde2fd2ull, 0x57f31695f383b499ull,
      0xf0c6d7aab97f537bull, 0x54c7bd07f44a4a8dull}},
    {"err_names",
     {0x91657766aba35b47ull, 0x49e16b546f0a5541ull,
      0x0839ea37b1192e47ull, 0x0839ea37b1192e47ull}},
    {"err_references",
     {0x1c0c324e03bad86aull, 0x6ecd5a1638bc79b9ull,
      0x2391ac8dd5a8f2ebull, 0x2391ac8dd5a8f2ebull}},
    {"err_markup",
     {0x115e2f818caa08bdull, 0x507995f961e865a2ull,
      0x7a7fe54172e373feull, 0xed96e9d40da89ed0ull}},
    {"err_nul",
     {0x827726ff25e9b897ull, 0x743bc18e54ee9c5dull,
      0x225e0195017324a7ull, 0xaf94ebeda327e4c4ull}},
    {"err_encoding",
     {0xd4abb983d8a048efull, 0x2381700c9effe50full,
      0xff8bc93ea349b7a4ull, 0x5c0ece579b413395ull}},
    {"err_max_depth",
     {0xe3117ce00266d9c4ull, 0x751a2e1bd87282beull,
      0x147d66875a097bd8ull, 0x22e47cfb129ed75full}},
    {"err_max_buffer",
     {0x740785ae34267ff8ull, 0x245289b165e0e87eull,
      0xb62fb3d882137f45ull, 0x12df2158763b4df8ull}},
    {"long_constructs",
     {0xcf6c90dd73a05585ull, 0x5610f21201276f57ull,
      0x8a9bc73ff8966678ull, 0x647cff0980083899ull}},
    {"kitchen_sink_prefixes",
     {0x4e1579bb5b8c0e99ull, 0x90e601179029c174ull,
      0x7c5a1e8a636835ecull, 0x1347ce4b109186b0ull}},
    {"kitchen_sink_mutants",
     {0xc49f42d7e477513dull, 0x23f3161104d5d403ull,
      0xe27f19ddd2e954e8ull, 0x77fd833e10f9ab3eull}},
};

uint64_t CaseDigest(const Case& c, size_t chunk_size) {
  Digest digest;
  for (const std::string& doc : c.docs) {
    DigestParse(doc, chunk_size, c.options, &digest);
  }
  return digest.value();
}

TEST(SaxTraceGolden, DigestsMatchCommittedTrace) {
  const std::vector<Case> cases = Cases();
  if (std::getenv("TWIGM_GOLDEN_PRINT") != nullptr) {
    for (const Case& c : cases) {
      std::printf("    {\"%s\",\n     {", c.name.c_str());
      for (size_t k = 0; k < kChunkings; ++k) {
        std::printf("0x%016llxull%s",
                    static_cast<unsigned long long>(
                        CaseDigest(c, kChunkSizes[k])),
                    k == 1 ? ",\n      " : k + 1 < kChunkings ? ", " : "}},\n");
      }
    }
    GTEST_SKIP() << "printed digests; nothing compared";
  }
  ASSERT_EQ(cases.size(), sizeof(kGolden) / sizeof(kGolden[0]));
  for (size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    ASSERT_EQ(c.name, kGolden[i].name);
    for (size_t k = 0; k < kChunkings; ++k) {
      EXPECT_EQ(CaseDigest(c, kChunkSizes[k]), kGolden[i].digest[k])
          << c.name << " chunk size " << kChunkSizes[k];
    }
  }
}

}  // namespace
}  // namespace twigm::xml
