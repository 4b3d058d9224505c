// Golden-image oracle for IndexBuilder::Serialize.
//
// The image of every case below is folded into a 64-bit FNV-1a digest at
// every chunk size and compared against digests committed here. They
// were recorded when the format became version 2 (per-name attribute
// postings, the direct-text offset column, the u16 level column and the
// header CRC), so any rewrite of the writer or of the checksum kernels
// must reproduce the format-version-2 image byte for byte, on every CPU.
// Inputs: small generated Book, XMark and Protein documents at fixed
// seeds, and edge documents (an empty root, a text-only root, text
// interleaved with children, attributes with entity references,
// 1000-deep nesting, elements with no direct text). Chunk sizes: 1, 7,
// 4096 and the whole document.
//
// A mismatch message prints the digest the builder produced. Existing
// entries must never be regenerated to make a change pass; a new case
// takes the digest its first run prints, and a new format version
// re-records them all.

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "data/book.h"
#include "data/protein.h"
#include "data/xmark.h"
#include "gtest/gtest.h"
#include "index/index_builder.h"

namespace twigm::index {
namespace {

constexpr size_t kChunkSizes[] = {1, 7, 4096, 0};  // 0 = whole document
constexpr size_t kChunkings = sizeof(kChunkSizes) / sizeof(kChunkSizes[0]);

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t h = 14695981039346656037ull;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string Repeat(std::string_view s, size_t n) {
  std::string out;
  out.reserve(s.size() * n);
  for (size_t i = 0; i < n; ++i) out.append(s);
  return out;
}

// Feeds `doc` in `chunk_size` pieces (0 = one piece) and returns the
// image. The 4096 chunking ends with an empty last chunk; the others carry
// `last` on their final data chunk.
std::string Image(std::string_view doc, size_t chunk_size) {
  IndexBuilder builder;
  const size_t step = chunk_size == 0 ? doc.size() : chunk_size;
  const bool trailing_empty_last = chunk_size == 4096;
  size_t at = 0;
  while (at < doc.size()) {
    const size_t n = std::min(step, doc.size() - at);
    const bool last = !trailing_empty_last && at + n == doc.size();
    EXPECT_TRUE(builder.Consume({doc.substr(at, n), last}).ok());
    at += n;
  }
  if (trailing_empty_last) {
    EXPECT_TRUE(builder.Consume({std::string_view(), true}).ok());
  }
  std::string image;
  EXPECT_TRUE(builder.Serialize(&image).ok());
  return image;
}

struct Case {
  const char* name;
  std::string doc;
};

std::vector<Case> Cases() {
  std::vector<Case> cases;
  {
    data::BookOptions o;
    o.seed = 5;
    o.number_levels = 12;
    o.max_repeats = 4;
    cases.push_back({"book", data::GenerateBook(o).value()});
  }
  {
    data::XmarkOptions o;
    o.seed = 3;
    o.people = 12;
    cases.push_back({"xmark", data::GenerateXmark(o).value()});
  }
  {
    data::ProteinOptions o;
    o.seed = 9;
    o.entries = 60;
    cases.push_back({"protein", data::GenerateProtein(o).value()});
  }
  cases.push_back({"empty_root", "<a/>"});
  cases.push_back({"text_only_root", "<a>only text here</a>"});
  cases.push_back({"interleaved_text", "<a>x<b>y</b>z</a>"});
  cases.push_back(
      {"attribute_entities",
       "<r k=\"1&amp;2\" q='&lt;&#65;&#x42;&gt;'><e a=\"&quot;x&apos;\" "
       "b='&amp;&amp;'/><f c=\"plain\">t&amp;u</f></r>"});
  cases.push_back({"deep_1000", Repeat("<d>", 1000) + "leaf" +
                                    Repeat("t</d>", 1000)});
  cases.push_back(
      {"no_direct_text", "<r><x><y/><z></z></x><w><v><u/></v></w></r>"});
  return cases;
}

// Chunking never changes the image, so one digest covers every chunk size.
struct Golden {
  const char* name;
  uint64_t digest;
};

// Digests of format-version-2 images; see the file comment before editing.
constexpr Golden kGolden[] = {
    {"book", 0x7dabd7bd6f8df229ull},
    {"xmark", 0x1641a80326179338ull},
    {"protein", 0x9322d0cc03c88334ull},
    {"empty_root", 0xcb8cfba73f94bd63ull},
    {"text_only_root", 0x30642adad0cc8b9dull},
    {"interleaved_text", 0x94c5e0e96ce538abull},
    {"attribute_entities", 0x66f7546373071695ull},
    {"deep_1000", 0xb58042bd6ffe55f5ull},
    {"no_direct_text", 0x6bafd38037f8970dull},
};

TEST(IndexBuilderTest, ImageDigestsMatchCommitted) {
  const std::vector<Case> cases = Cases();
  ASSERT_EQ(cases.size(), sizeof(kGolden) / sizeof(kGolden[0]));
  for (size_t i = 0; i < cases.size(); ++i) {
    ASSERT_STREQ(cases[i].name, kGolden[i].name);
    for (size_t k = 0; k < kChunkings; ++k) {
      const uint64_t got = Fnv1a64(Image(cases[i].doc, kChunkSizes[k]));
      EXPECT_EQ(got, kGolden[i].digest)
          << cases[i].name << " chunk size " << kChunkSizes[k]
          << ": builder produced 0x" << std::hex << got;
    }
  }
}

}  // namespace
}  // namespace twigm::index
