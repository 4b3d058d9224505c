// IndexReader must fail closed on any damaged index image: truncation at
// every length, bad magic, wrong version, flipped payload bytes, and
// structurally inconsistent (but correctly checksummed) content such as
// out-of-range postings. Every case must return a descriptive Status —
// never crash, never return a reader that could read out of bounds. The
// suite runs under the ASan/UBSan CI legs, so an out-of-bounds read in
// validation itself would also fail loudly.

#include <cstddef>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "index/index_builder.h"
#include "index/index_format.h"
#include "index/index_reader.h"

namespace twigm::index {
namespace {

std::string ImageOf(const std::string& doc) {
  IndexBuilder builder;
  EXPECT_TRUE(builder.Consume({doc, true}).ok());
  std::string image;
  EXPECT_TRUE(builder.Serialize(&image).ok());
  return image;
}

// 7 elements; every section is shorter than 64 bytes.
std::string ValidImage() {
  return ImageOf(
      "<lib><book year=\"2001\"><title>tea</title><b/></book>"
      "<book><title>x</title></book><misc note=\"n\">tail</misc></lib>");
}

// ~10 KB image whose every section exceeds 64 bytes, so section CRCs run
// through the folding kernel where the CPU has one.
constexpr uint64_t kLargeElements = 1 + 40 * 5;

std::string LargeImage() {
  std::string doc = "<catalogue>";
  for (int i = 0; i < 40; ++i) {
    const std::string n = std::to_string(i);
    doc += "<item id=\"" + n + "\" category=\"c" + std::to_string(i % 3) +
           "\"><title>Title " + n + "</title><publisher>House " + n +
           "</publisher><description>about " + n +
           "</description><note/></item>";
  }
  doc += "</catalogue>";
  return ImageOf(doc);
}

Status OpenStatus(std::string image) {
  Result<std::unique_ptr<IndexReader>> reader =
      IndexReader::OpenBytes(std::move(image));
  return reader.ok() ? Status::Ok() : reader.status();
}

// --- helpers to re-checksum a deliberately inconsistent image ------------

FileHeader* HeaderOf(std::string* image) {
  return reinterpret_cast<FileHeader*>(image->data());
}

SectionEntry* TableOf(std::string* image) {
  return reinterpret_cast<SectionEntry*>(image->data() + sizeof(FileHeader));
}

SectionEntry* FindSection(std::string* image, SectionId id) {
  SectionEntry* table = TableOf(image);
  for (uint32_t i = 0; i < HeaderOf(image)->section_count; ++i) {
    if (table[i].id == static_cast<uint32_t>(id)) return &table[i];
  }
  return nullptr;
}

// Recomputes the header's table CRC and then its header CRC.
void ResealHeader(std::string* image) {
  FileHeader* header = HeaderOf(image);
  header->table_crc32 =
      Crc32(TableOf(image), header->section_count * sizeof(SectionEntry));
  header->header_crc32 = Crc32(header, kHeaderCrcBytes);
}

// Recomputes `section`'s payload CRC and the header's CRCs so the image
// passes the checksum gates and exercises the *structural* checks.
void Reseal(std::string* image, SectionEntry* section) {
  section->crc32 = Crc32(image->data() + section->offset, section->size);
  ResealHeader(image);
}

// The payload of `id` as an array of T.
template <typename T>
T* Column(std::string* image, SectionId id) {
  SectionEntry* section = FindSection(image, id);
  EXPECT_NE(section, nullptr);
  return reinterpret_cast<T*>(image->data() + section->offset);
}

// Bytes whose value no check reads: the padding between sections. Every
// other byte is covered by a CRC; the header CRC covers the header's other
// fields.
std::vector<bool> UncheckedBytes(std::string image) {
  const uint32_t sections = HeaderOf(&image)->section_count;
  std::vector<bool> unchecked(image.size(), true);
  const size_t table_end =
      sizeof(FileHeader) + sections * sizeof(SectionEntry);
  for (size_t i = 0; i < table_end; ++i) unchecked[i] = false;
  const SectionEntry* table = TableOf(&image);
  for (uint32_t s = 0; s < sections; ++s) {
    for (uint64_t i = 0; i < table[s].size; ++i) {
      unchecked[table[s].offset + i] = false;
    }
  }
  return unchecked;
}

struct Fixture {
  const char* name;
  std::string image;
  uint64_t elements;
};

std::vector<Fixture> Fixtures() {
  return {{"small", ValidImage(), 7}, {"large", LargeImage(), kLargeElements}};
}

// -------------------------------------------------------------------------

TEST(IndexReaderCorruptionTest, ValidImageOpens) {
  EXPECT_TRUE(OpenStatus(ValidImage()).ok());
}

TEST(IndexReaderCorruptionTest, EveryTruncationFailsClosed) {
  for (const Fixture& f : Fixtures()) {
    const std::string& image = f.image;
    for (size_t len = 0; len < image.size(); ++len) {
      const Status s = OpenStatus(image.substr(0, len));
      ASSERT_FALSE(s.ok()) << f.name << " truncated to " << len << " of "
                           << image.size();
      ASSERT_FALSE(s.message().empty());
    }
  }
}

TEST(IndexReaderCorruptionTest, BadMagicFails) {
  std::string image = ValidImage();
  image[0] = 'X';
  const Status s = OpenStatus(std::move(image));
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("magic"), std::string::npos) << s.ToString();
}

TEST(IndexReaderCorruptionTest, VersionMismatchFails) {
  std::string image = ValidImage();
  HeaderOf(&image)->version = kFormatVersion + 1;
  ResealHeader(&image);
  const Status s = OpenStatus(std::move(image));
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("version"), std::string::npos) << s.ToString();
}

// The image of "<a/>" that the format-version-1 builder wrote: header
// (magic, version 1, 11 sections, 1 element, 1 symbol, 4 document bytes),
// section table and payloads.
std::string VersionOneImage() {
  static const unsigned char kBytes[] = {
      0x54, 0x57, 0x47, 0x4d, 0x49, 0x44, 0x58, 0x31, 0x01, 0x00, 0x00, 0x00,
      0x0b, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0xf8, 0x99, 0xc0, 0x0c, 0x00, 0x00, 0x00, 0x00,
      0x01, 0x00, 0x00, 0x00, 0x93, 0x78, 0xa7, 0xf6, 0x38, 0x01, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x02, 0x00, 0x00, 0x00, 0x79, 0xb8, 0xf8, 0x99, 0x48, 0x01, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x03, 0x00, 0x00, 0x00, 0x79, 0xb8, 0xf8, 0x99, 0x50, 0x01, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x04, 0x00, 0x00, 0x00, 0x1c, 0xdf, 0x44, 0x21, 0x58, 0x01, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x05, 0x00, 0x00, 0x00, 0x69, 0xdf, 0x22, 0x65, 0x60, 0x01, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x06, 0x00, 0x00, 0x00, 0xcb, 0x4b, 0x11, 0x20, 0x68, 0x01, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x07, 0x00, 0x00, 0x00, 0x79, 0xb8, 0xf8, 0x99, 0x78, 0x01, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x01, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x01, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x0a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x01, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x0b, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x01, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x61, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
  };
  return std::string(reinterpret_cast<const char*>(kBytes), sizeof(kBytes));
}

TEST(IndexReaderCorruptionTest, VersionOneImageAsksForARebuild) {
  std::string v1 = VersionOneImage();
  ASSERT_EQ(HeaderOf(&v1)->version, 1u);
  const Status s = OpenStatus(v1);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("version 1"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("rebuild"), std::string::npos) << s.ToString();
  EXPECT_EQ(s.message().find("checksum"), std::string::npos) << s.ToString();
}

TEST(IndexReaderCorruptionTest, FlippedHeaderFieldFailsHeaderCrc) {
  // document_bytes is read by no other check; the header CRC covers it.
  std::string image = ValidImage();
  HeaderOf(&image)->document_bytes ^= 1;
  const Status s = OpenStatus(std::move(image));
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("header checksum"), std::string::npos)
      << s.ToString();
}

TEST(IndexReaderCorruptionTest, AbsurdSectionCountFails) {
  std::string image = ValidImage();
  HeaderOf(&image)->section_count = kMaxSections + 1;
  EXPECT_FALSE(OpenStatus(std::move(image)).ok());
}

TEST(IndexReaderCorruptionTest, AbsurdElementCountFails) {
  std::string image = ValidImage();
  HeaderOf(&image)->element_count = ~0ULL;  // would overflow size math
  EXPECT_FALSE(OpenStatus(std::move(image)).ok());
}

TEST(IndexReaderCorruptionTest, FlippedTableByteFails) {
  std::string image = ValidImage();
  image[sizeof(FileHeader) + 3] ^= 0x40;
  const Status s = OpenStatus(std::move(image));
  ASSERT_FALSE(s.ok());
}

TEST(IndexReaderCorruptionTest, FlippedPayloadByteFailsCrc) {
  std::string image = ValidImage();
  const SectionEntry* post = FindSection(&image, SectionId::kPost);
  ASSERT_NE(post, nullptr);
  image[post->offset] ^= 0x01;
  const Status s = OpenStatus(std::move(image));
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("checksum"), std::string::npos) << s.ToString();
}

TEST(IndexReaderCorruptionTest, EveryFlippedByteFailsClosedOrIsBenign) {
  // A flip in a byte covered by a CRC must be rejected: every header and
  // table byte, and every payload byte. Only the padding between sections
  // (see UncheckedBytes) may open, and then the image must read the same
  // element count. Either way: no crash
  // (ASan/UBSan legs verify).
  std::string large = LargeImage();
  for (uint32_t s = 0; s < HeaderOf(&large)->section_count; ++s) {
    ASSERT_GT(TableOf(&large)[s].size, 64u) << "section " << s;
  }
  for (const Fixture& f : Fixtures()) {
    ASSERT_TRUE(OpenStatus(f.image).ok()) << f.name;
    const std::vector<bool> unchecked = UncheckedBytes(f.image);
    size_t rejected = 0;
    size_t benign = 0;
    for (size_t pos = 0; pos < f.image.size(); ++pos) {
      for (unsigned char mask : {0x01, 0x80, 0xFF}) {
        std::string copy = f.image;
        copy[pos] = static_cast<char>(copy[pos] ^ mask);
        Result<std::unique_ptr<IndexReader>> reader =
            IndexReader::OpenBytes(std::move(copy));
        if (!unchecked[pos]) {
          ASSERT_FALSE(reader.ok())
              << f.name << " pos=" << pos << " mask=" << int{mask};
          ASSERT_FALSE(reader.status().message().empty());
          ++rejected;
        } else {
          ASSERT_TRUE(reader.ok())
              << f.name << " pos=" << pos << " mask=" << int{mask} << ": "
              << reader.status().ToString();
          EXPECT_EQ(reader.value()->element_count(), f.elements);
          ++benign;
        }
      }
    }
    EXPECT_GT(rejected, benign) << f.name;
  }
}

TEST(IndexReaderCorruptionTest, OutOfRangePostingsPreFails) {
  std::string image = ValidImage();
  SectionEntry* data = FindSection(&image, SectionId::kPostingsData);
  ASSERT_NE(data, nullptr);
  uint32_t huge = 1u << 30;
  std::memcpy(image.data() + data->offset, &huge, sizeof(huge));
  Reseal(&image, data);
  const Status s = OpenStatus(std::move(image));
  ASSERT_FALSE(s.ok());  // pre id exceeds element_count
}

TEST(IndexReaderCorruptionTest, UnsortedPostingsFail) {
  std::string image = ValidImage();
  SectionEntry* index = FindSection(&image, SectionId::kPostingsIndex);
  SectionEntry* data = FindSection(&image, SectionId::kPostingsData);
  ASSERT_NE(index, nullptr);
  ASSERT_NE(data, nullptr);
  // Find a symbol with >= 2 postings and swap its first two pre ids.
  PostingsRange* ranges =
      reinterpret_cast<PostingsRange*>(image.data() + index->offset);
  uint32_t* pres = reinterpret_cast<uint32_t*>(image.data() + data->offset);
  const size_t symbols = index->size / sizeof(PostingsRange);
  bool swapped = false;
  for (size_t i = 0; i < symbols && !swapped; ++i) {
    if (ranges[i].count >= 2) {
      std::swap(pres[ranges[i].begin], pres[ranges[i].begin + 1]);
      swapped = true;
    }
  }
  ASSERT_TRUE(swapped) << "fixture needs a tag with two occurrences";
  Reseal(&image, data);
  EXPECT_FALSE(OpenStatus(std::move(image)).ok());
}

// Label columns with valid CRCs but no tree behind them. The joins index a
// per-level table by level and read pre_end = post + level - 1 as a pre id,
// so each must be refused at open, naming the label. ValidImage() labels:
//   pre    1  2  3  4  5  6  7
//   level  1  2  3  3  2  3  2
//   post   7  3  1  2  5  4  6
TEST(IndexReaderCorruptionTest, LabelsThatAreNotATreeFail) {
  struct Case {
    const char* what;
    SectionId column;
    uint32_t pre;
    uint32_t value;
  };
  const Case cases[] = {
      {"root below level 1", SectionId::kLevel, 1, 2},
      {"level skips a generation", SectionId::kLevel, 4, 5},
      {"level far past any depth", SectionId::kLevel, 3, kMaxLevel},
      {"subtree ends past the last element", SectionId::kPost, 2, 7},
      {"subtree ends before it starts", SectionId::kPost, 7, 1},
  };
  for (const Case& c : cases) {
    std::string image = ValidImage();
    SectionEntry* column = FindSection(&image, c.column);
    ASSERT_NE(column, nullptr);
    if (c.column == SectionId::kLevel) {
      Column<uint16_t>(&image, c.column)[c.pre - 1] =
          static_cast<uint16_t>(c.value);
    } else {
      Column<uint32_t>(&image, c.column)[c.pre - 1] = c.value;
    }
    Reseal(&image, column);
    const Status s = OpenStatus(std::move(image));
    ASSERT_FALSE(s.ok()) << c.what;
    EXPECT_NE(s.message().find("labels do not form a tree"), std::string::npos)
        << c.what << ": " << s.ToString();
    EXPECT_NE(s.message().find("pre " + std::to_string(c.pre)),
              std::string::npos)
        << c.what << ": " << s.ToString();
  }
}

TEST(IndexReaderCorruptionTest, PostingsRangeBeyondDataFails) {
  std::string image = ValidImage();
  SectionEntry* index = FindSection(&image, SectionId::kPostingsIndex);
  ASSERT_NE(index, nullptr);
  PostingsRange* ranges =
      reinterpret_cast<PostingsRange*>(image.data() + index->offset);
  ranges[0].begin = ~0ULL / 2;  // also exercises overflow-safe bounds math
  Reseal(&image, index);
  EXPECT_FALSE(OpenStatus(std::move(image)).ok());
}

TEST(IndexReaderCorruptionTest, TextBlobOverrunFails) {
  // ValidImage(): pre 3 <title> holds "tea", at [offsets[2], offsets[3])
  // = [0, 3), and pre 4 <b/> none. A span may not end past the blob, and
  // the spans may not run backwards.
  const std::pair<size_t, uint32_t> cases[] = {{3, 0x7FFFFFFFu}, {4, 1u}};
  for (const auto& [at, bad] : cases) {
    std::string image = ValidImage();
    Column<uint32_t>(&image, SectionId::kTextOffsets)[at] = bad;
    Reseal(&image, FindSection(&image, SectionId::kTextOffsets));
    const Status s = OpenStatus(std::move(image));
    ASSERT_FALSE(s.ok()) << at;
    EXPECT_NE(s.message().find("text offsets"), std::string::npos)
        << s.ToString();
  }
}

TEST(IndexReaderCorruptionTest, AttrEntryBeyondBlobFails) {
  std::string image = ValidImage();
  SectionEntry* offsets = FindSection(&image, SectionId::kAttrValueOffsets);
  ASSERT_NE(offsets, nullptr);
  ASSERT_GE(offsets->size, 2 * sizeof(uint32_t));
  Column<uint32_t>(&image, SectionId::kAttrValueOffsets)[1] = 0x7FFFFFFF;
  Reseal(&image, offsets);
  const Status s = OpenStatus(std::move(image));
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("attribute value offsets"), std::string::npos)
      << s.ToString();
}

// Attribute postings with valid CRCs but out of order, out of range, or
// not tiling the pre-id array. ValidImage() carries two attributes: year
// on pre 2 and note on pre 6.
TEST(IndexReaderCorruptionTest, BadAttributePostingsFail) {
  {
    std::string image = ValidImage();
    Column<uint32_t>(&image, SectionId::kAttrPre)[0] = 8;  // past pre 7
    Reseal(&image, FindSection(&image, SectionId::kAttrPre));
    EXPECT_FALSE(OpenStatus(std::move(image)).ok());
  }
  {
    std::string image = ValidImage();
    Column<uint32_t>(&image, SectionId::kAttrPre)[0] = 0;
    Reseal(&image, FindSection(&image, SectionId::kAttrPre));
    EXPECT_FALSE(OpenStatus(std::move(image)).ok());
  }
  {
    // The year slice claims both ids, out of order (6, then 2).
    std::string image = ValidImage();
    xml::SymbolId year = xml::kNoSymbol;
    {
      auto reader = IndexReader::OpenBytes(image);
      ASSERT_TRUE(reader.ok());
      year = reader.value()->FindSymbol("year");
      ASSERT_EQ(reader.value()->attributes(year).size, 1u);
    }
    const uint64_t symbols = HeaderOf(&image)->symbol_count;
    PostingsRange* ranges =
        Column<PostingsRange>(&image, SectionId::kAttrIndex);
    uint64_t next = 0;
    for (uint64_t sym = 0; sym < symbols; ++sym) {
      ranges[sym] = {next, sym == year ? 2u : 0u};
      next += ranges[sym].count;
    }
    uint32_t* pres = Column<uint32_t>(&image, SectionId::kAttrPre);
    std::swap(pres[0], pres[1]);
    Reseal(&image, FindSection(&image, SectionId::kAttrPre));
    Reseal(&image, FindSection(&image, SectionId::kAttrIndex));
    const Status s = OpenStatus(std::move(image));
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("not strictly ascending"), std::string::npos)
        << s.ToString();
  }
  {
    // Slices that do not tile the ids (a crafted file could otherwise make
    // every slice cover every id).
    std::string image = ValidImage();
    const uint64_t symbols = HeaderOf(&image)->symbol_count;
    PostingsRange* ranges =
        Column<PostingsRange>(&image, SectionId::kAttrIndex);
    for (uint64_t sym = 0; sym < symbols; ++sym) ranges[sym] = {0, 1};
    Reseal(&image, FindSection(&image, SectionId::kAttrIndex));
    const Status s = OpenStatus(std::move(image));
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("attribute postings range"), std::string::npos)
        << s.ToString();
  }
}

TEST(IndexReaderCorruptionTest, MisalignedSectionOffsetFails) {
  std::string image = ValidImage();
  image.push_back('\0');  // room to shift the last section by one byte
  FileHeader* header = HeaderOf(&image);
  SectionEntry* table = TableOf(&image);
  SectionEntry* last = &table[header->section_count - 1];
  std::memmove(image.data() + last->offset + 1, image.data() + last->offset,
               last->size);
  last->offset += 1;
  Reseal(&image, last);
  const Status s = OpenStatus(std::move(image));
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("align"), std::string::npos) << s.ToString();
}

TEST(IndexReaderCorruptionTest, MissingSectionFails) {
  std::string image = ValidImage();
  // Retag the text-blob section as a duplicate of the attr blob: the set of
  // required sections is then incomplete.
  SectionEntry* text = FindSection(&image, SectionId::kTextBlob);
  ASSERT_NE(text, nullptr);
  text->id = static_cast<uint32_t>(SectionId::kAttrBlob);
  ResealHeader(&image);
  EXPECT_FALSE(OpenStatus(std::move(image)).ok());
}

TEST(IndexReaderCorruptionTest, OpenOnMissingFileFails) {
  Result<std::unique_ptr<IndexReader>> reader =
      IndexReader::Open("/nonexistent/path/to/index.twgmidx");
  EXPECT_FALSE(reader.ok());
}

TEST(IndexReaderCorruptionTest, EmptyImageFails) {
  EXPECT_FALSE(OpenStatus(std::string()).ok());
}

}  // namespace
}  // namespace twigm::index
