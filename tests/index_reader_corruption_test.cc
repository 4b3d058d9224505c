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

// Recomputes `section`'s payload CRC and the header's table CRC so the
// image passes the checksum gates and exercises the *structural* checks.
void Reseal(std::string* image, SectionEntry* section) {
  section->crc32 = Crc32(image->data() + section->offset, section->size);
  FileHeader* header = HeaderOf(image);
  header->table_crc32 =
      Crc32(TableOf(image), header->section_count * sizeof(SectionEntry));
}

// Bytes whose value no check reads: FileHeader::document_bytes and
// FileHeader::reserved, and the padding between sections. Every other byte
// is covered by a CRC or by a checked header field.
std::vector<bool> UncheckedBytes(std::string image) {
  const uint32_t sections = HeaderOf(&image)->section_count;
  std::vector<bool> unchecked(image.size(), true);
  const size_t table_end =
      sizeof(FileHeader) + sections * sizeof(SectionEntry);
  for (size_t i = 0; i < table_end; ++i) unchecked[i] = false;
  for (size_t i = 0; i < sizeof(FileHeader::document_bytes); ++i) {
    unchecked[offsetof(FileHeader, document_bytes) + i] = true;
  }
  for (size_t i = 0; i < sizeof(FileHeader::reserved); ++i) {
    unchecked[offsetof(FileHeader, reserved) + i] = true;
  }
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
  const Status s = OpenStatus(std::move(image));
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("version"), std::string::npos) << s.ToString();
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
  // A flip in a byte covered by a CRC or a checked header field must be
  // rejected. Only the unchecked bytes (see UncheckedBytes) may open, and
  // then the image must read the same element count. Either way: no crash
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
      {"level far past any depth", SectionId::kLevel, 3, 1u << 30},
      {"subtree ends past the last element", SectionId::kPost, 2, 7},
      {"subtree ends before it starts", SectionId::kPost, 7, 1},
  };
  for (const Case& c : cases) {
    std::string image = ValidImage();
    SectionEntry* column = FindSection(&image, c.column);
    ASSERT_NE(column, nullptr);
    std::memcpy(image.data() + column->offset + (c.pre - 1) * sizeof(uint32_t),
                &c.value, sizeof(c.value));
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
  std::string image = ValidImage();
  SectionEntry* index = FindSection(&image, SectionId::kTextIndex);
  ASSERT_NE(index, nullptr);
  ASSERT_GE(index->size, sizeof(TextEntry));
  TextEntry* entries =
      reinterpret_cast<TextEntry*>(image.data() + index->offset);
  entries[0].length = 0x7FFFFFFF;
  Reseal(&image, index);
  EXPECT_FALSE(OpenStatus(std::move(image)).ok());
}

TEST(IndexReaderCorruptionTest, AttrEntryBeyondBlobFails) {
  std::string image = ValidImage();
  SectionEntry* index = FindSection(&image, SectionId::kAttrIndex);
  ASSERT_NE(index, nullptr);
  ASSERT_GE(index->size, sizeof(AttrEntry));
  AttrEntry* entries =
      reinterpret_cast<AttrEntry*>(image.data() + index->offset);
  entries[0].offset = ~0ULL / 2;
  Reseal(&image, index);
  EXPECT_FALSE(OpenStatus(std::move(image)).ok());
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
  FileHeader* header = HeaderOf(&image);
  header->table_crc32 =
      Crc32(TableOf(&image), header->section_count * sizeof(SectionEntry));
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
