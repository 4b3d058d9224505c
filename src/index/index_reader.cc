#include "index/index_reader.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

namespace twigm::index {

namespace {

Status Corrupt(const std::string& what) {
  return Status::ParseError("index file rejected: " + what);
}

// Nonzero iff some element's labels break the tree rules that
// IndexReader::Attach states; also returns the deepest level. Branch-free
// and kept out of line, so the compiler vectorizes it (inlined into
// Attach, it is not). The tests stay in 32 bits
// without wrapping into a false pass: once post lies in [1, n] and level in
// [1, previous level + 1] (so level <= pre <= n), the two subtree-end
// bounds cannot wrap, and once a test fails the result is nonzero whatever
// the later ones read.
__attribute__((noinline)) uint32_t BadLabels(
    const uint32_t* post, const uint16_t* level, const uint32_t* symbol,
    uint32_t n, uint32_t symbols, uint32_t* max_depth) {
  auto bad_at = [&](uint32_t i, uint32_t parent_level) -> uint32_t {
    const uint32_t p = post[i];
    const uint32_t l = level[i];
    return (p - 1 >= n) | (l - 1 > parent_level) | (p - 1 > n - l) |
           (p - 1 < i + 1 - l) | (symbol[i] >= symbols);
  };
  *max_depth = 0;
  if (n == 0) return 0;
  uint32_t bad = bad_at(0, 0);
  uint32_t depth = level[0];
  for (uint32_t i = 1; i < n; ++i) {
    bad |= bad_at(i, level[i - 1]);
    depth = std::max<uint32_t>(depth, level[i]);
  }
  *max_depth = depth;
  return bad;
}

// Nonzero iff the n + 1 offsets are not monotone from 0 up to exactly
// `blob_size`, i.e. iff some span [offsets[i], offsets[i + 1]) is not
// inside the blob. Branch-free, like BadLabels.
__attribute__((noinline)) uint32_t BadOffsets(const uint32_t* offsets,
                                              uint64_t n,
                                              uint64_t blob_size) {
  uint32_t bad = (offsets[0] != 0) | (offsets[n] != blob_size);
  for (uint64_t i = 0; i < n; ++i) bad |= offsets[i + 1] < offsets[i];
  return bad;
}

}  // namespace

IndexReader::~IndexReader() {
  if (mapping_ != nullptr) {
    ::munmap(mapping_, static_cast<size_t>(size_));
  }
}

Result<std::unique_ptr<IndexReader>> IndexReader::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::InvalidArgument("cannot open index file: " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::InvalidArgument("cannot stat index file: " + path);
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  std::unique_ptr<IndexReader> reader(new IndexReader());
  if (size > 0) {
    void* map = ::mmap(nullptr, static_cast<size_t>(size), PROT_READ,
                       MAP_PRIVATE, fd, 0);
    if (map == MAP_FAILED) {
      // Fall back to a heap copy (e.g. filesystems without mmap support).
      reader->owned_.resize(static_cast<size_t>(size));
      ssize_t got = ::pread(fd, reader->owned_.data(),
                            static_cast<size_t>(size), 0);
      if (got < 0 || static_cast<uint64_t>(got) != size) {
        ::close(fd);
        return Status::InvalidArgument("cannot read index file: " + path);
      }
      reader->data_ = reader->owned_.data();
    } else {
      reader->mapping_ = map;
      reader->data_ = static_cast<const char*>(map);
    }
  }
  ::close(fd);
  reader->size_ = size;
  Status s = reader->Attach();
  if (!s.ok()) return s;
  return reader;
}

Result<std::unique_ptr<IndexReader>> IndexReader::OpenBytes(
    std::string bytes) {
  std::unique_ptr<IndexReader> reader(new IndexReader());
  reader->owned_ = std::move(bytes);
  reader->data_ = reader->owned_.data();
  reader->size_ = reader->owned_.size();
  Status s = reader->Attach();
  if (!s.ok()) return s;
  return reader;
}

Status IndexReader::Attach() {
  // ---- header ---------------------------------------------------------
  if (size_ < sizeof(FileHeader)) {
    return Corrupt("truncated before the header");
  }
  FileHeader header;
  std::memcpy(&header, data_, sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Corrupt("bad magic (not a twigm structural index)");
  }
  // The version is read before the header CRC: an image of another
  // version gets this message, not a checksum error.
  if (header.version == 1) {
    return Corrupt(
        "index format version 1 is no longer readable (this build reads "
        "version " + std::to_string(kFormatVersion) +
        "); rebuild the index from the document");
  }
  if (header.version != kFormatVersion) {
    return Corrupt("unsupported format version " +
                   std::to_string(header.version) + " (this build reads " +
                   std::to_string(kFormatVersion) + ")");
  }
  if (Crc32(&header, kHeaderCrcBytes) != header.header_crc32) {
    return Corrupt("header checksum mismatch");
  }
  if (header.section_count != kSectionCount ||
      header.section_count > kMaxSections) {
    return Corrupt("unexpected section count " +
                   std::to_string(header.section_count));
  }
  elements_ = header.element_count;
  symbols_ = header.symbol_count;
  document_bytes_ = header.document_bytes;
  // A real file stores several bytes per element/symbol, so counts beyond
  // the file size are corrupt — and rejecting them here keeps the
  // column-size arithmetic below safely away from uint64 overflow.
  if (elements_ > size_ || symbols_ > size_) {
    return Corrupt("element/symbol count exceeds file size");
  }

  // ---- section table --------------------------------------------------
  const uint64_t table_bytes =
      uint64_t{header.section_count} * sizeof(SectionEntry);
  if (size_ < sizeof(FileHeader) + table_bytes) {
    return Corrupt("truncated inside the section table");
  }
  const char* table_start = data_ + sizeof(FileHeader);
  if (Crc32(table_start, table_bytes) != header.table_crc32) {
    return Corrupt("section table checksum mismatch");
  }

  // ---- sections: bounds, alignment, payload CRCs ----------------------
  const char* sections[kMaxSections] = {};
  uint64_t sizes[kMaxSections] = {};
  bool seen[kMaxSections] = {};
  for (uint32_t i = 0; i < header.section_count; ++i) {
    SectionEntry entry;
    std::memcpy(&entry, table_start + i * sizeof(SectionEntry),
                sizeof(entry));
    if (entry.id == 0 || entry.id > kSectionCount) {
      return Corrupt("unknown section id " + std::to_string(entry.id));
    }
    if (seen[entry.id]) {
      return Corrupt("duplicate section id " + std::to_string(entry.id));
    }
    seen[entry.id] = true;
    if (entry.offset % kSectionAlignment != 0) {
      return Corrupt("section " + std::to_string(entry.id) +
                     " is misaligned");
    }
    if (entry.offset > size_ || entry.size > size_ - entry.offset) {
      return Corrupt("section " + std::to_string(entry.id) +
                     " extends past end of file");
    }
    if (Crc32(data_ + entry.offset, entry.size) != entry.crc32) {
      return Corrupt("section " + std::to_string(entry.id) +
                     " payload checksum mismatch");
    }
    sections[entry.id] = data_ + entry.offset;
    sizes[entry.id] = entry.size;
  }
  for (uint32_t id = 1; id <= kSectionCount; ++id) {
    if (!seen[id]) return Corrupt("missing section id " + std::to_string(id));
  }

  std::copy(sizes, sizes + kSectionCount + 1, section_bytes_);

  auto section = [&](SectionId id) {
    return sections[static_cast<uint32_t>(id)];
  };
  auto section_size = [&](SectionId id) {
    return sizes[static_cast<uint32_t>(id)];
  };

  // ---- column shapes --------------------------------------------------
  auto expect_size = [&](SectionId id, uint64_t want, const char* what) {
    if (section_size(id) != want) {
      return Corrupt(std::string(what) + " column size " +
                     std::to_string(section_size(id)) +
                     " does not match header (want " + std::to_string(want) +
                     ")");
    }
    return Status::Ok();
  };
  TWIGM_RETURN_IF_ERROR(
      expect_size(SectionId::kPost, elements_ * sizeof(uint32_t), "post"));
  TWIGM_RETURN_IF_ERROR(
      expect_size(SectionId::kLevel, elements_ * sizeof(uint16_t), "level"));
  TWIGM_RETURN_IF_ERROR(
      expect_size(SectionId::kSymbol, elements_ * sizeof(uint32_t), "symbol"));
  TWIGM_RETURN_IF_ERROR(expect_size(SectionId::kByteOffset,
                                    elements_ * sizeof(uint64_t),
                                    "byte-offset"));
  TWIGM_RETURN_IF_ERROR(expect_size(SectionId::kPostingsIndex,
                                    symbols_ * sizeof(PostingsRange),
                                    "postings-index"));
  TWIGM_RETURN_IF_ERROR(expect_size(SectionId::kTextOffsets,
                                    (elements_ + 1) * sizeof(uint32_t),
                                    "text-offsets"));
  TWIGM_RETURN_IF_ERROR(expect_size(SectionId::kAttrIndex,
                                    symbols_ * sizeof(PostingsRange),
                                    "attribute-index"));
  if (section_size(SectionId::kPostingsData) % sizeof(uint32_t) != 0 ||
      section_size(SectionId::kAttrPre) % sizeof(uint32_t) != 0) {
    return Corrupt("section size not a multiple of its entry size");
  }
  const uint64_t attributes =
      section_size(SectionId::kAttrPre) / sizeof(uint32_t);
  TWIGM_RETURN_IF_ERROR(expect_size(SectionId::kAttrValueOffsets,
                                    (attributes + 1) * sizeof(uint32_t),
                                    "attribute-value-offsets"));

  post_ = reinterpret_cast<const uint32_t*>(section(SectionId::kPost));
  level_ = reinterpret_cast<const uint16_t*>(section(SectionId::kLevel));
  symbol_ = reinterpret_cast<const uint32_t*>(section(SectionId::kSymbol));
  offset_ =
      reinterpret_cast<const uint64_t*>(section(SectionId::kByteOffset));
  postings_index_ = reinterpret_cast<const PostingsRange*>(
      section(SectionId::kPostingsIndex));
  postings_data_ =
      reinterpret_cast<const uint32_t*>(section(SectionId::kPostingsData));
  const uint64_t postings_total =
      section_size(SectionId::kPostingsData) / sizeof(uint32_t);
  text_offsets_ =
      reinterpret_cast<const uint32_t*>(section(SectionId::kTextOffsets));
  text_blob_ = section(SectionId::kTextBlob);
  attr_index_ =
      reinterpret_cast<const PostingsRange*>(section(SectionId::kAttrIndex));
  attr_pre_ = reinterpret_cast<const uint32_t*>(section(SectionId::kAttrPre));
  attr_value_offsets_ = reinterpret_cast<const uint32_t*>(
      section(SectionId::kAttrValueOffsets));
  attr_blob_ = section(SectionId::kAttrBlob);

  // ---- label sanity ---------------------------------------------------
  // The labels must describe a tree in pre order: the first element is the
  // root, each next element is at most one level deeper than the one
  // before it, and every subtree ends inside the document (pre <= pre_end
  // = post + level - 1 <= element count). The joins index a per-level
  // table by level and trust pre_end as a pre id, so a label that breaks
  // this is rejected here, not read out of range later.
  if (elements_ > UINT32_MAX) {
    return Corrupt("element count exceeds the 32-bit pre id range");
  }
  // One branch-free pass decides; only a rejected image is walked again,
  // to name the first bad label.
  const uint32_t bad = BadLabels(
      post_, level_, symbol_, static_cast<uint32_t>(elements_),
      static_cast<uint32_t>(std::min<uint64_t>(symbols_, UINT32_MAX)),
      &max_depth_);
  for (uint64_t i = 0; bad != 0 && i < elements_; ++i) {
    const uint64_t pre = i + 1;
    if (post_[i] == 0 || post_[i] > elements_) {
      return Corrupt("post label out of range at pre " + std::to_string(pre));
    }
    const uint64_t parent_level = i == 0 ? 0 : level_[i - 1];
    if (level_[i] == 0 || level_[i] > parent_level + 1) {
      return Corrupt("level " + std::to_string(level_[i]) + " at pre " +
                     std::to_string(pre) + " is not 1.." +
                     std::to_string(parent_level + 1) +
                     " (labels do not form a tree)");
    }
    const uint64_t pre_end = uint64_t{post_[i]} + level_[i] - 1;
    if (pre_end < pre || pre_end > elements_) {
      return Corrupt("subtree of pre " + std::to_string(pre) + " ends at " +
                     std::to_string(pre_end) + ", outside " +
                     std::to_string(pre) + ".." + std::to_string(elements_) +
                     " (labels do not form a tree)");
    }
    if (symbol_[i] >= symbols_) {
      return Corrupt("tag symbol out of range at pre " + std::to_string(pre));
    }
  }
  if (bad != 0) return Corrupt("label columns out of range");

  // ---- postings sanity ------------------------------------------------
  if (postings_total != elements_) {
    return Corrupt("postings data holds " + std::to_string(postings_total) +
                   " ids for " + std::to_string(elements_) + " elements");
  }
  for (uint64_t s = 0; s < symbols_; ++s) {
    const PostingsRange& range = postings_index_[s];
    if (range.begin > postings_total ||
        range.count > postings_total - range.begin) {
      return Corrupt("postings range out of bounds for symbol " +
                     std::to_string(s));
    }
    uint32_t prev = 0;
    for (uint64_t k = range.begin; k < range.begin + range.count; ++k) {
      const uint32_t pre = postings_data_[k];
      if (pre == 0 || pre > elements_) {
        return Corrupt("postings pre id out of range for symbol " +
                       std::to_string(s));
      }
      if (pre <= prev) {
        return Corrupt("postings not strictly ascending for symbol " +
                       std::to_string(s));
      }
      if (symbol_[pre - 1] != s) {
        return Corrupt("postings entry disagrees with the symbol column");
      }
      prev = pre;
    }
  }

  // ---- fact sanity ----------------------------------------------------
  // Each offsets column is monotone from 0 to exactly its blob's size, so
  // every span it gives lies inside the blob.
  if (BadOffsets(text_offsets_, elements_,
                 section_size(SectionId::kTextBlob)) != 0) {
    return Corrupt("text offsets are not monotone inside the text blob");
  }
  if (BadOffsets(attr_value_offsets_, attributes,
                 section_size(SectionId::kAttrBlob)) != 0) {
    return Corrupt(
        "attribute value offsets are not monotone inside the attribute "
        "blob");
  }
  // The per-name slices tile the pre ids in name order, so one pass over
  // the ids checks every slice.
  uint64_t next = 0;
  for (uint64_t s = 0; s < symbols_; ++s) {
    const PostingsRange& range = attr_index_[s];
    if (range.begin != next || range.count > attributes - next) {
      return Corrupt("attribute postings range out of place for symbol " +
                     std::to_string(s));
    }
    next += range.count;
    uint32_t prev = 0;
    for (uint64_t k = range.begin; k < next; ++k) {
      const uint32_t pre = attr_pre_[k];
      if (pre <= prev || pre > elements_) {
        return Corrupt("attribute postings of symbol " + std::to_string(s) +
                       " not strictly ascending pre ids in range");
      }
      prev = pre;
    }
  }
  if (next != attributes) {
    return Corrupt("attribute postings cover " + std::to_string(next) +
                   " of " + std::to_string(attributes) + " attributes");
  }

  // ---- dictionary -----------------------------------------------------
  Status dict = dictionary_.Load(std::string_view(
      section(SectionId::kDictionary), section_size(SectionId::kDictionary)));
  if (!dict.ok()) {
    return Corrupt("dictionary: " + dict.ToString());
  }
  if (dictionary_.size() != symbols_) {
    return Corrupt("dictionary holds " + std::to_string(dictionary_.size()) +
                   " names but header claims " + std::to_string(symbols_));
  }
  return Status::Ok();
}

}  // namespace twigm::index
