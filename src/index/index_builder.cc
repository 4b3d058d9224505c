#include "index/index_builder.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>

#include "xml/tag_interner.h"

namespace twigm::index {

namespace {

void AppendRaw(std::string* out, const void* data, size_t size) {
  out->append(static_cast<const char*>(data), size);
}

void PadTo(std::string* out, size_t alignment) {
  while (out->size() % alignment != 0) out->push_back('\0');
}

}  // namespace

// Private SAX adapter: forwards the three events the builder labels from.
class IndexBuilder::Handler : public xml::SaxHandler {
 public:
  explicit Handler(IndexBuilder* builder) : builder_(builder) {}

  void OnStartElement(const xml::TagToken& tag,
                      const std::vector<xml::Attribute>& attrs) override {
    builder_->OnStart(tag, attrs);
  }
  void OnEndElement(const xml::TagToken& tag) override {
    (void)tag;
    builder_->OnEnd();
  }
  void OnCharacters(std::string_view text) override { builder_->OnText(text); }

 private:
  IndexBuilder* builder_;
};

IndexBuilder::~IndexBuilder() = default;

IndexBuilder::IndexBuilder(xml::SaxParserOptions sax) {
  handler_ = std::make_unique<Handler>(this);
  parser_ = std::make_unique<xml::SaxParser>(handler_.get(), sax);
  parser_->set_offset_slot(&construct_offset_);
}

void IndexBuilder::OnStart(const xml::TagToken& tag,
                           const std::vector<xml::Attribute>& attrs) {
  if (!error_.ok()) return;
  if (post_.size() >=
      static_cast<size_t>(std::numeric_limits<uint32_t>::max()) - 1) {
    error_ = Status::ResourceExhausted(
        "index format labels elements with 32-bit pre ids; document has too "
        "many elements");
    return;
  }
  const uint32_t pre = static_cast<uint32_t>(post_.size()) + 1;
  post_.push_back(0);  // patched at OnEnd
  level_.push_back(static_cast<uint32_t>(open_.size()) + 1);
  // The parser interned the name: its symbol is the corpus tag id.
  symbol_.push_back(tag.symbol);
  offset_.push_back(construct_offset_);

  for (const xml::Attribute& attr : attrs) {
    AttrEntry entry;
    entry.pre = pre;
    entry.name_symbol = parser_->interner()->Intern(attr.name);
    entry.offset = attr_blob_.size();
    entry.length = static_cast<uint32_t>(attr.value.size());
    entry.reserved = 0;
    attr_blob_.append(attr.value);
    attr_entries_.push_back(entry);
  }

  const size_t depth = open_.size();
  if (depth == text_pool_.size()) text_pool_.emplace_back();
  text_pool_[depth].clear();
  open_.push_back({pre, depth});
}

void IndexBuilder::OnEnd() {
  if (!error_.ok()) return;
  const OpenElement top = open_.back();
  open_.pop_back();
  post_[top.pre - 1] = ++post_counter_;
  std::string& text = text_pool_[top.depth];
  if (!text.empty()) {
    TextEntry entry;
    entry.pre = top.pre;
    entry.length = static_cast<uint32_t>(text.size());
    entry.offset = text_blob_.size();
    text_blob_.append(text);
    text_entries_.push_back(entry);
    text.clear();
  }
}

void IndexBuilder::OnText(std::string_view text) {
  if (!error_.ok() || open_.empty()) return;
  text_pool_[open_.back().depth].append(text);
}

Status IndexBuilder::Consume(const xml::InputChunk& chunk) {
  if (!error_.ok()) return error_;
  Status s = parser_->Consume(chunk);
  if (s.ok() && !error_.ok()) s = error_;  // callback-detected overflow
  if (!s.ok()) {
    error_ = s;
    return error_;
  }
  if (chunk.last) finished_ = true;
  return Status::Ok();
}

Status IndexBuilder::Pump(xml::ByteSource* source) {
  xml::InputChunk chunk;
  while (source->Next(&chunk)) {
    TWIGM_RETURN_IF_ERROR(Consume(chunk));
  }
  return Status::Ok();
}

uint64_t IndexBuilder::symbol_count() const {
  return static_cast<uint64_t>(parser_->interner()->size());
}

uint64_t IndexBuilder::document_bytes() const {
  return static_cast<uint64_t>(parser_->bytes_consumed());
}

Status IndexBuilder::Serialize(std::string* out) const {
  if (!error_.ok()) return error_;
  if (!finished_) {
    return Status::InvalidArgument(
        "IndexBuilder::Serialize before the document completed (no "
        "last=true chunk consumed)");
  }

  const uint64_t elements = element_count();
  const uint64_t symbols = symbol_count();

  // Dictionary.
  std::string dictionary;
  parser_->interner()->Serialize(&dictionary);

  // Per-symbol postings: counting sort of the symbol column. Each slice
  // comes out ascending in pre because the column is scanned in pre order.
  std::vector<PostingsRange> postings_index(symbols, PostingsRange{0, 0});
  for (uint32_t sym : symbol_) ++postings_index[sym].count;
  uint64_t running = 0;
  for (PostingsRange& range : postings_index) {
    range.begin = running;
    running += range.count;
    range.count = 0;  // reused as the fill cursor below
  }
  std::vector<uint32_t> postings_data(elements, 0);
  for (uint64_t i = 0; i < elements; ++i) {
    PostingsRange& range = postings_index[symbol_[i]];
    postings_data[range.begin + range.count] = static_cast<uint32_t>(i + 1);
    ++range.count;
  }

  // Text entries were recorded at end-tag time (post order); the reader
  // binary-searches them by pre.
  std::vector<TextEntry> text_entries = text_entries_;
  std::sort(text_entries.begin(), text_entries.end(),
            [](const TextEntry& a, const TextEntry& b) { return a.pre < b.pre; });

  struct SectionPayload {
    SectionId id;
    const void* data;
    uint64_t size;
  };
  const SectionPayload payloads[] = {
      {SectionId::kDictionary, dictionary.data(), dictionary.size()},
      {SectionId::kPost, post_.data(), post_.size() * sizeof(uint32_t)},
      {SectionId::kLevel, level_.data(), level_.size() * sizeof(uint32_t)},
      {SectionId::kSymbol, symbol_.data(), symbol_.size() * sizeof(uint32_t)},
      {SectionId::kByteOffset, offset_.data(),
       offset_.size() * sizeof(uint64_t)},
      {SectionId::kPostingsIndex, postings_index.data(),
       postings_index.size() * sizeof(PostingsRange)},
      {SectionId::kPostingsData, postings_data.data(),
       postings_data.size() * sizeof(uint32_t)},
      {SectionId::kTextIndex, text_entries.data(),
       text_entries.size() * sizeof(TextEntry)},
      {SectionId::kTextBlob, text_blob_.data(), text_blob_.size()},
      {SectionId::kAttrIndex, attr_entries_.data(),
       attr_entries_.size() * sizeof(AttrEntry)},
      {SectionId::kAttrBlob, attr_blob_.data(), attr_blob_.size()},
  };
  constexpr uint32_t kCount = kSectionCount;
  static_assert(sizeof(payloads) / sizeof(payloads[0]) == kCount);

  // Lay the sections out after the header + table, each 8-byte aligned.
  std::vector<SectionEntry> table(kCount);
  uint64_t cursor = sizeof(FileHeader) + kCount * sizeof(SectionEntry);
  for (uint32_t i = 0; i < kCount; ++i) {
    cursor = (cursor + kSectionAlignment - 1) & ~(kSectionAlignment - 1);
    table[i].id = static_cast<uint32_t>(payloads[i].id);
    table[i].crc32 = Crc32(payloads[i].data, payloads[i].size);
    table[i].offset = cursor;
    table[i].size = payloads[i].size;
    cursor += payloads[i].size;
  }

  FileHeader header;
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kFormatVersion;
  header.section_count = kCount;
  header.element_count = elements;
  header.symbol_count = symbols;
  header.document_bytes = document_bytes();
  header.table_crc32 = Crc32(table.data(), table.size() * sizeof(SectionEntry));
  header.reserved = 0;

  out->clear();
  out->reserve(cursor);
  AppendRaw(out, &header, sizeof(header));
  AppendRaw(out, table.data(), table.size() * sizeof(SectionEntry));
  for (uint32_t i = 0; i < kCount; ++i) {
    PadTo(out, kSectionAlignment);
    AppendRaw(out, payloads[i].data, payloads[i].size);
  }
  return Status::Ok();
}

Status IndexBuilder::WriteFile(const std::string& path) const {
  std::string image;
  TWIGM_RETURN_IF_ERROR(Serialize(&image));
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open index file for writing: " +
                                   path);
  }
  const size_t written = std::fwrite(image.data(), 1, image.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != image.size() || !close_ok) {
    return Status::Internal("short write to index file: " + path);
  }
  return Status::Ok();
}

}  // namespace twigm::index
