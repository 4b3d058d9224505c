#include "index/index_builder.h"

#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "xml/tag_interner.h"

namespace twigm::index {

namespace {

// memcpy that tolerates the null data() of an empty vector.
void Put(char* dst, const void* src, size_t size) {
  if (size != 0) std::memcpy(dst, src, size);
}

}  // namespace

// Private event sink: forwards the three events the builder labels from.
class IndexBuilder::Handler : public xml::StreamEventSink {
 public:
  explicit Handler(IndexBuilder* builder) : builder_(builder) {}

  void StartElement(const xml::TagToken& tag, int level, xml::NodeId id,
                    const std::vector<xml::Attribute>& attrs) override {
    (void)level;  // the builder keeps its own open-element stack
    (void)id;
    builder_->OnStart(tag, attrs);
  }
  void EndElement(const xml::TagToken& tag, int level) override {
    (void)tag;
    (void)level;
    builder_->OnEnd();
  }
  void Text(std::string_view text, int level) override {
    (void)level;
    builder_->OnText(text);
  }

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
  if (open_.size() >= kMaxLevel) {
    error_ = Status::ResourceExhausted(
        "index format stores levels in 16 bits; document nests deeper than " +
        std::to_string(kMaxLevel) + " elements");
    return;
  }
  const uint32_t pre = static_cast<uint32_t>(post_.size()) + 1;
  post_.push_back(0);  // patched at OnEnd
  level_.push_back(static_cast<uint16_t>(open_.size() + 1));
  // The parser interned the name: its symbol is the corpus tag id.
  symbol_.push_back(tag.symbol);
  offset_.push_back(construct_offset_);

  for (const xml::Attribute& attr : attrs) {
    const xml::SymbolId name = parser_->interner()->Intern(attr.name);
    if (name >= attr_groups_.size()) attr_groups_.resize(name + 1);
    AttrGroup& group = attr_groups_[name];
    group.values.append(attr.value);
    group.pre.push_back(pre);
    group.value_end.push_back(static_cast<uint32_t>(group.values.size()));
    ++attr_count_;
    attr_value_bytes_ += attr.value.size();
  }

  text_spans_.emplace_back();  // filled at OnEnd

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
    text_spans_[top.pre - 1] = Span{text_blob_.size(), text.size()};
    text_blob_.append(text);
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

  if (text_blob_.size() > kMaxBlobBytes ||
      attr_value_bytes_ > kMaxBlobBytes) {
    return Status::ResourceExhausted(
        "index format addresses direct text and attribute values with "
        "32-bit offsets; document has more than " +
        std::to_string(kMaxBlobBytes) + " bytes of one of them");
  }

  const uint64_t elements = element_count();
  const uint64_t symbols = symbol_count();
  const uint64_t attributes = attr_count_;
  constexpr uint32_t kCount = kSectionCount;
  constexpr size_t kTableEnd =
      sizeof(FileHeader) + kCount * sizeof(SectionEntry);
  static_assert(kTableEnd % kSectionAlignment == 0);

  // The dictionary is the first section and starts right after the table,
  // so the interner appends it in place. Header and table are written last.
  out->assign(kTableEnd, '\0');
  parser_->interner()->Serialize(out);

  // Section sizes, indexed by SectionId - 1 (ids are dense from 1 and the
  // sections are laid out in id order).
  const uint64_t sizes[kCount] = {
      out->size() - kTableEnd,                // kDictionary
      elements * sizeof(uint32_t),            // kPost
      elements * sizeof(uint16_t),            // kLevel
      elements * sizeof(uint32_t),            // kSymbol
      elements * sizeof(uint64_t),            // kByteOffset
      symbols * sizeof(PostingsRange),        // kPostingsIndex
      elements * sizeof(uint32_t),            // kPostingsData
      (elements + 1) * sizeof(uint32_t),      // kTextOffsets
      text_blob_.size(),                      // kTextBlob
      symbols * sizeof(PostingsRange),        // kAttrIndex
      attributes * sizeof(uint32_t),          // kAttrPre
      (attributes + 1) * sizeof(uint32_t),    // kAttrValueOffsets
      attr_value_bytes_,                      // kAttrBlob
  };
  SectionEntry table[kCount];
  uint64_t cursor = kTableEnd;
  for (uint32_t i = 0; i < kCount; ++i) {
    cursor = (cursor + kSectionAlignment - 1) & ~(kSectionAlignment - 1);
    table[i].id = i + 1;
    table[i].crc32 = 0;
    table[i].offset = cursor;
    table[i].size = sizes[i];
    cursor += sizes[i];
  }
  out->resize(cursor);  // zero-fills the padding between sections
  char* const image = out->data();
  auto at = [&](SectionId id) {
    return image + table[static_cast<uint32_t>(id) - 1].offset;
  };
  // Copies a section whose payload the builder already holds contiguously.
  auto place = [&](SectionId id, const void* payload) {
    Put(at(id), payload, table[static_cast<uint32_t>(id) - 1].size);
  };
  auto put_u32 = [](char* column, uint64_t i, uint64_t value) {
    const uint32_t v = static_cast<uint32_t>(value);
    std::memcpy(column + i * sizeof(v), &v, sizeof(v));
  };

  place(SectionId::kPost, post_.data());
  place(SectionId::kLevel, level_.data());
  place(SectionId::kSymbol, symbol_.data());
  place(SectionId::kByteOffset, offset_.data());

  // Per-symbol postings: counting sort of the symbol column, written into
  // place. Each slice comes out ascending in pre because the column is
  // scanned in pre order.
  std::vector<PostingsRange> postings_index(symbols, PostingsRange{0, 0});
  for (uint32_t sym : symbol_) ++postings_index[sym].count;
  uint64_t running = 0;
  for (PostingsRange& range : postings_index) {
    range.begin = running;
    running += range.count;
    range.count = 0;  // reused as the fill cursor below
  }
  char* const postings_data = at(SectionId::kPostingsData);
  for (uint64_t i = 0; i < elements; ++i) {
    PostingsRange& range = postings_index[symbol_[i]];
    put_u32(postings_data, range.begin + range.count, i + 1);
    ++range.count;
  }
  place(SectionId::kPostingsIndex, postings_index.data());

  // Direct text, gathered into pre order: element pre's span ends where
  // the next one's starts. Spans already adjacent in the builder's blob
  // (the usual case: text-bearing elements without text-bearing
  // descendants end in pre order) are copied as one run.
  char* const text_offsets = at(SectionId::kTextOffsets);
  char* const text_blob = at(SectionId::kTextBlob);
  uint64_t text_end = 0;
  Span run;  // pending copy: builder bytes [offset, offset + length)
  uint64_t run_at = 0;  // its destination in the section
  put_u32(text_offsets, 0, 0);
  for (uint64_t i = 0; i < elements; ++i) {
    const Span span = text_spans_[i];
    if (span.length != 0 && span.offset != run.offset + run.length) {
      Put(text_blob + run_at, text_blob_.data() + run.offset, run.length);
      run = Span{span.offset, 0};
      run_at = text_end;
    }
    run.length += span.length;
    text_end += span.length;
    put_u32(text_offsets, i + 1, text_end);
  }
  Put(text_blob + run_at, text_blob_.data() + run.offset, run.length);

  // Per-name attribute postings: each name's group is already in pre
  // order, so it is copied whole; its value ends are rebased onto the
  // shared blob.
  // Names that no element carries as an attribute get empty slices at the
  // end.
  std::vector<PostingsRange> attr_index(symbols,
                                        PostingsRange{attributes, 0});
  char* const attr_pre = at(SectionId::kAttrPre);
  char* const value_offsets = at(SectionId::kAttrValueOffsets);
  char* const attr_blob = at(SectionId::kAttrBlob);
  uint64_t attr_at = 0;
  uint64_t value_at = 0;
  put_u32(value_offsets, 0, 0);
  for (size_t name = 0; name < attr_groups_.size(); ++name) {
    const AttrGroup& group = attr_groups_[name];
    const uint64_t count = group.pre.size();
    attr_index[name] = PostingsRange{attr_at, count};
    Put(attr_pre + attr_at * sizeof(uint32_t), group.pre.data(),
        count * sizeof(uint32_t));
    for (uint64_t k = 0; k < count; ++k) {
      put_u32(value_offsets, attr_at + k + 1, value_at + group.value_end[k]);
    }
    Put(attr_blob + value_at, group.values.data(), group.values.size());
    attr_at += count;
    value_at += group.values.size();
  }
  place(SectionId::kAttrIndex, attr_index.data());

  for (SectionEntry& entry : table) {
    entry.crc32 = Crc32(image + entry.offset, entry.size);
  }
  FileHeader header;
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kFormatVersion;
  header.section_count = kCount;
  header.element_count = elements;
  header.symbol_count = symbols;
  header.document_bytes = document_bytes();
  header.table_crc32 = Crc32(table, sizeof(table));
  header.header_crc32 = Crc32(&header, kHeaderCrcBytes);
  std::memcpy(image, &header, sizeof(header));
  std::memcpy(image + sizeof(header), table, sizeof(table));
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
