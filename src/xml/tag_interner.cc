#include "xml/tag_interner.h"

#include <algorithm>
#include <cstring>

namespace twigm::xml {

namespace {

constexpr size_t kInitialSlots = 64;       // power of two
// Arena chunks start small and double up to kArenaChunkBytes: an interner
// usually holds a few dozen short names, and every processor Create builds
// one, so a first 4 KB chunk was most of Create's allocation.
constexpr size_t kFirstArenaChunkBytes = 256;
constexpr size_t kArenaChunkBytes = 4096;

}  // namespace

TagInterner::TagInterner() : table_(kInitialSlots, 0) {}

const char* TagInterner::ArenaCopy(std::string_view name) {
  if (arena_used_ + name.size() > arena_cap_) {
    const size_t next = arena_.empty() ? kFirstArenaChunkBytes
                        : std::min(2 * arena_cap_, kArenaChunkBytes);
    arena_cap_ = std::max(name.size(), next);
    arena_.push_back(std::make_unique_for_overwrite<char[]>(arena_cap_));
    arena_used_ = 0;
  }
  char* dst = arena_.back().get() + arena_used_;
  std::memcpy(dst, name.data(), name.size());
  arena_used_ += name.size();
  return dst;
}

void TagInterner::Grow() {
  std::vector<uint32_t> bigger(table_.size() * 2, 0);
  const size_t mask = bigger.size() - 1;
  for (uint32_t slot : table_) {
    if (slot == 0) continue;
    size_t i = hashes_[slot - 1] & mask;
    while (bigger[i] != 0) i = (i + 1) & mask;
    bigger[i] = slot;
  }
  table_ = std::move(bigger);
}

SymbolId TagInterner::Insert(std::string_view name, uint64_t hash,
                             size_t slot) {
  const SymbolId sym = static_cast<SymbolId>(names_.size());
  names_.emplace_back(ArenaCopy(name), name.size());
  hashes_.push_back(hash);
  table_[slot] = sym + 1;
  // Keep load factor under ~70%.
  if (names_.size() * 10 >= table_.size() * 7) Grow();
  return sym;
}

void TagInterner::Serialize(std::string* out) const {
  const uint32_t count = static_cast<uint32_t>(names_.size());
  out->append(reinterpret_cast<const char*>(&count), sizeof(count));
  for (std::string_view name : names_) {
    const uint32_t len = static_cast<uint32_t>(name.size());
    out->append(reinterpret_cast<const char*>(&len), sizeof(len));
    out->append(name.data(), name.size());
  }
}

Status TagInterner::Load(std::string_view bytes) {
  if (!names_.empty()) {
    return Status::InvalidArgument(
        "TagInterner::Load requires an empty interner (symbols are dense "
        "from 0; loading would renumber existing symbols)");
  }
  uint32_t count = 0;
  if (bytes.size() < sizeof(count)) {
    return Status::ParseError("tag dictionary truncated: missing count");
  }
  std::memcpy(&count, bytes.data(), sizeof(count));
  bytes.remove_prefix(sizeof(count));
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t len = 0;
    if (bytes.size() < sizeof(len)) {
      return Status::ParseError("tag dictionary truncated: missing length");
    }
    std::memcpy(&len, bytes.data(), sizeof(len));
    bytes.remove_prefix(sizeof(len));
    if (bytes.size() < len) {
      return Status::ParseError("tag dictionary truncated: missing name bytes");
    }
    if (len == 0) {
      return Status::ParseError("tag dictionary entry has an empty name");
    }
    const std::string_view name = bytes.substr(0, len);
    if (Find(name) != kNoSymbol) {
      return Status::ParseError("tag dictionary contains a duplicate name");
    }
    const SymbolId sym = Intern(name);
    if (sym != i) {
      return Status::Internal("tag dictionary symbols not dense");
    }
    bytes.remove_prefix(len);
  }
  if (!bytes.empty()) {
    return Status::ParseError("tag dictionary has trailing bytes");
  }
  return Status::Ok();
}

}  // namespace twigm::xml
