// Spans, statistics, memory readings and input generation.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/random.h"
#include "data/book.h"
#include "data/xmark.h"
#include "perfbench.h"

namespace perfbench {

using twigm::Result;
using twigm::Status;

int Tracer::Begin(const char* name, uint64_t op) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(span);
  open_.push_back(id);
  spans_[id].start_ns = NowNs();
  return id;
}

void Tracer::End(int id) {
  spans_[id].end_ns = NowNs();
  // Spans nest: the one ending is the innermost open span.
  open_.pop_back();
}

std::map<std::string, double> Tracer::SelfNs(size_t first) const {
  std::vector<double> self_ns(spans_.size());
  for (size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    self_ns[i] += dur;
    if (s.parent >= 0) self_ns[s.parent] -= dur;
  }
  std::map<std::string, double> out;
  for (size_t i = first; i < spans_.size(); ++i) {
    out[spans_[i].name] += self_ns[i];
  }
  return out;
}

Status Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return Status::InvalidArgument("cannot write spans to " + path);
  for (const Span& s : spans_) {
    f << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
      << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
      << ",\"op\":" << s.op << "}\n";
  }
  f.close();
  if (!f) return Status::InvalidArgument("short write to " + path);
  return Status::Ok();
}

void Report::Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  failures_.push_back(what);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void ReturnFreedPages() { malloc_trim(0); }

bool ResetPeakMemory() {
  ReturnFreedPages();
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";  // 5: reset the peak RSS to the current RSS
  clear_refs.close();
  return static_cast<bool>(clear_refs);
}

std::vector<std::string_view> SplitChunks(std::string_view doc) {
  std::vector<std::string_view> chunks;
  for (size_t at = 0; at < doc.size(); at += kChunkBytes) {
    chunks.push_back(doc.substr(at, kChunkBytes));
  }
  return chunks;
}

namespace {

constexpr size_t kBookDocumentBytes = 250000;  // stacked to ~265 KB
constexpr int kAuctionMessages = 256;
constexpr int kAuctionPeople = 20;  // ~45 KB per message

// Distinct, well-separated generator seeds: GenerateBook stacks books with
// consecutive seeds, so neighbouring document seeds would share books.
std::vector<uint64_t> DocumentSeeds(uint64_t seed, uint64_t salt, int n) {
  twigm::Rng rng(seed ^ salt);
  std::vector<uint64_t> seeds(n);
  for (uint64_t& s : seeds) s = rng.Next();
  return seeds;
}

}  // namespace

Result<std::vector<std::string>> GenerateBookCorpus(uint64_t seed,
                                                   int count) {
  std::vector<std::string> docs;
  for (uint64_t doc_seed : DocumentSeeds(seed, 0xb00cb00cULL, count)) {
    twigm::data::BookOptions options;
    options.seed = doc_seed;
    options.number_levels = 20;
    options.max_repeats = 6;
    options.min_bytes = kBookDocumentBytes;
    Result<std::string> doc = twigm::data::GenerateBook(options);
    if (!doc.ok()) return doc.status();
    docs.push_back(std::move(doc).value());
  }
  return docs;
}

Result<std::vector<std::string>> GenerateAuctionMessages(uint64_t seed) {
  std::vector<std::string> docs;
  for (uint64_t doc_seed :
       DocumentSeeds(seed, 0xa0c7104eULL, kAuctionMessages)) {
    twigm::data::XmarkOptions options;
    options.seed = doc_seed;
    options.people = kAuctionPeople;
    Result<std::string> doc = twigm::data::GenerateXmark(options);
    if (!doc.ok()) return doc.status();
    docs.push_back(std::move(doc).value());
  }
  return docs;
}

std::vector<std::string> GenerateSubscriptions(size_t count) {
  static const char* const kTags[] = {
      "site",   "regions", "item",   "description",   "parlist",
      "listitem", "text",  "people", "person",        "name",
      "open_auctions", "open_auction", "bidder", "increase", "seller",
      "price",  "category"};
  static const char* const kAttrs[] = {"id", "category"};
  constexpr uint64_t kTagCount = sizeof(kTags) / sizeof(kTags[0]);
  constexpr uint64_t kAttrCount = sizeof(kAttrs) / sizeof(kAttrs[0]);
  twigm::Rng rng(0x5ab5c819ULL);
  std::vector<std::string> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const int steps = 3 + static_cast<int>(rng.Below(3));  // 3..5
    std::string q;
    for (int s = 0; s < steps; ++s) {
      q += (s == 0 || rng.Below(100) < 35) ? "//" : "/";
      // A wildcard first step would make its shard take every event.
      q += (s > 0 && rng.Below(100) < 10) ? "*" : kTags[rng.Below(kTagCount)];
    }
    if (rng.Below(100) >= 90) {
      if (rng.Below(2) == 0) {
        q += std::string("[@") + kAttrs[rng.Below(kAttrCount)] + "]";
      } else {
        q += std::string("[") + kTags[rng.Below(kTagCount)] + "]";
      }
    }
    out.push_back(std::move(q));
  }
  return out;
}

}  // namespace perfbench
