#include "bench/bench_util.h"

#include <cstring>

#include "common/mem_stats.h"
#include "xml/sax_event.h"

namespace twigm::bench {

namespace {

const std::string* GenerateOrDie(Result<std::string> doc, const char* what) {
  if (!doc.ok()) {
    std::fprintf(stderr, "failed to generate %s dataset: %s\n", what,
                 doc.status().ToString().c_str());
    std::exit(1);
  }
  return new std::string(std::move(doc).value());
}

}  // namespace

const std::string& BookDataset() {
  static const std::string* kDoc = [] {
    data::BookOptions options;
    options.seed = 2006;
    options.min_bytes = BookBytes();
    return GenerateOrDie(data::GenerateBook(options), "book");
  }();
  return *kDoc;
}

const std::string& AuctionDataset() {
  static const std::string* kDoc = [] {
    data::XmarkOptions options;
    options.seed = 2006;
    options.people = 200;
    options.min_bytes = AuctionBytes();
    return GenerateOrDie(data::GenerateXmark(options), "auction");
  }();
  return *kDoc;
}

const std::string& ProteinDataset() {
  static const std::string* kDoc = [] {
    data::ProteinOptions options;
    options.seed = 2006;
    options.min_bytes = ProteinBytes();
    return GenerateOrDie(data::GenerateProtein(options), "protein");
  }();
  return *kDoc;
}

const std::string& BookDatasetCopies(int copies) {
  static std::map<int, const std::string*>* kCache =
      new std::map<int, const std::string*>();
  auto it = kCache->find(copies);
  if (it != kCache->end()) return *it->second;
  data::BookOptions options;
  options.seed = 2006;
  // Per-copy size ~ BookBytes(): generate one sized book, then duplicate.
  // GenerateBook's copies mode duplicates a single-instance book, so use a
  // custom assembly from the size-targeted document.
  options.min_bytes = BookBytes();
  Result<std::string> base = data::GenerateBook(options);
  if (!base.ok()) {
    std::fprintf(stderr, "book generation failed\n");
    std::exit(1);
  }
  // The size-targeted book is <collection>...</collection>; concatenate its
  // children `copies` times under a new root.
  const std::string& text = base.value();
  const size_t open = text.find("<collection>");
  const size_t close = text.rfind("</collection>");
  std::string inner = text.substr(open + 12, close - open - 12);
  std::string doc = "<collection>";
  for (int i = 0; i < copies; ++i) doc += inner;
  doc += "</collection>";
  const std::string* stored = new std::string(std::move(doc));
  (*kCache)[copies] = stored;
  return *stored;
}

BenchJson& BenchJson::Get() {
  static BenchJson* kInstance = new BenchJson();
  return *kInstance;
}

void BenchJson::StripJsonFlag(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < *argc) {
      path_ = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      path_ = argv[i] + 7;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
}

void BenchJson::Add(BenchRecord record) {
  if (record.peak_rss_bytes == 0) {
    record.peak_rss_bytes = ReadProcessMemory().peak_rss_bytes;
  }
  records_.push_back(std::move(record));
}

namespace {

// Minimal JSON string escaping: the values we emit are benchmark and
// parameter names, never arbitrary user text.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

void BenchJson::Write() const {
  if (path_.empty()) return;
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench json: cannot open %s\n", path_.c_str());
    return;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < records_.size(); ++i) {
    const BenchRecord& r = records_[i];
    std::fprintf(f, "  {\"bench\": \"%s\", \"params\": {",
                 JsonEscape(r.bench).c_str());
    for (size_t p = 0; p < r.params.size(); ++p) {
      std::fprintf(f, "%s\"%s\": \"%s\"", p > 0 ? ", " : "",
                   JsonEscape(r.params[p].first).c_str(),
                   JsonEscape(r.params[p].second).c_str());
    }
    std::fprintf(f, "}, \"wall_ms\": %.3f, \"peak_rss_bytes\": %llu",
                 r.wall_ms, static_cast<unsigned long long>(r.peak_rss_bytes));
    for (const auto& [name, value] : r.metrics) {
      std::fprintf(f, ", \"%s\": %.3f", JsonEscape(name).c_str(), value);
    }
    std::fprintf(f, "}%s\n", i + 1 < records_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::fprintf(stderr, "bench json: wrote %zu records to %s\n",
               records_.size(), path_.c_str());
}

RunResult RunSystem(System system, const std::string& query,
                    const std::string& doc) {
  RunResult out;
  Result<xpath::QueryTree> tree = xpath::QueryTree::Parse(query);
  if (!tree.ok()) {
    out.status = tree.status();
    return out;
  }

  switch (system) {
    case System::kTwigM: {
      core::VectorResultSink sink;
      Result<std::unique_ptr<core::XPathStreamProcessor>> proc =
          core::XPathStreamProcessor::Create(query, &sink);
      if (!proc.ok()) {
        out.status = proc.status();
        return out;
      }
      Stopwatch sw;
      Status s = proc.value()->Consume({doc, false});
      if (s.ok()) s = proc.value()->Consume({std::string_view(), true});
      out.seconds = sw.ElapsedSeconds();
      out.status = s;
      out.results = proc.value()->stats().results;
      out.state_bytes = proc.value()->stats().peak_state_bytes;
      out.state_items = proc.value()->stats().peak_stack_entries;
      return out;
    }
    case System::kLazyDfa: {
      core::VectorResultSink sink;
      Result<std::unique_ptr<baselines::LazyDfaEngine>> engine =
          baselines::LazyDfaEngine::Create(tree.value(), &sink);
      if (!engine.ok()) {
        out.status = engine.status();
        return out;
      }
      xml::EventDriver driver(engine.value().get());
      xml::SaxParser parser(&driver);
      Stopwatch sw;
      out.status = parser.ParseAll(doc);
      out.seconds = sw.ElapsedSeconds();
      out.results = engine.value()->stats().results;
      out.state_bytes = engine.value()->ApproximateMemoryBytes();
      out.state_items = engine.value()->stats().dfa_states;
      return out;
    }
    case System::kNaiveEnum: {
      core::VectorResultSink sink;
      baselines::NaiveEnumOptions options;
      // Benchmarks cap the enumeration earlier than the library default so
      // aborting runs (the paper's XSQ errors/timeouts) fail fast instead of
      // thrashing in O(live matches) garbage collection.
      options.max_live_matches = 300'000;
      options.max_work = 200'000'000;
      Result<std::unique_ptr<baselines::NaiveEnumEngine>> engine =
          baselines::NaiveEnumEngine::Create(tree.value(), &sink, options);
      if (!engine.ok()) {
        out.status = engine.status();
        return out;
      }
      xml::EventDriver driver(engine.value().get());
      xml::SaxParser parser(&driver);
      Stopwatch sw;
      Status s = parser.ParseAll(doc);
      out.seconds = sw.ElapsedSeconds();
      out.status = s.ok() ? engine.value()->status() : s;
      out.results = engine.value()->stats().results;
      out.state_items = engine.value()->stats().peak_live_matches;
      // Each live match stores an id and a level per machine node.
      out.state_bytes = out.state_items * tree.value().node_count() *
                        (sizeof(xml::NodeId) + sizeof(int));
      return out;
    }
    case System::kDomEval: {
      baselines::DomEvalStats stats;
      Stopwatch sw;
      Result<std::vector<xml::NodeId>> result =
          baselines::EvaluateOnDom(tree.value(), doc, &stats);
      out.seconds = sw.ElapsedSeconds();
      if (!result.ok()) {
        out.status = result.status();
        return out;
      }
      out.results = result.value().size();
      out.state_bytes = stats.dom_bytes + stats.memo_bytes;
      out.state_items = stats.subtree_checks;
      return out;
    }
  }
  out.status = Status::Internal("unknown system");
  return out;
}

}  // namespace twigm::bench
