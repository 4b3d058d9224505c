// Section 5.6's closing claim: "We have also tested benchmark queries over
// data that is over 1GB in size, and found that the memory usage remains at
// 1MB."
//
// This harness streams a large document through TwigM WITHOUT ever
// materializing it: one generated <book> is serialized once and its bytes
// are fed repeatedly (as siblings under a synthetic root), so the only
// memory in play is the engine's. Default volume is 128 MB so the default
// bench sweep stays fast; set TWIGM_GIGABYTE=1 to run the full 1 GB.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench_util.h"
#include "common/mem_stats.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/evaluator.h"
#include "data/book.h"

namespace twigm::bench {
namespace {

int Main() {
  const bool full = std::getenv("TWIGM_GIGABYTE") != nullptr;
  const uint64_t target_bytes =
      full ? uint64_t{1} << 30 : uint64_t{128} << 20;

  // One moderately sized book, serialized once.
  data::BookOptions options;
  options.seed = 555;
  Result<std::string> book = data::GenerateBook(options);
  if (!book.ok()) {
    std::fprintf(stderr, "generation failed\n");
    return 1;
  }
  // Strip any XML declaration so the chunk can repeat mid-document.
  std::string chunk = book.value();
  const size_t start = chunk.find("<book");
  chunk.erase(0, start);

  const char* kQuery = "//section[title]//figure";
  core::CountingResultSink sink;
  auto proc = core::XPathStreamProcessor::Create(kQuery, &sink);
  if (!proc.ok()) {
    std::fprintf(stderr, "%s\n", proc.status().ToString().c_str());
    return 1;
  }

  const ProcessMemory before = ReadProcessMemory();
  Stopwatch sw;
  uint64_t fed = 0;
  Status s = proc.value()->Consume({"<stream>", false});
  while (s.ok() && fed < target_bytes) {
    s = proc.value()->Consume({chunk, false});
    fed += chunk.size();
  }
  if (s.ok()) s = proc.value()->Consume({"</stream>", false});
  if (s.ok()) s = proc.value()->Consume({std::string_view(), true});
  if (!s.ok()) {
    std::fprintf(stderr, "stream error: %s\n", s.ToString().c_str());
    return 1;
  }
  const double seconds = sw.ElapsedSeconds();
  const ProcessMemory after = ReadProcessMemory();

  const core::EngineStats& stats = proc.value()->stats();
  std::printf("Section 5.6 claim: large-stream memory (query %s)\n\n",
              kQuery);
  std::printf("streamed:          %s in %.1f s (%.1f MB/s)\n",
              HumanBytes(fed).c_str(), seconds,
              static_cast<double>(fed) / 1048576.0 / seconds);
  std::printf("results:           %s\n",
              WithThousands(sink.count()).c_str());
  std::printf("engine state peak: %s (%s stack entries)\n",
              HumanBytes(stats.peak_state_bytes).c_str(),
              WithThousands(stats.peak_stack_entries).c_str());
  std::printf("process RSS:       %s before, %s after (delta %s)\n",
              HumanBytes(before.rss_bytes).c_str(),
              HumanBytes(after.rss_bytes).c_str(),
              HumanBytes(after.rss_bytes > before.rss_bytes
                             ? after.rss_bytes - before.rss_bytes
                             : 0)
                  .c_str());
  std::printf("\n(paper: memory remains ~1 MB at 1 GB of data; run with "
              "TWIGM_GIGABYTE=1 for the full volume)\n");
  return 0;
}

}  // namespace
}  // namespace twigm::bench

int main() { return twigm::bench::Main(); }
