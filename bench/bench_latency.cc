// Result latency: how much of the stream must pass before results reach
// the consumer? This quantifies the incrementality contrast of section 6 —
// TwigM delivers results as membership is proven, while the XAOS-style
// end-of-stream engine holds everything until the document closes.
//
// The harness feeds the Book dataset in 64 KB chunks and records, for each
// engine, the stream position (percent of bytes) at which the first result
// and the median result were delivered.

#include <cstdio>
#include <string>
#include <vector>

#include "baselines/eos_engine.h"
#include "bench/bench_util.h"
#include "core/evaluator.h"
#include "data/datasets.h"
#include "xml/sax_parser.h"

namespace twigm::bench {
namespace {

struct LatencyResult {
  uint64_t results = 0;
  double first_pct = 100.0;   // stream position of the first result
  double median_pct = 100.0;  // stream position of the median result
};

// A sink that asks the harness where the stream currently is.
class PositionSink : public core::MatchObserver {
 public:
  void OnResult(const core::MatchInfo&) override {
    positions_.push_back(*current_pct_);
  }
  void set_position_source(const double* pct) { current_pct_ = pct; }
  const std::vector<double>& positions() const { return positions_; }

 private:
  const double* current_pct_ = nullptr;
  std::vector<double> positions_;
};

LatencyResult Summarize(const std::vector<double>& positions) {
  LatencyResult out;
  out.results = positions.size();
  if (!positions.empty()) {
    out.first_pct = positions.front();
    out.median_pct = positions[positions.size() / 2];
  }
  return out;
}

template <typename FeedFn, typename FinishFn>
LatencyResult Drive(const std::string& doc, PositionSink* sink, FeedFn feed,
                    FinishFn finish) {
  constexpr size_t kChunk = 64 * 1024;
  double pct = 0.0;
  sink->set_position_source(&pct);
  for (size_t pos = 0; pos < doc.size(); pos += kChunk) {
    pct = 100.0 * static_cast<double>(std::min(pos + kChunk, doc.size())) /
          static_cast<double>(doc.size());
    if (!feed(std::string_view(doc).substr(pos, kChunk)).ok()) {
      return LatencyResult{};
    }
  }
  pct = 100.0;
  if (!finish().ok()) return LatencyResult{};
  return Summarize(sink->positions());
}

LatencyResult TwigLatency(const std::string& query, const std::string& doc) {
  PositionSink sink;
  auto proc = core::XPathStreamProcessor::Create(query, &sink);
  if (!proc.ok()) return LatencyResult{};
  return Drive(
      doc, &sink,
      [&](std::string_view chunk) { return proc.value()->Consume({chunk, false}); },
      [&] { return proc.value()->Consume({std::string_view(), true}); });
}

LatencyResult EosLatency(const std::string& query, const std::string& doc) {
  PositionSink sink;
  auto engine = baselines::EosEngine::Create(query, &sink);
  if (!engine.ok()) return LatencyResult{};
  xml::SaxParser parser(engine.value().get());
  return Drive(
      doc, &sink,
      [&](std::string_view chunk) { return parser.Consume({chunk, false}); },
      [&] { return parser.Consume({std::string_view(), true}); });
}

int Main() {
  const std::string& doc = BookDataset();
  std::printf("Result latency on Book (%zu KB, 64 KB chunks): stream "
              "position of first/median result\n\n",
              doc.size() / 1024);
  std::printf("%-6s %-42s %10s %16s %16s\n", "query", "text", "results",
              "TwigM f/med", "EndOfStream f/med");
  for (const data::QuerySpec& spec : data::BookQueries()) {
    const LatencyResult twig = TwigLatency(spec.text, doc);
    const LatencyResult eos = EosLatency(spec.text, doc);
    std::printf("%-6s %-42s %10llu %7.1f%%/%6.1f%% %7.1f%%/%6.1f%%\n",
                spec.name.c_str(), spec.text.c_str(),
                static_cast<unsigned long long>(twig.results),
                twig.first_pct, twig.median_pct, eos.first_pct,
                eos.median_pct);
  }
  std::printf("\n(TwigM delivers results mid-stream; the end-of-stream "
              "engine always at 100%%)\n");
  return 0;
}

}  // namespace
}  // namespace twigm::bench

int main() { return twigm::bench::Main(); }
