// Quickstart: compile an XPath query, stream a document through it, and
// receive results incrementally.
//
//   $ ./quickstart
//
// The query //book[year]/title is evaluated over a tiny catalog; note that
// the engine only decides membership once the predicate witness (<year>)
// has been seen — this buffering-under-uncertainty is the problem the
// TwigM algorithm solves with polynomial guarantees.

#include <cstdio>

#include "core/evaluator.h"

namespace {

// An observer that prints results the moment they are proven. MatchInfo
// also carries the stream byte offset at which membership became provable.
class PrintingObserver : public twigm::core::MatchObserver {
 public:
  void OnResult(const twigm::core::MatchInfo& match) override {
    std::printf("  result: element #%llu (proven at byte %llu)\n",
                static_cast<unsigned long long>(match.id),
                static_cast<unsigned long long>(match.byte_offset));
  }
};

constexpr const char kCatalog[] = R"(
<catalog>
  <book>
    <title>Streaming XML Processing</title>
    <year>2006</year>
  </book>
  <book>
    <title>No Year Here</title>
  </book>
  <book>
    <year>2005</year>
    <title>Year Before Title</title>
  </book>
</catalog>
)";

}  // namespace

int main() {
  const char* query = "//book[year]/title";
  std::printf("query: %s\n", query);

  PrintingObserver sink;
  auto processor =
      twigm::core::XPathStreamProcessor::Create(query, &sink);
  if (!processor.ok()) {
    std::fprintf(stderr, "query error: %s\n",
                 processor.status().ToString().c_str());
    return 1;
  }

  // Feed the document in small chunks, as a network stream would arrive.
  const std::string_view doc(kCatalog);
  for (size_t pos = 0; pos < doc.size(); pos += 16) {
    twigm::Status s = processor.value()->Consume({doc.substr(pos, 16), false});
    if (!s.ok()) {
      std::fprintf(stderr, "parse error: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  twigm::Status s = processor.value()->Consume({std::string_view(), true});
  if (!s.ok()) {
    std::fprintf(stderr, "parse error: %s\n", s.ToString().c_str());
    return 1;
  }

  const twigm::core::EngineStats& stats = processor.value()->stats();
  std::printf("elements processed: %llu, results: %llu, peak stack "
              "entries: %llu\n",
              static_cast<unsigned long long>(stats.start_events),
              static_cast<unsigned long long>(stats.results),
              static_cast<unsigned long long>(stats.peak_stack_entries));
  return 0;
}
