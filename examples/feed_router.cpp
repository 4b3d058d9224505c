// Publish/subscribe routing — the filtering workload of the paper's
// related-work systems (YFilter/XTrie): many subscriptions, one stream,
// one parse. Each subscriber registers an XPath query over a news feed;
// items are routed to every subscriber whose query proves a match, while
// the feed streams through. The subscriptions run in one shared-prefix
// FilterEngine: `//item` is matched once for all five.

#include <cstdio>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/multi_query.h"
#include "filter/filter_engine.h"
#include "xml/xml_writer.h"

namespace {

struct Subscription {
  const char* name;
  const char* query;
};

constexpr Subscription kSubscriptions[] = {
    {"sports-desk", "//item[category=\"sports\"]/headline"},
    {"finance-desk", "//item[category=\"finance\"]/headline"},
    {"breaking", "//item[@priority=\"1\"]/headline"},
    {"long-reads", "//item[body]/headline"},
    {"everything", "//item/headline"},
};
constexpr size_t kSubscriptionCount =
    sizeof(kSubscriptions) / sizeof(kSubscriptions[0]);

class Router : public twigm::core::MultiQueryResultSink {
 public:
  void OnResult(size_t query_index,
                const twigm::core::MatchInfo& match) override {
    ++counts_[query_index];
    if (delivered_ < 8) {
      std::printf("  -> %-13s headline #%llu\n",
                  kSubscriptions[query_index].name,
                  static_cast<unsigned long long>(match.id));
      ++delivered_;
    }
  }

  uint64_t count(size_t i) const { return counts_[i]; }

 private:
  uint64_t counts_[kSubscriptionCount] = {};
  int delivered_ = 0;
};

std::string MakeFeed(int items, uint64_t seed) {
  twigm::Rng rng(seed);
  twigm::xml::XmlWriter w(false);
  w.Open("feed");
  const char* categories[] = {"sports", "finance", "politics", "science"};
  for (int i = 0; i < items; ++i) {
    w.Open("item");
    if (rng.Chance(0.1)) w.Attr("priority", "1");
    w.Open("category").Text(categories[rng.Below(4)]).Close();
    w.Open("headline").Text("headline " + std::to_string(i)).Close();
    if (rng.Chance(0.3)) {
      w.Open("body").Text(rng.Word(20, 60)).Close();
    }
    w.Close();
  }
  w.Close();
  return std::move(w).TakeString();
}

}  // namespace

int main() {
  std::printf("subscriptions:\n");
  std::vector<std::string> queries;
  for (const Subscription& sub : kSubscriptions) {
    std::printf("  %-13s %s\n", sub.name, sub.query);
    queries.emplace_back(sub.query);
  }

  Router router;
  auto engine = twigm::filter::FilterEngine::Create(queries, &router);
  if (!engine.ok()) {
    std::fprintf(stderr, "error: %s\n", engine.status().ToString().c_str());
    return 1;
  }

  std::printf("\nrouting (first deliveries shown):\n");
  const std::string feed = MakeFeed(5000, 1234);
  for (size_t pos = 0; pos < feed.size(); pos += 2048) {
    if (!engine.value()
             ->Consume({std::string_view(feed).substr(pos, 2048), false})
             .ok()) {
      return 1;
    }
  }
  if (!engine.value()->Consume({std::string_view(), true}).ok()) return 1;

  std::printf("\ndeliveries per subscriber (one parse of %zu KB):\n",
              feed.size() / 1024);
  for (size_t i = 0; i < kSubscriptionCount; ++i) {
    std::printf("  %-13s %llu\n", kSubscriptions[i].name,
                static_cast<unsigned long long>(router.count(i)));
  }
  return 0;
}
