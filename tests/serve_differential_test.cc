// Differential acceptance test for the sharded subscription service: over
// 100 DTD-generated documents, with subscribe/unsubscribe churn between
// documents, the server must deliver exactly the same
// (subscription, id, byte_offset) multiset as a single-threaded
// FilterEngine run over each document's active query set.
//
// MatchInfo::query_node is deliberately excluded from the comparison: it is
// an engine-local trie node id and differs between shard layouts.

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "data/book.h"
#include "dtd/dtd_generator.h"
#include "dtd/dtd_parser.h"
#include "filter/filter_engine.h"
#include "gtest/gtest.h"
#include "serve/server.h"

namespace twigm {
namespace {

using serve::Notification;
using serve::SubscriptionId;
using serve::SubscriptionServer;

// Element names of the Book DTD (src/data/book.cc).
const char* const kNames[] = {"book",    "title", "author", "section",
                              "p",       "figure", "image",  "nomatch"};

std::string RandomStep(Rng* rng) {
  std::string out =
      rng->Chance(0.12) ? "*" : kNames[rng->Below(std::size(kNames))];
  // Occasional predicate tails exercise the TwigM tail demux path.
  if (rng->Chance(0.25)) {
    out += "[";
    if (rng->Chance(0.3)) out += "//";
    out += kNames[rng->Below(std::size(kNames) - 1)];
    if (rng->Chance(0.3)) {
      out += "/";
      out += kNames[rng->Below(std::size(kNames) - 1)];
    }
    out += "]";
  }
  return out;
}

std::string RandomQuery(Rng* rng) {
  const int steps = 1 + static_cast<int>(rng->Below(3));
  std::string out;
  for (int i = 0; i < steps; ++i) {
    out += rng->Chance(0.5) ? "//" : "/";
    out += RandomStep(rng);
  }
  return out;
}

using Delivery = std::tuple<SubscriptionId, xml::NodeId, uint64_t>;

class RecordingSink : public core::MultiQueryResultSink {
 public:
  explicit RecordingSink(const std::vector<SubscriptionId>* ids)
      : ids_(ids) {}
  void OnResult(size_t query_index, const core::MatchInfo& match) override {
    items.emplace_back((*ids_)[query_index], match.id, match.byte_offset);
  }
  std::vector<Delivery> items;

 private:
  const std::vector<SubscriptionId>* ids_;
};

/// Single-threaded FilterEngine over the active set — the ground truth.
std::vector<Delivery> Oracle(
    const std::map<SubscriptionId, std::string>& active,
    const std::string& doc) {
  std::vector<SubscriptionId> ids;
  std::vector<std::string> queries;
  for (const auto& [id, query] : active) {
    ids.push_back(id);
    queries.push_back(query);
  }
  RecordingSink sink(&ids);
  if (!queries.empty()) {
    auto engine = filter::FilterEngine::Create(queries, &sink);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    if (engine.ok()) {
      EXPECT_TRUE(engine.value()->Consume({doc, false}).ok());
      EXPECT_TRUE(engine.value()->Consume({std::string_view(), true}).ok());
    }
  }
  std::sort(sink.items.begin(), sink.items.end());
  return sink.items;
}

TEST(ServeDifferentialTest, MatchesSingleThreadedEngineUnderChurn) {
  auto dtd = dtd::ParseDtd(data::kBookDtd);
  ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();

  SubscriptionServer::Options options;
  options.num_shards = 3;
  options.ring_capacity = 64;  // small: exercises producer back-pressure
  options.notify_batch = 8;
  auto server = SubscriptionServer::Create(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  Rng rng(0x5E44ED1F);
  // The test mirrors the registry: whatever it has subscribed (and not yet
  // unsubscribed) before a document's first Feed must be active for it.
  std::map<SubscriptionId, std::string> active;
  auto subscribe = [&](const std::string& query) {
    auto id = server.value()->Subscribe(query);
    ASSERT_TRUE(id.ok()) << query << ": " << id.status().ToString();
    active[id.value()] = query;
  };
  for (int i = 0; i < 24; ++i) subscribe(RandomQuery(&rng));

  auto stream = server.value()->OpenStream();
  uint64_t total = 0;
  for (int doc_index = 0; doc_index < 100; ++doc_index) {
    // Churn every 10th document boundary: drop one active subscription and
    // add two fresh queries. The effect lands exactly at the next document.
    if (doc_index > 0 && doc_index % 10 == 0 && !active.empty()) {
      auto victim = active.begin();
      std::advance(victim, rng.Below(active.size()));
      ASSERT_TRUE(server.value()->Unsubscribe(victim->first).ok());
      active.erase(victim);
      subscribe(RandomQuery(&rng));
      subscribe(RandomQuery(&rng));
    }

    dtd::GeneratorOptions gen;
    gen.seed = 0xB00C + static_cast<uint64_t>(doc_index);
    gen.number_levels = 8;
    gen.max_repeats = 3;
    auto doc = dtd::GenerateDocument(dtd.value(), "book", gen);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();

    ASSERT_TRUE(stream->FeedDocument(doc.value()).ok()) << "doc " << doc_index;

    std::vector<Notification> notifications;
    server.value()->Poll(&notifications);
    std::vector<Delivery> got;
    for (const Notification& n : notifications) {
      EXPECT_EQ(n.stream, stream->stream_id());
      EXPECT_TRUE(active.count(n.subscription))
          << "doc " << doc_index << ": notification for inactive subscription "
          << n.subscription;
      got.emplace_back(n.subscription, n.match.id, n.match.byte_offset);
    }
    std::sort(got.begin(), got.end());

    ASSERT_EQ(got, Oracle(active, doc.value())) << "doc " << doc_index;
    total += got.size();
  }
  // The workload must actually produce matches to be meaningful.
  EXPECT_GT(total, 1000u);
}

}  // namespace
}  // namespace twigm
