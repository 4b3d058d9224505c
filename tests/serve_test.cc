// Tests for the sharded subscription service (src/serve/): the SPSC ring,
// the subscription registry's partitioning/epoch rules, and the server
// end-to-end against a single-threaded FilterEngine oracle — including
// callback delivery, churn across document boundaries, concurrent streams,
// and the exported metrics surface.

#include "serve/server.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/multi_query.h"
#include "filter/filter_engine.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "serve/spsc_ring.h"
#include "serve/subscription_registry.h"
#include "xml/tag_interner.h"
#include "xpath/parser.h"

namespace twigm {
namespace {

using serve::EventRecord;
using serve::Notification;
using serve::SpscRing;
using serve::SubscriptionId;
using serve::SubscriptionRegistry;
using serve::SubscriptionServer;

// ---------------------------------------------------------------------------
// SpscRing

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(0).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(1000).capacity(), 1024u);
}

TEST(SpscRingTest, FifoOrderAndFullEmpty) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.Front(), nullptr);
  for (int i = 0; i < 4; ++i) {
    int* slot = ring.BeginPush();
    ASSERT_NE(slot, nullptr);
    *slot = i;
    ring.CommitPush();
  }
  EXPECT_EQ(ring.BeginPush(), nullptr);  // full
  EXPECT_EQ(ring.SizeApprox(), 4u);
  for (int i = 0; i < 4; ++i) {
    int* front = ring.Front();
    ASSERT_NE(front, nullptr);
    EXPECT_EQ(*front, i);
    ring.Pop();
  }
  EXPECT_EQ(ring.Front(), nullptr);  // empty again
  EXPECT_NE(ring.BeginPush(), nullptr);
}

TEST(SpscRingTest, SlotsAreReusedInPlace) {
  SpscRing<std::string> ring(2);
  // First lap: grow both slots' capacity.
  std::string* slot = ring.BeginPush();
  slot->assign(1024, 'x');
  ring.CommitPush();
  ring.Front();
  ring.Pop();
  ring.BeginPush()->assign(512, 'y');
  ring.CommitPush();
  ring.Front();
  ring.Pop();
  // Second lap: the first slot comes back with its capacity intact.
  std::string* again = ring.BeginPush();
  EXPECT_EQ(again, slot);
  EXPECT_GE(again->capacity(), 1024u);
}

TEST(SpscRingTest, CrossThreadStress) {
  constexpr uint64_t kCount = 200000;
  SpscRing<uint64_t> ring(64);
  std::thread producer([&ring] {
    for (uint64_t i = 0; i < kCount; ++i) {
      uint64_t* slot;
      while ((slot = ring.BeginPush()) == nullptr) std::this_thread::yield();
      *slot = i;
      ring.CommitPush();
    }
  });
  uint64_t expected = 0;
  uint64_t sum = 0;
  while (expected < kCount) {
    uint64_t* front;
    while ((front = ring.Front()) == nullptr) std::this_thread::yield();
    EXPECT_EQ(*front, expected);  // strict FIFO, no loss, no duplication
    sum += *front;
    ++expected;
    ring.Pop();
  }
  producer.join();
  EXPECT_EQ(sum, kCount * (kCount - 1) / 2);
}

// ---------------------------------------------------------------------------
// SubscriptionRegistry

TEST(SubscriptionRegistryTest, SameFirstStepNameSharesAShard) {
  SubscriptionRegistry registry(4);
  auto a1 = registry.Subscribe("//book/title");
  auto a2 = registry.Subscribe("//book//author");
  auto b = registry.Subscribe("//chapter/section");
  ASSERT_TRUE(a1.ok() && a2.ok() && b.ok());
  const uint64_t epoch = registry.CurrentEpoch();
  const uint64_t book_mask = registry.MaskForTag("book", epoch);
  // Exactly one shard is interested in "book", and both //book queries
  // landed on it.
  ASSERT_NE(book_mask, 0u);
  EXPECT_EQ(book_mask & (book_mask - 1), 0u);
  const int book_shard = std::countr_zero(book_mask);
  auto set = registry.ShardSet(book_shard, epoch);
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set[0].id, a1.value());
  EXPECT_EQ(set[1].id, a2.value());
  // A name nobody subscribed to routes nowhere.
  EXPECT_EQ(registry.MaskForTag("nosuch", epoch), 0u);
}

TEST(SubscriptionRegistryTest, WildcardFirstStepMarksShardTakeAll) {
  SubscriptionRegistry registry(2);
  EXPECT_EQ(registry.TakeAllMask(registry.CurrentEpoch()), 0u);
  auto w = registry.Subscribe("//*/price");
  ASSERT_TRUE(w.ok());
  const uint64_t epoch = registry.CurrentEpoch();
  const uint64_t mask = registry.TakeAllMask(epoch);
  ASSERT_NE(mask, 0u);
  EXPECT_EQ(mask & (mask - 1), 0u);  // exactly one shard
  // Before the wildcard subscription's epoch, no take-all.
  EXPECT_EQ(registry.TakeAllMask(epoch - 1), 0u);
}

TEST(SubscriptionRegistryTest, EpochsGateActivity) {
  SubscriptionRegistry registry(1);
  const uint64_t e0 = registry.CurrentEpoch();
  auto id = registry.Subscribe("//a/b");
  ASSERT_TRUE(id.ok());
  const uint64_t e1 = registry.CurrentEpoch();
  EXPECT_GT(e1, e0);
  EXPECT_TRUE(registry.ShardSet(0, e0).empty());   // not yet subscribed
  EXPECT_EQ(registry.ShardSet(0, e1).size(), 1u);  // active
  ASSERT_TRUE(registry.Unsubscribe(id.value()).ok());
  const uint64_t e2 = registry.CurrentEpoch();
  EXPECT_EQ(registry.ShardSet(0, e1).size(), 1u);  // still active at e1
  EXPECT_TRUE(registry.ShardSet(0, e2).empty());   // gone at e2
  EXPECT_EQ(registry.active_count(), 0u);
  // Double unsubscribe / unknown id are errors.
  EXPECT_FALSE(registry.Unsubscribe(id.value()).ok());
  EXPECT_FALSE(registry.Unsubscribe(9999).ok());
}

TEST(SubscriptionRegistryTest, ShardLastChangeTracksFolds) {
  SubscriptionRegistry registry(2);
  auto a = registry.Subscribe("//a/x");
  ASSERT_TRUE(a.ok());
  const uint64_t e1 = registry.CurrentEpoch();
  const uint64_t book_mask = registry.MaskForTag("a", e1);
  const int shard_a = std::countr_zero(book_mask);
  const uint64_t change1 = registry.ShardLastChange(shard_a, e1);
  EXPECT_NE(change1, 0u);
  // A subscription on the *other* shard must not dirty shard_a.
  auto b = registry.Subscribe("//b/y");
  ASSERT_TRUE(b.ok());
  const uint64_t e2 = registry.CurrentEpoch();
  const int shard_b = std::countr_zero(registry.MaskForTag("b", e2));
  if (shard_a != shard_b) {
    EXPECT_EQ(registry.ShardLastChange(shard_a, e2), change1);
  }
  EXPECT_GT(registry.ShardLastChange(shard_b, e2), change1);
}

TEST(SubscriptionRegistryTest, RejectsMalformedQueries) {
  SubscriptionRegistry registry(2);
  EXPECT_FALSE(registry.Subscribe("//a[").ok());
  EXPECT_FALSE(registry.Subscribe("").ok());
  EXPECT_EQ(registry.active_count(), 0u);
}

// ---------------------------------------------------------------------------
// Server end-to-end

/// Captures full MatchInfo (VectorMultiQuerySink drops byte_offset).
class RecordingSink : public core::MultiQueryResultSink {
 public:
  void OnResult(size_t query_index, const core::MatchInfo& match) override {
    items.emplace_back(query_index, match.id, match.byte_offset);
  }
  std::vector<std::tuple<size_t, xml::NodeId, uint64_t>> items;
};

/// (query_index, id, byte_offset) multiset from the single-threaded engine.
std::vector<std::tuple<size_t, xml::NodeId, uint64_t>> Oracle(
    const std::vector<std::string>& queries, const std::string& doc) {
  RecordingSink sink;
  auto engine = filter::FilterEngine::Create(queries, &sink);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  if (engine.ok()) {
    EXPECT_TRUE(engine.value()->Consume({doc, false}).ok());
    EXPECT_TRUE(engine.value()->Consume({std::string_view(), true}).ok());
  }
  std::sort(sink.items.begin(), sink.items.end());
  return sink.items;
}

/// Poll()ed notifications mapped back to query indices via `ids`.
std::vector<std::tuple<size_t, xml::NodeId, uint64_t>> Collect(
    const std::vector<Notification>& notifications,
    const std::vector<SubscriptionId>& ids) {
  std::vector<std::tuple<size_t, xml::NodeId, uint64_t>> out;
  for (const Notification& n : notifications) {
    auto it = std::find(ids.begin(), ids.end(), n.subscription);
    EXPECT_NE(it, ids.end()) << "unknown subscription " << n.subscription;
    out.emplace_back(static_cast<size_t>(it - ids.begin()), n.match.id,
                     n.match.byte_offset);
  }
  std::sort(out.begin(), out.end());
  return out;
}

const char kDoc[] =
    "<a><b><d/><e/></b><b><d/></b><c><d><e/></d></c><f>text</f></a>";

TEST(SubscriptionServerTest, MatchesSingleThreadedEngine) {
  const std::vector<std::string> queries = {
      "//a/b", "//b/d", "//a//e", "//c/d[e]", "//*", "//nomatch"};
  SubscriptionServer::Options options;
  options.num_shards = 3;
  auto server = SubscriptionServer::Create(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  std::vector<SubscriptionId> ids;
  for (const std::string& q : queries) {
    auto id = server.value()->Subscribe(q);
    ASSERT_TRUE(id.ok()) << q << ": " << id.status().ToString();
    ids.push_back(id.value());
  }
  {
    auto stream = server.value()->OpenStream();
    ASSERT_TRUE(stream->FeedDocument(kDoc).ok());
    std::vector<Notification> got;
    server.value()->Poll(&got);
    EXPECT_EQ(Collect(got, ids), Oracle(queries, kDoc));
  }
}

TEST(SubscriptionServerTest, ChunkedFeedMatchesWholeDocument) {
  const std::vector<std::string> queries = {"//b/d", "//a//e"};
  auto server = SubscriptionServer::Create();
  ASSERT_TRUE(server.ok());
  std::vector<SubscriptionId> ids;
  for (const std::string& q : queries) {
    ids.push_back(server.value()->Subscribe(q).value());
  }
  auto stream = server.value()->OpenStream();
  const std::string doc = kDoc;
  for (size_t i = 0; i < doc.size(); i += 7) {
    ASSERT_TRUE(stream->Consume({doc.substr(i, 7), false}).ok());
  }
  ASSERT_TRUE(stream->FinishDocument().ok());
  std::vector<Notification> got;
  server.value()->Poll(&got);
  EXPECT_EQ(Collect(got, ids), Oracle(queries, doc));
}

TEST(SubscriptionServerTest, ChurnLandsAtDocumentBoundaries) {
  auto server = SubscriptionServer::Create();
  ASSERT_TRUE(server.ok());
  auto stream = server.value()->OpenStream();
  const std::string doc = "<a><b/><b/></a>";

  // No subscriptions: the document flows and delivers nothing.
  ASSERT_TRUE(stream->FeedDocument(doc).ok());
  std::vector<Notification> got;
  EXPECT_EQ(server.value()->Poll(&got), 0u);

  auto id = server.value()->Subscribe("//a/b");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(stream->FeedDocument(doc).ok());
  got.clear();
  EXPECT_EQ(server.value()->Poll(&got), 2u);

  ASSERT_TRUE(server.value()->Unsubscribe(id.value()).ok());
  ASSERT_TRUE(stream->FeedDocument(doc).ok());
  got.clear();
  EXPECT_EQ(server.value()->Poll(&got), 0u);

  // Re-subscribing the same first-step name reuses the shard and works.
  auto id2 = server.value()->Subscribe("//a/b");
  ASSERT_TRUE(id2.ok());
  ASSERT_TRUE(stream->FeedDocument(doc).ok());
  got.clear();
  EXPECT_EQ(server.value()->Poll(&got), 2u);
  for (const Notification& n : got) {
    EXPECT_EQ(n.subscription, id2.value());
  }
}

TEST(SubscriptionServerTest, CallbackDeliveryReceivesEveryMatch) {
  SubscriptionServer::Options options;
  options.num_shards = 2;
  options.notify_batch = 3;  // force multiple partial batches
  std::mutex mu;
  std::vector<Notification> delivered;
  options.on_batch = [&](std::vector<Notification>&& batch) {
    std::lock_guard<std::mutex> lock(mu);
    for (const Notification& n : batch) delivered.push_back(n);
  };
  auto server = SubscriptionServer::Create(options);
  ASSERT_TRUE(server.ok());
  const std::vector<std::string> queries = {"//a/b", "//b/d", "//a//e"};
  std::vector<SubscriptionId> ids;
  for (const std::string& q : queries) {
    ids.push_back(server.value()->Subscribe(q).value());
  }
  {
    auto stream = server.value()->OpenStream();
    ASSERT_TRUE(stream->FeedDocument(kDoc).ok());
  }
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(Collect(delivered, ids), Oracle(queries, kDoc));
  // Poll must be empty: callback mode bypasses the queue.
  std::vector<Notification> polled;
  EXPECT_EQ(server.value()->Poll(&polled), 0u);
}

TEST(SubscriptionServerTest, ConcurrentStreamsDeliverTaggedResults) {
  auto server = SubscriptionServer::Create();
  ASSERT_TRUE(server.ok());
  auto sub = server.value()->Subscribe("//a/b");
  ASSERT_TRUE(sub.ok());
  constexpr int kStreams = 4;
  constexpr int kDocsPerStream = 8;
  std::vector<std::unique_ptr<serve::ServerStream>> streams;
  for (int i = 0; i < kStreams; ++i) {
    streams.push_back(server.value()->OpenStream());
  }
  std::vector<std::thread> feeders;
  for (int i = 0; i < kStreams; ++i) {
    feeders.emplace_back([&streams, i] {
      for (int d = 0; d < kDocsPerStream; ++d) {
        ASSERT_TRUE(streams[i]->FeedDocument("<a><b/><b/><c/></a>").ok());
      }
    });
  }
  for (std::thread& t : feeders) t.join();
  std::vector<Notification> got;
  server.value()->Poll(&got);
  ASSERT_EQ(got.size(), static_cast<size_t>(kStreams * kDocsPerStream * 2));
  // Every stream contributed exactly its share, tagged with its id.
  std::vector<int> per_stream(kStreams + 1, 0);
  for (const Notification& n : got) {
    ASSERT_GE(n.stream, streams[0]->stream_id());
    per_stream[n.stream - streams[0]->stream_id()]++;
  }
  for (int i = 0; i < kStreams; ++i) {
    EXPECT_EQ(per_stream[i], kDocsPerStream * 2);
  }
  streams.clear();  // must precede server destruction
}

TEST(SubscriptionServerTest, FinishDocumentIsABarrier) {
  // Every Poll right after FinishDocument must already see the matches —
  // repeat to give a racy implementation chances to fail.
  auto server = SubscriptionServer::Create();
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value()->Subscribe("//a/b").ok());
  auto stream = server.value()->OpenStream();
  for (int round = 0; round < 200; ++round) {
    ASSERT_TRUE(stream->FeedDocument("<a><b/></a>").ok());
    std::vector<Notification> got;
    ASSERT_EQ(server.value()->Poll(&got), 1u) << "round " << round;
  }
}

TEST(SubscriptionServerTest, ParseErrorPoisonsOnlyTheDocument) {
  auto server = SubscriptionServer::Create();
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value()->Subscribe("//a/b").ok());
  auto stream = server.value()->OpenStream();
  EXPECT_FALSE(stream->FeedDocument("<a><b></a>").ok());  // mismatched tag
  std::vector<Notification> got;
  server.value()->Poll(&got);
  got.clear();
  // The stream recovers for the next document.
  ASSERT_TRUE(stream->FeedDocument("<a><b/></a>").ok());
  EXPECT_EQ(server.value()->Poll(&got), 1u);
}

TEST(SubscriptionServerTest, RejectsBadOptionsAndQueries) {
  SubscriptionServer::Options options;
  options.num_shards = 0;
  EXPECT_FALSE(SubscriptionServer::Create(options).ok());
  options.num_shards = 65;
  EXPECT_FALSE(SubscriptionServer::Create(options).ok());
  auto server = SubscriptionServer::Create();
  ASSERT_TRUE(server.ok());
  EXPECT_FALSE(server.value()->Subscribe("//a[").ok());
  EXPECT_EQ(server.value()->active_subscriptions(), 0u);
}

TEST(SubscriptionServerTest, RejectsQueriesDeeperThanTheCap) {
  // Subscriber text is hostile input: a query nested past
  // xpath::kMaxQueryDepth is refused with a ParseError, never a crash, and
  // the server keeps serving.
  auto nested = [](int depth) {
    std::string q = "//a";
    for (int i = 1; i < depth; ++i) q += "[b";
    return q + std::string(static_cast<size_t>(depth - 1), ']');
  };
  auto server = SubscriptionServer::Create();
  ASSERT_TRUE(server.ok());
  EXPECT_TRUE(server.value()->Subscribe(nested(xpath::kMaxQueryDepth)).ok());
  for (int depth : {xpath::kMaxQueryDepth + 1, 100000}) {
    Result<SubscriptionId> sub = server.value()->Subscribe(nested(depth));
    ASSERT_FALSE(sub.ok()) << "depth " << depth;
    EXPECT_EQ(sub.status().code(), StatusCode::kParseError);
  }
  EXPECT_EQ(server.value()->active_subscriptions(), 1u);
  auto stream = server.value()->OpenStream();
  EXPECT_TRUE(stream->FeedDocument("<a><b/></a>").ok());
}

TEST(SubscriptionServerTest, ExportMetricsCoversEveryStage) {
  SubscriptionServer::Options options;
  options.num_shards = 2;
  auto server = SubscriptionServer::Create(options);
  ASSERT_TRUE(server.ok());
  auto sub = server.value()->Subscribe("//a/b");
  ASSERT_TRUE(sub.ok());
  {
    auto stream = server.value()->OpenStream();
    ASSERT_TRUE(stream->FeedDocument("<a><b/><b/></a>").ok());
  }
  std::vector<Notification> got;
  server.value()->Poll(&got);

  obs::MetricsRegistry registry;
  server.value()->ExportMetrics(&registry);
  const size_t first_count = registry.instrument_count();
  server.value()->ExportMetrics(&registry);  // refresh, not re-register
  EXPECT_EQ(registry.instrument_count(), first_count);

  uint64_t events = 0, matches = 0, documents = 0;
  bool saw_batch_hist = false, saw_latency_hist = false, saw_streams = false;
  for (const obs::MetricValue& mv : registry.Snapshot()) {
    if (mv.name.find(".events") != std::string::npos) {
      events += static_cast<uint64_t>(mv.value);
    }
    if (mv.name.find(".matches") != std::string::npos) {
      matches += static_cast<uint64_t>(mv.value);
    }
    if (mv.name.find(".documents") != std::string::npos) {
      documents += static_cast<uint64_t>(mv.value);
    }
    if (mv.name == "serve.batch_size.count" && mv.value >= 1) {
      saw_batch_hist = true;
    }
    if (mv.name == "serve.notify_latency_us.count" && mv.value >= 2) {
      saw_latency_hist = true;
    }
    if (mv.name == "serve.streams_opened" && mv.value == 1) {
      saw_streams = true;
    }
  }
  EXPECT_GE(events, 4u);  // boundary markers reach both shards
  EXPECT_EQ(matches, 2u);
  EXPECT_EQ(documents, 2u);  // one end marker per shard
  EXPECT_TRUE(saw_batch_hist);
  EXPECT_TRUE(saw_latency_hist);
  EXPECT_TRUE(saw_streams);
}

TEST(SubscriptionServerTest, RoutingSkipsUninterestedShards) {
  // With queries on distinct first steps and no wildcard, element events of
  // one subtree must only reach the shard interested in its first step:
  // start_events differs per shard even though boundary markers go to all.
  SubscriptionServer::Options options;
  options.num_shards = 2;
  auto server = SubscriptionServer::Create(options);
  ASSERT_TRUE(server.ok());
  auto a = server.value()->Subscribe("//bulk//x");
  auto b = server.value()->Subscribe("//rare/x");
  ASSERT_TRUE(a.ok() && b.ok());
  const uint64_t epoch = server.value()->registry().CurrentEpoch();
  const int bulk_shard =
      std::countr_zero(server.value()->registry().MaskForTag("bulk", epoch));
  const int rare_shard =
      std::countr_zero(server.value()->registry().MaskForTag("rare", epoch));
  ASSERT_NE(bulk_shard, rare_shard);  // two names, two shards (least-loaded)
  std::string doc = "<root>";
  for (int i = 0; i < 100; ++i) doc += "<bulk><x/></bulk>";
  doc += "<rare><x/></rare></root>";
  {
    auto stream = server.value()->OpenStream();
    ASSERT_TRUE(stream->FeedDocument(doc).ok());
  }
  const uint64_t bulk_starts =
      server.value()->shard(bulk_shard).counters().start_events.load();
  const uint64_t rare_starts =
      server.value()->shard(rare_shard).counters().start_events.load();
  EXPECT_EQ(bulk_starts, 200u);  // 100 <bulk> + 100 <x>; no <root>, no <rare>
  EXPECT_EQ(rare_starts, 2u);    // <rare> + its <x>
  std::vector<Notification> got;
  EXPECT_EQ(server.value()->Poll(&got), 101u);
}

}  // namespace
}  // namespace twigm
