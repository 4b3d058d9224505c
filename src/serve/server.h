// SubscriptionServer — the multi-core pub/sub front end over the
// shared-prefix FilterEngine (DESIGN.md §11).
//
// Topology: N worker shards, each owning the event-fed engines for its
// partition of the query set (SubscriptionRegistry assigns each first-step
// tag name to one shard). A ServerStream is one XML document stream: its
// caller thread parses (once), assigns levels/pre-order ids, and fans the
// modified-SAX events out through per-shard SPSC rings — but only to the
// shards whose queries can be affected: an event is routed to shard s iff
// its tag is a first step of some query on s (interest), an ancestor
// already routed to s (open window: everything below a matched first step
// must be seen), or s holds a wildcard-first-step query (take-all).
//
// Delivery: shards batch matches into per-subscriber notifications and
// flush them to the server's Poll() queue (or the Options::on_batch
// callback) when the batch fills, at each document end, and when the shard
// goes idle. FinishDocument() is a barrier: when it returns, every match
// of that document is visible to Poll().
//
// Live churn: Subscribe/Unsubscribe at any time, from any thread, with no
// stop-the-world rebuild — changes are epoch-stamped in the registry and
// each shard folds them into its engine at the next document start it
// processes (see subscription_registry.h for the exact activation rule).

#ifndef TWIGM_SERVE_SERVER_H_
#define TWIGM_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/evaluator.h"
#include "obs/metrics.h"
#include "serve/notification.h"
#include "serve/shard.h"
#include "serve/subscription_registry.h"
#include "xml/sax_event.h"
#include "xml/sax_parser.h"

namespace twigm::serve {

class SubscriptionServer;

/// One document stream bound to a server. Not thread-safe: feed each
/// stream from one thread at a time (different streams may be fed from
/// different threads concurrently). Destroy every stream before the server.
class ServerStream : private xml::StreamEventSink {
 public:
  ~ServerStream() override;

  ServerStream(const ServerStream&) = delete;
  ServerStream& operator=(const ServerStream&) = delete;

  /// Consumes one chunk of the current document (the first chunk after
  /// creation or after a document boundary starts a new document and fixes
  /// its route epoch). A chunk with last = true ends the document — the
  /// same barrier as FinishDocument. Parse errors are sticky for the
  /// document.
  Status Consume(const xml::InputChunk& chunk);

  /// Pulls chunks from `source` until it is exhausted or a chunk fails.
  Status Pump(xml::ByteSource* source);

  /// Ends the current document and blocks until every shard has processed
  /// it — afterwards all its matches are Poll()-visible and the stream is
  /// ready for the next document.
  Status FinishDocument();

  /// Convenience: Consume({doc, last=true}).
  Status FeedDocument(std::string_view doc) { return Consume({doc, true}); }

  uint64_t stream_id() const { return stream_id_; }
  uint64_t documents_finished() const { return docs_; }

 private:
  friend class SubscriptionServer;
  ServerStream(SubscriptionServer* server, uint64_t stream_id);

  // xml::StreamEventSink (called by the parser on the feeding thread).
  void StartElement(const xml::TagToken& tag, int level, xml::NodeId id,
                    const std::vector<xml::Attribute>& attrs) override;
  void EndElement(const xml::TagToken& tag, int level) override;
  void Text(std::string_view text, int level) override;
  void EndDocument() override;

  void BeginDocument();
  uint64_t MaskFor(const xml::TagToken& tag);
  EventRecord* BlockingBeginPush(int shard);
  void PushToAll(EventRecord::Kind kind, uint64_t route_epoch);

  SubscriptionServer* server_;
  const uint64_t stream_id_;

  std::vector<std::shared_ptr<SessionChannel>> channels_;  // one per shard

  xml::SaxParser parser_;
  uint64_t offset_ = 0;  // parser offset slot; copied into each record

  bool doc_open_ = false;
  uint64_t docs_ = 0;
  uint64_t route_epoch_ = 0;
  uint64_t take_all_mask_ = 0;

  /// Shard mask of every open element, innermost last. An element's mask is
  /// its parent's mask OR its own interest mask, so whole subtrees under a
  /// matched first step stay routed.
  std::vector<uint64_t> open_masks_;

  /// Per-session-symbol interest cache, invalidated per document (epoch
  /// tag), so the registry mutex is touched once per distinct tag per
  /// document instead of once per event.
  struct MaskCacheEntry {
    uint64_t mask = 0;
    uint64_t doc_gen = 0;
  };
  std::vector<MaskCacheEntry> mask_cache_;
  uint64_t doc_gen_ = 0;
};

class SubscriptionServer {
 public:
  struct Options {
    /// Worker shards, in [1, 64].
    int num_shards = 4;
    /// Capacity of each session→shard event ring (rounded up to a power of
    /// two). Producers block (spin/yield) when a ring is full.
    size_t ring_capacity = 1024;
    /// Notifications per delivery batch; flushes also happen at document
    /// end and when a shard goes idle.
    size_t notify_batch = 64;
    /// Tail-machine options for the shard engines (sax/instrumentation
    /// fields are ignored — shards never parse). Early decisions need a
    /// DTD and the server takes none, so enable_early_decisions has no
    /// effect here.
    core::EvaluatorOptions engine_options;
    /// Optional push delivery: batches are handed to this callback on the
    /// shard worker thread instead of queueing for Poll(). Must be
    /// thread-safe.
    std::function<void(std::vector<Notification>&&)> on_batch;
  };

  static Result<std::unique_ptr<SubscriptionServer>> Create(Options options);
  static Result<std::unique_ptr<SubscriptionServer>> Create() {
    return Create(Options());
  }
  ~SubscriptionServer();  // joins the shard workers

  SubscriptionServer(const SubscriptionServer&) = delete;
  SubscriptionServer& operator=(const SubscriptionServer&) = delete;

  /// Registers a standing query (any thread). Takes effect, per stream, at
  /// the next document started at a later epoch.
  Result<SubscriptionId> Subscribe(const std::string& query);

  /// Deactivates a subscription; matches already proven for in-flight
  /// documents are still delivered through those documents' end.
  Status Unsubscribe(SubscriptionId id);

  /// Opens a document stream. The stream must be destroyed before the
  /// server.
  std::unique_ptr<ServerStream> OpenStream();

  /// Drains every flushed notification batch into `out` (appends).
  /// Returns the number appended. Non-blocking; after FinishDocument on a
  /// stream, all of that document's notifications are available.
  size_t Poll(std::vector<Notification>* out);

  /// Exports service metrics into `registry` (prefix "serve."): per-shard
  /// event/match/rebuild/document counters and ring-depth peaks, plus
  /// batch-size and notification-latency histograms. Same by-name
  /// contract as FilterEngine::ExportMetrics.
  void ExportMetrics(obs::MetricsRegistry* registry) const;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  size_t active_subscriptions() const { return registry_.active_count(); }
  const SubscriptionRegistry& registry() const { return registry_; }
  const Shard& shard(int i) const { return *shards_[i]; }

 private:
  friend class ServerStream;
  explicit SubscriptionServer(Options options);

  Options options_;
  SubscriptionRegistry registry_;
  DeliveryHub hub_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> next_stream_id_{1};
  std::atomic<uint64_t> streams_opened_{0};
};

}  // namespace twigm::serve

#endif  // TWIGM_SERVE_SERVER_H_
