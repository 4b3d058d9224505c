// One worker shard of the subscription service: a thread that owns the
// event-fed FilterEngines for its slice of the query set (one engine per
// attached stream session, all compiled from the same shard-local query
// list) and drains the per-session SPSC rings.
//
// The shard thread is the *only* thread that touches its engines, its
// engine-local TagInterner, and its session states; everything shared with
// the control/session threads goes through atomics (ShardCounters, channel
// acks), the registry mutex (folds, off the per-event path), or the
// DeliveryHub mutex (batch flushes).

#ifndef TWIGM_SERVE_SHARD_H_
#define TWIGM_SERVE_SHARD_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "core/evaluator.h"
#include "filter/filter_engine.h"
#include "serve/event_record.h"
#include "serve/notification.h"
#include "serve/serve_stats.h"
#include "serve/spsc_ring.h"
#include "serve/subscription_registry.h"
#include "xml/tag_interner.h"

namespace twigm::serve {

/// The producer/consumer pair for one (stream, shard) edge: the stream's
/// routing session pushes EventRecords, the shard worker pops them, and the
/// two acknowledgment atomics implement the document barrier
/// (ServerStream::FinishDocument) and the detach handshake (~ServerStream).
struct SessionChannel {
  SessionChannel(uint64_t stream, size_t ring_capacity)
      : stream_id(stream), ring(ring_capacity) {}

  const uint64_t stream_id;
  SpscRing<EventRecord> ring;
  /// Bumped by the shard after processing each kEndDocument marker.
  std::atomic<uint64_t> docs_finished{0};
  /// Set by the shard after processing kCloseSession.
  std::atomic<bool> closed{false};
};

/// Delivery plumbing shared by every shard, owned by SubscriptionServer:
/// the Poll() queue (or the caller's batch callback), the batch/latency
/// histograms, and the condition variable that document barriers and close
/// handshakes sleep on.
struct DeliveryHub {
  explicit DeliveryHub(size_t batch_capacity_in);

  const size_t batch_capacity;
  /// When set, batches are handed to this callback *on the shard thread*
  /// instead of being queued for Poll(). Written once, before the shard
  /// workers start; never mutated afterwards (so reads need no lock).
  std::function<void(std::vector<Notification>&&)> on_batch;

  common::Mutex mu;
  /// Flushed notifications awaiting Poll().
  std::vector<Notification> pending TWIGM_GUARDED_BY(mu);

  AtomicHistogram batch_size;
  AtomicHistogram notify_latency_us;

  common::Mutex barrier_mu;
  common::CondVar barrier_cv;

  /// Wakes every thread blocked in WaitBarrier (shards call this after
  /// bumping a channel's docs_finished / closed ack).
  void NotifyBarrier() TWIGM_EXCLUDES(barrier_mu);
  /// Blocks until `pred()` (which must read only atomics) holds.
  void WaitBarrier(const std::function<bool()>& pred)
      TWIGM_EXCLUDES(barrier_mu);
};

class Shard {
 public:
  Shard(int index, SubscriptionRegistry* registry, DeliveryHub* hub,
        core::EvaluatorOptions engine_options);
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  void Start();
  void Stop();

  /// Hands a new stream session to the worker (any thread). Records may be
  /// pushed into the channel's ring immediately; the worker adopts it on
  /// its next loop.
  void Attach(std::shared_ptr<SessionChannel> channel);

  /// Producer doorbell: wakes the worker if it is parked.
  void Wake();

  const ShardCounters& counters() const { return counters_; }
  int index() const { return index_; }

 private:
  struct SessionState;

  // Tags engine results with the owning session.
  class SessionSink : public core::MultiQueryResultSink {
   public:
    SessionSink(Shard* shard, SessionState* state)
        : shard_(shard), state_(state) {}
    void OnResult(size_t query_index, const core::MatchInfo& match) override {
      shard_->OnMatch(*state_, query_index, match);
    }

   private:
    Shard* shard_;
    SessionState* state_;
  };

  struct SessionState {
    std::shared_ptr<SessionChannel> chan;
    /// Engine-local tag dictionary: persists across engine rebuilds so
    /// sym_map entries (session symbol -> local symbol) stay valid.
    xml::TagInterner interner;
    std::unique_ptr<SessionSink> sink;
    std::unique_ptr<filter::FilterEngine> engine;
    /// Engine query_index -> subscription id, parallel to the engine's set.
    std::vector<SubscriptionId> query_ids;
    std::vector<xml::SymbolId> sym_map;
    std::vector<xml::Attribute> attr_scratch;
    /// Registry change epoch the current engine was folded at; kNeverEpoch
    /// = never folded (forces the first fold).
    uint64_t built_change_epoch = kNeverEpoch;
    bool closed = false;
  };

  struct PendingNotification {
    Notification notification;
    uint64_t enqueue_ns = 0;
  };

  void Run();
  void AdoptPending();
  bool DrainSession(SessionState& state);
  void Dispatch(SessionState& state, EventRecord& rec);
  void FoldSubscriptions(SessionState& state, uint64_t route_epoch);
  void OnMatch(SessionState& state, size_t query_index,
               const core::MatchInfo& match);
  void FlushBatch();
  void Park();

  const int index_;
  SubscriptionRegistry* registry_;
  DeliveryHub* hub_;
  core::EvaluatorOptions engine_options_;

  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> parked_{false};
  /// Serializes the park/wake handshake: Park re-checks stop_ and sets
  /// parked_ under this lock so a Stop or Wake between the check and the
  /// wait cannot be lost.
  common::Mutex wake_mu_;
  common::CondVar wake_cv_;

  common::Mutex attach_mu_;
  std::vector<std::shared_ptr<SessionChannel>> pending_attach_
      TWIGM_GUARDED_BY(attach_mu_);

  // Worker-thread-only state.
  std::vector<std::unique_ptr<SessionState>> sessions_;
  std::vector<PendingNotification> batch_;

  ShardCounters counters_;
};

}  // namespace twigm::serve

#endif  // TWIGM_SERVE_SHARD_H_
