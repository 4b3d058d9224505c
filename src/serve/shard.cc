#include "serve/shard.h"

#include <chrono>
#include <cstdio>
#include <string>

#include "obs/metrics.h"

namespace twigm::serve {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Events drained from one session before giving the next one a turn.
constexpr int kDrainBurst = 256;

}  // namespace

DeliveryHub::DeliveryHub(size_t batch_capacity_in)
    : batch_capacity(batch_capacity_in == 0 ? 1 : batch_capacity_in),
      // Batch sizes: 1..batch_capacity; a few doublings cover any config.
      batch_size(obs::ExponentialBuckets(1, 2, 12)),
      // Enqueue-to-flush latency in microseconds: 1us .. ~4s.
      notify_latency_us(obs::ExponentialBuckets(1, 4, 12)) {}

void DeliveryHub::NotifyBarrier() {
  common::MutexLock lock(&barrier_mu);
  barrier_cv.NotifyAll();
}

void DeliveryHub::WaitBarrier(const std::function<bool()>& pred) {
  common::MutexLock lock(&barrier_mu);
  barrier_cv.Wait(lock, pred);
}

Shard::Shard(int index, SubscriptionRegistry* registry, DeliveryHub* hub,
             core::EvaluatorOptions engine_options)
    : index_(index),
      registry_(registry),
      hub_(hub),
      engine_options_(engine_options) {
  // Shard engines never parse; drop any caller instrumentation hook (it is
  // single-threaded plumbing and must not be shared across workers).
  engine_options_.instrumentation = nullptr;
}

Shard::~Shard() { Stop(); }

void Shard::Start() {
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { Run(); });
}

void Shard::Stop() {
  if (!thread_.joinable()) return;
  {
    common::MutexLock lock(&wake_mu_);
    stop_.store(true, std::memory_order_relaxed);
  }
  wake_cv_.NotifyOne();
  thread_.join();
}

void Shard::Attach(std::shared_ptr<SessionChannel> channel) {
  {
    common::MutexLock lock(&attach_mu_);
    pending_attach_.push_back(std::move(channel));
  }
  Wake();
}

void Shard::Wake() {
  if (!parked_.load(std::memory_order_relaxed)) return;
  common::MutexLock lock(&wake_mu_);
  wake_cv_.NotifyOne();
}

void Shard::Run() {
  while (!stop_.load(std::memory_order_relaxed)) {
    AdoptPending();
    bool progress = false;
    for (std::unique_ptr<SessionState>& state : sessions_) {
      progress |= DrainSession(*state);
    }
    for (size_t i = sessions_.size(); i-- > 0;) {
      if (sessions_[i]->closed) {
        sessions_.erase(sessions_.begin() + static_cast<ptrdiff_t>(i));
      }
    }
    if (progress) {
      // Earliest answering extends to delivery: matches proved mid-document
      // leave for the subscriber at the end of the drain pass instead of
      // aging until the batch fills or the document closes.
      FlushBatch();
    }
    if (!progress) {
      // Nothing in flight: deliver any partially filled batch rather than
      // letting it age, then park until a producer rings the doorbell.
      FlushBatch();
      Park();
    }
  }
  FlushBatch();
}

void Shard::AdoptPending() {
  std::vector<std::shared_ptr<SessionChannel>> incoming;
  {
    common::MutexLock lock(&attach_mu_);
    incoming.swap(pending_attach_);
  }
  for (std::shared_ptr<SessionChannel>& chan : incoming) {
    auto state = std::make_unique<SessionState>();
    state->chan = std::move(chan);
    state->sink = std::make_unique<SessionSink>(this, state.get());
    sessions_.push_back(std::move(state));
  }
}

bool Shard::DrainSession(SessionState& state) {
  SpscRing<EventRecord>& ring = state.chan->ring;
  counters_.NoteRingDepth(ring.SizeApprox());
  int drained = 0;
  EventRecord* rec;
  while (drained < kDrainBurst && (rec = ring.Front()) != nullptr) {
    Dispatch(state, *rec);
    ring.Pop();
    ++drained;
    if (state.closed) break;
  }
  if (drained > 0) {
    counters_.events.fetch_add(static_cast<uint64_t>(drained),
                               std::memory_order_relaxed);
  }
  return drained > 0;
}

void Shard::Dispatch(SessionState& state, EventRecord& rec) {
  filter::FilterEngine* engine = state.engine.get();
  switch (rec.kind) {
    case EventRecord::Kind::kStartDocument:
      FoldSubscriptions(state, rec.route_epoch);
      if (state.engine != nullptr) state.engine->Reset();
      break;
    case EventRecord::Kind::kStartElement: {
      counters_.start_events.fetch_add(1, std::memory_order_relaxed);
      if (engine == nullptr) break;
      *engine->offset_slot() = rec.byte_offset;
      if (state.sym_map.size() <= rec.symbol) {
        state.sym_map.resize(rec.symbol + 1, xml::kNoSymbol);
      }
      xml::SymbolId& local = state.sym_map[rec.symbol];
      if (local == xml::kNoSymbol) local = state.interner.Intern(rec.tag);
      state.attr_scratch.clear();
      for (size_t i = 0; i < rec.attr_count; ++i) {
        state.attr_scratch.push_back(
            xml::Attribute{rec.attrs[i].name, rec.attrs[i].value});
      }
      engine->event_input()->StartElement(xml::TagToken(rec.tag, local),
                                          rec.level, rec.id,
                                          state.attr_scratch);
      break;
    }
    case EventRecord::Kind::kEndElement: {
      if (engine == nullptr) break;
      *engine->offset_slot() = rec.byte_offset;
      const xml::SymbolId local = rec.symbol < state.sym_map.size()
                                      ? state.sym_map[rec.symbol]
                                      : xml::kNoSymbol;
      engine->event_input()->EndElement(xml::TagToken(rec.tag, local),
                                        rec.level);
      break;
    }
    case EventRecord::Kind::kText:
      if (engine == nullptr) break;
      *engine->offset_slot() = rec.byte_offset;
      engine->event_input()->Text(rec.text, rec.level);
      break;
    case EventRecord::Kind::kEndDocument:
      if (engine != nullptr) {
        *engine->offset_slot() = rec.byte_offset;
        engine->event_input()->EndDocument();
      }
      // Flush before acknowledging: once FinishDocument returns, every
      // match of the document must be visible to Poll().
      FlushBatch();
      counters_.documents.fetch_add(1, std::memory_order_relaxed);
      // Release-publish the document's effects (flushed notifications,
      // counters) to the stream thread blocked on the barrier.
      // pairs-with: server.cc:ServerStream::FinishDocument
      state.chan->docs_finished.fetch_add(1, std::memory_order_release);
      hub_->NotifyBarrier();
      break;
    case EventRecord::Kind::kCloseSession:
      FlushBatch();
      state.closed = true;
      // Release-publish the session teardown to the destructor handshake.
      // pairs-with: server.cc:ServerStream::~ServerStream
      state.chan->closed.store(true, std::memory_order_release);
      hub_->NotifyBarrier();
      break;
  }
}

void Shard::FoldSubscriptions(SessionState& state, uint64_t route_epoch) {
  const uint64_t change = registry_->ShardLastChange(index_, route_epoch);
  if (change == state.built_change_epoch) return;

  const std::vector<SubscriptionRegistry::ShardQuery> set =
      registry_->ShardSet(index_, route_epoch);
  state.query_ids.clear();
  state.engine.reset();
  if (!set.empty()) {
    std::vector<std::string> queries;
    queries.reserve(set.size());
    state.query_ids.reserve(set.size());
    for (const SubscriptionRegistry::ShardQuery& q : set) {
      queries.push_back(q.query);
      state.query_ids.push_back(q.id);
    }
    Result<std::unique_ptr<filter::FilterEngine>> engine =
        filter::FilterEngine::CreateEventFed(queries, state.sink.get(),
                                             &state.interner, engine_options_);
    if (engine.ok()) {
      state.engine = std::move(engine).value();
      counters_.engine_rebuilds.fetch_add(1, std::memory_order_relaxed);
    } else {
      // Queries were validated at Subscribe; a failure here is a bug, but
      // the shard must keep serving its other sessions.
      std::fprintf(stderr, "serve: shard %d engine fold failed: %s\n", index_,
                   engine.status().ToString().c_str());
      state.query_ids.clear();
    }
  }
  state.built_change_epoch = change;
}

void Shard::OnMatch(SessionState& state, size_t query_index,
                    const core::MatchInfo& match) {
  counters_.matches.fetch_add(1, std::memory_order_relaxed);
  PendingNotification pending;
  pending.notification.subscription = state.query_ids[query_index];
  pending.notification.stream = state.chan->stream_id;
  pending.notification.match = match;
  pending.enqueue_ns = NowNs();
  batch_.push_back(pending);
  if (batch_.size() >= hub_->batch_capacity) FlushBatch();
}

void Shard::FlushBatch() {
  if (batch_.empty()) return;
  const uint64_t now = NowNs();
  hub_->batch_size.Observe(batch_.size());
  for (const PendingNotification& p : batch_) {
    hub_->notify_latency_us.Observe((now - p.enqueue_ns) / 1000);
  }
  counters_.batches.fetch_add(1, std::memory_order_relaxed);
  if (hub_->on_batch) {
    std::vector<Notification> out;
    out.reserve(batch_.size());
    for (const PendingNotification& p : batch_) out.push_back(p.notification);
    hub_->on_batch(std::move(out));
  } else {
    common::MutexLock lock(&hub_->mu);
    for (const PendingNotification& p : batch_) {
      hub_->pending.push_back(p.notification);
    }
  }
  batch_.clear();
}

void Shard::Park() {
  common::MutexLock lock(&wake_mu_);
  if (stop_.load(std::memory_order_relaxed)) return;
  parked_.store(true, std::memory_order_relaxed);
  // Producers that pushed just before seeing parked_ may skip the doorbell;
  // the bounded wait keeps that race harmless (one extra millisecond).
  wake_cv_.WaitFor(lock, std::chrono::milliseconds(1));
  parked_.store(false, std::memory_order_relaxed);
}

}  // namespace twigm::serve
