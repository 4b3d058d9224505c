#include "serve/server.h"

#include <bit>
#include <string>
#include <thread>
#include <utility>

namespace twigm::serve {

// ---------------------------------------------------------------------------
// ServerStream

ServerStream::ServerStream(SubscriptionServer* server, uint64_t stream_id)
    : server_(server),
      stream_id_(stream_id),
      parser_(this, server->options_.engine_options.sax) {
  parser_.set_offset_slot(&offset_);
  channels_.reserve(server_->shards_.size());
  for (std::unique_ptr<Shard>& shard : server_->shards_) {
    auto chan = std::make_shared<SessionChannel>(
        stream_id_, server_->options_.ring_capacity);
    shard->Attach(chan);
    channels_.push_back(std::move(chan));
  }
}

ServerStream::~ServerStream() {
  for (size_t s = 0; s < channels_.size(); ++s) {
    EventRecord* rec = BlockingBeginPush(static_cast<int>(s));
    rec->kind = EventRecord::Kind::kCloseSession;
    channels_[s]->ring.CommitPush();
    server_->shards_[s]->Wake();
  }
  server_->hub_.WaitBarrier([this] {
    for (const std::shared_ptr<SessionChannel>& chan : channels_) {
      // Acquire-consume the shard's teardown of this session's state.
      // pairs-with: shard.cc:Shard::Dispatch
      if (!chan->closed.load(std::memory_order_acquire)) return false;
    }
    return true;
  });
}

Status ServerStream::Consume(const xml::InputChunk& chunk) {
  if (!doc_open_) BeginDocument();
  if (!chunk.last) return parser_.Consume(chunk);
  // A last chunk is the document boundary: deliver its bytes, then run the
  // FinishDocument barrier (which consumes the end-of-input marker itself).
  Status s = parser_.Consume({chunk.bytes, false});
  if (!s.ok()) {
    // Still run the boundary so the stream is reusable afterwards.
    (void)FinishDocument();
    return s;
  }
  return FinishDocument();
}

Status ServerStream::Pump(xml::ByteSource* source) {
  xml::InputChunk chunk;
  while (source->Next(&chunk)) {
    TWIGM_RETURN_IF_ERROR(Consume(chunk));
  }
  return Status::Ok();
}

Status ServerStream::FinishDocument() {
  if (!doc_open_) {
    return Status::InvalidArgument("no document in progress on this stream");
  }
  Status finish = parser_.Consume({std::string_view(), true});  // fires EndDocument
  if (!finish.ok()) {
    // Poisoned document: shards never see an end marker for it, so close
    // the window explicitly to keep the barrier accounting in step.
    PushToAll(EventRecord::Kind::kEndDocument, 0);
    open_masks_.clear();
  }
  ++docs_;
  server_->hub_.WaitBarrier([this] {
    for (const std::shared_ptr<SessionChannel>& chan : channels_) {
      // Acquire-consume the shard's flushed matches for this document.
      // pairs-with: shard.cc:Shard::Dispatch
      if (chan->docs_finished.load(std::memory_order_acquire) < docs_) {
        return false;
      }
    }
    return true;
  });
  parser_.Reset();
  doc_open_ = false;
  return finish;
}

void ServerStream::BeginDocument() {
  route_epoch_ = server_->registry_.CurrentEpoch();
  take_all_mask_ = server_->registry_.TakeAllMask(route_epoch_);
  ++doc_gen_;
  PushToAll(EventRecord::Kind::kStartDocument, route_epoch_);
  doc_open_ = true;
}

uint64_t ServerStream::MaskFor(const xml::TagToken& tag) {
  if (mask_cache_.size() <= tag.symbol) {
    mask_cache_.resize(tag.symbol + 1);
  }
  MaskCacheEntry& entry = mask_cache_[tag.symbol];
  if (entry.doc_gen != doc_gen_) {
    entry.mask = server_->registry_.MaskForTag(tag.text, route_epoch_);
    entry.doc_gen = doc_gen_;
  }
  return take_all_mask_ | entry.mask;
}

EventRecord* ServerStream::BlockingBeginPush(int shard) {
  SpscRing<EventRecord>& ring = channels_[shard]->ring;
  EventRecord* rec;
  while ((rec = ring.BeginPush()) == nullptr) {
    // Full ring: the worker is behind (or parked in the instant before the
    // ring filled) — ring the doorbell and give it the core.
    server_->shards_[shard]->Wake();
    std::this_thread::yield();
  }
  return rec;
}

void ServerStream::PushToAll(EventRecord::Kind kind, uint64_t route_epoch) {
  for (size_t s = 0; s < channels_.size(); ++s) {
    EventRecord* rec = BlockingBeginPush(static_cast<int>(s));
    rec->kind = kind;
    rec->route_epoch = route_epoch;
    rec->byte_offset = offset_;
    channels_[s]->ring.CommitPush();
    server_->shards_[s]->Wake();
  }
}

void ServerStream::StartElement(const xml::TagToken& tag, int level,
                                xml::NodeId id,
                                const std::vector<xml::Attribute>& attrs) {
  const uint64_t parent = open_masks_.empty() ? 0 : open_masks_.back();
  const uint64_t mask = parent | MaskFor(tag);
  open_masks_.push_back(mask);
  for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
    const int s = std::countr_zero(rest);
    EventRecord* rec = BlockingBeginPush(s);
    rec->kind = EventRecord::Kind::kStartElement;
    rec->level = level;
    rec->id = id;
    rec->symbol = tag.symbol;
    rec->byte_offset = offset_;
    rec->tag.assign(tag.text);
    rec->SetAttributes(attrs);
    channels_[s]->ring.CommitPush();
    server_->shards_[s]->Wake();
  }
}

void ServerStream::EndElement(const xml::TagToken& tag, int level) {
  const uint64_t mask = open_masks_.back();
  open_masks_.pop_back();
  for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
    const int s = std::countr_zero(rest);
    EventRecord* rec = BlockingBeginPush(s);
    rec->kind = EventRecord::Kind::kEndElement;
    rec->level = level;
    rec->symbol = tag.symbol;
    rec->byte_offset = offset_;
    rec->tag.assign(tag.text);
    channels_[s]->ring.CommitPush();
    server_->shards_[s]->Wake();
  }
}

void ServerStream::Text(std::string_view text, int level) {
  const uint64_t mask = open_masks_.empty() ? 0 : open_masks_.back();
  for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
    const int s = std::countr_zero(rest);
    EventRecord* rec = BlockingBeginPush(s);
    rec->kind = EventRecord::Kind::kText;
    rec->level = level;
    rec->byte_offset = offset_;
    rec->text.assign(text);
    channels_[s]->ring.CommitPush();
    server_->shards_[s]->Wake();
  }
}

void ServerStream::EndDocument() {
  PushToAll(EventRecord::Kind::kEndDocument, 0);
}

// ---------------------------------------------------------------------------
// SubscriptionServer

SubscriptionServer::SubscriptionServer(Options options)
    : options_(std::move(options)),
      registry_(options_.num_shards),
      hub_(options_.notify_batch) {
  hub_.on_batch = options_.on_batch;
  for (int i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        i, &registry_, &hub_, options_.engine_options));
  }
  for (std::unique_ptr<Shard>& shard : shards_) shard->Start();
}

Result<std::unique_ptr<SubscriptionServer>> SubscriptionServer::Create(
    Options options) {
  if (options.num_shards < 1 || options.num_shards > 64) {
    return Status::InvalidArgument(
        "SubscriptionServer: num_shards must be in [1, 64]");
  }
  if (options.ring_capacity < 2) options.ring_capacity = 2;
  return std::unique_ptr<SubscriptionServer>(
      new SubscriptionServer(std::move(options)));
}

SubscriptionServer::~SubscriptionServer() {
  for (std::unique_ptr<Shard>& shard : shards_) shard->Stop();
}

Result<SubscriptionId> SubscriptionServer::Subscribe(
    const std::string& query) {
  return registry_.Subscribe(query);
}

Status SubscriptionServer::Unsubscribe(SubscriptionId id) {
  return registry_.Unsubscribe(id);
}

std::unique_ptr<ServerStream> SubscriptionServer::OpenStream() {
  streams_opened_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t id = next_stream_id_.fetch_add(1, std::memory_order_relaxed);
  return std::unique_ptr<ServerStream>(new ServerStream(this, id));
}

size_t SubscriptionServer::Poll(std::vector<Notification>* out) {
  common::MutexLock lock(&hub_.mu);
  const size_t n = hub_.pending.size();
  if (n == 0) return 0;
  if (out->empty()) {
    out->swap(hub_.pending);
  } else {
    out->insert(out->end(), hub_.pending.begin(), hub_.pending.end());
    hub_.pending.clear();
  }
  return n;
}

namespace {

void ExportHistogram(obs::MetricsRegistry* registry, const std::string& prefix,
                     const AtomicHistogram& hist) {
  registry->SetCounter(prefix + ".count", hist.count());
  registry->SetCounter(prefix + ".sum", hist.sum());
  registry->SetCounter(prefix + ".max", hist.max());
  const std::vector<uint64_t>& bounds = hist.bounds();
  for (size_t i = 0; i <= bounds.size(); ++i) {
    registry->SetCounter(
        prefix + ".le." +
            (i < bounds.size() ? std::to_string(bounds[i]) : "inf"),
        hist.bucket(i));
  }
}

}  // namespace

void SubscriptionServer::ExportMetrics(obs::MetricsRegistry* registry) const {
  registry->SetCounter("serve.subscribes", registry_.subscribe_count());
  registry->SetCounter("serve.unsubscribes", registry_.unsubscribe_count());
  registry->SetCounter("serve.active_subscriptions", registry_.active_count());
  registry->SetCounter("serve.streams_opened",
                       streams_opened_.load(std::memory_order_relaxed));
  for (size_t i = 0; i < shards_.size(); ++i) {
    const ShardCounters& c = shards_[i]->counters();
    const std::string prefix = "serve.shard" + std::to_string(i);
    registry->SetCounter(prefix + ".events",
                         c.events.load(std::memory_order_relaxed));
    registry->SetCounter(prefix + ".start_events",
                         c.start_events.load(std::memory_order_relaxed));
    registry->SetCounter(prefix + ".matches",
                         c.matches.load(std::memory_order_relaxed));
    registry->SetCounter(prefix + ".batches",
                         c.batches.load(std::memory_order_relaxed));
    registry->SetCounter(prefix + ".engine_rebuilds",
                         c.engine_rebuilds.load(std::memory_order_relaxed));
    registry->SetCounter(prefix + ".documents",
                         c.documents.load(std::memory_order_relaxed));
    registry->SetCounter(prefix + ".ring_depth_peak",
                         c.ring_depth_peak.load(std::memory_order_relaxed));
  }
  ExportHistogram(registry, "serve.batch_size", hub_.batch_size);
  ExportHistogram(registry, "serve.notify_latency_us", hub_.notify_latency_us);
}

}  // namespace twigm::serve
