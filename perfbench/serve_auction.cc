// serve_auction: the pub/sub front door. One operation sends one XMark
// message through a ServerStream of a 2-shard SubscriptionServer holding
// 4096 standing subscriptions, and ends when the final Consume (the shard
// barrier) has returned and Poll has drained the message's notifications.
// The shards' FilterEngines are the bottleneck; parsing runs on the
// producer thread alongside, so the xml layer is bypassed here.
#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <thread>

#include "core/multi_query.h"
#include "filter/filter_engine.h"
#include "perfbench.h"
#include "serve/server.h"
#include "xml/sax_event.h"
#include "xml/sax_parser.h"

namespace perfbench {
namespace {

using twigm::Result;
using twigm::Status;
namespace core = twigm::core;
namespace filter = twigm::filter;
namespace serve = twigm::serve;
namespace xml = twigm::xml;

constexpr size_t kSubscriptions = 4096;
constexpr int kShards = 2;  // + the producer: 3 threads
constexpr int kLayerRounds = 3;
constexpr size_t kReplayMessages = 32;  // recorded for the filter replay

class CountingMultiSink : public core::MultiQueryResultSink {
 public:
  void OnResult(size_t, const core::MatchInfo&) override { ++count_; }
  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
};

// A document's modified-SAX events, recorded once so the filter layer can
// be replayed without the parser in front of it.
struct RecordedEvent {
  enum class Kind : uint8_t { kStart, kEnd, kText };
  Kind kind = Kind::kStart;
  int level = 0;
  xml::NodeId id = 0;
  xml::SymbolId symbol = xml::kNoSymbol;
  std::string text;  // tag name, or character data for kText
  std::vector<std::pair<std::string, std::string>> attrs;
};

class Recorder : public xml::StreamEventSink {
 public:
  void set_output(std::vector<RecordedEvent>* out) { out_ = out; }
  void StartElement(const xml::TagToken& tag, int level, xml::NodeId id,
                    const std::vector<xml::Attribute>& attrs) override {
    RecordedEvent ev;
    ev.kind = RecordedEvent::Kind::kStart;
    ev.level = level;
    ev.id = id;
    ev.symbol = tag.symbol;
    ev.text = std::string(tag.text);
    for (const xml::Attribute& a : attrs) {
      ev.attrs.emplace_back(std::string(a.name), std::string(a.value));
    }
    out_->push_back(std::move(ev));
  }
  void EndElement(const xml::TagToken& tag, int level) override {
    RecordedEvent ev;
    ev.kind = RecordedEvent::Kind::kEnd;
    ev.level = level;
    ev.symbol = tag.symbol;
    ev.text = std::string(tag.text);
    out_->push_back(std::move(ev));
  }
  void Text(std::string_view text, int level) override {
    RecordedEvent ev;
    ev.kind = RecordedEvent::Kind::kText;
    ev.level = level;
    ev.text = std::string(text);
    out_->push_back(std::move(ev));
  }

 private:
  std::vector<RecordedEvent>* out_ = nullptr;
};

// Parses documents into recordings. Its interner assigns the recorded
// symbols, so the replay engine binds its labels to it.
struct RecordingStack {
  Recorder recorder;
  xml::EventDriver driver{&recorder};
  xml::SaxParser parser{&driver};
};

void Replay(const std::vector<RecordedEvent>& events,
            xml::StreamEventSink* sink, std::vector<xml::Attribute>* scratch) {
  for (const RecordedEvent& ev : events) {
    const xml::TagToken tag(ev.text, ev.symbol);
    switch (ev.kind) {
      case RecordedEvent::Kind::kStart:
        scratch->clear();
        for (const auto& [name, value] : ev.attrs) {
          scratch->push_back(xml::Attribute{name, value});
        }
        sink->StartElement(tag, ev.level, ev.id, *scratch);
        break;
      case RecordedEvent::Kind::kEnd:
        sink->EndElement(tag, ev.level);
        break;
      case RecordedEvent::Kind::kText:
        sink->Text(ev.text, ev.level);
        break;
    }
  }
  sink->EndDocument();
}

class ServeAuction : public Workload {
 public:
  ~ServeAuction() override { TearDown(); }

  const char* name() const override { return "serve_auction"; }

  Status Prepare(uint64_t seed) override {
    Result<std::vector<std::string>> docs = GenerateAuctionMessages(seed);
    if (!docs.ok()) return docs.status();
    docs_ = std::move(docs).value();
    subscriptions_ = GenerateSubscriptions(kSubscriptions);
    chunks_.clear();
    for (const std::string& doc : docs_) chunks_.push_back(SplitChunks(doc));
    // Reference: the single-threaded FilterEngine over the same queries.
    CountingMultiSink sink;
    auto engine = filter::FilterEngine::Create(subscriptions_, &sink);
    if (!engine.ok()) return engine.status();
    expected_.clear();
    for (const std::string& doc : docs_) {
      const uint64_t before = sink.count();
      engine.value()->Reset();
      TWIGM_RETURN_IF_ERROR(engine.value()->Consume({doc, true}));
      expected_.push_back(sink.count() - before);
    }
    return Status::Ok();
  }

  // Subscribe x4096 plus the first document, at which the shards fold the
  // subscriptions into their engines.
  Status SetUp(Tracer* tracer) override {
    TearDown();
    serve::SubscriptionServer::Options options;
    options.num_shards = kShards;
    auto server = serve::SubscriptionServer::Create(options);
    if (!server.ok()) return server.status();
    server_ = std::move(server).value();
    {
      ScopedSpan span(tracer, "serve.subscribe", 0);
      for (const std::string& q : subscriptions_) {
        auto id = server_->Subscribe(q);
        if (!id.ok()) return id.status();
      }
    }
    stream_ = server_->OpenStream();
    ScopedSpan span(tracer, "serve.first_fold", 0);
    Result<uint64_t> n = Send(0, nullptr, 0);
    if (!n.ok()) return n.status();
    if (n.value() != expected_[0]) {
      return Status::Internal("first document: notification count differs");
    }
    return Status::Ok();
  }

  int SetUpRepeats() const override { return 3; }

  size_t CycleLength() const override { return docs_.size(); }

  size_t Rounds() const override { return 15; }

  OpOutcome RunOp(size_t i, Tracer* tracer) override {
    const size_t d = i % docs_.size();
    ScopedSpan span(tracer, "op", i);
    Result<uint64_t> n = Send(d, tracer, i);
    return OpOutcome{docs_[d].size(), n.ok() && n.value() == expected_[d]};
  }

  std::vector<std::string_view> Documents() const override {
    return std::vector<std::string_view>(docs_.begin(), docs_.end());
  }

  Status MeasureLayers(Tracer* tracer, Report* out) override {
    TWIGM_RETURN_IF_ERROR(MeasureServe(tracer, out));
    return MeasureFilter(out);
  }

 private:
  void TearDown() {
    stream_.reset();  // streams go before their server
    server_.reset();
  }

  // Sends message `d` and returns its notification count.
  Result<uint64_t> Send(size_t d, Tracer* tracer, uint64_t op) {
    for (std::string_view chunk : chunks_[d]) {
      ScopedSpan span(tracer, "serve.consume", op);
      TWIGM_RETURN_IF_ERROR(stream_->Consume({chunk, false}));
    }
    {
      ScopedSpan span(tracer, "serve.finish", op);
      TWIGM_RETURN_IF_ERROR(stream_->Consume({{}, true}));
    }
    ScopedSpan span(tracer, "serve.poll", op);
    notifications_.clear();
    server_->Poll(&notifications_);
    return static_cast<uint64_t>(notifications_.size());
  }

  struct ShardTotals {
    std::vector<uint64_t> events;
    uint64_t matches = 0;
    uint64_t batches = 0;
    uint64_t ring_depth_peak = 0;
  };

  // A shard adds a drained batch to its event counter just after the
  // barrier that ends the document, so the counters are read until two
  // reads a millisecond apart agree.
  ShardTotals ReadShards() const {
    ShardTotals t = ReadShardsOnce();
    for (;;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ShardTotals again = ReadShardsOnce();
      if (again.events == t.events) return again;
      t = std::move(again);
    }
  }

  ShardTotals ReadShardsOnce() const {
    ShardTotals t;
    for (int s = 0; s < server_->num_shards(); ++s) {
      const serve::ShardCounters& c = server_->shard(s).counters();
      t.events.push_back(c.events.load(std::memory_order_relaxed));
      t.matches += c.matches.load(std::memory_order_relaxed);
      t.batches += c.batches.load(std::memory_order_relaxed);
      t.ring_depth_peak = std::max(
          t.ring_depth_peak, c.ring_depth_peak.load(std::memory_order_relaxed));
    }
    return t;
  }

  // serve layer: spans around Subscribe, the first fold and each call of
  // the operation, plus the shards' counters over whole cycles.
  Status MeasureServe(Tracer* tracer, Report* out) {
    const size_t first_span = tracer->size();
    for (int r = 0; r < kLayerRounds; ++r) {
      TWIGM_RETURN_IF_ERROR(SetUp(tracer));
    }
    std::vector<uint64_t> cycle_events;  // Σ shard events, per cycle
    std::vector<uint64_t> shard_events(server_->num_shards(), 0);
    uint64_t matches = 0, batches = 0, ops = 0;
    for (int r = 0; r < kLayerRounds; ++r) {
      const ShardTotals before = ReadShards();
      for (size_t d = 0; d < docs_.size(); ++d, ++ops) {
        if (!RunOp(d, tracer).ok) {
          out->Fail("serve: notification count differs from reference");
        }
      }
      const ShardTotals after = ReadShards();
      uint64_t total = 0;
      for (size_t s = 0; s < shard_events.size(); ++s) {
        const uint64_t delta = after.events[s] - before.events[s];
        shard_events[s] += delta;
        total += delta;
      }
      cycle_events.push_back(total);
      matches += after.matches - before.matches;
      batches += after.batches - before.batches;
    }
    if (std::adjacent_find(cycle_events.begin(), cycle_events.end(),
                           std::not_equal_to<>()) != cycle_events.end()) {
      out->Fail("serve: shard event totals differ between identical cycles");
    }
    std::map<std::string, double> spans = tracer->SelfNs(first_span);
    const double setups = kLayerRounds;
    const double n = static_cast<double>(ops);
    out->Add("serve.subscribe_ms", spans["serve.subscribe"] / setups / 1e6,
             "ms");
    out->Add("serve.first_fold_ms", spans["serve.first_fold"] / setups / 1e6,
             "ms");
    out->Add("serve.consume_ms_per_op", spans["serve.consume"] / n / 1e6, "ms");
    out->Add("serve.finish_wait_ms_per_op", spans["serve.finish"] / n / 1e6,
             "ms");
    out->Add("serve.poll_ms_per_op", spans["serve.poll"] / n / 1e6, "ms");
    double cycle_elements = 0;
    for (const std::string& doc : docs_) {
      Result<uint64_t> n = CountElements(doc);
      if (!n.ok()) return n.status();
      cycle_elements += static_cast<double>(n.value());
    }
    double sum = 0, peak = 0;
    for (uint64_t e : shard_events) {
      sum += static_cast<double>(e);
      peak = std::max(peak, static_cast<double>(e));
    }
    out->Add("serve.routed_events_per_element",
             sum / (cycle_elements * kLayerRounds), "ratio");
    out->Add("serve.shard_skew",
             peak / (sum / static_cast<double>(shard_events.size())), "ratio");
    out->Add("serve.ring_depth_peak",
             static_cast<double>(ReadShards().ring_depth_peak), "count");
    out->Add("serve.batch_size_mean",
             batches > 0 ? static_cast<double>(matches) /
                               static_cast<double>(batches)
                         : 0.0,
             "count");
    return Status::Ok();
  }

  static Result<uint64_t> CountElements(std::string_view doc) {
    NullEventSink sink;
    xml::EventDriver driver(&sink);
    xml::SaxParser parser(&driver);
    TWIGM_RETURN_IF_ERROR(parser.Consume({doc, true}));
    return driver.element_count();
  }

  // filter layer: the recorded events replayed into an event-fed
  // FilterEngine with the same subscriptions, minus a replay into a null
  // sink; counts from the engine's runtime_stats().
  Status MeasureFilter(Report* out) {
    RecordingStack recording;
    const size_t nd = std::min(kReplayMessages, docs_.size());
    std::vector<std::vector<RecordedEvent>> events(nd);
    for (size_t d = 0; d < nd; ++d) {
      recording.recorder.set_output(&events[d]);
      recording.parser.Reset();
      recording.driver.Reset();
      TWIGM_RETURN_IF_ERROR(recording.parser.Consume({docs_[d], true}));
    }
    std::vector<double> compile;
    for (int r = 0; r < kLayerRounds; ++r) {
      CountingMultiSink sink;
      const int64_t t0 = NowNs();
      auto engine = filter::FilterEngine::Create(subscriptions_, &sink);
      compile.push_back(static_cast<double>(NowNs() - t0));
      if (!engine.ok()) return engine.status();
    }
    out->Add("filter.compile_ms", Min(compile) / 1e6, "ms");

    CountingMultiSink sink;
    auto made = filter::FilterEngine::CreateEventFed(
        subscriptions_, &sink, recording.parser.interner());
    if (!made.ok()) return made.status();
    filter::FilterEngine* engine = made.value().get();
    NullEventSink null_sink;
    std::vector<xml::Attribute> scratch;
    std::vector<std::vector<double>> engine_ns(nd), null_ns(nd);
    std::vector<filter::FilterRuntimeStats> first(nd);
    for (int r = 0; r < kLayerRounds; ++r) {
      for (size_t d = 0; d < nd; ++d) {
        int64_t t0 = NowNs();
        Replay(events[d], &null_sink, &scratch);
        null_ns[d].push_back(static_cast<double>(NowNs() - t0));
        const uint64_t before = sink.count();
        t0 = NowNs();
        engine->Reset();
        Replay(events[d], engine->event_input(), &scratch);
        engine_ns[d].push_back(static_cast<double>(NowNs() - t0));
        if (sink.count() - before != expected_[d]) {
          out->Fail("filter: result count differs from reference");
        }
        const filter::FilterRuntimeStats& s = engine->runtime_stats();
        if (r == 0) {
          first[d] = s;
        } else if (s.trie_pushes != first[d].trie_pushes ||
                   s.sum_active_nodes != first[d].sum_active_nodes ||
                   s.results != first[d].results) {
          out->Fail("filter: runtime counts differ between identical rounds");
        }
      }
    }
    double self_ns = 0, starts = 0, pushes = 0, active = 0, results = 0;
    uint64_t engaged = 0;
    for (size_t d = 0; d < nd; ++d) {
      self_ns += Min(engine_ns[d]) - Min(null_ns[d]);
      starts += static_cast<double>(first[d].start_events);
      pushes += static_cast<double>(first[d].trie_pushes);
      active += static_cast<double>(first[d].sum_active_nodes);
      results += static_cast<double>(first[d].results);
      engaged = std::max(engaged, first[d].peak_engaged_tails);
    }
    out->Add("filter.self_ns_per_element", self_ns / starts, "ns");
    out->Add("filter.trie_pushes_per_element", pushes / starts, "ratio");
    out->Add("filter.mean_active_nodes", active / starts, "count");
    out->Add("filter.peak_engaged_tails", static_cast<double>(engaged),
             "count");
    out->Add("filter.results_per_op", results / static_cast<double>(nd),
             "count");
    return Status::Ok();
  }

  std::vector<std::string> docs_;
  std::vector<std::vector<std::string_view>> chunks_;
  std::vector<std::string> subscriptions_;
  std::vector<uint64_t> expected_;  // notifications per message
  std::unique_ptr<serve::SubscriptionServer> server_;
  std::unique_ptr<serve::ServerStream> stream_;
  std::vector<serve::Notification> notifications_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeAuction() {
  return std::make_unique<ServeAuction>();
}

}  // namespace perfbench
