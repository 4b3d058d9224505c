// Multi-query evaluation: many XPath queries over a single SAX pass.
//
// The paper's related work (section 6) discusses filtering systems
// (YFilter, XTrie, XPush) that match large query sets against one stream.
// This module provides that workload shape on top of the TwigM machinery:
// each query is compiled to its own machine (PathM or TwigM, chosen by
// CreateMachine) and every modified-SAX event fans out to all of them, so the
// document is parsed exactly once. Results carry the query index.
//
// This is deliberately the simple product construction — per-event cost is
// the sum of the individual machines' costs. For large query sets, use the
// shared-prefix filter engine (src/filter/filter_engine.h): it merges common
// location-step prefixes into one trie so per-event cost tracks the number
// of *distinct* steps, and it takes the same MultiQueryResultSink.
// bench_filter_scalability measures both against each other.

#ifndef TWIGM_CORE_MULTI_QUERY_H_
#define TWIGM_CORE_MULTI_QUERY_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/evaluator.h"
#include "core/machine_stats.h"
#include "core/result_sink.h"
#include "xml/byte_source.h"
#include "xml/sax_event.h"
#include "xml/sax_parser.h"

namespace twigm::core {

/// Receives results tagged with the index of the matching query. The match
/// carries the result node id plus byte offset / query node (MatchInfo),
/// mirroring the single-query MatchObserver.
class MultiQueryResultSink {
 public:
  virtual ~MultiQueryResultSink() = default;
  virtual void OnResult(size_t query_index, const MatchInfo& match) = 0;
};

/// Collects (query, id) pairs (test/demo convenience).
class VectorMultiQuerySink : public MultiQueryResultSink {
 public:
  struct Item {
    size_t query_index;
    xml::NodeId id;
  };

  void OnResult(size_t query_index, const MatchInfo& match) override {
    items_.push_back(Item{query_index, match.id});
  }

  const std::vector<Item>& items() const { return items_; }

 private:
  std::vector<Item> items_;
};

/// A set of compiled queries bound to one input stream.
class MultiQueryProcessor {
 public:
  /// Compiles every query; fails on the first bad one (the error message
  /// names its index). `sink` must outlive the processor; not owned.
  static Result<std::unique_ptr<MultiQueryProcessor>> Create(
      const std::vector<std::string>& queries, MultiQueryResultSink* sink,
      EvaluatorOptions options = EvaluatorOptions());

  MultiQueryProcessor(const MultiQueryProcessor&) = delete;
  MultiQueryProcessor& operator=(const MultiQueryProcessor&) = delete;

  /// Consumes one chunk of the document (chunk.last declares end of
  /// input); results fan out to the sink tagged by query index, as soon as
  /// each machine proves them.
  Status Consume(const xml::InputChunk& chunk);

  /// Pulls chunks from `source` until it is exhausted or a chunk fails.
  Status Pump(xml::ByteSource* source);

  /// Clears all machines and the parser for a new document.
  void Reset();

  size_t query_count() const { return entries_.size(); }
  EngineKind engine_kind(size_t query_index) const {
    return entries_[query_index].machine->kind();
  }
  const EngineStats& stats(size_t query_index) const {
    return entries_[query_index].machine->stats();
  }

  /// Sum of results across queries so far.
  uint64_t total_results() const { return total_results_; }

 private:
  // Tags one machine's results with its query index.
  class TaggingSink : public MatchObserver {
   public:
    TaggingSink(MultiQueryProcessor* owner, size_t index)
        : owner_(owner), index_(index) {}
    void OnResult(const MatchInfo& match) override {
      ++owner_->total_results_;
      owner_->sink_->OnResult(index_, match);
    }

   private:
    MultiQueryProcessor* owner_;
    size_t index_;
  };

  // Forwards each event to every machine.
  class FanOut : public xml::StreamEventSink {
   public:
    explicit FanOut(MultiQueryProcessor* owner) : owner_(owner) {}
    void StartElement(const xml::TagToken& tag, int level, xml::NodeId id,
                      const std::vector<xml::Attribute>& attrs) override {
      for (auto& e : owner_->entries_) {
        e.machine->StartElement(tag, level, id, attrs);
      }
    }
    void EndElement(const xml::TagToken& tag, int level) override {
      for (auto& e : owner_->entries_) e.machine->EndElement(tag, level);
    }
    void Text(std::string_view text, int level) override {
      for (auto& e : owner_->entries_) e.machine->Text(text, level);
    }
    void EndDocument() override {
      for (auto& e : owner_->entries_) e.machine->EndDocument();
    }

   private:
    MultiQueryProcessor* owner_;
  };

  struct Entry {
    std::unique_ptr<TaggingSink> tag_sink;
    std::unique_ptr<StreamingMachine> machine;
  };

  MultiQueryProcessor() = default;

  MultiQueryResultSink* sink_ = nullptr;
  EvaluatorOptions options_;
  std::vector<Entry> entries_;
  std::unique_ptr<FanOut> fan_out_;
  std::unique_ptr<xml::EventDriver> driver_;
  std::unique_ptr<xml::SaxParser> parser_;
  uint64_t total_results_ = 0;
  // Shared stream position (see XPathStreamProcessor::stream_offset_).
  uint64_t stream_offset_ = 0;
};

}  // namespace twigm::core

#endif  // TWIGM_CORE_MULTI_QUERY_H_
