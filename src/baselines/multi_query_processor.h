// Product-construction baseline for multi-query evaluation (the filtering
// workload of the paper's related work, section 6): each query is compiled
// to its own TwigM machine (core::CreateMachine) and every modified-SAX
// event fans out to all of them, so the document is parsed once but
// per-event cost is the sum of the machines' costs.
//
// The repo's multi-query engine is the shared-prefix filter::FilterEngine,
// which reports through the same MultiQueryResultSink; this class stays as
// its differential oracle and as bench_filter_scalability's "product" row.

#ifndef TWIGM_BASELINES_MULTI_QUERY_PROCESSOR_H_
#define TWIGM_BASELINES_MULTI_QUERY_PROCESSOR_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/evaluator.h"
#include "core/machine_stats.h"
#include "core/multi_query.h"
#include "core/result_sink.h"
#include "xml/sax_event.h"
#include "xml/sax_parser.h"

namespace twigm::baselines {

/// A set of compiled queries bound to one input stream.
class MultiQueryProcessor {
 public:
  /// Compiles every query; fails on the first bad one (the error message
  /// names its index). `sink` must outlive the processor; not owned.
  static Result<std::unique_ptr<MultiQueryProcessor>> Create(
      const std::vector<std::string>& queries,
      core::MultiQueryResultSink* sink,
      core::EvaluatorOptions options = core::EvaluatorOptions());

  MultiQueryProcessor(const MultiQueryProcessor&) = delete;
  MultiQueryProcessor& operator=(const MultiQueryProcessor&) = delete;

  /// Consumes one chunk of the document (chunk.last declares end of
  /// input); results fan out to the sink tagged by query index, as soon as
  /// each machine proves them.
  Status Consume(const xml::InputChunk& chunk);

  /// Clears all machines and the parser for a new document.
  void Reset();

  size_t query_count() const { return entries_.size(); }
  const core::EngineStats& stats(size_t query_index) const {
    return entries_[query_index].machine->stats();
  }

  /// Sum of results across queries so far.
  uint64_t total_results() const { return total_results_; }

 private:
  // Tags one machine's results with its query index.
  class TaggingSink : public core::MatchObserver {
   public:
    TaggingSink(MultiQueryProcessor* owner, size_t index)
        : owner_(owner), index_(index) {}
    void OnResult(const core::MatchInfo& match) override {
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
    std::unique_ptr<core::TwigMachine> machine;
  };

  MultiQueryProcessor() = default;

  core::MultiQueryResultSink* sink_ = nullptr;
  core::EvaluatorOptions options_;
  std::vector<Entry> entries_;
  std::unique_ptr<FanOut> fan_out_;
  std::unique_ptr<xml::EventDriver> driver_;
  std::unique_ptr<xml::SaxParser> parser_;
  uint64_t total_results_ = 0;
  // Shared stream position (see XPathStreamProcessor::stream_offset_).
  uint64_t stream_offset_ = 0;
};

}  // namespace twigm::baselines

#endif  // TWIGM_BASELINES_MULTI_QUERY_PROCESSOR_H_
