// Shared-prefix stream filter engine: evaluates a large set of XPath
// queries over one SAX pass with per-event cost proportional to the number
// of *distinct* active location steps, not the number of queries. It is the
// repo's one multi-query engine; the product construction
// (baselines::MultiQueryProcessor) remains as its differential oracle and
// benchmark baseline.
//
// The runtime advances every query simultaneously per modified-SAX event
// using the compiled FilterIndex: one stack of levels per *trie node*
// (rather than per query node per query, as in the product construction of
// MultiQueryProcessor), reusing the paper's level encoding so recursive
// '//' stays polynomial. On startElement(tag, level, id), the children of
// the virtual root and of every *active* trie node (non-empty stack) whose
// name test matches push `level`; a push onto an accepting node emits
// (query, id) immediately — linear queries emit at their start tag, as a
// predicate-free TwigM does (section 3.1). On endElement, stacks whose top carries the closing
// level pop. Queries with predicates demultiplex at their anchor node into
// a per-query TwigM tail machine whose root is attached to the
// anchor's stack (set_root_context); a tail only receives events while it
// is *engaged* — its anchor stack is non-empty or it still holds live
// entries — so dormant subscriptions cost nothing per event.
//
// Given a DTD summary, Create also runs the static analyzer (src/analysis/)
// before any byte is parsed: unsatisfiable queries are dropped, equivalent
// queries share one compiled representative, minimized texts replace the
// originals, and per-node level windows (plus, under
// EvaluatorOptions::enable_early_decisions, decision tables) are installed
// into the trie and the tails. Accept lists and tail sinks are rewritten to
// the caller's query indices at compile time, so the emission path is the
// same with or without a DTD.
//
// Correctness contract: FilterEngine emits exactly the same
// (query_index, id) set as MultiQueryProcessor over the same queries and
// document (emission order may differ; each pair is emitted once). With a
// DTD the contract holds on documents valid w.r.t. that DTD.
//
//   VectorMultiQuerySink sink;
//   auto engine = filter::FilterEngine::Create(queries, &sink);
//   for (chunk : stream) engine.value()->Consume({chunk, /*last=*/false});
//   engine.value()->Consume({{}, /*last=*/true});

#ifndef TWIGM_FILTER_FILTER_ENGINE_H_
#define TWIGM_FILTER_FILTER_ENGINE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/dtd_structure.h"
#include "common/status.h"
#include "core/decision_table.h"
#include "core/evaluator.h"
#include "core/multi_query.h"
#include "core/twig_machine.h"
#include "filter/filter_index.h"
#include "filter/filter_stats.h"
#include "xml/byte_source.h"
#include "xml/sax_event.h"
#include "xml/sax_parser.h"

namespace twigm::filter {

/// A compiled query set bound to one input stream.
class FilterEngine {
 public:
  /// Compiles the index and tail machines. `sink` must outlive the engine;
  /// not owned. Linear queries run in the trie, predicate tails on TwigM;
  /// `options.twig` and `options.sax` apply. `dtd` (may be null; not owned, must outlive the engine) turns
  /// on the static analysis described above; a query set the DTD prunes
  /// entirely still parses, so malformed input still fails.
  static Result<std::unique_ptr<FilterEngine>> Create(
      const std::vector<std::string>& queries,
      core::MultiQueryResultSink* sink,
      core::EvaluatorOptions options = core::EvaluatorOptions(),
      const analysis::DtdStructure* dtd = nullptr);

  /// Event-fed mode (the sharded subscription service, src/serve/): builds
  /// the engine WITHOUT an internal parser. The caller delivers
  /// modified-SAX events directly through event_input(); trie and tail
  /// labels are bound to `interner` (not owned; must outlive the engine).
  /// The engine is single-threaded as ever — all event_input() calls,
  /// Intern calls on `interner`, and Reset() must come from one thread at a
  /// time (handoff between threads is fine, see the cross-thread Reset
  /// test). Consume/Pump error out in this mode; `options.sax` is ignored.
  static Result<std::unique_ptr<FilterEngine>> CreateEventFed(
      const std::vector<std::string>& queries,
      core::MultiQueryResultSink* sink, xml::TagInterner* interner,
      core::EvaluatorOptions options = core::EvaluatorOptions());

  FilterEngine(const FilterEngine&) = delete;
  FilterEngine& operator=(const FilterEngine&) = delete;

  /// Consumes one chunk of the document (chunk.last declares end of input);
  /// results fan out to the sink tagged by query index, as soon as each
  /// query proves them. Errors out in event-fed mode.
  Status Consume(const xml::InputChunk& chunk);

  /// Pulls chunks from `source` until it is exhausted or a chunk fails.
  Status Pump(xml::ByteSource* source);

  /// Clears all runtime state (and the parser, when the engine owns one)
  /// for a new document.
  void Reset();

  /// Modified-SAX entry point. In parser mode the engine's own parser feeds
  /// it; event-fed callers (src/serve/ shard workers) dispatch events here
  /// with levels and pre-order ids already assigned, as the parser does.
  xml::StreamEventSink* event_input() { return event_sink_.get(); }

  /// The stream-offset word match emissions are stamped from. Event-fed
  /// callers store each event's byte offset here before dispatching it so
  /// MatchInfo::byte_offset matches the parser-owned flow.
  uint64_t* offset_slot() { return offset_slot_; }

  /// The caller's query count, pruned queries included.
  size_t query_count() const { return query_count_; }
  uint64_t total_results() const { return rstats_.results; }

  /// The compiled index. With a DTD it holds only the surviving class
  /// representatives, so its plans are not in the caller's index space.
  const FilterIndex& index() const { return index_; }
  /// How query `query_index` runs: a forwarded query reports its
  /// representative's plan, an unsatisfiable one a default (empty) plan.
  const QueryPlan& plan(size_t query_index) const;
  const FilterRuntimeStats& runtime_stats() const { return rstats_; }
  /// What the DTD analysis bought; all zero without a DTD.
  const AnalysisStats& analysis_stats() const { return astats_; }

  /// Exports the runtime accounting into `registry` (prefix "filter.",
  /// plus "hotpath.*", plus "analysis.*" when built with a DTD) by counter
  /// name (same contract as XPathStreamProcessor::ExportMetrics).
  void ExportMetrics(obs::MetricsRegistry* registry) const;

 private:
  // Routes modified-SAX events into the engine.
  class EventSink : public xml::StreamEventSink {
   public:
    explicit EventSink(FilterEngine* owner) : owner_(owner) {}
    void StartElement(const xml::TagToken& tag, int level, xml::NodeId id,
                      const std::vector<xml::Attribute>& attrs) override {
      owner_->OnStartElement(tag, level, id, attrs);
    }
    void EndElement(const xml::TagToken& tag, int level) override {
      owner_->OnEndElement(tag, level);
    }
    void Text(std::string_view text, int level) override {
      owner_->OnText(text, level);
    }
    void EndDocument() override { owner_->OnEndDocument(); }

   private:
    FilterEngine* owner_;
  };

  // Reports one tail machine's results as each caller query it stands for
  // (one, unless the DTD analysis folded equivalent queries into it).
  class TailSink : public core::MatchObserver {
   public:
    TailSink(FilterEngine* owner, std::vector<size_t> report_as)
        : owner_(owner), report_as_(std::move(report_as)) {}
    void OnResult(const core::MatchInfo& match) override {
      for (size_t q : report_as_) {
        ++owner_->rstats_.results;
        owner_->sink_->OnResult(q, match);
      }
    }

   private:
    FilterEngine* owner_;
    std::vector<size_t> report_as_;
  };

  // One predicate query's demultiplexed tail.
  struct Tail {
    int anchor = -1;  // -1: unshared, always receives events
    bool engaged = false;
    std::unique_ptr<TailSink> sink;
    std::unique_ptr<core::TwigMachine> machine;

    uint64_t live_entries() const {
      return machine->stats().live_stack_entries;
    }
  };

  explicit FilterEngine(FilterIndex index) : index_(std::move(index)) {}

  // Shared construction. `external_interner` null => build and own a
  // parser; non-null => event-fed mode bound to that interner.
  static Result<std::unique_ptr<FilterEngine>> Build(
      const std::vector<std::string>& queries,
      core::MultiQueryResultSink* sink, core::EvaluatorOptions options,
      xml::TagInterner* external_interner, const analysis::DtdStructure* dtd);

  // DTD build steps, run once the trie and tails are bound to `interner`:
  // level windows per trie node and per tail machine node, then (under
  // early decisions) the trie's kUseless table and one machine table per
  // tail.
  void InstallLevelBounds(const analysis::DtdStructure& dtd);
  void InstallDecisions(const analysis::DtdStructure& dtd,
                        xml::TagInterner* interner);

  void OnStartElement(const xml::TagToken& tag, int level, xml::NodeId id,
                      const std::vector<xml::Attribute>& attrs);
  void OnEndElement(const xml::TagToken& tag, int level);
  void OnText(std::string_view text, int level);
  void OnEndDocument();

  void Activate(int node);
  void Deactivate(int node);
  void Engage(int tail);

  /// Pushes `child` if its edge/level-window tests pass; `stack` is the
  /// parent's stack (null for the virtual root).
  void ConsiderChild(int child, const std::vector<int>* stack, int level);

  FilterIndex index_;
  size_t query_count_ = 0;
  // Caller query -> compiled query it runs as (-1: unsatisfiable). Empty
  // without a DTD, where the two index spaces coincide.
  std::vector<int> compiled_of_;
  AnalysisStats astats_;
  core::MultiQueryResultSink* sink_ = nullptr;
  core::EvaluatorOptions options_;

  // Symbol dispatch (DESIGN.md §10): the trie's labels are interned into
  // the parser's tag dictionary at Create. root_postings_[sym] lists the
  // labeled root children for that symbol (a tag interned later — i.e. one
  // appearing in no query — indexes past the vector and matches only
  // wildcards); root_wildcards_ is scanned on every event. Deeper children
  // match by SymbolId compare.
  std::vector<std::vector<int>> root_postings_;
  std::vector<int> root_wildcards_;

  // Runtime trie state: stacks_[n] holds the (ascending) levels of open
  // elements matched at trie node n; active_ lists nodes with non-empty
  // stacks (active_pos_[n] is n's slot in it, -1 when inactive).
  std::vector<std::vector<int>> stacks_;
  std::vector<int> active_;
  std::vector<int> active_pos_;
  core::LevelBounds trie_level_bounds_;
  uint64_t live_trie_entries_ = 0;

  std::vector<Tail> tails_;
  std::vector<std::vector<int>> tails_by_anchor_;  // trie node -> tail idxs
  std::vector<int> always_on_;  // tails with no trunk (anchor == -1)
  std::vector<int> engaged_;    // anchored tails currently receiving events

  std::vector<int> scratch_;  // per-event push/pop worklist

  // Trie decision table (see InstallDecisions): sym_to_elem_ maps tag
  // symbols onto the table's dense element ids; cur_elem_ is resolved once
  // per start event (-1 = unknown element, no facts).
  std::unique_ptr<const core::DecisionTable> trie_decisions_;
  std::vector<int32_t> sym_to_elem_;
  int32_t cur_elem_ = -1;

  std::unique_ptr<EventSink> event_sink_;
  // Stage timing in front of event_sink_ (parser mode with instrumentation).
  std::unique_ptr<xml::StageTimedSink> timed_;
  std::unique_ptr<xml::SaxParser> parser_;

  FilterRuntimeStats rstats_;

  // Observability (null ⇒ disabled). Trace events use the trie node index
  // as query_node; tail-machine emissions keep their machine-local ids.
  obs::Instrumentation* instr_ = nullptr;
  // Shared stream position (see XPathStreamProcessor::stream_offset_);
  // offset_slot_ points at the instrumentation's slot when attached.
  uint64_t stream_offset_ = 0;
  uint64_t* offset_slot_ = &stream_offset_;
};

}  // namespace twigm::filter

#endif  // TWIGM_FILTER_FILTER_ENGINE_H_
