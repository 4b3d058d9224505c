// The plumbing every streaming machine shares: the compiled machine graph
// and its match observer, observability hooks, the stream-offset source,
// analyzer level windows, execution statistics, and the earliest-decision
// wiring (decision table, symbol -> DTD element map, gap histogram).
//
// Two machines derive from it: PathM (section 3.1, linear queries,
// results at startElement) and TwigM (sections 3.3-4, everything else).
// The paper's single-state BranchM (section 3.2) is the child-only special
// case of TwigM's stacks — with only '/' edges each stack holds at most one
// live entry — so TwigM evaluates that fragment directly. CreateMachine
// (core/evaluator.h) is the one place a query's machine is chosen.
//
// The transition functions stay in the derived classes; this base only
// owns state they read, so its per-event helpers are inline.

#ifndef TWIGM_CORE_STREAMING_MACHINE_H_
#define TWIGM_CORE_STREAMING_MACHINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/decision_table.h"
#include "core/level_bounds.h"
#include "core/machine_builder.h"
#include "core/machine_stats.h"
#include "core/result_sink.h"
#include "obs/instrumentation.h"
#include "xml/sax_event.h"
#include "xml/tag_interner.h"

namespace twigm::core {

/// Which machine evaluates the query.
enum class EngineKind {
  kAuto,   // pick by query structure (see CreateMachine)
  kPathM,  // XP{/,//,*} only
  kTwigM,  // full XP{/,//,*,[]}
};

/// Returns a display name ("TwigM", ...).
const char* EngineKindToString(EngineKind kind);

/// Base of PathMachine and TwigMachine. Feed it modified SAX events (via
/// xml::EventDriver or directly); results reach the MatchObserver.
class StreamingMachine : public xml::StreamEventSink {
 public:
  StreamingMachine(const StreamingMachine&) = delete;
  StreamingMachine& operator=(const StreamingMachine&) = delete;

  /// The concrete machine (kPathM or kTwigM; never kAuto).
  EngineKind kind() const { return kind_; }

  /// Resolves every query label to a SymbolId in `interner` (interning on
  /// first sight) and builds the machine's per-symbol dispatch postings.
  /// Required: call once, with the interner of the parser that will feed
  /// this machine, before streaming (the processors do this; hand-wired
  /// machines pass parser.interner()). `interner` must outlive the
  /// machine; not owned. Dispatch is by symbol only, so events carrying
  /// symbols from any other interner would dispatch incorrectly, and an
  /// unbound machine would match wildcards only — under
  /// TWIGM_CHECK_INVARIANTS its first start event aborts instead.
  void BindInterner(xml::TagInterner* interner);

  /// Clears runtime state and statistics so the machine can process
  /// another document. Stack capacity and the interner binding are
  /// retained.
  virtual void Reset();

  /// Optional: attaches observability (metrics, per-node stack depth,
  /// trace events, emit-stage timing). Null detaches; not owned.
  void set_instrumentation(obs::Instrumentation* instr);

  /// Optional: source of the current stream byte offset (owned by the
  /// processor, written by the parser before each event). Used to stamp
  /// MatchInfo::byte_offset; null => offsets are 0.
  void set_stream_offset(const uint64_t* offset) { stream_offset_ = offset; }

  /// Optional: per-node document-level windows from static analysis
  /// (analysis::ComputeMachineLevelBounds); indexed by machine-node id.
  /// Events outside a node's window skip its push entirely. The windows
  /// must be conservative for the streamed documents (they are, for
  /// documents valid w.r.t. the analyzed DTD). Empty = no pruning.
  void set_level_bounds(LevelBounds bounds) { level_bounds_ = std::move(bounds); }

  /// Optional: earliest-query-answering. `table` carries the static DTD
  /// facts (analysis::CompileDecisionTable; may be null) and `mode`
  /// selects how the machine acts on certainty (see EarlyDecisionMode).
  /// Call any time before streaming; interacts with BindInterner in either
  /// order.
  void set_decisions(std::shared_ptr<const DecisionTable> table,
                     EarlyDecisionMode mode);

  const EngineStats& stats() const { return stats_; }
  const MachineGraph& graph() const { return graph_; }

  /// Total stack slots ever allocated across all machine nodes (pool
  /// high-water mark); 0 for machines without pooled stacks. Exported as
  /// hotpath.pool_entries.
  virtual uint64_t pool_entries() const { return 0; }

 protected:
  StreamingMachine(EngineKind kind, MachineGraph graph,
                   MatchObserver* observer);

  /// Builds the per-symbol dispatch postings once every non-wildcard node
  /// carries its symbol; `symbol_count` is the interner's size.
  virtual void BuildPostings(size_t symbol_count) = 0;

  /// Static facts for (node, current start tag); null when unknown.
  // hotpath
  const NodeDecision* DecisionFor(int node_id) const {
    if (cur_elem_ < 0 || decisions_ == nullptr) return nullptr;
    return &decisions_->at(static_cast<size_t>(node_id),
                           static_cast<size_t>(cur_elem_));
  }

  /// Records one earliest-vs-actual emission gap in the stats and, when
  /// attached, the gap histogram.
  // hotpath
  void NoteGap(uint64_t gap) {
    stats_.NoteGap(gap);
    if (gap_hist_ != nullptr) gap_hist_->Observe(gap);
  }

  /// Current stream offset, 0 without a source.
  // hotpath
  uint64_t offset() const {
    return stream_offset_ != nullptr ? *stream_offset_ : 0;
  }

  MachineGraph graph_;
  MatchObserver* sink_;
  obs::Instrumentation* instr_ = nullptr;
  const uint64_t* stream_offset_ = nullptr;
  LevelBounds level_bounds_;
  EngineStats stats_;

  // Earliest-decision state. sym_to_elem_ maps event SymbolIds to the
  // table's dense DTD element ids (-1 = no facts); cur_elem_ caches the
  // mapping for the start tag being dispatched.
  std::shared_ptr<const DecisionTable> decisions_;
  EarlyDecisionMode decision_mode_ = EarlyDecisionMode::kOff;
  xml::TagInterner* interner_ = nullptr;  // set by BindInterner
  std::vector<int32_t> sym_to_elem_;
  int32_t cur_elem_ = -1;

 private:
  void RegisterGapHistogram();
  void RebuildSymToElem();

  const EngineKind kind_;
  obs::Histogram* gap_hist_ = nullptr;
};

}  // namespace twigm::core

#endif  // TWIGM_CORE_STREAMING_MACHINE_H_
