// TwigM — the paper's streaming XPath evaluation machine (sections 3.3, 4),
// the one machine every query runs on.
//
// One stack per machine node. A stack entry is the triple of section 4.1:
//   (level, branch-match array, candidate set)
// and, when the node carries a value test, the element's accumulated direct
// text. The stacks compactly encode every pattern match a candidate
// participates in (n² matches in 2n entries for the Fig. 1 family);
// verification pops one entry to discard a whole group of failed matches and
// unions candidate sets to deduplicate, giving the polynomial bound of
// Theorem 4.4: O((|Q| + R·B)·|Q|·|D|).
//
// Transition functions (Algorithm 1):
//  * δs (startElement(tag, level, id)): every machine node v whose label
//    matches tag (or is '*') and for which some entry e of ρ(v)'s stack
//    satisfies ζ(v) on level − e.level (the root checks `level` directly)
//    pushes <level, <F..F>, ∅>; the return node also adds `id` to the new
//    entry's candidate set. Attribute tests are resolved immediately against
//    the element's attributes.
//  * δe (endElement(tag, level)): every machine node v whose stack-top has
//    this level pops. If the top's branch match is all-T (and its value test
//    passes): the root outputs its candidates; any other node sets bit β(v)
//    in each parent entry satisfying ζ(v) and uploads its candidates there.
//    A top with an F bit is simply discarded — pruning, without enumeration,
//    every pattern match it participated in.
//
// Predicate-free queries (section 3.1, the paper's PathM class): when no
// machine node has an attribute test, a value test or a child off the
// output path, every entry's obligations are met by construction, so being
// pushed onto the return node's stack already makes an element a result.
// The machine detects this from its graph and then emits at startElement,
// the earliest point possible; its entries carry only their level, and a
// pop only pops. Every other query decides at endElement as above (or
// earlier, from DTD facts — see set_decisions).
//
// Hot path: BindInterner() resolves the query labels to the parser's
// SymbolIds once, and per-event dispatch indexes a per-symbol postings
// vector — no tag bytes are hashed or compared. The machine is the parser's
// sink (xml::StreamEventSink) and declares which events it reads
// (event_filter): the start/end events of its label symbols, or of every
// element when it has a '*' node, and text only when a node has a value
// test. The parser skips the rest; skipping them is exact, because δs and
// δe do nothing for an element no node matches, and a text run only ever
// reaches the entry of the innermost open element at its level. Entry
// levels and the rest of each entry live in two index-aligned per-node
// columns, so qualification scans ints; the rest sits in PooledStacks and
// candidate sets merge in place, so the steady state per event performs
// zero heap allocations (DESIGN.md §10).

#ifndef TWIGM_CORE_TWIG_MACHINE_H_
#define TWIGM_CORE_TWIG_MACHINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/decision_table.h"
#include "core/level_bounds.h"
#include "core/machine_builder.h"
#include "core/machine_stats.h"
#include "core/pooled_stack.h"
#include "core/result_sink.h"
#include "obs/instrumentation.h"
#include "xml/sax_event.h"
#include "xml/tag_interner.h"
#include "xpath/query_tree.h"

namespace twigm::core {

/// Tuning options for TwigM.
struct TwigMachineOptions {
  /// When true (default), an element whose attribute tests already failed at
  /// startElement is not pushed at all: its branch match can never become
  /// all-T, so the entry would only be dead weight. Disable to run the
  /// paper's literal push rule (ablation in bench_ablation_adversarial).
  bool prune_static_failures = true;
};

/// The TwigM machine. Feed it modified SAX events (hand it to a SaxParser as
/// its sink, or call it directly); candidates and results are reported to
/// the MatchObserver incrementally.
class TwigMachine final : public xml::StreamEventSink {
 public:
  /// Builds the machine for `query` (section 4.2 construction). `observer`
  /// must outlive the machine; not owned.
  static Result<std::unique_ptr<TwigMachine>> Create(
      const xpath::QueryTree& query, MatchObserver* observer,
      TwigMachineOptions options = TwigMachineOptions());

  TwigMachine(const TwigMachine&) = delete;
  TwigMachine& operator=(const TwigMachine&) = delete;

  // StreamEventSink:
  /// Before BindInterner: everything. After: the label symbols bound then
  /// (symbols interned later are no label), or every element when the
  /// machine has a '*' node; text only when a node has a value test.
  const xml::EventFilter* event_filter() const override { return &filter_; }
  void StartElement(const xml::TagToken& tag, int level, xml::NodeId id,
                    const std::vector<xml::Attribute>& attrs) override;
  void EndElement(const xml::TagToken& tag, int level) override;
  void Text(std::string_view text, int level) override;
  void EndDocument() override;

  /// Resolves every query label to a SymbolId in `interner` (interning on
  /// first sight) and builds the machine's per-symbol dispatch postings and
  /// its event filter.
  /// Required: call once, with the interner of the parser that will feed
  /// this machine, before streaming (the processors do this; hand-wired
  /// machines pass parser.interner()). `interner` must outlive the
  /// machine; not owned. Dispatch is by symbol only, so events carrying
  /// symbols from any other interner would dispatch incorrectly, and an
  /// unbound machine would match wildcards only — under
  /// TWIGM_CHECK_INVARIANTS its first start event aborts instead.
  void BindInterner(xml::TagInterner* interner);

  /// Clears runtime state, statistics and the emitted set so the machine
  /// can process another document. Stack capacity and the interner
  /// binding are retained.
  void Reset();

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
  /// A predicate-free machine already emits at startElement (every gap is
  /// 0); kOn still uses the table's useless/refuted facts to skip pushes.
  /// Call any time before streaming; interacts with BindInterner in either
  /// order.
  void set_decisions(std::shared_ptr<const DecisionTable> table,
                     EarlyDecisionMode mode);

  /// Optional: anchors the machine's root to an external ancestor stack
  /// instead of the document root. When set, the root node pushes at level l
  /// iff some level l' in `*levels` satisfies ζ(root) on l − l'. `levels`
  /// must outlive the machine and stay sorted ascending (a stack of open
  /// ancestor levels has this property). Used by the filter subsystem
  /// (src/filter/) to run a predicate tail below a shared trunk; null
  /// restores the default document-root behaviour.
  void set_root_context(const std::vector<int>* levels) {
    root_context_ = levels;
  }

  /// start_events/end_events count the events this machine was handed;
  /// behind a parser that is the events its filter reads
  /// (XPathStreamProcessor::stats() counts every element).
  const EngineStats& stats() const { return stats_; }
  const MachineGraph& graph() const { return graph_; }

  /// True when no machine node has an attribute test, a value test or a
  /// child off the output path (section 3.1's condition): results are
  /// emitted at startElement and entries carry only their level.
  bool predicate_free() const { return predicate_free_; }

  /// Total entry slots ever allocated across all machine nodes (pool
  /// high-water mark; 0 for a predicate-free machine, whose entries are
  /// levels only). Exported as hotpath.pool_entries.
  uint64_t pool_entries() const;

 private:
  // One stack entry minus its level, which has its own column: the branch
  // match, the candidate set and, for value-test nodes, the text buffer.
  // `implied`/`dflags` carry the entry's certainty state when early
  // decisions are enabled (zeroed otherwise).
  struct Entry {
    uint64_t branch = 0;
    uint64_t implied = 0;  // statically implied branch bits (DTD facts)
    uint8_t dflags = 0;    // kValueSure | kResolved | kCertainOutput
    std::vector<xml::NodeId> candidates;  // sorted ascending
    std::string text;
  };

  // Entry::dflags bits.
  static constexpr uint8_t kValueSure = 1;      // value test certain to pass
  static constexpr uint8_t kResolved = 2;       // certainty already cascaded
  static constexpr uint8_t kCertainOutput = 4;  // a certain root entry is
                                                // reachable: candidates here
                                                // are certain results

  TwigMachine(MachineGraph graph, MatchObserver* observer,
              TwigMachineOptions options);

  void RebuildSymToElem();
  void RegisterGapHistogram();

  void UpdateMemoryStats();

  // δs for one machine node (the push attempt of Algorithm 1), in two
  // parts: Qualifies is the level window and ζ(v) test, Push the rest for
  // a node that qualified.
  bool Qualifies(int node_id, int level) const;
  void Push(int node_id, int level, xml::NodeId id,
            const std::vector<xml::Attribute>& attrs);
  /// Applies the DTD's skips (setting `*dec`) and resolves v's attribute
  /// tests into `*branch`; false when the element must not be pushed.
  bool Admit(const MachineNode* v, const std::vector<xml::Attribute>& attrs,
             uint64_t* branch, const NodeDecision** dec);
  /// Pushes the rest of a new entry of v (predicate machines only).
  void PushEntry(const MachineNode* v, int level, xml::NodeId id,
                 uint64_t branch, const NodeDecision* dec);
  // δe for one machine node whose top entry has `level`: Pop removes the
  // level, PopEntry verifies and propagates the rest of the entry.
  void Pop(int node_id, int level);
  void PopEntry(int node_id, int level);

  /// Static facts for (node, current start tag); null when unknown.
  // hotpath
  const NodeDecision* DecisionFor(int node_id) const {
    if (cur_elem_ < 0 || decisions_ == nullptr) return nullptr;
    return &decisions_->at(static_cast<size_t>(node_id),
                           static_cast<size_t>(cur_elem_));
  }

  /// Current stream offset, 0 without a source.
  // hotpath
  uint64_t offset() const {
    return stream_offset_ != nullptr ? *stream_offset_ : 0;
  }

  /// Reports `id` as a result now (the caller holds the emit timer).
  void Emit(xml::NodeId id, int level);

  /// Records one earliest-vs-actual emission gap in the stats and, when
  /// attached, the gap histogram.
  void NoteGap(uint64_t gap);

  // --- Earliest-decision machinery (DESIGN.md §13) ---------------------
  /// Applies `fn(Entry&, int level)` to every parent-stack entry an entry
  /// of `v` at `top_level` qualifies against — the exact propagation target
  /// set of δe (a prefix for '≥' edges, at most one entry for '=' edges).
  /// Shared by the pop propagation and the early certainty cascade, which
  /// is sound precisely because this set is identical at push time and pop
  /// time.
  template <typename Fn>
  void ForEachQualifyingParent(const MachineNode* v, int top_level, Fn&& fn);

  /// True when every obligation of `e` is certain *now*: all required
  /// branch bits real or implied, and the value test certain.
  bool EntrySatisfiedNow(const MachineNode* v, const Entry& e) const;

  /// Cascades "e is certainly satisfied" upward: sets the child bit in
  /// every qualifying parent entry (the bits δe would set), recursing when
  /// a parent becomes certain, and marks e kCertainOutput (flushing its
  /// candidates) when a certain root entry is reachable.
  void ResolveCertain(const MachineNode* v, int level, Entry& e);

  /// Candidates of a kCertainOutput entry are certain results: kOn emits
  /// and drops them; kObserve stamps their earliest-proof offset.
  void FlushCertainCandidates(Entry& e);

  /// kOn: emits `id` immediately (MarkEmitted-deduplicated, gap 0).
  void EmitEarly(xml::NodeId id);

  /// kObserve: records the earliest offset at which `id` became certain.
  void MarkProved(xml::NodeId id);

  /// Records the earliest-vs-actual gap for an emission happening now.
  void RecordGap(xml::NodeId id);

  /// Stamps `id` emitted; returns false when it already was this epoch.
  bool MarkEmitted(xml::NodeId id);
  void ClearEmitted();

  MachineGraph graph_;
  MatchObserver* sink_;
  TwigMachineOptions options_;
  obs::Instrumentation* instr_ = nullptr;
  const uint64_t* stream_offset_ = nullptr;
  const std::vector<int>* root_context_ = nullptr;
  LevelBounds level_bounds_;
  EngineStats stats_;
  obs::Histogram* gap_hist_ = nullptr;

  // Section 3.1's condition, fixed at construction (see predicate_free()).
  bool predicate_free_ = false;
  int return_id_ = -1;       // the return node's id, stamped on every match
  size_t entry_bytes_ = 0;   // bytes one entry occupies across both columns

  // Earliest-decision state. sym_to_elem_ maps event SymbolIds to the
  // table's dense DTD element ids (-1 = no facts); cur_elem_ caches the
  // mapping for the start tag being dispatched.
  std::shared_ptr<const DecisionTable> decisions_;
  EarlyDecisionMode decision_mode_ = EarlyDecisionMode::kOff;
  xml::TagInterner* interner_ = nullptr;  // set by BindInterner
  std::vector<int32_t> sym_to_elem_;
  int32_t cur_elem_ = -1;

  // ξ(v) of one machine node, as two index-aligned columns: `levels`
  // holds each entry's level (strictly increasing bottom to top),
  // `entries` the rest of each entry, which only machines with predicates
  // push. `parent` and `edge` copy what δs reads of the node, so dispatch
  // scans this array instead of chasing MachineNode pointers.
  struct NodeStack {
    int parent = -1;  // parent node id; -1 for the root
    EdgeCondition edge;
    std::vector<int> levels;
    PooledStack<Entry> entries;
  };
  std::vector<NodeStack> stacks_;  // indexed by machine-node id

  std::vector<int> wildcard_nodes_;   // '*' machine-node ids, pre-order
  std::vector<int> value_test_nodes_; // nodes that accumulate text

  // Symbol dispatch (built by BindInterner). start_postings_[s] holds the
  // label nodes for symbol s in pre-order. A machine with wildcard nodes
  // also has end_postings_[s], which merges them in (still pre-order)
  // because δe iterates one list in reverse and child-before-parent must
  // hold across label and wildcard nodes alike; without wildcards δe walks
  // start_postings_[s] itself and end_postings_ stays empty. Symbols
  // interned after binding (document tags that are no query label) fall
  // outside the vectors: δs tries only wildcards, δe walks wildcard_nodes_
  // reversed.
  std::vector<std::vector<int>> start_postings_;
  std::vector<std::vector<int>> end_postings_;

  // What the machine reads (see event_filter); built by BindInterner.
  xml::EventFilter filter_;

  // Already-output results: guards against re-emission when a candidate
  // reached several root entries (recursive data matching the query root).
  // Document node ids are dense pre-order integers, so the guard is an
  // epoch-stamped array indexed by id: emitted iff stamp == current epoch.
  // O(1) per candidate, cleared in O(1) by bumping the epoch (whenever the
  // root stack empties — after that point no live entry can still hold an
  // already-emitted candidate), and its capacity survives Reset() so
  // steady-state passes never allocate here. A predicate-free machine
  // pushes each element onto the return stack at most once, so it needs
  // no guard.
  std::vector<uint32_t> emitted_stamp_;
  uint32_t emitted_epoch_ = 1;

  // Earliest-proof offsets (kObserve), epoch-stamped like emitted_stamp_
  // and sharing its epoch: proved iff proved_stamp_[id] == emitted_epoch_.
  std::vector<uint32_t> proved_stamp_;
  std::vector<uint64_t> proved_offset_;

  uint64_t live_entries_ = 0;
  uint64_t live_candidates_ = 0;
  uint64_t live_text_bytes_ = 0;
};

/// Merges sorted id vector `src` into sorted `dst` in place (no temporary),
/// dropping duplicates. Exposed for tests. Returns how many ids were
/// added.
size_t UnionSortedIds(const std::vector<xml::NodeId>& src,
                      std::vector<xml::NodeId>* dst);

}  // namespace twigm::core

#endif  // TWIGM_CORE_TWIG_MACHINE_H_
