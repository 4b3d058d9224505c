// TwigM — the paper's streaming XPath evaluation machine (sections 3.3, 4).
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
// Hot path: BindInterner() resolves the query labels to the parser's
// SymbolIds once, and per-event dispatch indexes a per-symbol postings
// vector — no tag bytes are hashed or compared. Stack entries live in
// PooledStacks and candidate sets merge in place, so the steady state per
// event performs zero heap allocations (DESIGN.md §10).

#ifndef TWIGM_CORE_TWIG_MACHINE_H_
#define TWIGM_CORE_TWIG_MACHINE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/pooled_stack.h"
#include "core/streaming_machine.h"
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

/// The TwigM machine. Feed it modified SAX events (via xml::EventDriver or
/// directly); candidates and results are reported to the MatchObserver
/// incrementally.
class TwigMachine final : public StreamingMachine {
 public:
  /// Builds the machine for `query` (section 4.2 construction). `observer`
  /// must outlive the machine; not owned.
  static Result<std::unique_ptr<TwigMachine>> Create(
      const xpath::QueryTree& query, MatchObserver* observer,
      TwigMachineOptions options = TwigMachineOptions());

  // StreamEventSink:
  void StartElement(const xml::TagToken& tag, int level, xml::NodeId id,
                    const std::vector<xml::Attribute>& attrs) override;
  void EndElement(const xml::TagToken& tag, int level) override;
  void Text(std::string_view text, int level) override;
  void EndDocument() override;

  /// Also clears the emitted set. Pooled stack capacity is retained.
  void Reset() override;

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

  uint64_t pool_entries() const override;

 private:
  // One stack entry: <level, branch match, candidates> (+ text buffer for
  // value-test nodes). `implied`/`dflags` carry the entry's certainty state
  // when early decisions are enabled (zeroed otherwise).
  struct Entry {
    int level = 0;
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

  void BuildPostings(size_t symbol_count) override;

  void UpdateMemoryStats();

  // δs for one machine node (the push attempt of Algorithm 1).
  void TryStartNode(int node_id, int level, xml::NodeId id,
                    const std::vector<xml::Attribute>& attrs);
  // δe for one machine node (pop / verify / propagate).
  void PopNode(int node_id, int level);

  // --- Earliest-decision machinery (DESIGN.md §13) ---------------------
  /// Applies `fn(Entry&)` to every parent-stack entry an entry of `v` at
  /// `top_level` qualifies against — the exact propagation target set of δe
  /// (a prefix for '≥' edges, at most one entry for '=' edges). Shared by
  /// the pop propagation and the early certainty cascade, which is sound
  /// precisely because this set is identical at push time and pop time.
  template <typename Fn>
  void ForEachQualifyingParent(const MachineNode* v, int top_level, Fn&& fn);

  /// True when every obligation of `e` is certain *now*: all required
  /// branch bits real or implied, and the value test certain.
  bool EntrySatisfiedNow(const MachineNode* v, const Entry& e) const;

  /// Cascades "e is certainly satisfied" upward: sets the child bit in
  /// every qualifying parent entry (the bits δe would set), recursing when
  /// a parent becomes certain, and marks e kCertainOutput (flushing its
  /// candidates) when a certain root entry is reachable.
  void ResolveCertain(const MachineNode* v, Entry& e);

  /// Candidates of a kCertainOutput entry are certain results: kOn emits
  /// and drops them; kObserve stamps their earliest-proof offset.
  void FlushCertainCandidates(Entry& e);

  /// kOn: emits `id` immediately (MarkEmitted-deduplicated, gap 0).
  void EmitEarly(xml::NodeId id);

  /// kObserve: records the earliest offset at which `id` became certain.
  void MarkProved(xml::NodeId id);

  /// Records the earliest-vs-actual gap for an emission happening now.
  void RecordGap(xml::NodeId id);

  const std::vector<int>* root_context_ = nullptr;
  TwigMachineOptions options_;

  // stacks_[node->id] is ξ(v).
  std::vector<PooledStack<Entry>> stacks_;

  std::vector<int> wildcard_nodes_;   // '*' machine-node ids, pre-order
  std::vector<int> value_test_nodes_; // nodes that accumulate text

  // Symbol dispatch (built by BindInterner). start_postings_[s] holds the
  // label nodes for symbol s in pre-order; end_postings_[s] additionally
  // merges in the wildcard nodes (still pre-order) because δe iterates one
  // list in reverse and child-before-parent must hold across label and
  // wildcard nodes alike. Symbols interned after binding (document tags
  // that are no query label) fall outside both vectors: δs tries only
  // wildcards, δe walks wildcard_nodes_ reversed.
  std::vector<std::vector<int>> start_postings_;
  std::vector<std::vector<int>> end_postings_;

  // Already-output results: guards against re-emission when a candidate
  // reached several root entries (recursive data matching the query root).
  // Document node ids are dense pre-order integers, so the guard is an
  // epoch-stamped array indexed by id: emitted iff stamp == current epoch.
  // O(1) per candidate, cleared in O(1) by bumping the epoch (whenever the
  // root stack empties — after that point no live entry can still hold an
  // already-emitted candidate), and its capacity survives Reset() so
  // steady-state passes never allocate here.
  std::vector<uint32_t> emitted_stamp_;
  uint32_t emitted_epoch_ = 1;

  // Earliest-proof offsets (kObserve), epoch-stamped like emitted_stamp_
  // and sharing its epoch: proved iff proved_stamp_[id] == emitted_epoch_.
  std::vector<uint32_t> proved_stamp_;
  std::vector<uint64_t> proved_offset_;

  /// Stamps `id` emitted; returns false when it already was this epoch.
  bool MarkEmitted(xml::NodeId id);
  void ClearEmitted();

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
