// IndexedEvaluator — answers XP{/,//,*,[]} queries over a persistent
// structural index (IndexReader) by structural semi-joins over the
// per-symbol postings lists, without touching the original document.
//
// Evaluation plan (DESIGN.md §15). The plan is the section 4.2 machine
// graph that TwigM runs, folded by the same rule
// (core::FoldInteriorWildcards): interior predicate-free '*' steps become
// part of the next node's edge label (op, k), so every join edge reads
// "level delta exactly k" or "level delta at least k".
//   1. Bottom-up over the machine nodes: each node's list starts as its
//      tag's postings, filtered by the node's attribute tests and value
//      test — the same facts the streaming machines test, read back from
//      the index. Each attribute test is one forward merge against that
//      name's attribute postings; a value test reads the element's direct
//      text in O(1). A node with no such test uses its postings span in
//      place. A '*' starts from its first attribute test's postings; without
//      one, a '*' with an element predicate child is seeded from the
//      ancestors of its smallest predicate child's list at that child's
//      edge (one forward pass over the level column), and only a '*' with
//      neither starts from all elements. Each remaining predicate child
//      then shrinks the list by an ancestor-side semi-join, most selective
//      first.
//   2. Top-down along the output path: the root list is anchored by its
//      edge against the document node (level 0), then each spine step keeps
//      the descendant-side elements that have a surviving spine ancestor.
//      A test-free '*' return node is enumerated from its ancestors' pre
//      ranges instead of read as all elements.
//   3. The final list is the match set in document order. Results are
//      emitted through the standard core::MatchObserver with
//      MatchInfo{id = pre (the streaming NodeId), byte_offset = the
//      element's start-tag offset}, so indexed, streaming, and DOM runs
//      are directly comparable.
//
// Every join is one forward merge of two pre-sorted lists and needs no
// stack: the subtree of element a is exactly the pre ids
// (a, pre_end(a)], pre_end = post + level - 1, and a per-level table of the
// latest list element seen at each level names the one ancestor of d that
// sits k levels up. An ancestor-side (=,k) join marks that entry without
// a branch per element (a d with no ancestor k levels up reads the
// never-written level-0 entry, which contains nothing). Descendants that
// lie in no ancestor subtree are skipped by exponential search.
//
// Cost is O(postings touched), not O(document bytes): warm re-query never
// re-parses. Evaluate() is repeatable and reuses all scratch storage, so
// the steady state allocates nothing (tests/hotpath_alloc_test.cc; the join
// loops are `// hotpath`, enforced by scripts/analyze/project_analyzer.py).

#ifndef TWIGM_INDEX_INDEXED_EVALUATOR_H_
#define TWIGM_INDEX_INDEXED_EVALUATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/edge.h"
#include "core/result_sink.h"
#include "index/index_reader.h"
#include "xml/sax_event.h"
#include "xpath/query_tree.h"

namespace twigm::index {

class IndexedEvaluator {
 public:
  /// Join accounting for one Evaluate() call.
  struct Stats {
    /// Candidate entries read: tag or attribute postings, enumerated pre
    /// ranges, all elements for a bare '*', and for a seeded '*' the child
    /// list the seed pass reads.
    uint64_t postings_touched = 0;
    /// Merge steps across all semi-joins, plus the span of the level
    /// column each seed pass walks (pre ids 1 up to its child list's last).
    uint64_t join_steps = 0;
    uint64_t results = 0;  // matches emitted
  };

  /// Compiles `query` against `reader`'s dictionary. `reader` is not owned
  /// and must outlive the evaluator. Labels the corpus never saw resolve
  /// to empty postings (not an error — the query simply has no matches).
  static Result<std::unique_ptr<IndexedEvaluator>> Create(
      std::string_view query, const IndexReader* reader);

  IndexedEvaluator(const IndexedEvaluator&) = delete;
  IndexedEvaluator& operator=(const IndexedEvaluator&) = delete;

  /// Runs the structural joins and emits every match, in document order,
  /// through `observer` (OnResult only; there is no candidate phase —
  /// membership is decided by the joins). Repeatable: scratch state is
  /// reused across calls and the steady state is allocation-free.
  Status Evaluate(core::MatchObserver* observer);

  /// Accounting for the most recent Evaluate() call.
  const Stats& stats() const { return stats_; }

  /// The plan, one block per machine node: its edge, where its candidates
  /// come from (tag postings, attribute postings, seeded from a predicate
  /// child at that child's edge, enumerated, or all elements), and its
  /// predicate joins. After an Evaluate() it names the seed child and the
  /// join order that call chose and gives each step's list size.
  std::string Explain() const;

 private:
  IndexedEvaluator() = default;

  /// Grow-only storage for one node's list.
  struct Buffer {
    std::unique_ptr<uint32_t[]> ids;
    size_t capacity = 0;
  };

  /// A pre-sorted list of pre ids: a postings span or a node's buffer.
  struct IdList {
    const uint32_t* data = nullptr;
    size_t size = 0;
  };

  /// Where a node's list comes from before its predicate joins.
  enum class Source : uint8_t {
    kTagPostings,        // the tag's postings
    kAttributePostings,  // a '*' with attribute tests: the first test's
    kSeeded,             // a '*' with an element predicate child: the
                         // ancestors of the smallest child list
    kEnumerated,         // a test-free '*' leaf on the output path below
                         // the root (only the return node can be one: an
                         // interior one is folded into an edge), built
                         // from the spine parent's pre ranges
    kAllElements,        // any other '*'
  };

  /// One machine node of the section 4.2 graph, indexed by its pre-order
  /// id (the MachineNode::id core::MachineGraph::Build would give it).
  struct NodePlan {
    const xpath::QueryNode* node = nullptr;  // after wildcard folding
    core::EdgeCondition edge;                // from the parent (the
                                             // document node at the root)
    /// Resolved tag symbol; kNoSymbol for a non-wildcard means the corpus
    /// never saw the tag (empty list).
    xml::SymbolId symbol = xml::kNoSymbol;
    /// The node's attribute tests, in query order, at
    /// attr_tests_[attr_begin, attr_end).
    size_t attr_begin = 0;
    size_t attr_end = 0;
    /// Element children (plan ids) at child_ids_[child_begin, child_end):
    /// the spine child and the predicates.
    size_t child_begin = 0;
    size_t child_end = 0;
    int spine_child = -1;  // plan id, -1 at the return node
    int parent = -1;       // plan id, -1 at the root
    /// A value test or attribute tests: the list is filtered, not a span.
    bool has_local_tests = false;
    Source source = Source::kTagPostings;
  };

  /// One node's list and what the latest Evaluate() did there, for
  /// Explain(). The node's predicate joins ran in the order
  /// joins_[child_begin, +joins) (for a seeded node the first is the seed
  /// child, sized after the seed and the value test).
  struct NodeRun {
    IdList list;             // the node's current list
    size_t candidates = 0;   // list size before the predicate joins
    size_t joins = 0;        // predicate children, including the seed
    size_t top_down = 0;     // list size after the top-down step
    bool on_path = false;    // a top-down step (anchor or spine join) ran
  };

  /// One predicate join of the latest Evaluate(): the child (plan id) and
  /// the list size it left.
  struct JoinStep {
    int child = -1;
    size_t size = 0;
  };

  /// One attribute child: its name symbol (kNoSymbol: the corpus never
  /// saw the name) and the query node holding its optional value test.
  struct AttrTest {
    xml::SymbolId name = xml::kNoSymbol;
    const xpath::QueryNode* node = nullptr;
  };

  int AddPlan(const xpath::QueryNode* q);

  static uint32_t* Room(Buffer* buf, size_t n);
  IdList BuildCandidates(const NodePlan& plan, int seed_child, Buffer* buf);
  IdList SeedAncestors(IdList desc, core::EdgeCondition edge, Buffer* buf);
  IdList KeepWithAttribute(IdList in, const AttrTest& test, uint32_t* out);
  IdList KeepWithValue(IdList in, const xpath::QueryNode* node,
                       uint32_t* out) const;
  IdList AnchorRoot(IdList roots, core::EdgeCondition edge,
                    Buffer* buf);
  IdList EnumerateSubtrees(IdList anc, Buffer* buf);
  IdList JoinAncestors(IdList anc, IdList desc, core::EdgeCondition edge,
                       Buffer* buf);
  IdList JoinDescendants(IdList anc, IdList desc, core::EdgeCondition edge,
                         Buffer* buf);
  void ClearLevelTable(IdList anc, size_t consumed);
  void SnapshotJoinInput(IdList in);
  void CheckJoinOutput(IdList out) const;
  void CheckSeedOutput(IdList desc, core::EdgeCondition edge,
                       IdList out) const;
  uint64_t OffsetOf(uint32_t pre) const;

  const IndexReader* reader_ = nullptr;
  xpath::QueryTree query_;
  std::vector<NodePlan> plans_;
  std::vector<AttrTest> attr_tests_;
  std::vector<int> child_ids_;
  int return_id_ = -1;
  Stats stats_;
  bool evaluated_ = false;

  // Scratch, reused across Evaluate() calls (steady state: no growth).
  // Each node's list lives either in the reader's postings or in the
  // node's buffer; a filter or join writes its output into the buffer of
  // the node whose list it shrinks, in place when the input is already
  // there (the output is an ordered subset of the input). Buffers only
  // grow: a list's length is its IdList size, not the buffer's.
  std::vector<NodeRun> runs_;                   // per node id
  std::vector<Buffer> buffers_;                 // per node id
  std::vector<JoinStep> joins_;                 // per child slot
  std::vector<uint8_t> matched_;                // per-ancestor match flags
  /// Seed pass (sized only when a node is seeded): per level
  /// (0..max_depth) the latest pre id seen, where entry 0 is never written
  /// and stays 0 (no pre id is 0); and one bit per pre id (0..n) for the
  /// ancestors found, all zero between passes (reading a pass's bits
  /// clears them).
  std::vector<uint32_t> latest_;
  std::vector<uint64_t> seed_bits_;
  /// One per level (0..max_depth): the latest ancestor-list element at that
  /// level during a merge, as its subtree end and its index in the list.
  /// end == 0 (no pre id is 0) means none. Entry 0 is never written, and
  /// all entries are {0, 0} between joins, so every slot a merge reads is
  /// a valid match-flag index.
  struct LevelEntry {
    uint32_t end = 0;
    uint32_t slot = 0;
  };
  std::vector<LevelEntry> level_table_;
  /// Copy of the current join's input, kept only by the
  /// TWIGM_CHECK_INVARIANTS build to check the output against it.
  std::vector<uint32_t> join_input_;
};

}  // namespace twigm::index

#endif  // TWIGM_INDEX_INDEXED_EVALUATOR_H_
