#include "index/indexed_evaluator.h"

#include <algorithm>
#include <bit>
#include <string>
#include <utility>

#include "core/invariants.h"
#include "core/machine_builder.h"
#include "core/value_test.h"

namespace twigm::index {

namespace {

// First position at or after `j` whose id is >= `target`: exponential,
// then binary search, so skipping g ids costs O(log g) and a short skip
// costs about what stepping would.
// hotpath
size_t SkipTo(const uint32_t* data, size_t size, size_t j, uint32_t target) {
  size_t lo = j;
  size_t hi = j;
  size_t step = 1;
  while (hi < size && data[hi] < target) {
    lo = hi + 1;
    hi += step;
    step *= 2;
  }
  return static_cast<size_t>(
      std::lower_bound(data + lo, data + std::min(hi, size), target) - data);
}

// As SkipTo, from the cursor `from` up to `end`.
// hotpath
const uint32_t* SkipFrom(const uint32_t* from, const uint32_t* end,
                         uint32_t target) {
  return from + SkipTo(from, static_cast<size_t>(end - from), 0, target);
}

}  // namespace

// Room for a list of at most `n` ids in `buf`. Buffers only grow, so a
// buffer that already holds the input (in-place filtering) keeps its data
// pointer, and the steady state never reallocates. Growth drops the old
// ids unread and leaves the new room uninitialized: a list that lives in
// the buffer always fits, so only a list read from elsewhere grows it.
uint32_t* IndexedEvaluator::Room(Buffer* buf, size_t n) {
  if (buf->capacity < n) {
    buf->ids = std::make_unique_for_overwrite<uint32_t[]>(n);
    buf->capacity = n;
  }
  return buf->ids.get();
}

Result<std::unique_ptr<IndexedEvaluator>> IndexedEvaluator::Create(
    std::string_view query, const IndexReader* reader) {
  Result<xpath::QueryTree> tree = xpath::QueryTree::Parse(query);
  if (!tree.ok()) return tree.status();

  std::unique_ptr<IndexedEvaluator> eval(new IndexedEvaluator());
  eval->reader_ = reader;
  eval->query_ = std::move(tree).value();
  if (eval->query_.sol()->is_attribute) {
    return Status::NotSupported(
        "an attribute cannot be the return node of a query");
  }
  const size_t max_nodes = static_cast<size_t>(eval->query_.node_count());
  eval->plans_.reserve(max_nodes);
  eval->attr_tests_.reserve(max_nodes);
  eval->child_ids_.reserve(max_nodes);
  eval->AddPlan(eval->query_.root());
  const size_t n = eval->plans_.size();
  eval->runs_.resize(n);
  eval->buffers_.resize(n);
  eval->joins_.resize(eval->child_ids_.size());
  const size_t levels = size_t{reader->max_depth()} + 1;
  eval->level_table_.assign(levels, LevelEntry{});
  if (std::any_of(eval->plans_.begin(), eval->plans_.end(),
                  [](const NodePlan& plan) {
                    return plan.source == Source::kSeeded;
                  })) {
    eval->latest_.assign(levels, 0);
    eval->seed_bits_.assign(reader->element_count() / 64 + 1, 0);
  }
  return eval;
}

// Appends the plan of the machine node that query node `q` folds to, then
// those of its element children, in pre-order; returns the new plan's id.
int IndexedEvaluator::AddPlan(const xpath::QueryNode* q) {
  const core::FoldedStep step = core::FoldInteriorWildcards(q, query_.sol());
  const xpath::QueryNode* node = step.node;
  const int id = static_cast<int>(plans_.size());
  plans_.emplace_back();
  NodePlan& plan = plans_.back();
  plan.node = node;
  plan.edge = step.edge;
  if (!node->is_wildcard) plan.symbol = reader_->FindSymbol(node->name);
  plan.attr_begin = attr_tests_.size();
  size_t element_children = 0;
  size_t predicates = 0;
  for (const auto& child : node->children) {
    if (child->is_attribute) {
      attr_tests_.push_back(
          AttrTest{reader_->FindSymbol(child->name), child.get()});
    } else {
      ++element_children;
      if (!child->on_output_path) ++predicates;
    }
  }
  plan.attr_end = attr_tests_.size();
  const bool has_attr_tests = plan.attr_end > plan.attr_begin;
  plan.has_local_tests = node->has_value_test || has_attr_tests;
  if (!node->is_wildcard) {
    plan.source = Source::kTagPostings;
  } else if (has_attr_tests) {
    plan.source = Source::kAttributePostings;
  } else if (predicates > 0) {
    plan.source = Source::kSeeded;
  } else if (id != 0 && node->on_output_path && !plan.has_local_tests &&
             element_children == 0) {
    plan.source = Source::kEnumerated;
  } else {
    plan.source = Source::kAllElements;
  }
  if (node == query_.sol()) return_id_ = id;
  const size_t child_begin = child_ids_.size();
  child_ids_.resize(child_begin + element_children);
  plan.child_begin = child_begin;
  plan.child_end = child_ids_.size();
  size_t k = child_begin;
  for (const auto& child : node->children) {
    if (child->is_attribute) continue;
    const int child_id = AddPlan(child.get());  // appends: `plan` is stale
    plans_[static_cast<size_t>(child_id)].parent = id;
    child_ids_[k++] = child_id;
    if (child->on_output_path) {
      plans_[static_cast<size_t>(id)].spine_child = child_id;
    }
  }
  return id;
}

// A node's list before its predicate joins: its tag's postings, kept by
// the node's attribute tests and then by its value test — the same
// semantics core::EvalValueTest gives the streaming machines and the DOM
// oracle. A '*' starts from its first attribute test's postings (exactly
// the elements that carry the name); without one, a seeded '*' starts from
// the ancestors of `seed_child`'s final list at that child's edge (exactly
// the elements that pass that child's join, which is then skipped), and
// any other '*' from all elements. Without tests a tag's list is the
// postings span itself — no copy.
// hotpath
IndexedEvaluator::IdList IndexedEvaluator::BuildCandidates(
    const NodePlan& plan, int seed_child, Buffer* buf) {
  const xpath::QueryNode* node = plan.node;
  if (plan.source == Source::kTagPostings && plan.symbol == xml::kNoSymbol) {
    return IdList{};
  }
  for (size_t a = plan.attr_begin; a < plan.attr_end; ++a) {
    // No element carries an attribute name the corpus never saw.
    if (attr_tests_[a].name == xml::kNoSymbol) return IdList{};
  }
  IdList list;
  if (plan.source == Source::kTagPostings) {
    const IndexReader::U32Span postings = reader_->postings(plan.symbol);
    list = IdList{postings.data, postings.size};
    stats_.postings_touched += list.size;
    if (!plan.has_local_tests) return list;
  } else if (plan.source == Source::kAttributePostings) {
    // Counted by the attribute merge below, which reads the same list.
    const IndexReader::AttrPostings attrs =
        reader_->attributes(attr_tests_[plan.attr_begin].name);
    list = IdList{attrs.pre, attrs.size};
  } else if (plan.source == Source::kSeeded) {
    const size_t c = static_cast<size_t>(seed_child);
    list = SeedAncestors(runs_[c].list, plans_[c].edge, buf);
  } else {
    const size_t n = static_cast<size_t>(reader_->element_count());
    uint32_t* all = Room(buf, n);
    for (size_t i = 0; i < n; ++i) all[i] = static_cast<uint32_t>(i + 1);
    list = IdList{all, n};
    stats_.postings_touched += n;
  }
  uint32_t* out = Room(buf, list.size);  // `list`'s own buffer if it is there
  for (size_t a = plan.attr_begin; a < plan.attr_end && list.size > 0; ++a) {
    list = KeepWithAttribute(list, attr_tests_[a], out);
  }
  if (node->has_value_test) list = KeepWithValue(list, node, out);
  return list;
}

// The elements a with a descendant d in `desc` at a level delta that
// satisfies `edge`, ascending: the ancestor-side join of `desc` against all
// elements, without listing them. One forward pass over the level column up
// to desc's last id keeps the latest pre id seen at each level, which at d
// names d's ancestor at every level above it (everything between that
// ancestor and d lies in its subtree, so deeper). (=,k) sets the bit of the
// ancestor at level(d) − k; a d with no ancestor that far up reads level 0,
// whose entry stays 0, and sets the unused bit 0. (≥,k) sets every
// ancestor's bit from level(d) − k up, stopping at one already set, whose
// own ancestors were set with it. Reading the bits gives the ancestors in
// pre order and clears them for the next pass.
// hotpath
IndexedEvaluator::IdList IndexedEvaluator::SeedAncestors(
    IdList desc, core::EdgeCondition edge, Buffer* buf) {
  if (desc.size == 0) return IdList{};
  const uint16_t* const level = reader_->level();
  uint32_t* const latest = latest_.data();
  uint64_t* const bits = seed_bits_.data();
  const uint32_t k = static_cast<uint32_t>(edge.distance);
  uint32_t x = 1;  // next pre id to enter into `latest`
  if (edge.exact) {
    for (size_t j = 0; j < desc.size; ++j) {
      const uint32_t d = desc.data[j];
      for (; x < d; ++x) latest[level[x - 1]] = x;
      const uint32_t depth = level[d - 1];
      const uint32_t a = latest[depth > k ? depth - k : 0];
      bits[a >> 6] |= uint64_t{1} << (a & 63);
    }
  } else {
    for (size_t j = 0; j < desc.size; ++j) {
      const uint32_t d = desc.data[j];
      for (; x < d; ++x) latest[level[x - 1]] = x;
      const uint32_t depth = level[d - 1];
      for (uint32_t l = depth; l > k; --l) {
        const uint32_t a = latest[l - k];
        const uint64_t bit = uint64_t{1} << (a & 63);
        if ((bits[a >> 6] & bit) != 0) break;
        bits[a >> 6] |= bit;
      }
    }
  }
  const uint32_t last = desc.data[desc.size - 1];
  stats_.postings_touched += desc.size;
  stats_.join_steps += last;
  // Every ancestor precedes `last`; at most one per d for (=,k).
  uint32_t* out = Room(buf, edge.exact ? desc.size : last);
  size_t count = 0;
  bits[0] &= ~uint64_t{1};
  for (size_t w = 0; w <= last >> 6; ++w) {
    uint64_t word = bits[w];
    bits[w] = 0;
    for (; word != 0; word &= word - 1) {
      out[count++] = static_cast<uint32_t>(w * 64) +
                     static_cast<uint32_t>(std::countr_zero(word));
    }
  }
  CheckSeedOutput(desc, edge, IdList{out, count});
  return IdList{out, count};
}

// Keeps the elements of `in` that carry `test`'s attribute with a value
// that passes its value test: one forward merge of `in` against the name's
// attribute postings, either side skipping ahead by exponential search,
// and a compare on each hit. The output is an ordered subset of `in`,
// written to `out` (in place when `in` already lives there: an element is
// written at or before the position it was read from).
// hotpath
IndexedEvaluator::IdList IndexedEvaluator::KeepWithAttribute(
    IdList in, const AttrTest& test, uint32_t* out) {
  const IndexReader::AttrPostings attrs = reader_->attributes(test.name);
  const xpath::QueryNode* node = test.node;
  size_t count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < in.size && j < attrs.size) {
    const uint32_t pre = in.data[i];
    const uint32_t holder = attrs.pre[j];
    if (pre < holder) {
      i = SkipTo(in.data, in.size, i, holder);
    } else if (holder < pre) {
      j = SkipTo(attrs.pre, attrs.size, j, pre);
    } else {
      if (!node->has_value_test ||
          core::EvalValueTest(attrs.value(j), node->op, node->literal,
                              node->literal_is_number)) {
        out[count++] = pre;
      }
      ++i;
      ++j;
    }
  }
  stats_.postings_touched += attrs.size;
  stats_.join_steps += i + j;
  return IdList{out, count};
}

// Keeps the elements of `in` whose direct text passes `node`'s value test;
// each text is one O(1) read. Filters into `out` like KeepWithAttribute.
// hotpath
IndexedEvaluator::IdList IndexedEvaluator::KeepWithValue(
    IdList in, const xpath::QueryNode* node, uint32_t* out) const {
  size_t count = 0;
  for (size_t i = 0; i < in.size; ++i) {
    const uint32_t pre = in.data[i];
    if (core::EvalValueTest(reader_->DirectText(pre), node->op,
                            node->literal, node->literal_is_number)) {
      out[count++] = pre;
    }
  }
  return IdList{out, count};
}

// Keeps the root candidates whose level satisfies the root's edge against
// the document node at level 0: '/' pins level 1, and folded wildcards
// ('/*/a', '//*//a') raise the required level.
// hotpath
IndexedEvaluator::IdList IndexedEvaluator::AnchorRoot(
    IdList roots, core::EdgeCondition edge, Buffer* buf) {
  const uint16_t* level = reader_->level();
  uint32_t* out = Room(buf, roots.size);
  size_t count = 0;
  for (size_t i = 0; i < roots.size; ++i) {
    const uint32_t pre = roots.data[i];
    if (edge.Satisfies(static_cast<int>(level[pre - 1]))) out[count++] = pre;
  }
  return IdList{out, count};
}

// The candidates of a test-free '*' below `anc`: every pre id inside an
// `anc` subtree, ascending and without repeats. An element nested in an
// earlier one's subtree adds nothing; the descendant join that follows
// applies the edge.
// hotpath
IndexedEvaluator::IdList IndexedEvaluator::EnumerateSubtrees(
    IdList anc, Buffer* buf) {
  size_t total = 0;
  uint32_t reach = 0;  // last pre id enumerated so far
  for (size_t i = 0; i < anc.size; ++i) {
    const uint32_t a = anc.data[i];
    if (a <= reach) continue;
    reach = reader_->pre_end(a);
    total += reach - a;
  }
  uint32_t* out = Room(buf, total);
  size_t count = 0;
  reach = 0;
  for (size_t i = 0; i < anc.size; ++i) {
    const uint32_t a = anc.data[i];
    if (a <= reach) continue;
    reach = reader_->pre_end(a);
    for (uint32_t pre = a + 1; pre <= reach; ++pre) out[count++] = pre;
  }
  stats_.postings_touched += count;
  return IdList{out, count};
}

// Resets the level-table entries the first `consumed` elements of `anc`
// wrote, so the table is all zero again for the next join.
void IndexedEvaluator::ClearLevelTable(IdList anc, size_t consumed) {
  const uint16_t* level = reader_->level();
  for (size_t i = 0; i < consumed; ++i) {
    level_table_[level[anc.data[i] - 1]] = LevelEntry{};
  }
}

// Ancestor-side structural semi-join: keeps the elements a of `anc` with a
// descendant d in `desc` at a level delta that satisfies `edge`. The output
// is an ordered subset of `anc`, written into `buf` (in place when `anc`
// already lives there).
// hotpath
IndexedEvaluator::IdList IndexedEvaluator::JoinAncestors(
    IdList anc, IdList desc, core::EdgeCondition edge,
    Buffer* buf) {
  if (anc.size == 0 || desc.size == 0) return IdList{};
  SnapshotJoinInput(anc);
  const IndexReader::Labels labels = reader_->labels();
  const uint16_t* level = labels.level;
  const uint32_t k = static_cast<uint32_t>(edge.distance);
  uint32_t* out = Room(buf, anc.size);
  size_t count = 0;
  if (!edge.exact && k == 1) {
    // (≥,1): a qualifies iff the first desc element after a lies inside
    // a's subtree. One forward pointer over `desc`.
    size_t j = 0;
    size_t i = 0;
    for (; i < anc.size; ++i) {
      const uint32_t a = anc.data[i];
      j = SkipTo(desc.data, desc.size, j, a + 1);
      if (j == desc.size) break;
      if (desc.data[j] <= labels.pre_end(a)) out[count++] = a;
    }
    stats_.join_steps += i + j;
    CheckJoinOutput(IdList{out, count});
    return IdList{out, count};
  }
  // (=,k) and (≥,k): the level table maps each level to the latest `anc`
  // element that starts before d. An ancestor of d at level l is the
  // latest element at level l before d, so the entry at level(d) − k names
  // d's one candidate ancestor there, and the entry holds it iff its
  // subtree still contains d. (=,k) marks that entry's flag when it
  // contains d, without a branch: a d with no level k levels up reads
  // entry 0, whose end 0 contains nothing. For (≥,k) every enclosing entry
  // at level ≤ level(d) − k qualifies too; the walk up the levels stops at
  // an entry already marked, whose own enclosing entries were marked with
  // it.
  matched_.assign(anc.size, 0);
  uint8_t* const matched = matched_.data();
  LevelEntry* const table = level_table_.data();
  // The desc cursor is a pointer and the skip works from it: with an index
  // and the list's base and size live too, the flag pointer no longer fits
  // in a register, and Book Q5 and Q10 read 12–20% slower.
  size_t i = 0;
  const uint32_t* next = desc.data;
  const uint32_t* const desc_end = desc.data + desc.size;
  uint32_t reach = 0;  // furthest pre_end among the consumed `anc`
  for (; next < desc_end; ++next) {
    const uint32_t d = *next;
    for (; i < anc.size && anc.data[i] < d; ++i) {
      const uint32_t a = anc.data[i];
      const uint32_t end = labels.pre_end(a);
      table[level[a - 1]] = LevelEntry{end, static_cast<uint32_t>(i)};
      reach = std::max(reach, end);
    }
    if (d > reach) {  // d, and any desc before anc[i], is in no subtree
      if (i == anc.size) break;
      if (d < anc.data[i]) next = SkipFrom(next, desc_end, anc.data[i]) - 1;
      continue;
    }
    const uint32_t depth = level[d - 1];
    if (edge.exact) {
      const LevelEntry entry = table[depth > k ? depth - k : 0];
      matched[entry.slot] |= static_cast<uint8_t>(d <= entry.end);
      continue;
    }
    for (uint32_t l = depth; l > k; --l) {
      const LevelEntry entry = table[l - k];
      if (d > entry.end) continue;  // no open `anc` element at this level
      if (matched[entry.slot] != 0) break;
      matched[entry.slot] = 1;
    }
  }
  stats_.join_steps += i + static_cast<size_t>(next - desc.data);
  ClearLevelTable(anc, i);
  for (size_t c = 0; c < anc.size; ++c) {
    out[count] = anc.data[c];
    count += matched[c];
  }
  CheckJoinOutput(IdList{out, count});
  return IdList{out, count};
}

// Descendant-side structural semi-join: keeps the elements d of `desc`
// with an ancestor a in `anc` at a level delta that satisfies `edge`. The
// output is an ordered subset of `desc`, written into `buf` (in place when
// `desc` already lives there).
// hotpath
IndexedEvaluator::IdList IndexedEvaluator::JoinDescendants(
    IdList anc, IdList desc, core::EdgeCondition edge,
    Buffer* buf) {
  if (anc.size == 0 || desc.size == 0) return IdList{};
  SnapshotJoinInput(desc);
  const IndexReader::Labels labels = reader_->labels();
  const uint16_t* level = labels.level;
  const uint32_t k = static_cast<uint32_t>(edge.distance);
  uint32_t* out = Room(buf, desc.size);
  size_t count = 0;
  size_t i = 0;
  size_t j = 0;
  if (edge.exact) {
    // (=,k): d's ancestor at level(d) − k is the latest element at that
    // level before d; the level table holds the latest `anc` element per
    // level, which is that ancestor iff its subtree still contains d. The
    // keep stays a branch: on Book its outcome runs in long streaks (most
    // sections of `//book/section` fail it), and a branch-free keep, which
    // stores every d, read slower on Q1.
    LevelEntry* const table = level_table_.data();
    uint32_t reach = 0;  // furthest pre_end among the consumed `anc`
    for (; j < desc.size; ++j) {
      const uint32_t d = desc.data[j];
      for (; i < anc.size && anc.data[i] < d; ++i) {
        const uint32_t a = anc.data[i];
        const uint32_t end = labels.pre_end(a);
        table[level[a - 1]].end = end;
        reach = std::max(reach, end);
      }
      if (d > reach) {  // d, and any desc before anc[i], is in no subtree
        if (i == anc.size) break;
        if (d < anc.data[i]) {
          j = SkipTo(desc.data, desc.size, j, anc.data[i]) - 1;
        }
        continue;
      }
      const uint32_t depth = level[d - 1];
      if (depth > k && d <= table[depth - k].end) out[count++] = d;
    }
    ClearLevelTable(anc, i);
  } else {
    // (≥,k): d's shallowest `anc` ancestor is the current outermost
    // interval — the latest `anc` element not nested in an earlier one.
    // d qualifies iff that interval contains d at least k levels up.
    uint32_t outer_level = 0;
    uint32_t outer_end = 0;
    for (; j < desc.size; ++j) {
      const uint32_t d = desc.data[j];
      for (; i < anc.size && anc.data[i] < d; ++i) {
        const uint32_t a = anc.data[i];
        if (a > outer_end) {
          outer_level = level[a - 1];
          outer_end = labels.pre_end(a);
        }
      }
      if (d > outer_end) {  // d, and any desc before anc[i], is in no
        if (i == anc.size) break;  // subtree
        if (d < anc.data[i]) {
          j = SkipTo(desc.data, desc.size, j, anc.data[i]) - 1;
        }
        continue;
      }
      if (outer_level + k <= level[d - 1]) out[count++] = d;
    }
  }
  stats_.join_steps += i + j;
  CheckJoinOutput(IdList{out, count});
  return IdList{out, count};
}

#if defined(TWIGM_CHECK_INVARIANTS)
// The start-tag offset of `pre`, for invariant reports (0 if the id is
// invalid).
uint64_t IndexedEvaluator::OffsetOf(uint32_t pre) const {
  return pre >= 1 && pre <= reader_->element_count()
             ? reader_->byte_offset()[pre - 1]
             : 0;
}

void IndexedEvaluator::SnapshotJoinInput(IdList in) {
  join_input_.assign(in.data, in.data + in.size);
}

// A join's output is strictly ascending and a subset of the list it
// filtered (checked against the snapshot, since joins filter in place).
// The reported offset is the element's start tag.
void IndexedEvaluator::CheckJoinOutput(IdList out) const {
  size_t j = 0;
  for (size_t i = 0; i < out.size; ++i) {
    const uint32_t pre = out.data[i];
    TWIGM_INVARIANT(i == 0 || out.data[i - 1] < pre,
                    "index join output not strictly ascending",
                    OffsetOf(pre));
    while (j < join_input_.size() && join_input_[j] < pre) ++j;
    TWIGM_INVARIANT(j < join_input_.size() && join_input_[j] == pre,
                    "index join output not a subset of its input",
                    OffsetOf(pre));
  }
}

// A seed pass's output is strictly ascending, and each id is an ancestor
// of some id of `desc` at a level delta that satisfies `edge`. The
// descendants of a in `desc` are the ids in (a, pre_end(a)], one range.
void IndexedEvaluator::CheckSeedOutput(IdList desc, core::EdgeCondition edge,
                                       IdList out) const {
  const uint16_t* level = reader_->level();
  for (size_t i = 0; i < out.size; ++i) {
    const uint32_t a = out.data[i];
    TWIGM_INVARIANT(i == 0 || out.data[i - 1] < a,
                    "index seed output not strictly ascending", OffsetOf(a));
    TWIGM_INVARIANT(a >= 1 && a <= reader_->element_count(),
                    "index seed output not an element", OffsetOf(a));
    const uint32_t end = reader_->pre_end(a);
    bool ancestor = false;
    bool at_edge = false;
    for (const uint32_t* d = std::upper_bound(desc.data,
                                              desc.data + desc.size, a);
         d < desc.data + desc.size && *d <= end && !at_edge; ++d) {
      if (!reader_->IsAncestor(a, *d)) continue;
      ancestor = true;
      at_edge = edge.Satisfies(static_cast<int>(level[*d - 1]) -
                               static_cast<int>(level[a - 1]));
    }
    TWIGM_INVARIANT(ancestor,
                    "index seed output not an ancestor of its input",
                    OffsetOf(a));
    TWIGM_INVARIANT(at_edge,
                    "index seed output's level delta does not satisfy the "
                    "edge",
                    OffsetOf(a));
  }
}
#else
void IndexedEvaluator::SnapshotJoinInput(IdList) {}
void IndexedEvaluator::CheckJoinOutput(IdList) const {}
void IndexedEvaluator::CheckSeedOutput(IdList, core::EdgeCondition,
                                       IdList) const {}
#endif

Status IndexedEvaluator::Evaluate(core::MatchObserver* observer) {
  stats_ = Stats();

  // Bottom-up: children follow parents in pre-order, so in reverse order
  // each node's predicate lists are final before its own joins run. The
  // spine child is not joined here: the top-down pass walks exactly that
  // edge and drops any element without a surviving spine descendant.
  for (size_t id = plans_.size(); id-- > 0;) {
    const NodePlan& plan = plans_[id];
    NodeRun& run = runs_[id];
    run = NodeRun{};
    if (plan.source == Source::kEnumerated) continue;  // built top-down
    // Most selective predicate first: each join costs O(|anc| + |desc|)
    // and its output is a subset of anc, so shrinking anc early makes every
    // later merge cheaper (the predicates commute — it's a conjunction). A
    // seeded '*' starts from the first, whose join the seed stands for.
    JoinStep* const steps = joins_.data() + plan.child_begin;
    for (size_t c = plan.child_begin; c < plan.child_end; ++c) {
      if (child_ids_[c] != plan.spine_child) {
        steps[run.joins++] = JoinStep{child_ids_[c], 0};
      }
    }
    std::sort(steps, steps + run.joins,
              [this](const JoinStep& a, const JoinStep& b) {
                return runs_[static_cast<size_t>(a.child)].list.size <
                       runs_[static_cast<size_t>(b.child)].list.size;
              });
    const bool seeded = plan.source == Source::kSeeded;
    IdList list =
        BuildCandidates(plan, seeded ? steps[0].child : -1, &buffers_[id]);
    run.candidates = list.size;
    for (size_t t = 0; t < run.joins; ++t) {
      if (t > 0 || !seeded) {
        const size_t c = static_cast<size_t>(steps[t].child);
        list = JoinAncestors(list, runs_[c].list, plans_[c].edge,
                             &buffers_[id]);
      }
      steps[t].size = list.size;
    }
    run.list = list;
  }

  // Top-down along the output path.
  IdList cur = runs_[0].list;
  const core::EdgeCondition root_edge = plans_[0].edge;
  if (root_edge.exact || root_edge.distance > 1) {
    cur = AnchorRoot(cur, root_edge, &buffers_[0]);
    runs_[0].on_path = true;
    runs_[0].top_down = cur.size;
  }
  for (int spine = plans_[0].spine_child; spine != -1 && cur.size > 0;
       spine = plans_[static_cast<size_t>(spine)].spine_child) {
    const size_t s = static_cast<size_t>(spine);
    const NodePlan& plan = plans_[s];
    IdList desc = runs_[s].list;
    if (plan.source == Source::kEnumerated) {
      desc = EnumerateSubtrees(cur, &buffers_[s]);
      runs_[s].candidates = desc.size;
    }
    cur = JoinDescendants(cur, desc, plan.edge, &buffers_[s]);
    runs_[s].on_path = true;
    runs_[s].top_down = cur.size;
  }

  const uint64_t* offsets = reader_->byte_offset();
  for (size_t i = 0; i < cur.size; ++i) {
    const uint32_t pre = cur.data[i];
    core::MatchInfo match;
    match.id = pre;
    match.byte_offset = offsets[pre - 1];
    match.query_node = return_id_;
    observer->OnResult(match);
  }
  stats_.results = cur.size;
  evaluated_ = true;
  return Status::Ok();
}

std::string IndexedEvaluator::Explain() const {
  auto name = [this](int id) {
    return "node " + std::to_string(id) + " " +
           plans_[static_cast<size_t>(id)].node->name;
  };
  auto at_edge = [this, &name](int id) {
    return name(id) + " at " + plans_[static_cast<size_t>(id)].edge.ToString();
  };
  std::string out = "plan for " + query_.ToString() + "\n";
  for (size_t id = 0; id < plans_.size(); ++id) {
    const NodePlan& plan = plans_[id];
    const NodeRun& run = runs_[id];
    const JoinStep* steps = joins_.data() + plan.child_begin;
    out += name(static_cast<int>(id)) + ", edge " + plan.edge.ToString() +
           " from " + (plan.parent < 0 ? "the document" : name(plan.parent)) +
           (static_cast<int>(id) == return_id_ ? ", return node" : "") +
           "\n  candidates: ";
    switch (plan.source) {
      case Source::kTagPostings:
        out += "tag postings";
        break;
      case Source::kAttributePostings:
        out += "attribute postings of @" +
               attr_tests_[plan.attr_begin].node->name;
        break;
      case Source::kSeeded:
        out += evaluated_ ? "seeded from " + at_edge(steps[0].child)
                          : "seeded from its smallest predicate child";
        break;
      case Source::kEnumerated:
        out += "enumerated from the spine parent's subtrees";
        break;
      case Source::kAllElements:
        out += "all elements";
        break;
    }
    if (plan.attr_end > plan.attr_begin) {
      out += ", " + std::to_string(plan.attr_end - plan.attr_begin) +
             " attribute test(s)";
    }
    if (plan.node->has_value_test) out += ", value test";
    if (!evaluated_) {
      out += "\n";
      for (size_t c = plan.child_begin; c < plan.child_end; ++c) {
        if (child_ids_[c] == plan.spine_child) continue;
        out += "  predicate " + name(child_ids_[c]) +
               " (joined smallest list first)\n";
      }
      continue;
    }
    out += ": " + std::to_string(run.candidates) + "\n";
    for (size_t t = plan.source == Source::kSeeded ? 1 : 0; t < run.joins;
         ++t) {
      out += "  join " + at_edge(steps[t].child) + ": " +
             std::to_string(steps[t].size) + "\n";
    }
    if (run.on_path) {
      out += std::string(id == 0 ? "  anchored at the document"
                                 : "  top-down join") +
             ": " + std::to_string(run.top_down) + "\n";
    }
  }
  return out;
}

}  // namespace twigm::index
