// Tests for the sink event filter (xml::EventFilter, DESIGN.md §10).
//
// The parser skips the start/end calls of elements a sink does not read
// and, unless the sink reads text, every Text call; it still checks,
// counts and offsets every construct. These tests hold it to that:
//
//   * a filtering sink gets exactly the filtered subsequence of an
//     all-events sink's events — same ids, levels and byte offsets — under
//     whole-document, 1-byte and 16 KB chunking, and malformed input gets
//     the same Status text and line:column;
//   * TwigM declares what δs/δe act on, and the processor's
//     engine.start_events/end_events still count every element;
//   * for every Book, XMark and Protein query the processor (whose machine
//     reads only its filter's events) agrees with the DOM oracle on ids and
//     with the same machine handed every event on (id, byte offset) — under
//     kOff, kObserve and kOn (with the Book DTD's decision table for Book),
//     and in fragment mode, where the recorder reads every event.

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/decision_analysis.h"
#include "analysis/dtd_structure.h"
#include "baselines/dom_eval.h"
#include "core/evaluator.h"
#include "core/fragment.h"
#include "data/book.h"
#include "data/datasets.h"
#include "data/protein.h"
#include "data/xmark.h"
#include "dtd/dtd_parser.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "xml/sax_event.h"
#include "xml/sax_parser.h"
#include "xpath/query_tree.h"

namespace twigm {
namespace {

using core::EarlyDecisionMode;
using core::MatchInfo;

constexpr size_t kChunkings[] = {0, 1, 16 * 1024};  // 0 = whole document

// Logs every event with its id or level and the offset slot's value, one
// line per event; optionally declares a filter.
class LogSink : public xml::StreamEventSink {
 public:
  explicit LogSink(const xml::EventFilter* filter = nullptr)
      : filter_(filter) {}

  const xml::EventFilter* event_filter() const override { return filter_; }
  void StartElement(const xml::TagToken& tag, int level, xml::NodeId id,
                    const std::vector<xml::Attribute>& attrs) override {
    Line("<" + std::string(tag.text) + " s" + std::to_string(tag.symbol) +
         " l" + std::to_string(level) + " #" + std::to_string(id) + " a" +
         std::to_string(attrs.size()));
  }
  void EndElement(const xml::TagToken& tag, int level) override {
    Line(">" + std::string(tag.text) + " l" + std::to_string(level));
  }
  void Text(std::string_view text, int level) override {
    Line("T l" + std::to_string(level) + " " + std::string(text));
  }
  void EndDocument() override { Line("E"); }

  uint64_t* offset_slot() { return &offset_; }
  const std::vector<std::string>& lines() const { return lines_; }

 private:
  void Line(const std::string& event) {
    lines_.push_back("@" + std::to_string(offset_) + " " + event);
  }

  const xml::EventFilter* filter_;
  uint64_t offset_ = 0;
  std::vector<std::string> lines_;
};

struct ParseOutcome {
  std::vector<std::string> lines;
  std::string status;
  size_t line = 0;
  size_t column = 0;
  xml::NodeId started = 0;
  xml::NodeId ended = 0;
};

// Parses `doc` in `chunk` pieces (0 = whole) into a LogSink. The names
// the filters use are interned first, whatever the filter, so both sides
// of a comparison assign the same symbols; `build` then fills the filter
// from the parser's interner (null: an all-events sink).
ParseOutcome Parse(std::string_view doc, size_t chunk,
                   void (*build)(xml::TagInterner*, xml::EventFilter*)) {
  xml::EventFilter filter;
  LogSink sink(build != nullptr ? &filter : nullptr);
  xml::SaxParser parser(&sink);
  parser.set_offset_slot(sink.offset_slot());
  for (const char* name : {"section", "title", "image", "p"}) {
    parser.interner()->Intern(name);
  }
  if (build != nullptr) build(parser.interner(), &filter);
  const size_t step = chunk == 0 ? doc.size() : chunk;
  Status s;
  for (size_t at = 0; at < doc.size() && s.ok(); at += step) {
    s = parser.Consume({doc.substr(at, step), false});
  }
  if (s.ok()) s = parser.Consume({std::string_view(), true});
  ParseOutcome out;
  out.lines = sink.lines();
  out.status = s.ToString();
  out.line = parser.line();
  out.column = parser.column();
  out.started = parser.elements_started();
  out.ended = parser.elements_ended();
  return out;
}

// Reads <section>, <title> and <image> and nothing interned later; no
// text.
void LabelsNoText(xml::TagInterner* interner, xml::EventFilter* filter) {
  const xml::SymbolId wanted[] = {interner->Intern("section"),
                                  interner->Intern("title"),
                                  interner->Intern("image")};
  filter->elements.assign(interner->size(), 0);
  for (xml::SymbolId s : wanted) filter->elements[s] = 1;
  filter->other_elements = false;
  filter->text = false;
}

// Reads every element but <p>, including those interned later; no text.
void AllButPNoText(xml::TagInterner* interner, xml::EventFilter* filter) {
  const xml::SymbolId p = interner->Intern("p");
  filter->elements.assign(interner->size(), 1);
  filter->elements[p] = 0;
  filter->other_elements = true;
  filter->text = false;
}

// Whether a LogSink line passes LabelsNoText / AllButPNoText.
bool PassesLabels(const std::string& line) {
  const size_t sp = line.find(' ');
  const std::string_view ev = std::string_view(line).substr(sp + 1);
  for (std::string_view tag : {"section ", "title ", "image "}) {
    if (ev.size() > tag.size() && (ev[0] == '<' || ev[0] == '>') &&
        ev.substr(1, tag.size()) == tag) {
      return true;
    }
  }
  return ev == "E";
}
bool PassesAllButP(const std::string& line) {
  const size_t sp = line.find(' ');
  const std::string_view ev = std::string_view(line).substr(sp + 1);
  if (ev[0] == 'T') return false;
  return ev.substr(1, 2) != "p ";
}

std::vector<std::string> Keep(const std::vector<std::string>& lines,
                              bool (*pred)(const std::string&)) {
  std::vector<std::string> out;
  for (const std::string& l : lines) {
    if (pred(l)) out.push_back(l);
  }
  return out;
}

std::string SmallBook() {
  data::BookOptions options;
  options.seed = 3;
  options.number_levels = 20;
  options.max_repeats = 6;
  options.min_bytes = 60000;
  Result<std::string> doc = data::GenerateBook(options);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return doc.ok() ? std::move(doc).value() : std::string();
}

TEST(EventFilterParserTest, FilteredSinkGetsExactlyTheFilteredEvents) {
  // Entity references and CDATA exercise the decoded and CDATA text paths
  // the filter must skip without skipping their checks.
  std::string doc = SmallBook();
  ASSERT_FALSE(doc.empty());
  const size_t close = doc.rfind("</");
  doc.insert(close, "<p>a &amp; b<![CDATA[<c>]]></p><title x='&lt;'/>");
  for (size_t chunk : kChunkings) {
    SCOPED_TRACE("chunk " + std::to_string(chunk));
    const ParseOutcome all = Parse(doc, chunk, nullptr);
    ASSERT_EQ(all.status, "ok");
    const ParseOutcome labels = Parse(doc, chunk, LabelsNoText);
    EXPECT_EQ(labels.status, "ok");
    EXPECT_EQ(labels.lines, Keep(all.lines, PassesLabels));
    const ParseOutcome but_p = Parse(doc, chunk, AllButPNoText);
    EXPECT_EQ(but_p.status, "ok");
    EXPECT_EQ(but_p.lines, Keep(all.lines, PassesAllButP));
    // Ids and levels are assigned to every element, read or not.
    EXPECT_EQ(labels.started, all.started);
    EXPECT_EQ(labels.ended, all.ended);
    EXPECT_GT(all.lines.size(), labels.lines.size());
  }
}

TEST(EventFilterParserTest, MalformedInputGetsTheSameStatus) {
  const std::string base =
      "<book><section id='1'><title>t &amp; u</title><p>x<![CDATA[y]]></p>"
      "<figure><image/></figure></section><!-- c --><?pi d?></book>";
  std::vector<std::string> docs = {
      "<book><section><p>&bogus;</p></section></book>",
      "<book><section><title></section></book>",
      "<book><p a='1' a='2'/></book>",
      "<book><p>x</p></book><extra/>",
      "<book><section><image></image>",
      "<book><p>\x01</p></book>",
      "<book><p a='<'/></book>",
  };
  // Every single-byte truncation and one byte replaced at each position.
  for (size_t i = 0; i < base.size(); ++i) {
    docs.push_back(base.substr(0, i));
    std::string mutated = base;
    mutated[i] = "<>&'/x"[i % 6];
    docs.push_back(mutated);
  }
  size_t failures = 0;
  for (const std::string& doc : docs) {
    for (size_t chunk : kChunkings) {
      const ParseOutcome all = Parse(doc, chunk, nullptr);
      const ParseOutcome labels = Parse(doc, chunk, LabelsNoText);
      ASSERT_EQ(labels.status, all.status) << doc << " chunk " << chunk;
      EXPECT_EQ(labels.line, all.line) << doc;
      EXPECT_EQ(labels.column, all.column) << doc;
      EXPECT_EQ(labels.started, all.started) << doc;
      EXPECT_EQ(labels.lines, Keep(all.lines, PassesLabels)) << doc;
      if (all.status != "ok") ++failures;
    }
  }
  EXPECT_GT(failures, docs.size());  // most inputs are malformed
}

// --- TwigM's declaration and the processor's counts -----------------------

std::unique_ptr<core::TwigMachine> BoundMachine(std::string_view query,
                                                core::MatchObserver* sink,
                                                xml::TagInterner* interner) {
  Result<xpath::QueryTree> tree = xpath::QueryTree::Parse(query);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  Result<std::unique_ptr<core::TwigMachine>> machine =
      core::TwigMachine::Create(tree.value(), sink);
  EXPECT_TRUE(machine.ok()) << machine.status().ToString();
  machine.value()->BindInterner(interner);
  return std::move(machine).value();
}

TEST(EventFilterMachineTest, TwigMDeclaresWhatItsTransitionsRead) {
  core::CountingResultSink sink;
  xml::TagInterner interner;
  const xml::SymbolId other = interner.Intern("other");

  auto labels = BoundMachine("//a[b]//c", &sink, &interner);
  const xml::EventFilter* f = labels->event_filter();
  ASSERT_NE(f, nullptr);
  EXPECT_TRUE(f->ReadsElement(interner.Intern("a")));
  EXPECT_TRUE(f->ReadsElement(interner.Find("b")));
  EXPECT_TRUE(f->ReadsElement(interner.Find("c")));
  EXPECT_FALSE(f->ReadsElement(other));
  EXPECT_FALSE(f->ReadsElement(interner.Intern("later")));
  EXPECT_FALSE(f->text);

  auto wildcard = BoundMachine("//a/*[c]", &sink, &interner);
  EXPECT_TRUE(wildcard->event_filter()->ReadsElement(other));
  EXPECT_TRUE(wildcard->event_filter()->ReadsElement(interner.Intern("z")));
  EXPECT_FALSE(wildcard->event_filter()->text);

  auto value = BoundMachine("//a[b=\"x\"]", &sink, &interner);
  EXPECT_TRUE(value->event_filter()->text);
  EXPECT_FALSE(value->event_filter()->ReadsElement(other));
}

TEST(EventFilterMachineTest, EngineEventCountsCoverEveryElement) {
  // //a//c reads <a> and <c> only; the processor still counts all six.
  core::VectorResultSink sink;
  auto proc = core::XPathStreamProcessor::Create("//a//c", &sink);
  ASSERT_TRUE(proc.ok());
  ASSERT_TRUE(
      proc.value()->Consume({"<a><b><x/></b><c/><d>t</d><c/></a>", true}).ok());
  EXPECT_EQ(sink.ids(), (std::vector<xml::NodeId>{4, 6}));
  obs::MetricsRegistry registry;
  proc.value()->ExportMetrics(&registry);
  double starts = -1, ends = -1;
  for (const obs::MetricValue& v : registry.Snapshot()) {
    if (v.name == "engine.start_events") starts = v.value;
    if (v.name == "engine.end_events") ends = v.value;
  }
  EXPECT_EQ(starts, 6);
  EXPECT_EQ(ends, 6);
}

// --- differential rows ---------------------------------------------------

// Hands every event to the sink behind it: with it in front, the parser
// sees no filter, so the machine is handed every event.
class ReadAll : public xml::StreamEventSink {
 public:
  explicit ReadAll(xml::StreamEventSink* sink) : sink_(sink) {}
  void StartElement(const xml::TagToken& tag, int level, xml::NodeId id,
                    const std::vector<xml::Attribute>& attrs) override {
    sink_->StartElement(tag, level, id, attrs);
  }
  void EndElement(const xml::TagToken& tag, int level) override {
    sink_->EndElement(tag, level);
  }
  void Text(std::string_view text, int level) override {
    sink_->Text(text, level);
  }
  void EndDocument() override { sink_->EndDocument(); }

 private:
  xml::StreamEventSink* sink_;
};

// Records (id, byte offset) per result; optionally asks for fragments.
class MatchLog : public core::MatchObserver {
 public:
  explicit MatchLog(bool fragments = false) : fragments_(fragments) {}
  bool wants_fragments() const override { return fragments_; }
  void OnResult(const MatchInfo& match) override {
    matches.emplace_back(match.id, match.byte_offset);
  }
  void OnFragment(xml::NodeId, std::string_view) override { ++fragments; }

  std::vector<std::pair<xml::NodeId, uint64_t>> matches;
  size_t fragments = 0;

 private:
  bool fragments_;
};

const analysis::DtdStructure& BookStructure() {
  static const analysis::DtdStructure* dtds = [] {
    // The corpus stacks books under a <collection> root.
    auto parsed = dtd::ParseDtd(std::string("<!ELEMENT collection (book*)>\n") +
                                data::kBookDtd);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    auto built = analysis::DtdStructure::Build(parsed.value());
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return new analysis::DtdStructure(std::move(built).value());
  }();
  return *dtds;
}

// Feeds `doc` in three pieces.
template <typename Consumer>
void FeedThirds(Consumer* c, std::string_view doc) {
  const size_t third = doc.size() / 3;
  EXPECT_TRUE(c->Consume({doc.substr(0, third), false}).ok());
  EXPECT_TRUE(c->Consume({doc.substr(third, third), false}).ok());
  EXPECT_TRUE(c->Consume({doc.substr(2 * third), true}).ok());
}

struct Dataset {
  const char* name;
  std::string doc;
  const std::vector<data::QuerySpec>* queries;
  bool book_dtd;
};

std::vector<Dataset> Datasets() {
  data::XmarkOptions xmark;
  xmark.people = 20;
  data::ProteinOptions protein;
  protein.entries = 60;
  auto x = data::GenerateXmark(xmark);
  auto p = data::GenerateProtein(protein);
  EXPECT_TRUE(x.ok() && p.ok());
  return {{"Book", SmallBook(), &data::BookQueries(), true},
          {"XMark", x.ok() ? x.value() : "", &data::AuctionQueries(), false},
          {"Protein", p.ok() ? p.value() : "", &data::ProteinQueries(),
           false}};
}

TEST(EventFilterDifferentialTest, EveryDatasetQueryMatchesOracleAndUnfiltered) {
  const EarlyDecisionMode kModes[] = {EarlyDecisionMode::kOff,
                                      EarlyDecisionMode::kObserve,
                                      EarlyDecisionMode::kOn};
  for (const Dataset& ds : Datasets()) {
    ASSERT_FALSE(ds.doc.empty()) << ds.name;
    size_t answered = 0;  // queries with at least one result
    for (const data::QuerySpec& spec : *ds.queries) {
      const std::string label = std::string(ds.name) + " " + spec.name;
      auto tree = xpath::QueryTree::Parse(spec.text);
      ASSERT_TRUE(tree.ok()) << label;
      auto oracle = baselines::EvaluateOnDom(tree.value(), ds.doc);
      ASSERT_TRUE(oracle.ok()) << label;
      std::vector<xml::NodeId> expected = std::move(oracle).value();
      std::sort(expected.begin(), expected.end());
      if (!expected.empty()) ++answered;

      std::vector<std::pair<xml::NodeId, uint64_t>> off_matches;
      for (EarlyDecisionMode mode : kModes) {
        const std::string row =
            label + " mode " + std::to_string(static_cast<int>(mode));
        core::EvaluatorOptions options;
        options.enable_early_decisions = mode;
        std::shared_ptr<const core::DecisionTable> table;

        // The processor: its machine reads only its filter's events.
        MatchLog filtered;
        auto proc =
            core::XPathStreamProcessor::Create(spec.text, &filtered, options);
        ASSERT_TRUE(proc.ok()) << row;
        // Book runs on its DTD's table; the others run the dynamic
        // certainty cascade alone (a null table).
        if (ds.book_dtd && mode != EarlyDecisionMode::kOff) {
          table = std::make_shared<core::DecisionTable>(
              analysis::CompileDecisionTable(proc.value()->machine_graph(),
                                             BookStructure()));
        }
        proc.value()->InstallDecisionTable(table);
        FeedThirds(proc.value().get(), ds.doc);

        // The same machine handed every event.
        MatchLog unfiltered;
        uint64_t offset = 0;
        auto machine = core::CreateMachine(tree.value(), &unfiltered,
                                           options, &offset);
        ASSERT_TRUE(machine.ok()) << row;
        ReadAll all(machine.value().get());
        xml::SaxParser parser(&all);
        parser.set_offset_slot(&offset);
        machine.value()->BindInterner(parser.interner());
        machine.value()->set_decisions(table, mode);
        FeedThirds(&parser, ds.doc);

        EXPECT_EQ(filtered.matches, unfiltered.matches) << row;
        std::vector<xml::NodeId> ids;
        for (const auto& m : filtered.matches) ids.push_back(m.first);
        std::sort(ids.begin(), ids.end());
        EXPECT_EQ(ids, expected) << row;
        if (mode == EarlyDecisionMode::kOff) off_matches = filtered.matches;
      }

      // Fragment mode: the recorder reads every event and forwards them.
      MatchLog fragments(/*fragments=*/true);
      auto proc = core::XPathStreamProcessor::Create(spec.text, &fragments);
      ASSERT_TRUE(proc.ok()) << label;
      FeedThirds(proc.value().get(), ds.doc);
      EXPECT_EQ(fragments.matches, off_matches) << label << " fragments";
      EXPECT_EQ(fragments.fragments, expected.size()) << label;
    }
    // The rows compare something: most queries have results here.
    EXPECT_GE(answered * 10, ds.queries->size() * 7) << ds.name;
  }
}

}  // namespace
}  // namespace twigm
