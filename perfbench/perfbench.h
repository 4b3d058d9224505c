// The repository benchmark: three closed-loop workloads (one client, the
// next document goes in only after the previous one's results are in hand)
// and a per-layer ledger measured from outside the library.
//
//   stream_book    Book documents through one standing XPathStreamProcessor
//                  per Fig. 6 query (xml + core layers).
//   serve_auction  XMark messages through a 2-shard SubscriptionServer with
//                  4096 standing subscriptions (serve + filter layers).
//   index_book     the Book corpus ingested into structural indexes at
//                  set-up, then re-queried (index layer).
//
// Every run does a fixed, seeded list of operations and checks each one
// against a reference count computed before the set-up timer starts.
// perfbench/run.py builds this program and is the command to run.
#ifndef TWIGM_PERFBENCH_PERFBENCH_H_
#define TWIGM_PERFBENCH_PERFBENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "xml/sax_event.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Spans. A span is one call into a layer, recorded from the benchmark's own
// code: name, start, end, the span open around it (its parent) and the
// operation it belongs to. Spans stay in memory and are written at the end.

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the span list; -1 for a root span
  uint64_t op = 0;
};

class Tracer {
 public:
  /// A disabled tracer records nothing; Begin returns -1.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  int Begin(const char* name, uint64_t op);
  void End(int id);

  /// Number of spans recorded so far.
  size_t size() const { return spans_.size(); }
  /// Self time per span name, summed over the spans recorded from index
  /// `first` on: each span's duration minus the time its direct children
  /// cover. No span may be open across `first`.
  std::map<std::string, double> SelfNs(size_t first = 0) const;
  /// Writes one JSON object per span, one per line.
  twigm::Status WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;  // indices of the spans currently open
};

/// RAII span; a null or disabled tracer costs one branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t op)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// Metrics and statistics.

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Ordered list of named metrics, plus the run's correctness flag.
class Report {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// Records a failed check; the run reports correct = false.
  void Fail(const std::string& what);

  const std::vector<Metric>& metrics() const { return metrics_; }
  bool correct() const { return failures_.empty(); }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
};

/// Median of `v` (sorted copy; 0 when empty).
double Median(std::vector<double> v);
/// Smallest element of `v`, which must not be empty.
inline double Min(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}
/// Quantile q in [0, 1] with linear interpolation between order statistics.
double Quantile(std::vector<double> v, double q);

/// Returns freed heap pages to the OS (malloc_trim).
void ReturnFreedPages();
/// ReturnFreedPages, then resets the high-water mark to the current RSS, so
/// a later peak measures only what is allocated afterwards. Returns false
/// when the kernel refuses the reset.
bool ResetPeakMemory();

/// Documents are fed to the system in chunks of this many bytes.
inline constexpr size_t kChunkBytes = 16 * 1024;

/// Splits `doc` into kChunkBytes pieces (views into `doc`).
std::vector<std::string_view> SplitChunks(std::string_view doc);

// ---------------------------------------------------------------------------
// Inputs shared between workloads. Both are deterministic per seed.

/// The Book corpus: `count` Book-DTD documents (NumberLevels = 20,
/// MaxRepeats = 6) of about 265 KB each, made by stacking independent
/// books. A smaller count gives a prefix of a larger one.
twigm::Result<std::vector<std::string>> GenerateBookCorpus(uint64_t seed,
                                                           int count);
/// The auction messages: XMark documents of about 45 KB each.
twigm::Result<std::vector<std::string>> GenerateAuctionMessages(uint64_t seed);
/// Standing subscriptions over the XMark vocabulary: 3-5 steps, 35% '//'
/// after the first step (which is always '//' and a named tag), about 10%
/// with one predicate on the last step. The set is the same for every run
/// seed: the seed varies the message traffic, not the server's standing
/// configuration, whose per-message work otherwise swings by a third
/// between random sets (a few broad subscriptions dominate delivery).
std::vector<std::string> GenerateSubscriptions(size_t count);

/// A modified-SAX sink that ignores every event.
class NullEventSink : public twigm::xml::StreamEventSink {
 public:
  void StartElement(const twigm::xml::TagToken&, int, twigm::xml::NodeId,
                    const std::vector<twigm::xml::Attribute>&) override {}
  void EndElement(const twigm::xml::TagToken&, int) override {}
};

// ---------------------------------------------------------------------------
// xml layer: prefix replays. Deeper and deeper prefixes of the parse stack
// over the same bytes; a layer's self time is the difference between
// consecutive prefixes.

/// Times one document through each prefix. The parser stacks are reused
/// across documents (Reset keeps their buffers warm, as the system's own
/// processors do).
class XmlPrefixTimer {
 public:
  XmlPrefixTimer();
  ~XmlPrefixTimer();

  /// ScanStructural alone; adds the marks found to *marks.
  double ScanNs(std::string_view doc, uint64_t* marks);
  /// SaxParser::Consume, chunked, into an empty handler.
  twigm::Result<double> ParseNs(std::string_view doc);
  /// Parser + EventDriver into a null sink; sets *elements.
  twigm::Result<double> DispatchNs(std::string_view doc, uint64_t* elements);

 private:
  struct Stacks;
  std::unique_ptr<Stacks> stacks_;
};

/// Adds the xml.* metrics for `docs` to `out`.
twigm::Status ReportXmlLayer(const std::vector<std::string_view>& docs,
                             int rounds, Report* out);

// ---------------------------------------------------------------------------
// Workloads.

struct OpOutcome {
  uint64_t bytes = 0;  // document bytes the operation covered
  bool ok = true;      // OK Status and result count equal to the reference
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  /// Generates the inputs from `seed` and computes the reference counts.
  /// Untimed.
  virtual twigm::Status Prepare(uint64_t seed) = 0;
  /// One complete set-up, replacing the previous one.
  virtual twigm::Status SetUp(Tracer* tracer) = 0;
  /// Identical set-ups timed back to back before each round, as one
  /// sample, so that a short set-up still makes a sample of milliseconds.
  virtual int SetUpRepeats() const = 0;
  /// Operations in one pass over every input combination.
  virtual size_t CycleLength() const = 0;
  /// Identical rounds in one run; fixes the run's operation count. More
  /// rounds give each operation's best time more chances to land in a fast
  /// phase of the host.
  virtual size_t Rounds() const = 0;
  /// Runs operation `i` (taken modulo CycleLength()) and checks it against
  /// the reference.
  virtual OpOutcome RunOp(size_t i, Tracer* tracer) = 0;
  /// The documents the operations cover, for the xml layer replays.
  virtual std::vector<std::string_view> Documents() const = 0;
  /// Measures the per-layer metrics of the layers this workload exercises
  /// most (after Prepare and SetUp), recording its spans in `tracer`. Count
  /// mismatches between repeated passes are reported through out->Fail.
  virtual twigm::Status MeasureLayers(Tracer* tracer, Report* out) = 0;
};

std::unique_ptr<Workload> MakeStreamBook();
std::unique_ptr<Workload> MakeServeAuction();
std::unique_ptr<Workload> MakeIndexBook();

}  // namespace perfbench

#endif  // TWIGM_PERFBENCH_PERFBENCH_H_
