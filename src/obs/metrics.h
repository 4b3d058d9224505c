// Metrics primitives for engine observability: counters, gauges and
// fixed-bucket histograms behind a `MetricsRegistry`.
//
// Design constraints (the hot path is a per-SAX-event loop):
//   * registration (naming, bucket layout) happens at setup time and may
//     allocate; Inc/Set/Observe never allocate and are header-inline;
//   * handles returned by Register* are stable for the registry's lifetime
//     (instruments live in a deque), so the hot path caches raw pointers;
//     setup-time exporters (ExportMetrics) write by name through
//     SetCounter instead, so no handle can outlive its registry;
//   * a snapshot is an ordered name -> value list, cheap to diff — the
//     Reset()-reuse tests compare snapshot deltas, and benches inline them
//     into `--json` records.

#ifndef TWIGM_OBS_METRICS_H_
#define TWIGM_OBS_METRICS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace twigm::obs {

/// Monotonically increasing count.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_ += n; }
  void Set(uint64_t v) { value_ = v; }
  uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  uint64_t value_ = 0;
};

/// Instantaneous value with a high-water mark.
class Gauge {
 public:
  void Set(int64_t v) {
    value_ = v;
    if (v > peak_) peak_ = v;
  }
  void Add(int64_t d) { Set(value_ + d); }
  int64_t value() const { return value_; }
  int64_t peak() const { return peak_; }
  void Reset() {
    value_ = 0;
    peak_ = 0;
  }

 private:
  int64_t value_ = 0;
  int64_t peak_ = 0;
};

/// Fixed-bucket histogram. Bucket i counts observations x with
/// x <= bounds[i] (cumulative-style upper bounds); observations larger than
/// every bound land in the implicit overflow bucket. Bounds are fixed at
/// registration, so Observe is a branch-free-ish linear scan over a small
/// array — no allocation, no locks.
class Histogram {
 public:
  /// `bounds` must be strictly increasing and non-empty.
  explicit Histogram(std::vector<uint64_t> bounds)
      : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {}

  void Observe(uint64_t x) {
    size_t i = 0;
    while (i < bounds_.size() && x > bounds_[i]) ++i;
    ++counts_[i];
    ++total_count_;
    sum_ += x;
    if (x > max_) max_ = x;
    if (total_count_ == 1 || x < min_) min_ = x;
  }

  const std::vector<uint64_t>& bounds() const { return bounds_; }
  /// counts()[bounds().size()] is the overflow bucket.
  const std::vector<uint64_t>& counts() const { return counts_; }
  uint64_t total_count() const { return total_count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return total_count_ ? min_ : 0; }
  uint64_t max() const { return max_; }
  double mean() const {
    return total_count_ ? static_cast<double>(sum_) / total_count_ : 0.0;
  }

  void Reset() {
    for (uint64_t& c : counts_) c = 0;
    total_count_ = 0;
    sum_ = 0;
    min_ = 0;
    max_ = 0;
  }

 private:
  std::vector<uint64_t> bounds_;
  std::vector<uint64_t> counts_;
  uint64_t total_count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

/// `count` upper bounds starting at `start`, each `factor` times the
/// previous (factor >= 2): the standard layout for latency-ish quantities.
std::vector<uint64_t> ExponentialBuckets(uint64_t start, uint64_t factor,
                                         size_t count);

/// One snapshot entry; histograms expand into several entries
/// (name.count/.sum/.min/.max plus name.le.<bound> per bucket).
struct MetricValue {
  std::string name;
  double value = 0;
};

using MetricsSnapshot = std::vector<MetricValue>;

/// Owns instruments; names are not required to be unique (a second
/// registration with the same name is a distinct instrument — callers that
/// re-export per-document use SetCounter, which reuses the first counter of
/// that name).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* RegisterCounter(std::string_view name);
  Gauge* RegisterGauge(std::string_view name);
  Histogram* RegisterHistogram(std::string_view name,
                               std::vector<uint64_t> bounds);

  /// Sets the counter called `name` to `value`, registering it on first
  /// use. Repeated calls refresh the same counter.
  void SetCounter(std::string_view name, uint64_t value);

  /// Flattens every instrument into (name, value) pairs, in registration
  /// order. Gauges contribute name and name.peak.
  MetricsSnapshot Snapshot() const;

  /// Resets every instrument's value (registrations are kept).
  void ResetValues();

  size_t instrument_count() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

 private:
  struct Named {
    std::string name;
    size_t index;  // into the matching deque
    enum Kind { kCounter, kGauge, kHistogram } kind;
  };

  std::vector<Named> order_;
  std::map<std::string, Counter*, std::less<>> counter_by_name_;  // first wins
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
};

}  // namespace twigm::obs

#endif  // TWIGM_OBS_METRICS_H_
