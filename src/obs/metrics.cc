#include "obs/metrics.h"

namespace twigm::obs {

std::vector<uint64_t> ExponentialBuckets(uint64_t start, uint64_t factor,
                                         size_t count) {
  std::vector<uint64_t> bounds;
  bounds.reserve(count);
  uint64_t b = start;
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(b);
    // Saturate instead of overflowing for absurd (factor, count) pairs.
    if (b > UINT64_MAX / factor) break;
    b *= factor;
  }
  return bounds;
}

Counter* MetricsRegistry::RegisterCounter(std::string_view name) {
  counters_.emplace_back();
  order_.push_back({std::string(name), counters_.size() - 1, Named::kCounter});
  counter_by_name_.emplace(name, &counters_.back());
  return &counters_.back();
}

void MetricsRegistry::SetCounter(std::string_view name, uint64_t value) {
  auto it = counter_by_name_.find(name);
  Counter* c = it != counter_by_name_.end() ? it->second
                                            : RegisterCounter(name);
  c->Set(value);
}

Gauge* MetricsRegistry::RegisterGauge(std::string_view name) {
  gauges_.emplace_back();
  order_.push_back({std::string(name), gauges_.size() - 1, Named::kGauge});
  return &gauges_.back();
}

Histogram* MetricsRegistry::RegisterHistogram(std::string_view name,
                                              std::vector<uint64_t> bounds) {
  histograms_.emplace_back(std::move(bounds));
  order_.push_back(
      {std::string(name), histograms_.size() - 1, Named::kHistogram});
  return &histograms_.back();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot out;
  out.reserve(order_.size() * 2);
  for (const Named& n : order_) {
    switch (n.kind) {
      case Named::kCounter:
        out.push_back({n.name, static_cast<double>(counters_[n.index].value())});
        break;
      case Named::kGauge: {
        const Gauge& g = gauges_[n.index];
        out.push_back({n.name, static_cast<double>(g.value())});
        out.push_back({n.name + ".peak", static_cast<double>(g.peak())});
        break;
      }
      case Named::kHistogram: {
        const Histogram& h = histograms_[n.index];
        out.push_back({n.name + ".count",
                       static_cast<double>(h.total_count())});
        out.push_back({n.name + ".sum", static_cast<double>(h.sum())});
        out.push_back({n.name + ".min", static_cast<double>(h.min())});
        out.push_back({n.name + ".max", static_cast<double>(h.max())});
        for (size_t i = 0; i < h.bounds().size(); ++i) {
          out.push_back({n.name + ".le." + std::to_string(h.bounds()[i]),
                         static_cast<double>(h.counts()[i])});
        }
        out.push_back({n.name + ".le.inf",
                       static_cast<double>(h.counts().back())});
        break;
      }
    }
  }
  return out;
}

void MetricsRegistry::ResetValues() {
  for (Counter& c : counters_) c.Reset();
  for (Gauge& g : gauges_) g.Reset();
  for (Histogram& h : histograms_) h.Reset();
}

}  // namespace twigm::obs
