#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace xseq {
namespace obs {

std::pair<uint64_t, uint64_t> Histogram::BucketBounds(int b) {
  if (b <= 0) return {0, 0};
  uint64_t lo = uint64_t{1} << (b - 1);
  uint64_t hi = b >= 64 ? ~uint64_t{0}
                        : (uint64_t{1} << b) - 1;
  if (b == kBuckets - 1) hi = ~uint64_t{0};  // top bucket absorbs the rest
  return {lo, hi};
}

double Histogram::Percentile(double p) const {
  const uint64_t n = count();
  if (n == 0) return 0.0;
  p = std::min(100.0, std::max(0.0, p));
  // The rank (1-based) of the requested order statistic.
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  double estimate = static_cast<double>(max());  // unless a bucket wins
  uint64_t cum = 0;
  for (int b = 0; b < kBuckets; ++b) {
    uint64_t c = bucket(b);
    if (c == 0) continue;
    if (cum + c >= rank) {
      auto [lo, hi] = BucketBounds(b);
      // Model the bucket's c entries as evenly spaced over [lo, hi]: the
      // k-th entry (1-based) sits at lo + (hi - lo) * k / c. Deterministic
      // and exact for single-bucket distributions (tested).
      uint64_t k = rank - cum;
      double span = static_cast<double>(hi - lo);
      estimate = static_cast<double>(lo) +
                 span * static_cast<double>(k) / static_cast<double>(c);
      break;
    }
    cum += c;
  }
  // The model places a bucket's last entry at the bucket's top, which can
  // lie past every recorded value (one sample of 18945 would read 32767).
  // std::min/max rather than std::clamp: under concurrent writes the two
  // bounds may be read out of order.
  return std::min(std::max(estimate, static_cast<double>(min())),
                  static_cast<double>(max()));
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  min_.store(kNoMin, std::memory_order_relaxed);
}

MetricsRegistry* MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry;  // leaked singleton
  return registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->value());
    snap.gauge_maxes.emplace_back(name, g->max());
  }
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramView v;
    v.name = name;
    v.count = h->count();
    v.sum = h->sum();
    v.max = h->max();
    v.p50 = h->Percentile(50);
    v.p90 = h->Percentile(90);
    v.p99 = h->Percentile(99);
    snap.histograms.push_back(std::move(v));
  }
  return snap;
}

std::string MetricsRegistry::TextDump() const {
  MetricsSnapshot snap = Snapshot();
  std::string out;
  char buf[256];
  for (const auto& [name, v] : snap.counters) {
    std::snprintf(buf, sizeof(buf), "%-40s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(v));
    out += buf;
  }
  for (size_t i = 0; i < snap.gauges.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%-40s %lld (max %lld)\n",
                  snap.gauges[i].first.c_str(),
                  static_cast<long long>(snap.gauges[i].second),
                  static_cast<long long>(snap.gauge_maxes[i].second));
    out += buf;
  }
  for (const auto& h : snap.histograms) {
    std::snprintf(buf, sizeof(buf),
                  "%-40s count=%llu sum=%llu p50=%.1f p90=%.1f p99=%.1f "
                  "max=%llu\n",
                  h.name.c_str(), static_cast<unsigned long long>(h.count),
                  static_cast<unsigned long long>(h.sum), h.p50, h.p90, h.p99,
                  static_cast<unsigned long long>(h.max));
    out += buf;
  }
  return out;
}

namespace {

void AppendJsonKey(std::string* out, const std::string& name) {
  out->push_back('"');
  // Metric names are plain identifiers; escape the two characters that
  // could break the framing anyway.
  for (char c : name) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->append("\":");
}

}  // namespace

std::string MetricsRegistry::JsonDump() const {
  MetricsSnapshot snap = Snapshot();
  std::string out = "{\"counters\":{";
  char buf[192];
  for (size_t i = 0; i < snap.counters.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendJsonKey(&out, snap.counters[i].first);
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(snap.counters[i].second));
    out += buf;
  }
  out += "},\"gauges\":{";
  for (size_t i = 0; i < snap.gauges.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendJsonKey(&out, snap.gauges[i].first);
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(snap.gauges[i].second));
    out += buf;
  }
  out += "},\"gauge_maxes\":{";
  for (size_t i = 0; i < snap.gauge_maxes.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendJsonKey(&out, snap.gauge_maxes[i].first);
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(snap.gauge_maxes[i].second));
    out += buf;
  }
  out += "},\"histograms\":{";
  for (size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& h = snap.histograms[i];
    if (i > 0) out.push_back(',');
    AppendJsonKey(&out, h.name);
    std::snprintf(buf, sizeof(buf),
                  "{\"count\":%llu,\"sum\":%llu,\"p50\":%.3f,\"p90\":%.3f,"
                  "\"p99\":%.3f,\"max\":%llu}",
                  static_cast<unsigned long long>(h.count),
                  static_cast<unsigned long long>(h.sum), h.p50, h.p90, h.p99,
                  static_cast<unsigned long long>(h.max));
    out += buf;
  }
  out += "}}";
  return out;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

}  // namespace obs
}  // namespace xseq
