// Low-overhead process metrics: counters, gauges, and power-of-two
// histograms collected in a MetricsRegistry, in the style of the
// LevelDB/RocksDB statistics objects.
//
// Design constraints (see DESIGN.md "Observability"):
//
//  * Hot paths pay a few *relaxed* atomic operations per event and nothing
//    else: no locks, no allocation, no clock reads unless the site needs a
//    latency (and then only when metrics are enabled).
//  * Every instrumentation site is guarded by MetricsEnabled() — a single
//    relaxed atomic load — so the fully disabled cost is one load + one
//    predictable branch per site.
//  * Metric objects are registered once (under a mutex) and the returned
//    pointers are stable for the registry's lifetime, so call sites cache
//    them in function-local statics and never touch the map again.
//
// Histograms use fixed power-of-two buckets: bucket 0 holds the value 0,
// bucket b >= 1 holds [2^(b-1), 2^b - 1]. Percentiles interpolate linearly
// inside the winning bucket, which makes them deterministic functions of
// the recorded multiset (tested exactly in tests/obs_test.cc). The minimum
// and maximum are tracked exactly, and every percentile is clamped to
// [min, max], so no quantile reports a value outside the recorded range.

#ifndef XSEQ_SRC_OBS_METRICS_H_
#define XSEQ_SRC_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace xseq {
namespace obs {

/// Global metrics switch. Relaxed load; sites check it before recording so
/// the disabled path costs one load + branch. Defaults to enabled.
inline std::atomic<bool>& MetricsEnabledFlag() {
  static std::atomic<bool> enabled{true};
  return enabled;
}

inline bool MetricsEnabled() {
  return MetricsEnabledFlag().load(std::memory_order_relaxed);
}

inline void SetMetricsEnabled(bool enabled) {
  MetricsEnabledFlag().store(enabled, std::memory_order_relaxed);
}

/// RAII toggle for tests and benchmarks; restores the previous state.
class ScopedMetricsEnabled {
 public:
  explicit ScopedMetricsEnabled(bool enabled) : prev_(MetricsEnabled()) {
    SetMetricsEnabled(enabled);
  }
  ~ScopedMetricsEnabled() { SetMetricsEnabled(prev_); }
  ScopedMetricsEnabled(const ScopedMetricsEnabled&) = delete;
  ScopedMetricsEnabled& operator=(const ScopedMetricsEnabled&) = delete;

 private:
  const bool prev_;
};

/// Monotone event counter.
class Counter {
 public:
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Instantaneous signed level (queue depth, buffered documents). Tracks the
/// maximum level ever Set/added so short-lived spikes remain observable.
class Gauge {
 public:
  void Set(int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    UpdateMax(v);
  }
  void Add(int64_t d) {
    int64_t now = value_.fetch_add(d, std::memory_order_relaxed) + d;
    UpdateMax(now);
  }
  void Sub(int64_t d) { value_.fetch_sub(d, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  int64_t max() const { return max_.load(std::memory_order_relaxed); }
  void Reset() {
    value_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  void UpdateMax(int64_t v) {
    int64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> max_{0};
};

/// Fixed-bucket power-of-two histogram (see file comment for the bucket
/// scheme). Record() is wait-free: three relaxed fetch_adds plus relaxed
/// CAS loops for the exact minimum and maximum.
class Histogram {
 public:
  /// Bucket 0 = {0}; bucket b in [1, 63] = [2^(b-1), 2^b - 1]; values with
  /// the top bit set land in the last bucket.
  static constexpr int kBuckets = 64;

  void Record(uint64_t value) {
    buckets_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t cur = max_.load(std::memory_order_relaxed);
    while (value > cur && !max_.compare_exchange_weak(
                              cur, value, std::memory_order_relaxed)) {
    }
    cur = min_.load(std::memory_order_relaxed);
    while (value < cur && !min_.compare_exchange_weak(
                              cur, value, std::memory_order_relaxed)) {
    }
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  /// Smallest recorded value; 0 when empty.
  uint64_t min() const {
    const uint64_t m = min_.load(std::memory_order_relaxed);
    return m == kNoMin ? 0 : m;
  }
  double average() const {
    uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
  }

  /// The estimated value at percentile `p` in [0, 100]: the rank-ceil(p% of
  /// count) recorded value, linearly interpolated across its bucket. Exact
  /// bucket-boundary semantics: a bucket of n entries is modeled as n values
  /// evenly spaced over [lo, hi]; the estimate is then clamped to
  /// [min(), max()]. 0 when the histogram is empty.
  double Percentile(double p) const;

  /// Per-bucket counts (index -> count), for inspection and serialization.
  uint64_t bucket(int b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  /// Inclusive value range [lo, hi] of bucket `b`.
  static std::pair<uint64_t, uint64_t> BucketBounds(int b);

  void Reset();

  static int BucketOf(uint64_t value) {
    if (value == 0) return 0;
    int b = std::bit_width(value);  // floor(log2(v)) + 1, in [1, 64]
    return b >= kBuckets ? kBuckets - 1 : b;
  }

 private:
  /// min_ before anything is recorded (and after Reset).
  static constexpr uint64_t kNoMin = ~uint64_t{0};

  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
  std::atomic<uint64_t> min_{kNoMin};
};

/// A consistent-enough view of one registry (values read relaxed, so a
/// snapshot taken during writes may mix per-metric values; totals of any
/// single metric are exact once its writers are quiescent).
struct MetricsSnapshot {
  struct HistogramView {
    std::string name;
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t max = 0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
  };
  std::vector<std::pair<std::string, uint64_t>> counters;  ///< sorted by name
  std::vector<std::pair<std::string, int64_t>> gauges;     ///< current value
  std::vector<std::pair<std::string, int64_t>> gauge_maxes;
  std::vector<HistogramView> histograms;
};

/// Named metrics, created on first use. Get* never fails and the returned
/// pointer is valid for the registry's lifetime; the process-wide registry
/// (Default()) is never destroyed.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every built-in instrumentation point uses.
  static MetricsRegistry* Default();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  MetricsSnapshot Snapshot() const;

  /// Human-readable dump, one metric per line, sorted by name.
  std::string TextDump() const;

  /// One JSON object: {"counters":{...},"gauges":{...},"gauge_maxes":{...},
  /// "histograms":{name:{"count":..,"sum":..,"avg":..,"p50":..,"p90":..,
  /// "p99":..,"max":..},...}}.
  std::string JsonDump() const;

  /// Zeroes every registered metric (tests and benchmarks; pointers stay
  /// valid).
  void ResetAll();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace obs
}  // namespace xseq

#endif  // XSEQ_SRC_OBS_METRICS_H_
