// Exact order statistics for the serving benchmark.
//
// Percentiles are nearest-rank order statistics over the full sample: the
// q-quantile of n sorted values is the value at 1-based rank ceil(q * n).
// Every reported percentile is therefore a sample that was actually
// observed, so it can never exceed the maximum or fall below the minimum,
// and one sample reports exactly itself. No bucketing, no interpolation.

#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of quantile `q` (0 < q <= 1) among `n` samples.
inline size_t NearestRank(size_t n, double q) {
  if (n == 0) return 0;
  double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  if (r < 1.0) r = 1.0;
  if (r > static_cast<double>(n)) r = static_cast<double>(n);
  return static_cast<size_t>(r);
}

/// The q-quantile of `sorted` (ascending); 0 for an empty sample.
inline double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return sorted[NearestRank(sorted.size(), q) - 1];
}

/// One latency (or any other) distribution, summarized.
struct Summary {
  size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  /// Samples strictly above the p99 rank: how much evidence the p99 rests
  /// on (the p99 of fewer than ~1000 samples has under ten beyond it).
  size_t beyond_p99 = 0;
};

inline Summary Summarize(std::vector<double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.min = values.front();
  s.max = values.back();
  double sum = 0.0;
  for (double v : values) sum += v;
  s.mean = sum / static_cast<double>(values.size());
  s.p50 = SortedQuantile(values, 0.50);
  s.p99 = SortedQuantile(values, 0.99);
  s.beyond_p99 = values.size() - NearestRank(values.size(), 0.99);
  return s;
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
