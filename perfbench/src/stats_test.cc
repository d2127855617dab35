// Tests for the benchmark's order statistics (src/stats.h). Built next to
// the benchmark and run by run.py before every measurement; exits nonzero
// on the first failed check.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "stats_test: FAILED: %s\n", what);
    ++g_failures;
  }
}

void OneSampleReportsItself() {
  perfbench::Summary s = perfbench::Summarize({18945.0});
  Check(s.count == 1, "one sample: count is 1");
  Check(s.p50 == 18945.0, "one sample: p50 is the sample");
  Check(s.p99 == 18945.0, "one sample: p99 is the sample");
  Check(s.min == 18945.0 && s.max == 18945.0, "one sample: min == max");
  Check(s.beyond_p99 == 0, "one sample: nothing beyond p99");
}

void P99NeverExceedsMax() {
  // A heavy tail that would overshoot in power-of-two buckets.
  std::vector<double> v;
  for (int i = 0; i < 500; ++i) v.push_back(100.0 + i);
  v.push_back(9722.0);
  perfbench::Summary s = perfbench::Summarize(v);
  Check(s.p99 <= s.max, "p99 <= max");
  Check(s.p50 >= s.min, "p50 >= min");
  for (int n = 1; n <= 300; ++n) {
    std::vector<double> w;
    for (int i = 0; i < n; ++i) w.push_back(static_cast<double>((i * 7919) % 1013));
    perfbench::Summary t = perfbench::Summarize(w);
    if (t.p99 > t.max || t.p50 < t.min || t.p99 < t.p50) {
      Check(false, "quantiles stay within [min, max] and ordered");
      return;
    }
  }
}

void KnownMedians() {
  Check(perfbench::Summarize({5.0, 1.0, 3.0}).p50 == 3.0, "median of {5,1,3} is 3");
  Check(perfbench::Summarize({4.0, 1.0, 3.0, 2.0}).p50 == 2.0,
        "nearest-rank median of {1,2,3,4} is 2");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  perfbench::Summary s = perfbench::Summarize(hundred);
  Check(s.p50 == 50.0, "median of 1..100 is 50");
  Check(s.p99 == 99.0, "p99 of 1..100 is 99");
  Check(s.mean == 50.5, "mean of 1..100 is 50.5");
  Check(perfbench::Summarize({}).count == 0, "empty sample has count 0");
}

void P99ReportsItsSampleCount() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  perfbench::Summary s = perfbench::Summarize(v);
  Check(s.count == 1000, "p99 carries its sample count");
  Check(s.p99 == 990.0, "p99 of 1..1000 is 990");
  Check(s.beyond_p99 == 10, "ten samples lie beyond the p99 of 1000");
  perfbench::Summary small = perfbench::Summarize({1.0, 2.0, 3.0});
  Check(small.beyond_p99 == 0, "p99 of 3 samples rests on none beyond it");
}

}  // namespace

int main() {
  OneSampleReportsItself();
  P99NeverExceedsMax();
  KnownMedians();
  P99ReportsItsSampleCount();
  if (g_failures != 0) return 1;
  std::printf("stats_test: all checks passed\n");
  return 0;
}
