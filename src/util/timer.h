// Lightweight wall-clock and thread-CPU timing for benchmarks and query
// statistics.

#ifndef XSEQ_SRC_UTIL_TIMER_H_
#define XSEQ_SRC_UTIL_TIMER_H_

#include <time.h>

#include <chrono>
#include <cstdint>

namespace xseq {

/// Monotonic wall-clock stopwatch. Started at construction.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed time since construction / last Reset, in microseconds.
  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now() - start_)
        .count();
  }

  /// Elapsed time in milliseconds (fractional).
  double ElapsedMillis() const {
    return static_cast<double>(ElapsedMicros()) / 1000.0;
  }

  /// Elapsed time in seconds (fractional).
  double ElapsedSeconds() const {
    return static_cast<double>(ElapsedMicros()) / 1e6;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// CPU time consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID).
/// Unlike Timer it does not advance while the thread is descheduled.
/// Started at construction; read it on the thread that started it.
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() : start_(Now()) {}

  /// Thread CPU time since construction, in milliseconds (fractional).
  double ElapsedMillis() const {
    return static_cast<double>(Now() - start_) / 1e6;
  }

 private:
  static int64_t Now() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
  }

  const int64_t start_;  // nanoseconds
};

}  // namespace xseq

#endif  // XSEQ_SRC_UTIL_TIMER_H_
