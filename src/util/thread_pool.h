// Shared execution layer: a fixed-width, lazily-started thread pool. It
// fans out independent units only: shards in ShardedCollection::Seal() and
// Load(), queries in CollectionIndex::QueryBatch. A single build or query
// runs start to finish on the thread that calls it.
//
// Width resolution (ResolveThreadCount): an explicit count > 0 wins; 0
// consults the XSEQ_THREADS environment variable, then
// std::thread::hardware_concurrency(). Width 1 never spawns a thread —
// ParallelFor() runs inline on the caller, which is the bit-exact serial
// path the rest of the system is specified against.
//
// ParallelFor uses a shared atomic cursor (dynamic scheduling) and the
// caller always participates, so the calling thread alone can drain its own
// loop even when every worker is busy. That makes nested ParallelFor calls
// and ParallelFor-from-a-worker deadlock-free by construction: waiting is
// only ever for iterations that are actively executing on some thread.
//
// DefaultPool() is the process-wide pool for callers that pass `threads=0`;
// its width is resolved once, on first use. PoolFor() maps any `threads`
// knob to a pool by that one rule.

#ifndef XSEQ_SRC_UTIL_THREAD_POOL_H_
#define XSEQ_SRC_UTIL_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/timer.h"

namespace xseq {

namespace internal {

/// Registry handles for the pool metrics (shared by every ThreadPool in the
/// process, the DefaultPool included), resolved once.
struct PoolMetricSet {
  obs::Counter* tasks;
  obs::Histogram* task_us;
  obs::Gauge* queue_depth;
};

inline const PoolMetricSet& PoolMetrics() {
  static const PoolMetricSet s = [] {
    obs::MetricsRegistry* r = obs::MetricsRegistry::Default();
    return PoolMetricSet{r->GetCounter("xseq.pool.tasks"),
                         r->GetHistogram("xseq.pool.task_us"),
                         r->GetGauge("xseq.pool.queue_depth")};
  }();
  return s;
}

}  // namespace internal

/// Resolves a requested thread count to an effective pool width (>= 1):
/// `requested > 0` is taken as-is; 0 means "auto" — the XSEQ_THREADS
/// environment variable if set and positive, else hardware concurrency.
inline int ResolveThreadCount(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("XSEQ_THREADS")) {
    int v = std::atoi(env);
    if (v > 0) return v;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Fixed-width thread pool. Width 1 degrades to inline serial execution.
class ThreadPool {
 public:
  explicit ThreadPool(int threads = 0) : width_(ResolveThreadCount(threads)) {}

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  /// Effective width (>= 1). A width-1 pool is the serial path.
  int width() const { return width_; }

  /// Runs fn(i) for every i in [0, n), distributing iterations over the
  /// pool. The caller participates and the call returns only after every
  /// iteration has finished. Iterations must not touch shared mutable state
  /// without their own synchronization; writes to distinct slots of a
  /// pre-sized array are the intended merge pattern.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
    if (n == 0) return;
    if (width_ <= 1 || n == 1) {
      for (size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    struct State {
      std::atomic<size_t> next{0};
      std::atomic<size_t> done{0};
      size_t n = 0;
      std::mutex mu;
      std::condition_variable cv;
    };
    auto st = std::make_shared<State>();
    st->n = n;
    // Helpers hold the state alive; `fn` is only dereferenced after winning
    // an iteration, so a straggler task that runs after this call returned
    // exits without touching it.
    auto run = [st, &fn]() {
      size_t i;
      while ((i = st->next.fetch_add(1)) < st->n) {
        fn(i);
        if (st->done.fetch_add(1) + 1 == st->n) {
          std::lock_guard<std::mutex> lock(st->mu);
          st->cv.notify_all();
        }
      }
    };
    size_t helpers = std::min<size_t>(static_cast<size_t>(width_) - 1, n - 1);
    {
      std::lock_guard<std::mutex> lock(mu_);
      EnsureStartedLocked();
      for (size_t h = 0; h < helpers; ++h) queue_.push_back(run);
      if (obs::MetricsEnabled()) {
        internal::PoolMetrics().queue_depth->Set(queue_.size());
      }
    }
    cv_.notify_all();
    run();
    std::unique_lock<std::mutex> lock(st->mu);
    st->cv.wait(lock, [&] { return st->done.load() == st->n; });
  }

 private:
  void EnsureStartedLocked() {
    if (!workers_.empty()) return;
    int spawn = width_ - 1;
    workers_.reserve(static_cast<size_t>(spawn));
    for (int i = 0; i < spawn; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  void WorkerLoop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stop_ set and nothing left to drain
        task = std::move(queue_.front());
        queue_.pop_front();
        if (obs::MetricsEnabled()) {
          internal::PoolMetrics().queue_depth->Set(queue_.size());
        }
      }
      if (obs::MetricsEnabled()) {
        Timer t;
        task();
        const internal::PoolMetricSet& m = internal::PoolMetrics();
        m.tasks->Increment();
        m.task_us->Record(static_cast<uint64_t>(t.ElapsedMicros()));
      } else {
        task();
      }
    }
  }

  const int width_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

/// The process-wide pool used when a caller passes `threads = 0`. Width is
/// ResolveThreadCount(0); workers start on first parallel use.
inline ThreadPool* DefaultPool() {
  static ThreadPool pool(0);
  return &pool;
}

/// The pool a `threads` knob names: 0 (or less) = DefaultPool(); n >= 1 = a
/// pool of width n, created in `*owned` on first call and reused after, so
/// 1 is a width-1 pool whose ParallelFor runs inline on the caller.
inline ThreadPool* PoolFor(int threads, std::unique_ptr<ThreadPool>* owned) {
  if (threads <= 0) return DefaultPool();
  if (*owned == nullptr) *owned = std::make_unique<ThreadPool>(threads);
  return owned->get();
}

}  // namespace xseq

#endif  // XSEQ_SRC_UTIL_THREAD_POOL_H_
