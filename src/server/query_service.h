// QueryService: the in-process front door of the serving layer.
//
// Wraps any queryable backend behind managed concurrency. A query runs on
// the thread that calls Execute(); the service adds no threads of its own.
//
//  * `workers` execution slots bound how many calls are inside the backend
//    at once. A caller that finds every slot busy waits for one, and at
//    most `max_queue` callers wait: past that the request is rejected
//    immediately with kOverloaded (load shedding) instead of queuing
//    unboundedly. A shed request costs the caller one mutex acquisition,
//    never a wait. A finished request frees its slot and wakes one
//    waiter; whoever reaches the lock first takes the slot,
//  * every request carries a deadline (its own, or the service default).
//    A request whose deadline passes while it waits for a slot is failed
//    with kDeadlineExceeded without touching the backend; once running,
//    the deadline rides into ExecOptions::deadline_micros so the executor
//    abandons the query mid-flight,
//  * Shutdown() drains: admission stops (kFailedPrecondition), waiting and
//    running requests complete normally, and it returns once none is
//    left. The destructor performs the same drain.
//
// Instrumentation: xseq.serve.requests/ok/errors/shed/deadline_exceeded
// counters, xseq.serve.queue_depth (callers waiting for a slot) and
// .inflight (requests holding one) gauges with maxima, and
// xseq.serve.latency_us / queue_us (the slot wait) histograms.
//
// Per-request observability: a request is *traced* when the service has a
// tracer (ServiceOptions::exec.tracer) or the request carries a sampled
// TraceContext (RequestOptions::trace, propagated over the wire protocol).
// A traced request records a "serve" root adopting the context's trace id.
// A result-cache hit hangs a "result_cache_hit" span under it; a miss
// records a "queue" span covering the slot wait and an "execute" span the
// backend's own spans attach beneath. The finished tree is committed to
// the tracer's ring (when present) and returned via RequestOutcome so the
// server can embed it in the response for client-side stitching. A
// request is *explained* when the caller asks (want_explain) or an access
// log is configured; the QueryExplain lands in RequestOutcome and in the
// log record. The access log (ServiceOptions::request_log) gets one record
// per request on every exit path — shed, deadline, error, cache hit, ok —
// subject to its own tail-sampling policy.

#ifndef XSEQ_SRC_SERVER_QUERY_SERVICE_H_
#define XSEQ_SRC_SERVER_QUERY_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string_view>

#include "src/core/collection_index.h"
#include "src/obs/request_log.h"
#include "src/obs/trace.h"
#include "src/query/executor.h"
#include "src/server/result_cache.h"

namespace xseq {

/// Admission-control and execution knobs.
struct ServiceOptions {
  /// Execution slots: requests inside the backend at once (>= 1).
  int workers = 2;
  /// Callers that may wait for a slot; one more is shed. 0 = workers.
  size_t max_queue = 64;
  /// Deadline budget applied to requests that do not carry one, in
  /// microseconds from admission; 0 = none.
  uint64_t default_deadline_micros = 0;
  ExecOptions exec;          ///< base options every request starts from
  /// Whole-answer cache, consulted *before* admission: a hit takes no
  /// slot and never waits. Requires `generation` (entries are keyed on
  /// it; see src/server/result_cache.h for the invalidation protocol).
  /// Null disables result caching. Not owned.
  ResultCache* result_cache = nullptr;
  /// Current collection generation (DynamicIndex::generation,
  /// ShardedCollection::generation, or a constant for frozen backends).
  /// Must be monotone and bump with every result-affecting mutation.
  std::function<uint64_t()> generation;
  /// Structured access log (see src/obs/request_log.h); null = no logging.
  /// Not owned; must outlive the service. Appends never fail a request.
  obs::RequestLog* request_log = nullptr;
};

/// Per-request options beyond the query text and deadline.
struct RequestOptions {
  /// Deadline budget in microseconds from admission; 0 = service default.
  uint64_t deadline_budget_micros = 0;
  /// Distributed trace context propagated from the wire (invalid = none).
  /// A *sampled* context forces tracing even without a service tracer.
  obs::TraceContext trace;
  /// Fill RequestOutcome::explain with the planner/executor account.
  bool want_explain = false;
  /// Wire request id, recorded in trace annotations and the access log.
  uint64_t request_id = 0;
};

/// Observability results of one request, for callers that asked.
struct RequestOutcome {
  bool traced = false;   ///< `trace` holds this request's span tree
  obs::Trace trace;
  bool explained = false;  ///< `explain` was filled
  QueryExplain explain;
};

/// An in-process query server over an arbitrary backend.
class QueryService {
 public:
  /// The backend contract: run one XPath query under the given options.
  /// Must be safe for concurrent calls (CollectionIndex, DynamicIndex and
  /// ShardedCollection all are).
  using Backend =
      std::function<StatusOr<QueryResult>(std::string_view, const ExecOptions&)>;

  QueryService(Backend backend, ServiceOptions options);
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Admits `xpath` and runs it on the calling thread, first waiting for
  /// a slot if all are busy. `deadline_budget_micros` (0 = service
  /// default) bounds the total time from admission, the wait included.
  /// Returns kOverloaded when every slot is busy and `max_queue` callers
  /// already wait, and kFailedPrecondition after Shutdown() began.
  StatusOr<QueryResult> Execute(std::string_view xpath,
                                uint64_t deadline_budget_micros = 0) {
    RequestOptions ropts;
    ropts.deadline_budget_micros = deadline_budget_micros;
    return Execute(xpath, ropts, nullptr);
  }

  /// Full-control variant: carries the distributed trace context and the
  /// explain flag in, and (when `outcome` is non-null) the captured trace
  /// and explain record out.
  StatusOr<QueryResult> Execute(std::string_view xpath,
                                const RequestOptions& ropts,
                                RequestOutcome* outcome);

  /// Stops admission and waits until every already-admitted request has
  /// completed. Idempotent.
  void Shutdown();

  /// Requests waiting for a slot + holding one right now (approximate; for
  /// tests and ops).
  size_t pending() const;

  const ServiceOptions& options() const { return options_; }

 private:
  /// Takes a slot for the calling thread, waiting while all are busy. On
  /// OK the caller holds the slot until ReleaseSlot().
  Status AcquireSlot();
  void ReleaseSlot();

  /// The deadline check and the backend call of a request holding a slot.
  StatusOr<QueryResult> RunBackend(std::string_view xpath,
                                   int64_t deadline_micros,
                                   obs::TraceBuilder* trace, uint32_t root,
                                   QueryExplain* explain) const;

  Backend backend_;
  ServiceOptions options_;

  mutable std::mutex mu_;
  std::condition_variable slot_cv_;  ///< a slot was freed
  std::condition_variable idle_cv_;  ///< Shutdown(): nothing runs or waits
  size_t waiting_ = 0;  ///< callers waiting for a slot
  size_t running_ = 0;  ///< slots held
  bool shutdown_ = false;
  /// ReleaseSlot() calls that woke a waiter and have not finished notifying.
  std::atomic<size_t> notifying_{0};
};

}  // namespace xseq

#endif  // XSEQ_SRC_SERVER_QUERY_SERVICE_H_
