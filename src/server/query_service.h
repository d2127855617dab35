// QueryService: the in-process front door of the serving layer.
//
// Wraps any queryable backend behind managed concurrency:
//
//  * a fixed set of worker threads executes queries,
//  * a *bounded* admission queue sits in front of them — when it is full
//    the request is rejected immediately with kOverloaded (load shedding)
//    instead of queuing unboundedly; a shed request costs the caller one
//    mutex acquisition, never a wait,
//  * every request carries a deadline (its own, or the service default).
//    A request whose deadline passes while it still sits in the queue is
//    failed with kDeadlineExceeded without touching the backend; once
//    running, the deadline rides into ExecOptions::deadline_micros so the
//    executor abandons the query mid-flight,
//  * Shutdown() drains: admission stops (kFailedPrecondition), queued and
//    in-flight requests complete normally, then the workers exit. The
//    destructor performs the same drain.
//
// Instrumentation: xseq.serve.requests/ok/errors/shed/deadline_exceeded
// counters, xseq.serve.queue_depth and .inflight gauges (with maxima), and
// xseq.serve.latency_us / queue_us histograms.
//
// Per-request observability: a request is *traced* when the service has a
// tracer (ServiceOptions::exec.tracer) or the request carries a sampled
// TraceContext (RequestOptions::trace, propagated over the wire protocol).
// A traced request records a "serve" root adopting the context's trace id,
// a real "queue" span covering the admission wait, and an "execute" span
// the backend's own spans attach beneath; the finished tree is committed
// to the tracer's ring (when present) and returned via RequestOutcome so
// the server can embed it in the response for client-side stitching. A
// request is *explained* when the caller asks (want_explain) or an access
// log is configured; the QueryExplain lands in RequestOutcome and in the
// log record. The access log (ServiceOptions::request_log) gets one record
// per request on every exit path — shed, deadline, error, cache hit, ok —
// subject to its own tail-sampling policy.

#ifndef XSEQ_SRC_SERVER_QUERY_SERVICE_H_
#define XSEQ_SRC_SERVER_QUERY_SERVICE_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/core/collection_index.h"
#include "src/obs/request_log.h"
#include "src/obs/trace.h"
#include "src/query/executor.h"
#include "src/server/result_cache.h"

namespace xseq {

/// Admission-control and execution knobs.
struct ServiceOptions {
  int workers = 2;           ///< executor threads (>= 1)
  size_t max_queue = 64;     ///< admitted-but-not-running cap; 0 = workers
  /// Deadline budget applied to requests that do not carry one, in
  /// microseconds from admission; 0 = none.
  uint64_t default_deadline_micros = 0;
  ExecOptions exec;          ///< base options every request starts from
  /// Whole-answer cache, consulted *before* admission: a hit skips the
  /// queue and the workers entirely. Requires `generation` (entries are
  /// keyed on it; see src/server/result_cache.h for the invalidation
  /// protocol). Null disables result caching. Not owned.
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

  /// Admits, queues, and executes `xpath`, blocking the caller until the
  /// result is ready. `deadline_budget_micros` (0 = service default)
  /// bounds the total time from admission, queueing included. Returns
  /// kOverloaded when the queue is full and kFailedPrecondition after
  /// Shutdown() began.
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
  /// completed and all workers exited. Idempotent.
  void Shutdown();

  /// Queue + in-flight right now (approximate; for tests and ops).
  size_t pending() const;

  const ServiceOptions& options() const { return options_; }

 private:
  struct Request;

  void WorkerLoop();

  Backend backend_;
  ServiceOptions options_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< workers wait for queue items
  std::deque<std::shared_ptr<Request>> queue_;
  size_t inflight_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace xseq

#endif  // XSEQ_SRC_SERVER_QUERY_SERVICE_H_
