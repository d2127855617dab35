#include "src/server/query_service.h"

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/timer.h"

namespace xseq {

namespace {

/// Wall-clock unix micros for access-log timestamps (the rest of the
/// service keeps using the steady clock for measurement).
uint64_t WallNowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// Registry handles for the serving metrics, resolved once.
struct ServeMetricSet {
  obs::Counter* requests;
  obs::Counter* ok;
  obs::Counter* errors;
  obs::Counter* shed;
  obs::Counter* deadline_exceeded;
  obs::Gauge* queue_depth;
  obs::Gauge* inflight;
  obs::Histogram* latency_us;
  obs::Histogram* queue_us;
};

const ServeMetricSet& ServeMetrics() {
  static const ServeMetricSet s = [] {
    obs::MetricsRegistry* r = obs::MetricsRegistry::Default();
    return ServeMetricSet{r->GetCounter("xseq.serve.requests"),
                          r->GetCounter("xseq.serve.ok"),
                          r->GetCounter("xseq.serve.errors"),
                          r->GetCounter("xseq.serve.shed"),
                          r->GetCounter("xseq.serve.deadline_exceeded"),
                          r->GetGauge("xseq.serve.queue_depth"),
                          r->GetGauge("xseq.serve.inflight"),
                          r->GetHistogram("xseq.serve.latency_us"),
                          r->GetHistogram("xseq.serve.queue_us")};
  }();
  return s;
}

}  // namespace

QueryService::QueryService(Backend backend, ServiceOptions options)
    : backend_(std::move(backend)), options_(std::move(options)) {
  if (options_.workers < 1) options_.workers = 1;
  if (options_.max_queue == 0) {
    options_.max_queue = static_cast<size_t>(options_.workers);
  }
}

QueryService::~QueryService() { Shutdown(); }

namespace {

/// Builds the access-log record every exit path shares; `explain_json` is
/// rendered only when an explain was computed.
obs::RequestLogRecord MakeLogRecord(std::string_view xpath,
                                    const RequestOptions& ropts,
                                    const Status& status, uint64_t trace_id,
                                    uint64_t latency_us, uint64_t queue_us,
                                    uint64_t docs,
                                    const QueryExplain* explain) {
  obs::RequestLogRecord rec;
  rec.ts_us = WallNowUs();
  rec.request_id = ropts.request_id;
  rec.trace_id = trace_id;
  rec.query.assign(xpath.data(), xpath.size());
  rec.status = status.ok() ? "OK" : StatusCodeToString(status.code());
  rec.ok = status.ok();
  rec.shed = status.IsOverloaded();
  rec.deadline_miss = status.IsDeadlineExceeded();
  rec.latency_us = latency_us;
  rec.queue_us = queue_us;
  rec.docs = docs;
  if (explain != nullptr) {
    rec.result_cache_hit = explain->result_cache_hit;
    rec.plan_cache_hit = explain->plan_cache_hit;
    rec.explain_json = explain->ToJson();
  }
  return rec;
}

}  // namespace

StatusOr<QueryResult> QueryService::Execute(std::string_view xpath,
                                            const RequestOptions& ropts,
                                            RequestOutcome* outcome) {
  const bool metrics = obs::MetricsEnabled();
  if (metrics) ServeMetrics().requests->Increment();

  obs::RequestLog* log = options_.request_log;
  obs::Tracer* tracer = options_.exec.tracer;
  // Tracing engages for a sampled propagated context even without a local
  // ring; explain is computed whenever the caller asks or the access log
  // will want its summary.
  const bool tracing = tracer != nullptr || ropts.trace.sampled;
  const bool explaining = ropts.want_explain || log != nullptr;

  Timer latency;
  obs::TraceBuilder trace;
  uint32_t root = obs::kNoSpan;
  if (tracing) {
    root = trace.StartTrace("serve", ropts.trace);
    if (ropts.request_id != 0) {
      trace.Annotate(root, "request_id", ropts.request_id);
    }
  }
  QueryExplain explain;

  // Result cache: a hit takes no slot. Lookups use the generation of *this
  // moment*, so a mutation that committed before this request can never be
  // masked by a stale entry.
  const bool result_caching =
      options_.result_cache != nullptr && options_.generation != nullptr;
  const uint64_t generation = result_caching ? options_.generation() : 0;
  std::shared_ptr<const QueryResult> hit;
  if (result_caching) hit = options_.result_cache->Lookup(generation, xpath);

  int64_t deadline_micros = 0;
  uint64_t queue_us = 0;
  if (hit == nullptr) {
    const uint64_t budget = ropts.deadline_budget_micros != 0
                                ? ropts.deadline_budget_micros
                                : options_.default_deadline_micros;
    deadline_micros =
        budget != 0 ? DeadlineNowMicros() + static_cast<int64_t>(budget)
                    : options_.exec.deadline_micros;
    const uint32_t queue_span =
        tracing ? trace.BeginSpan("queue", root) : obs::kNoSpan;
    Timer wait;
    Status slot = AcquireSlot();
    if (!slot.ok()) {
      if (log != nullptr) {
        (void)log->Append(
            MakeLogRecord(xpath, ropts, slot, 0, 0, 0, 0, nullptr));
      }
      return slot;
    }
    queue_us = static_cast<uint64_t>(wait.ElapsedMicros());
    if (metrics) ServeMetrics().queue_us->Record(queue_us);
    if (tracing) {
      trace.Annotate(queue_span, "queue_us", queue_us);
      trace.EndSpan(queue_span);
    }
  }

  StatusOr<QueryResult> result =
      hit != nullptr
          ? StatusOr<QueryResult>(*hit)
          : RunBackend(xpath, deadline_micros, tracing ? &trace : nullptr,
                       root, explaining ? &explain : nullptr);
  if (hit != nullptr) {
    result->stats.result_cache_hits += 1;
    if (explaining) {
      explain.result_cache_hit = true;
      explain.result_docs = result->docs.size();
      explain.sequences = result->stats.matched_sequences;
    }
    if (tracing) {
      obs::SpanScope hit_span(&trace, "result_cache_hit", root);
      hit_span.Annotate("docs", result->docs.size());
    }
  } else {
    if (result_caching && result.ok() &&
        options_.generation() == generation) {
      // No mutation committed since the lookup (generations are
      // monotone), so this answer is exactly the answer at `generation`.
      // If one did, discard rather than cache a possibly mixed-state
      // answer.
      options_.result_cache->Insert(generation, xpath, *result);
    }
    ReleaseSlot();  // the last use of `this`: Shutdown() may now return
  }

  const uint64_t latency_us =
      static_cast<uint64_t>(latency.ElapsedMicros());
  if (metrics) {
    const ServeMetricSet& m = ServeMetrics();
    m.latency_us->Record(latency_us);
    if (result.ok()) {
      m.ok->Increment();
    } else if (result.status().IsDeadlineExceeded()) {
      m.deadline_exceeded->Increment();
    } else {
      m.errors->Increment();
    }
  }
  uint64_t trace_id = 0;
  if (tracing) {
    obs::Trace t = trace.Finish();
    trace_id = t.trace_id;
    if (tracer != nullptr) {
      obs::Trace copy = t;
      tracer->Record(std::move(copy));
    }
    if (outcome != nullptr) {
      outcome->traced = true;
      outcome->trace = std::move(t);
    }
  }
  if (outcome != nullptr && explaining) {
    outcome->explained = true;
    outcome->explain = explain;
  }
  if (log != nullptr) {
    (void)log->Append(MakeLogRecord(
        xpath, ropts, result.status(), trace_id, latency_us, queue_us,
        result.ok() ? result->docs.size() : 0,
        explaining ? &explain : nullptr));
  }
  return result;
}

StatusOr<QueryResult> QueryService::RunBackend(
    std::string_view xpath, int64_t deadline_micros, obs::TraceBuilder* trace,
    uint32_t root, QueryExplain* explain) const {
  ExecOptions opts = options_.exec;
  opts.deadline_micros = deadline_micros;
  if (opts.DeadlineExpired()) {
    // The time budget burned away waiting for a slot: don't start work the
    // caller has already given up on.
    return Status::DeadlineExceeded("deadline expired waiting for a slot");
  }
  opts.tracer = nullptr;  // the request's builder owns this trace
  opts.explain = explain;
  obs::SpanScope exec_span(trace, "execute", root);
  if (trace != nullptr) {
    opts.trace = trace;
    opts.trace_parent = exec_span.id();
  }
  StatusOr<QueryResult> result = backend_(xpath, opts);
  if (result.ok()) exec_span.Annotate("docs", result->docs.size());
  return result;
}

Status QueryService::AcquireSlot() {
  const bool metrics = obs::MetricsEnabled();
  const size_t slots = static_cast<size_t>(options_.workers);
  std::unique_lock<std::mutex> lock(mu_);
  if (shutdown_) {
    return Status::FailedPrecondition("query service is shutting down");
  }
  if (running_ == slots) {
    if (waiting_ >= options_.max_queue) {
      if (metrics) ServeMetrics().shed->Increment();
      return Status::Overloaded("all slots busy and " +
                                std::to_string(waiting_) +
                                " callers waiting; retry with backoff");
    }
    ++waiting_;
    if (metrics) ServeMetrics().queue_depth->Set(static_cast<int64_t>(waiting_));
    slot_cv_.wait(lock, [&] { return running_ < slots; });
    --waiting_;
    if (metrics) ServeMetrics().queue_depth->Set(static_cast<int64_t>(waiting_));
  }
  ++running_;
  if (metrics) ServeMetrics().inflight->Set(static_cast<int64_t>(running_));
  return Status::OK();
}

void QueryService::ReleaseSlot() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    --running_;
    if (obs::MetricsEnabled()) {
      ServeMetrics().inflight->Set(static_cast<int64_t>(running_));
    }
    if (waiting_ == 0) {
      // Under the lock: once it drops, Shutdown() may return and the
      // service be destroyed.
      if (shutdown_ && running_ == 0) idle_cv_.notify_all();
      return;
    }
    ++notifying_;
  }
  // Outside the lock, so the woken waiter does not block on it again.
  slot_cv_.notify_one();
  --notifying_;
}

void QueryService::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
    idle_cv_.wait(lock, [&] { return running_ == 0 && waiting_ == 0; });
  }
  // Nothing runs or waits, so only the notify_one calls of past releases
  // can still be touching the service.
  while (notifying_ != 0) {
    std::this_thread::yield();
  }
}

size_t QueryService::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return waiting_ + running_;
}

}  // namespace xseq
