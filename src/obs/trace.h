// Per-query tracing: span trees with wall-clock timings and counter
// annotations, a bounded ring buffer of recent traces, and a Chrome
// `trace_event` JSON exporter (load the file in chrome://tracing or
// https://ui.perfetto.dev).
//
// A query's trace is built by a TraceBuilder threaded down the execution
// path (see ExecOptions::tracer): the entry point opens the root span,
// every stage opens child spans (compile -> instantiate -> per-ordering
// match -> per-segment probe), and the finished tree is committed into a
// Tracer's ring buffer. Builders are internally synchronized, so spans may
// be opened from pool workers during parallel matching; span ids are
// indices into the trace's span array and parent links always point to an
// earlier index.
//
// Tracing is strictly opt-in per query: a null Tracer* costs one pointer
// compare per stage. Overhead while enabled is two clock reads plus one
// short critical section per span.

#ifndef XSEQ_SRC_OBS_TRACE_H_
#define XSEQ_SRC_OBS_TRACE_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace xseq {
namespace obs {

/// Root / "no parent" marker for span parent links.
inline constexpr uint32_t kNoSpan = 0xFFFFFFFFu;

/// Distributed trace identity, propagated across process boundaries (the
/// wire protocol carries one per query frame). `trace_id` is a nonzero
/// 48-bit id shared by every span of one end-to-end request; `parent_span`
/// is the span id *in the sender's trace* the receiver should treat as its
/// logical parent; `sampled` asks the receiver to record (and return) its
/// side of the trace. A zero trace_id means "no context".
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
  bool sampled = false;

  bool valid() const { return trace_id != 0; }
};

/// A fresh nonzero 48-bit trace id (masked so it survives a round-trip
/// through JSON doubles and Chrome "pid" fields). Thread-safe.
uint64_t GenerateTraceId();

/// One timed node of a trace tree. Timestamps are microseconds relative to
/// the trace's start.
struct TraceSpan {
  std::string name;
  uint32_t parent = kNoSpan;  ///< index of the parent span, kNoSpan for root
  uint32_t tid = 0;           ///< small per-trace thread slot
  uint64_t start_us = 0;
  uint64_t dur_us = 0;
  bool closed = false;
  /// Counter annotations, rendered as Chrome "args".
  std::vector<std::pair<std::string, uint64_t>> args;
};

/// A finished span tree.
struct Trace {
  uint64_t id = 0;            ///< assigned by the Tracer at commit
  uint64_t trace_id = 0;      ///< distributed id (0 = purely local trace)
  /// Span id in the *remote sender's* trace under which this tree logically
  /// hangs; kNoSpan when this process started the request.
  uint64_t parent_span = kNoSpan;
  uint64_t wall_start_us = 0; ///< steady-clock micros at StartTrace
  std::vector<TraceSpan> spans;
};

/// Serializes `trace` as one Chrome trace_event JSON document
/// ({"traceEvents":[...]}, "X" complete events, ts/dur in microseconds).
std::string TraceToChromeJson(const Trace& trace);

class Tracer;

/// Accumulates the spans of one trace. Thread-safe: concurrent BeginSpan /
/// EndSpan calls from pool workers serialize on an internal mutex. Use is
/// optional-by-pointer everywhere; a null builder means "not tracing".
class TraceBuilder {
 public:
  TraceBuilder() = default;
  TraceBuilder(const TraceBuilder&) = delete;
  TraceBuilder& operator=(const TraceBuilder&) = delete;

  /// Opens the root span and starts the clock. Returns the root span id.
  uint32_t StartTrace(std::string_view root_name);

  /// As StartTrace, but adopts (or mints) a distributed identity: the
  /// trace's id becomes `ctx.trace_id` when the context is valid, otherwise
  /// a fresh GenerateTraceId(); `ctx.parent_span` is remembered so exports
  /// can stitch this tree under the sender's span.
  uint32_t StartTrace(std::string_view root_name, const TraceContext& ctx);

  /// A context other processes can attach under: this trace's id plus
  /// `span` as the parent. Invalid (zero) context when not active.
  TraceContext ContextFor(uint32_t span) const;

  /// Splices a remote subtree (a trace returned by a peer) under local span
  /// `parent`: remote spans are appended with parents re-pointed, thread
  /// slots moved to fresh lanes, and timestamps shifted so the remote root
  /// ends "now" (the moment the response landed). Returns the local id of
  /// the grafted root, or kNoSpan if inactive or `remote` is empty.
  uint32_t Graft(const Trace& remote, uint32_t parent);

  /// Opens a child span of `parent` (kNoSpan only for the root). Returns
  /// the new span id.
  uint32_t BeginSpan(std::string_view name, uint32_t parent);

  /// Closes `span`, fixing its duration. Idempotent.
  void EndSpan(uint32_t span);

  /// Attaches a counter annotation to `span`.
  void Annotate(uint32_t span, std::string_view key, uint64_t value);

  bool active() const { return active_; }

  /// Closes any open spans (root included) and hands the finished trace to
  /// `tracer`'s ring buffer. The builder resets to inactive.
  void Commit(Tracer* tracer);

  /// As Commit, but returns the trace instead of recording it.
  Trace Finish();

 private:
  uint64_t NowUs() const;
  uint32_t TidSlot();

  mutable std::mutex mu_;
  bool active_ = false;
  Trace trace_;
  std::vector<uint64_t> tid_hashes_;  ///< hash -> slot, per trace
};

/// RAII span: begins on construction (when `builder` is non-null), ends on
/// destruction. The id is usable as a parent for nested scopes.
class SpanScope {
 public:
  SpanScope(TraceBuilder* builder, std::string_view name, uint32_t parent)
      : builder_(builder),
        id_(builder != nullptr ? builder->BeginSpan(name, parent) : kNoSpan) {}
  ~SpanScope() {
    if (builder_ != nullptr) builder_->EndSpan(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  uint32_t id() const { return id_; }
  void Annotate(std::string_view key, uint64_t value) {
    if (builder_ != nullptr) builder_->Annotate(id_, key, value);
  }
  /// Closes the span early (EndSpan is idempotent; the destructor is then a
  /// no-op). For spans that must end before their C++ scope does.
  void End() {
    if (builder_ != nullptr) builder_->EndSpan(id_);
  }

 private:
  TraceBuilder* const builder_;
  const uint32_t id_;
};

/// A bounded ring buffer of recent traces. Thread-safe.
class Tracer {
 public:
  explicit Tracer(size_t capacity = 32)
      : capacity_(capacity == 0 ? 1 : capacity) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Stores `trace` (assigning its id), evicting the oldest when full.
  void Record(Trace&& trace);

  /// Copies of the retained traces, oldest first.
  std::vector<Trace> Recent() const;

  /// The most recently recorded trace; empty Trace when none.
  Trace Latest() const;

  size_t size() const;
  size_t capacity() const { return capacity_; }
  uint64_t total_recorded() const;

  /// One Chrome JSON document holding every retained trace (ids become
  /// Chrome "pid"s so chrome://tracing shows one lane group per query).
  std::string ExportChromeJson() const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::deque<Trace> ring_;
  uint64_t next_id_ = 1;
  uint64_t total_ = 0;
};

/// Renders `trace` as an indented span tree with durations and
/// annotations, for terminal output (xseq_tool trace).
std::string FormatTraceTree(const Trace& trace);

}  // namespace obs
}  // namespace xseq

#endif  // XSEQ_SRC_OBS_TRACE_H_
