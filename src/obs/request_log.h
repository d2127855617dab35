// Structured access log for the serving plane: one JSON object per line,
// with size-based rotation and a tail-sampling policy so heavy OK traffic
// is decimated while every interesting request survives.
//
// Policy (evaluated per record, in order):
//   error     — a non-OK status that is neither a shed nor a deadline miss
//   shed      — every slot busy and the wait list full (kOverloaded)
//   deadline  — the request's deadline expired (kDeadlineExceeded)
//   slow      — latency_us >= slow_micros (when slow_micros > 0)
//   sampled   — 1 of every `sample_every` remaining OK requests
//               (sample_every = 0 drops all of them)
// The first four classes are always written; the winning class is recorded
// in the line's "reason" field.
//
// Rotation: when an append pushes the file past `rotate_bytes`, the file is
// closed, renamed to `<path>.1` (replacing any previous one) and a fresh
// `<path>` is opened — a bounded two-file footprint, no background thread.
//
// The log is internally synchronized; QueryService callers append
// concurrently. Formatting happens outside the lock, the write inside.

#ifndef XSEQ_SRC_OBS_REQUEST_LOG_H_
#define XSEQ_SRC_OBS_REQUEST_LOG_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "src/util/env.h"

namespace xseq {
namespace obs {

struct RequestLogOptions {
  std::string path;
  /// Rotate after the file grows past this many bytes. 0 = never rotate.
  uint64_t rotate_bytes = 64ull << 20;
  /// Latency threshold (microseconds) above which an OK request is always
  /// logged. 0 disables the slow rule.
  uint64_t slow_micros = 0;
  /// Log 1 of every N OK-and-fast requests; 1 = all, 0 = none.
  uint32_t sample_every = 1;
  Env* env = nullptr;  ///< null = Env::Default()
};

/// One request's worth of log fields, filled by the serving layer.
struct RequestLogRecord {
  uint64_t ts_us = 0;       ///< unix wall clock, microseconds
  uint64_t request_id = 0;  ///< wire request id (0 for local callers)
  uint64_t trace_id = 0;    ///< distributed trace id (0 = untraced)
  std::string op = "query";
  std::string query;        ///< the XPath text
  std::string status = "OK";
  bool ok = true;
  bool shed = false;           ///< rejected by admission control
  bool deadline_miss = false;  ///< kDeadlineExceeded anywhere in flight
  bool result_cache_hit = false;
  bool plan_cache_hit = false;
  uint64_t latency_us = 0;  ///< end-to-end, as the server saw it
  uint64_t queue_us = 0;    ///< wait for an execution slot
  uint64_t docs = 0;        ///< result size
  /// Pre-rendered planner explain object (QueryExplain::ToJson); empty =
  /// field omitted.
  std::string explain_json;
};

/// Serializes `rec` as one JSON object (no trailing newline). `reason` is
/// the sampling class that admitted it; exposed for tests and the CLI.
std::string RequestLogLine(const RequestLogRecord& rec,
                           std::string_view reason);

class RequestLog {
 public:
  /// Opens (truncating) `options.path` for appending.
  static StatusOr<std::unique_ptr<RequestLog>> Open(
      const RequestLogOptions& options);
  RequestLog(const RequestLog&) = delete;
  RequestLog& operator=(const RequestLog&) = delete;

  /// Applies the sampling policy to `rec` and appends one line when it is
  /// admitted. Returns OK when the record was sampled out; IO failures
  /// count into xseq.log.errors and are returned (callers may ignore —
  /// logging must never fail a request).
  Status Append(const RequestLogRecord& rec);

  /// The sampling class `rec` would be admitted under, or "" when it would
  /// be dropped. Pure policy; does not consume a sampling slot.
  const char* Classify(const RequestLogRecord& rec) const;

  /// fsyncs the current file (tests; shutdown paths).
  Status Sync();

  uint64_t records_written() const;
  uint64_t records_dropped() const;
  uint64_t rotations() const;

 private:
  explicit RequestLog(const RequestLogOptions& options) : opts_(options) {}

  Status RotateLocked();

  RequestLogOptions opts_;
  mutable std::mutex mu_;
  std::unique_ptr<WritableFile> file_;
  uint64_t bytes_ = 0;
  uint64_t ok_seen_ = 0;   ///< OK-and-fast records seen, drives sampling
  uint64_t written_ = 0;
  uint64_t dropped_ = 0;
  uint64_t rotations_ = 0;
};

}  // namespace obs
}  // namespace xseq

#endif  // XSEQ_SRC_OBS_REQUEST_LOG_H_
