// FailoverClient: a replica-aware client that rides out endpoint failures.
//
// Wraps one XseqClient per endpoint and layers three mechanisms on top:
//
//  * Per-endpoint circuit breaker. An endpoint starts Closed (healthy).
//    `breaker_threshold` consecutive transport failures Open it: it is
//    skipped entirely until `breaker_cooldown_micros` elapses, then one
//    request is let through Half-Open as a probe — success re-Closes the
//    breaker, failure re-Opens it for another cooldown. A recovered
//    primary is re-admitted automatically this way.
//
//  * Deadline-aware retry with jittered exponential backoff. Transport
//    failures (dead socket, torn frame, connect refusal) retry on the
//    next healthy endpoint — primary first, replicas in declared order.
//    Backoff doubles per attempt, jitters uniformly in [base/2, base] to
//    avoid thundering herds, and is skipped when it would overshoot the
//    request deadline.
//
//  * A retry *budget* (token bucket): each request earns
//    `retry_budget_ratio` tokens, each retry spends one, the bucket caps
//    at `retry_budget_burst`. When every endpoint is down, the budget
//    bounds the retry storm to a fixed fraction of offered load instead of
//    multiplying it.
//
// Error classification is the heart of it — the wire keeps two outcomes
// apart (XseqClient::Call):
//
//  * transport error (the StatusOr itself) — the endpoint is suspect:
//    count it toward the breaker, reconnect, fail over, retry.
//  * remote kOverloaded — the *server* shed the request; the box is
//    healthy, so fail over WITHOUT a breaker penalty.
//  * any other remote error (parse error, bad query, deadline, version
//    mismatch) — the request itself is at fault; return it to the caller
//    immediately and count the endpoint healthy.
//
// Time and sleep are injectable, so tests drive breaker cooldowns and
// backoff deterministically. Not thread-safe (same contract as
// XseqClient): one FailoverClient per thread.

#ifndef XSEQ_SRC_SERVER_FAILOVER_CLIENT_H_
#define XSEQ_SRC_SERVER_FAILOVER_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/trace.h"
#include "src/server/client.h"

namespace xseq {

/// One server address.
struct Endpoint {
  std::string host;
  int port = 0;
};

/// Failover knobs. Defaults suit tests and small deployments; production
/// tunes cooldown/backoff to its network.
struct FailoverOptions {
  SocketEnv* socket_env = nullptr;  ///< nullptr = real TCP

  /// Total tries per request across all endpoints (first attempt included).
  int max_attempts = 6;

  /// Consecutive transport failures that Open an endpoint's breaker.
  int breaker_threshold = 3;
  /// How long an Open endpoint is skipped before a Half-Open probe.
  uint64_t breaker_cooldown_micros = 200'000;

  /// First retry backoff; doubles per attempt up to the max.
  uint64_t backoff_initial_micros = 1'000;
  uint64_t backoff_max_micros = 100'000;

  /// Tokens earned per request / bucket cap; each retry costs 1.0.
  double retry_budget_ratio = 0.1;
  double retry_budget_burst = 10.0;

  /// Jitter RNG seed (deterministic for tests).
  uint64_t seed = 42;

  /// Sink for per-request traces (nullptr = tracing off). With a tracer,
  /// every Query records a "client_query" root with one "attempt" span per
  /// wire round trip (annotated with the endpoint index, shed / transport
  /// failures, and breaker trips), propagates the attempt span's context
  /// to the server, and grafts the server's returned span tree beneath it:
  /// one stitched trace across the failover chain. Not owned.
  obs::Tracer* tracer = nullptr;

  /// Injectable time source / sleeper (tests). Defaults: Env::Default().
  std::function<uint64_t()> clock_micros;
  std::function<void(uint64_t)> sleeper;
};

/// Circuit-breaker state of one endpoint.
enum class BreakerState : uint8_t { kClosed, kOpen, kHalfOpen };

class FailoverClient {
 public:
  /// Endpoint order is preference order: endpoints[0] is the primary; a
  /// request only moves down the list when everything before is unhealthy.
  FailoverClient(std::vector<Endpoint> endpoints, FailoverOptions options = {});

  /// Remote query with failover; see the file comment for the retry rules.
  /// `deadline_budget_micros` (0 = none) bounds the *whole* attempt chain,
  /// client-side, and is forwarded per-attempt to the server.
  /// `want_explain` asks the server for the planner's account.
  StatusOr<RemoteQueryResult> Query(std::string_view xpath,
                                    uint64_t deadline_budget_micros = 0,
                                    bool want_explain = false);

  /// Liveness check with failover.
  Status Ping();

  /// Stats dump from the first healthy endpoint.
  StatusOr<std::string> Stats();

  /// Point-in-time view of one endpoint's health, for tests and operators.
  struct EndpointSnapshot {
    Endpoint endpoint;
    BreakerState state = BreakerState::kClosed;
    int consecutive_failures = 0;
    uint64_t failures = 0;   ///< lifetime transport failures
    uint64_t successes = 0;  ///< lifetime successful calls
    uint64_t opens = 0;      ///< times the breaker tripped Open
  };
  std::vector<EndpointSnapshot> Endpoints() const;

  /// Lifetime counters across all requests.
  struct Stats_ {
    uint64_t attempts = 0;       ///< wire round trips tried
    uint64_t retries = 0;        ///< attempts beyond each request's first
    uint64_t failovers = 0;      ///< attempts served by a non-primary
    uint64_t budget_denied = 0;  ///< retries suppressed by the budget
  };
  const Stats_& stats() const { return stats_; }

 private:
  struct EndpointState {
    Endpoint endpoint;
    std::unique_ptr<XseqClient> client;  ///< null until first use / reconnect
    BreakerState state = BreakerState::kClosed;
    int consecutive_failures = 0;
    uint64_t open_until_micros = 0;  ///< when Half-Open probing may start
    uint64_t failures = 0;
    uint64_t successes = 0;
    uint64_t opens = 0;
  };

  uint64_t Now() const;
  void Sleep(uint64_t micros);

  /// Index of the endpoint the next attempt should use, honoring breaker
  /// states (Closed first in preference order, then cooled-down Open ones
  /// as Half-Open probes). -1 = everything is Open and still cooling.
  int PickEndpoint();

  /// The one retry/breaker/budget loop all public calls share. Runs `req`
  /// (re-encoding per attempt) until a definitive outcome. With a non-null
  /// `tb` (an active builder whose root is `root_span`), each attempt gets
  /// its own span, carries that span's context to the server, and grafts
  /// the returned server trace beneath it.
  StatusOr<WireResponse> CallWithFailover(WireRequest req,
                                          uint64_t deadline_budget_micros,
                                          obs::TraceBuilder* tb = nullptr,
                                          uint32_t root_span = obs::kNoSpan);

  void OnTransportFailure(EndpointState* ep);
  void OnSuccess(EndpointState* ep);

  /// Backoff before attempt number `attempt` (1-based retries), jittered.
  uint64_t BackoffMicros(int attempt);

  std::vector<EndpointState> endpoints_;
  FailoverOptions options_;
  std::mt19937_64 rng_;
  double budget_tokens_;
  Stats_ stats_;
};

}  // namespace xseq

#endif  // XSEQ_SRC_SERVER_FAILOVER_CLIENT_H_
