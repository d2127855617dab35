// XseqClient: a small blocking client for the xseq wire protocol — one
// connection, one request in flight, strict request/response. Used by the
// xseq_client CLI, the serve benchmark's load generator, and tests.
//
// The client speaks kWireVersion only. A server of any other version
// answers the first request with kUnimplemented naming both versions and
// closes the connection; the client returns that error as is.
//
// Tracing: give the client a tracer (set_tracer) and every Query()
// records a client-side trace — a "client_query" root and an "rpc" span
// covering the wire round trip — propagates the rpc span's context to the
// server, and grafts the server's own span tree (returned in the
// response) under the rpc span: one stitched trace per query, committed
// to the tracer's ring.
//
// Not thread-safe: one thread per client (open several clients for
// concurrency; connections are cheap). Request ids are assigned
// monotonically and every response is validated against the id and op of
// the request it answers.

#ifndef XSEQ_SRC_SERVER_CLIENT_H_
#define XSEQ_SRC_SERVER_CLIENT_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/trace.h"
#include "src/server/protocol.h"
#include "src/server/socket.h"

namespace xseq {

/// One remote query answer.
struct RemoteQueryResult {
  std::vector<DocId> docs;   ///< sorted, deduplicated (server contract)
  WireQueryStats stats;
  /// Planner/executor account of the query (Query(..., want_explain=true)).
  bool has_explain = false;
  QueryExplain explain;
  /// Trace id of the stitched client+server trace recorded for this query
  /// (0 when the client has no tracer).
  uint64_t trace_id = 0;
};

class XseqClient {
 public:
  /// Connects to an xseq_serve daemon. `env` nullptr = real TCP.
  static StatusOr<XseqClient> Connect(const std::string& host, int port,
                                      SocketEnv* env = nullptr);

  XseqClient(XseqClient&&) = default;
  XseqClient& operator=(XseqClient&&) = default;

  /// Runs `xpath` remotely. `deadline_budget_micros` (0 = server default)
  /// bounds the server-side time from admission. A shed request surfaces
  /// as kOverloaded, an expired one as kDeadlineExceeded — exactly the
  /// status the server produced, rebuilt from the wire. `want_explain`
  /// asks the server for the planner's account (RemoteQueryResult::
  /// explain).
  StatusOr<RemoteQueryResult> Query(std::string_view xpath,
                                    uint64_t deadline_budget_micros = 0,
                                    bool want_explain = false);

  /// The serving process's MetricsRegistry JSON dump.
  StatusOr<std::string> Stats();

  /// The serving process's Prometheus text exposition.
  StatusOr<std::string> Metrics();

  /// Round-trip liveness check.
  Status Ping();

  /// Asks the daemon to drain and exit. The ack is the last frame this
  /// connection will carry.
  Status Shutdown();

  /// Asks the daemon to hot-swap to the sharded image at `path` (empty =
  /// re-load whatever prefix it is currently serving). Returns the
  /// generation now being served. A rejected image (corruption, canary
  /// failure) surfaces as the server's error while the old generation
  /// keeps serving.
  StatusOr<uint64_t> Reload(std::string_view path = "");

  /// Tombstones every live document with `id` on the daemon's dynamic
  /// backend; returns the generation after the mutation. A static backend
  /// answers kFailedPrecondition from the server.
  StatusOr<uint64_t> Delete(uint64_t id);

  /// Atomically replaces the documents carrying `id` with the document
  /// parsed from `xml` (server-side, against the owning shard's
  /// vocabulary); returns the generation after the mutation.
  StatusOr<uint64_t> Update(uint64_t id, std::string_view xml);

  /// Compacts the daemon's dynamic backend: purges tombstones and merges
  /// segments; returns the generation after compaction.
  StatusOr<uint64_t> Compact();

  /// Sink for client-side query traces (nullptr = tracing off). Not owned;
  /// must outlive the client.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  void Close();

 private:
  explicit XseqClient(std::unique_ptr<Connection> conn)
      : conn_(std::move(conn)) {}

  /// One request/response round trip: stamps `req` with the next request
  /// id and validates the response's id/op echo. The transport outcome is
  /// the StatusOr, the remote call's own outcome the response's `status`.
  StatusOr<WireResponse> Call(WireRequest req);

  std::unique_ptr<Connection> conn_;
  uint64_t next_id_ = 1;
  obs::Tracer* tracer_ = nullptr;  ///< not owned
};

}  // namespace xseq

#endif  // XSEQ_SRC_SERVER_CLIENT_H_
