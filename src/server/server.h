// XseqServer: the TCP daemon — accepts connections, speaks the wire
// protocol (src/server/protocol.h), and funnels every query through a
// QueryService so admission control and deadlines apply to remote callers
// exactly as to in-process ones.
//
// Threading model: one accept thread and one handler thread per connection
// (each handles one request at a time — the protocol is strictly
// request/response per connection). A query runs on its handler thread;
// the QueryService's execution slots bound how many run at once, and the
// rest wait for a slot or are shed. A malformed frame (bad checksum,
// oversized length, torn body) earns a best-effort kCorruption response
// and closes that connection; the server itself never goes down from
// client bytes.
//
// Lifecycle:
//   XseqServer server(backend, options);
//   server.Start();                 // bind + accept thread
//   server.WaitForStopRequest();    // blocks: SIGTERM watcher or remote
//                                   // shutdown op calls RequestStop()
//   server.Stop();                  // graceful drain (see below)
//
// Stop() drains: the listener closes (no new connections), handlers
// finish the request they are serving and write its response, idle
// connections are closed, then the QueryService shuts down. In-flight
// queries are never abandoned.

#ifndef XSEQ_SRC_SERVER_SERVER_H_
#define XSEQ_SRC_SERVER_SERVER_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/server/protocol.h"
#include "src/server/query_service.h"
#include "src/server/socket.h"

namespace xseq {

/// Daemon knobs.
struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;                      ///< 0 = ephemeral; see XseqServer::port()
  ServiceOptions service;            ///< admission control + exec options
  SocketEnv* socket_env = nullptr;   ///< nullptr = SocketEnv::Default()
  /// Source of the `stats` op payload; defaults to the process
  /// MetricsRegistry JSON dump.
  std::function<std::string()> stats_source;
  /// Handles the `reload` op: swap to the image at the given prefix (empty
  /// = reload the current one) and return the generation now serving.
  /// Usually TopologyManager::Reload. Null (the default) answers the op
  /// with kUnimplemented — a server over a fixed backend stays honest
  /// about it instead of pretending to have swapped.
  std::function<StatusOr<uint64_t>(const std::string&)> reload_handler;
  /// Mutation ops, each returning the backend generation after the
  /// mutation. Null (the default) answers kUnimplemented — only a daemon
  /// serving a dynamic backend wires these (see xseq_serve --dynamic);
  /// static images stay honestly immutable over the wire.
  std::function<StatusOr<uint64_t>(uint64_t)> delete_handler;
  /// (doc id, replacement XML) -> generation; parses the document against
  /// the owning shard's vocabulary before swapping it in.
  std::function<StatusOr<uint64_t>(uint64_t, const std::string&)>
      update_handler;
  std::function<StatusOr<uint64_t>()> compact_handler;
};

class XseqServer {
 public:
  XseqServer(QueryService::Backend backend, ServerOptions options);
  ~XseqServer();

  XseqServer(const XseqServer&) = delete;
  XseqServer& operator=(const XseqServer&) = delete;

  /// Binds the listener and starts accepting. Fails fast on bind errors.
  Status Start();

  /// The bound port (after Start; useful with port 0).
  int port() const;

  /// Asks the server to stop: wakes WaitForStopRequest and stops
  /// accepting. Returns immediately; safe from any thread, including a
  /// connection handler (the remote shutdown op) and a signal watcher.
  void RequestStop();

  /// Blocks until RequestStop() is called.
  void WaitForStopRequest();

  /// Graceful drain; see the file comment. Idempotent; also run by the
  /// destructor. Returns the number of requests that were still in flight
  /// when draining began (for "drained N" operator output).
  size_t Stop();

  /// Connections accepted so far.
  uint64_t connections_accepted() const;

 private:
  struct Handler {
    std::unique_ptr<Connection> conn;
    std::thread thread;
    bool done = false;  ///< set by the handler as it exits
  };

  void AcceptLoop();
  void HandleConnection(Handler* handler);
  /// Serves one decoded request; fills `resp`. Returns false when the
  /// connection should close after the response (shutdown op).
  bool Dispatch(const WireRequest& req, WireResponse* resp);
  void ReapFinishedLocked();

  QueryService service_;
  ServerOptions options_;
  SocketEnv* socket_env_;

  std::unique_ptr<Listener> listener_;
  std::thread accept_thread_;

  mutable std::mutex mu_;
  std::condition_variable stop_cv_;    ///< RequestStop -> WaitForStopRequest
  std::condition_variable drain_cv_;   ///< busy_ == 0 during Stop()
  bool started_ = false;
  bool stop_requested_ = false;
  bool stopping_ = false;              ///< drain began: reject new frames
  bool stopped_ = false;
  size_t busy_ = 0;                    ///< handlers inside one request
  uint64_t connections_ = 0;
  std::vector<std::unique_ptr<Handler>> handlers_;
};

}  // namespace xseq

#endif  // XSEQ_SRC_SERVER_SERVER_H_
