// The per-layer ledger of a traced benchmark run.
//
// Every span here is recorded by benchmark code at the public boundary of
// a layer; nothing inside src/ is instrumented. One traced query is one
// Req. Its boundaries are stamped by:
//
//   client thread      c0 (before XseqClient::Query) ... c5 (after it)
//   TimingSocketEnv    client write cw0/cw1, server frame read sr0 (entry of
//                      the Read that returned the frame's first bytes) /
//                      sr_hdr / sb1, server write sw0/sw1, client frame read
//                      cr0 (entry, likewise) / cr1
//   generation hook    ga: QueryService::Execute consults the generation on
//                      the handler thread before its result-cache lookup
//   TimingBackend      b0/b1 around the QueryService::Backend call on the
//                      worker thread, plus the ExecStats it returned
//
// Sorted, these boundaries tile the client-observed wall time; Analyze()
// turns the tiles into per-layer self times. Inner calls that run inside
// the backend or the server (ParseXPath, InstantiatePattern, CandidateDocs,
// Decode/Encode bodies) are timed again on the same input by the client
// thread, between requests, and subtracted from the layer that contains
// them.
//
// Coverage is measured apart from the tiling: the share of a request's wall
// time that falls inside an interval timed around a call (the client's
// encode and decode inside XseqClient::Query, socket Read and WriteAll
// calls, the admission queue, the backend call) or inside the replayed
// codec. What the tiles attribute by subtraction alone (the service front
// door, a server not yet reading when the request arrived) is not covered.
//
// Client k and server connection k are paired by connecting clients one at
// a time (each pings before the next connects), so accept order equals
// connect order.

#ifndef PERFBENCH_SRC_LEDGER_H_
#define PERFBENCH_SRC_LEDGER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/server/protocol.h"
#include "src/server/query_service.h"
#include "src/server/socket.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One traced query. Boundaries are written by several threads, hence the
/// atomics; everything is read only after the server and clients stopped.
struct Req {
  const std::string* xpath = nullptr;
  bool wildcard = false;  ///< text holds '//' or '*'
  std::atomic<int64_t> c0{0}, cw0{0}, cw1{0}, sr0{0}, sr_hdr{0}, sb1{0},
      ga{0}, b0{0}, b1{0}, sw0{0}, sw1{0}, cr0{0}, cr1{0}, c5{0};
  std::atomic<bool> claimed{false};
  xseq::ExecStats exec;  ///< written by the worker that claimed the Req
  /// Plan-cache misses of the served backend for this request (compiles,
  /// one per shard or segment probed, that did not hit); same writer.
  uint64_t plan_misses = 0;

  // Filled by the client thread after the response.
  bool ok = false;
  bool result_cache_hit = false;
  uint64_t request_bytes = 0;
  uint64_t response_bytes = 0;
  int64_t decode_request_ns = 0;   ///< replayed DecodeRequestBody
  int64_t encode_response_ns = 0;  ///< replayed EncodeResponseBody
  int64_t parse_ns = 0;            ///< replayed ParseXPath, once per shard
  int64_t instantiate_ns = 0;      ///< replayed InstantiatePattern
  int64_t vindex_ns = 0;           ///< replayed CandidateDocs
  uint64_t compilations = 0;       ///< replayed shard compiles
};

class TimingConnection;

/// Shared state of one traced run: which Req each client has in flight,
/// and the client-side connections whose last frames the replay reads.
class Ledger {
 public:
  explicit Ledger(size_t clients);

  void SetCurrent(size_t client, Req* req);
  Req* Current(size_t conn) const;

  /// Claims the oldest admitted, unclaimed in-flight Req for `xpath` (the
  /// service queue is FIFO); null when none matches.
  Req* ClaimForBackend(std::string_view xpath);

  void RegisterClientConnection(size_t index, TimingConnection* conn);
  TimingConnection* client_connection(size_t index) const;

 private:
  std::vector<std::atomic<Req*>> current_;
  mutable std::mutex mu_;
  std::vector<TimingConnection*> client_conns_;
};

/// Stamps `ga` on the handler thread's Req: call from the generation hook.
void NoteAdmission();

/// A SocketEnv that stamps frame boundaries into the ledger. Server
/// connections are numbered in accept order, client ones in connect order.
class TimingSocketEnv : public xseq::SocketEnv {
 public:
  explicit TimingSocketEnv(Ledger* ledger) : ledger_(ledger) {}

  xseq::StatusOr<std::unique_ptr<xseq::Listener>> Listen(
      const std::string& host, int port) override;
  xseq::StatusOr<std::unique_ptr<xseq::Connection>> Connect(
      const std::string& host, int port) override;

  Ledger* ledger() const { return ledger_; }
  size_t NextServerIndex() { return accepted_.fetch_add(1); }

 private:
  Ledger* ledger_;
  std::atomic<size_t> accepted_{0};
  std::atomic<size_t> connected_{0};
};

/// One side of a traced connection.
class TimingConnection : public xseq::Connection {
 public:
  TimingConnection(std::unique_ptr<xseq::Connection> base, Ledger* ledger,
                   size_t index, bool server_side)
      : base_(std::move(base)),
        ledger_(ledger),
        index_(index),
        server_side_(server_side) {}

  xseq::StatusOr<size_t> Read(char* buf, size_t n) override;
  xseq::Status WriteAll(std::string_view data) override;
  void Close() override { base_->Close(); }

  /// Client side: bodies of the last request written and response read.
  const std::string& last_request_body() const { return last_request_; }
  const std::string& last_response_body() const { return last_response_; }

 private:
  /// Feeds read bytes through the frame parser; returns true when a frame
  /// ended inside them.
  bool Consume(const char* data, size_t n, bool* frame_started);

  std::unique_ptr<xseq::Connection> base_;
  Ledger* ledger_;
  size_t index_;
  bool server_side_;
  // Frame parser state.
  std::string header_;
  uint64_t body_left_ = 0;
  bool in_body_ = false;
  std::string body_;  ///< client side only: the response body being read
  std::string last_request_;
  std::string last_response_;
  Req* serving_ = nullptr;  ///< server side: Req of the frame being read
};

/// Per-layer result of one traced run: means per query unless named a
/// ratio or a count, keyed by the BENCHMARK.json per-layer names.
struct LayerReport {
  std::map<std::string, double> metrics;
  size_t queries = 0;
  size_t stamp_failures = 0;      ///< requests with a boundary not stamped
  double coverage = 0.0;          ///< timed share of all traced wall time
  double coverage_min = 1.0;      ///< worst per-request timed share
  size_t coverage_failures = 0;   ///< requests whose timed share is < 95%
  std::string table;              ///< human-readable ledger
};

/// `dynamic_backend`: the backend's remainder is DynamicIndex self time
/// rather than ShardedCollection self time.
LayerReport Analyze(const std::vector<const Req*>& reqs,
                    bool dynamic_backend);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LEDGER_H_
