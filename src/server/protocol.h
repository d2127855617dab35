// The xseq wire protocol: a length-prefixed, checksummed binary framing
// with nine operations (query, stats, ping, shutdown, reload, metrics,
// delete, update, compact), spoken over any Connection
// (src/server/socket.h).
//
// Frame layout (all integers little-endian; byte offsets from frame start):
//
//   offset 0   u32  body length N (bytes of `body` only; capped at
//                   kMaxFrameBody so an adversarial length can never force
//                   a large allocation)
//   offset 4   u64  FNV-1a64 checksum of the N body bytes
//   offset 12  body (N bytes)
//
// Body layout, shared prefix (offsets within the body):
//
//   offset 0   u8   protocol version, always kWireVersion. Any other
//                   version, older or newer, gets a clean kUnimplemented
//                   naming both versions, never a corruption error or a
//                   hang
//   offset 1   u8   op (WireOp)
//   offset 2   u64  request id, echoed verbatim in the response
//   offset 10  op-specific payload
//
// Request payloads:
//   query:    string xpath (u64 length + bytes), u64 deadline budget in
//             microseconds (relative to receipt; 0 = none), a u8 flag set
//             (bit 0 = trace context follows, bit 1 = the caller wants an
//             explain in the response) and, under bit 0, the trace
//             context: u64 trace id, u64 parent span id, u8 sampled.
//   reload:   string image prefix (empty = reload the prefix the server is
//             currently serving)
//   delete:   u64 document id
//   update:   u64 document id, string replacement XML
//   stats / ping / shutdown / metrics / compact: empty
//
// Response payloads (after a u8 status code + string error message; the
// payload is present only when the status is OK):
//   query:    u64 doc count, u64 per doc id, WireQueryStats (14 fixed64
//             fields, see EncodeTo), then a u8 flag set (bit 0 = an
//             embedded server-side trace follows, bit 1 = a QueryExplain
//             follows) and the flagged sections, so a sampled caller can
//             stitch the server's spans under its own trace.
//   stats:    string (MetricsRegistry::JsonDump of the serving process)
//   reload:   u64 generation now being served
//   metrics:  string (Prometheus text exposition)
//   delete / update / compact: u64 generation after the mutation, so
//             callers can tie cache invalidation to the ack
//   ping / shutdown: empty
//
// Checksums make torn frames (a peer dying mid-write) indistinguishable
// from corruption — both are rejected without crashing; the framing layer
// never trusts a length or a byte that has not been validated.

#ifndef XSEQ_SRC_SERVER_PROTOCOL_H_
#define XSEQ_SRC_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/query/executor.h"
#include "src/server/socket.h"
#include "src/util/status.h"
#include "src/xml/symbols.h"

namespace xseq {

/// The one protocol version this build speaks, in the layout above. A body
/// at any earlier version (1-4) or a later one is answered kUnimplemented
/// naming both versions, and the server then closes the connection.
inline constexpr uint8_t kWireVersion = 5;

/// Frame header size (length + checksum) and the body-size cap.
inline constexpr size_t kFrameHeaderBytes = 12;
inline constexpr uint32_t kMaxFrameBody = 16u << 20;

enum class WireOp : uint8_t {
  kQuery = 1,
  kStats = 2,
  kPing = 3,
  kShutdown = 4,
  kReload = 5,
  kMetrics = 6,  ///< Prometheus text exposition
  kDelete = 7,   ///< tombstone a document id (dynamic backends)
  kUpdate = 8,   ///< atomic replace of a document id (dynamic backends)
  kCompact = 9,  ///< purge tombstones / merge segments (dynamic backends)
};

/// True for a value DecodeRequest/DecodeResponse accepts.
bool IsValidWireOp(uint8_t op);

/// StatusCode <-> wire byte. Every StatusCode round-trips (the encoding is
/// the enum's underlying value); unknown bytes from a foreign peer decode
/// to kInternal rather than being trusted.
uint8_t StatusCodeToWire(StatusCode code);
StatusCode StatusCodeFromWire(uint8_t wire);

/// A decoded request.
struct WireRequest {
  WireOp op = WireOp::kPing;
  uint64_t id = 0;
  std::string xpath;            ///< kQuery only
  uint64_t deadline_micros = 0; ///< kQuery only; relative budget, 0 = none
  std::string reload_path;      ///< kReload only; empty = current prefix
  uint64_t doc_id = 0;          ///< kDelete / kUpdate
  std::string update_xml;       ///< kUpdate only; replacement document
  /// kQuery: distributed trace context (invalid = untraced) and the
  /// explain request flag.
  obs::TraceContext trace;
  bool want_explain = false;
};

/// The ExecStats subset a query response carries.
struct WireQueryStats {
  uint64_t result_docs = 0;
  uint64_t instantiations = 0;
  uint64_t orderings = 0;
  uint64_t matched_sequences = 0;
  uint64_t link_entries_read = 0;
  uint64_t link_binary_searches = 0;
  uint64_t link_gallop_probes = 0;
  uint64_t candidates = 0;
  uint64_t terminals = 0;
  uint64_t compile_micros = 0;
  uint64_t match_micros = 0;
  uint64_t plan_cache_hits = 0;
  uint64_t result_cache_hits = 0;
  uint64_t pruned_instantiations = 0;

  static WireQueryStats FromExecStats(const ExecStats& st);
};

/// A decoded response.
struct WireResponse {
  WireOp op = WireOp::kPing;
  uint64_t id = 0;
  Status status;                ///< the remote call's outcome
  std::vector<DocId> docs;      ///< kQuery only
  WireQueryStats stats;         ///< kQuery only
  std::string payload;          ///< kStats (metrics JSON) / kMetrics (text)
  uint64_t generation = 0;      ///< kReload / kDelete / kUpdate / kCompact:
                                ///< generation after the swap or mutation
  /// kQuery: the server-side span tree of this request (present when
  /// the request carried a sampled trace context) and the explain record
  /// (present when the request asked for one).
  bool has_trace = false;
  obs::Trace trace;
  bool has_explain = false;
  QueryExplain explain;
};

/// Serializes a body (no frame header) for the given message.
void EncodeRequestBody(const WireRequest& req, std::string* out);
void EncodeResponseBody(const WireResponse& resp, std::string* out);

/// Parses a body produced by the encoders above. A version other than
/// kWireVersion is kUnimplemented; anything else malformed — unknown op,
/// truncated payload, trailing bytes — is kCorruption.
Status DecodeRequestBody(std::string_view body, WireRequest* out);
Status DecodeResponseBody(std::string_view body, WireResponse* out);

/// Wraps `body` in a frame header and writes the whole frame.
Status WriteFrame(Connection* conn, std::string_view body);

/// Reads one frame and yields its validated body. Rejects oversized
/// lengths before allocating and checksum mismatches after reading;
/// kNotFound means the peer closed cleanly between frames (`eof_ok`).
Status ReadFrame(Connection* conn, std::string* body, bool eof_ok = false);

}  // namespace xseq

#endif  // XSEQ_SRC_SERVER_PROTOCOL_H_
