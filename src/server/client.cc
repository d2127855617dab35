#include "src/server/client.h"

#include <utility>

namespace xseq {

StatusOr<XseqClient> XseqClient::Connect(const std::string& host, int port,
                                         SocketEnv* env) {
  if (env == nullptr) env = SocketEnv::Default();
  auto conn = env->Connect(host, port);
  if (!conn.ok()) return conn.status();
  return XseqClient(std::move(*conn));
}

StatusOr<WireResponse> XseqClient::Call(WireRequest req) {
  req.id = next_id_++;
  if (conn_ == nullptr) {
    return Status::FailedPrecondition("client is closed");
  }
  std::string body;
  EncodeRequestBody(req, &body);
  XSEQ_RETURN_IF_ERROR(WriteFrame(conn_.get(), body));
  std::string resp_body;
  XSEQ_RETURN_IF_ERROR(ReadFrame(conn_.get(), &resp_body));
  WireResponse resp;
  XSEQ_RETURN_IF_ERROR(DecodeResponseBody(resp_body, &resp));
  // A server that cannot attribute a failure to a request (corrupt frame)
  // answers with id 0; accept that error, reject mismatched successes.
  if (resp.id != req.id && !(resp.id == 0 && !resp.status.ok())) {
    return Status::Internal("response id " + std::to_string(resp.id) +
                            " does not match request " +
                            std::to_string(req.id));
  }
  if (resp.status.ok() && resp.op != req.op) {
    return Status::Internal("response op does not match request");
  }
  return resp;
}

StatusOr<RemoteQueryResult> XseqClient::Query(std::string_view xpath,
                                              uint64_t deadline_budget_micros,
                                              bool want_explain) {
  WireRequest req;
  req.op = WireOp::kQuery;
  req.xpath.assign(xpath.data(), xpath.size());
  req.deadline_micros = deadline_budget_micros;
  req.want_explain = want_explain;

  // With a tracer, every query records a client-side trace and propagates
  // its context so the server's spans come back stitchable.
  obs::TraceBuilder tb;
  uint32_t rpc = obs::kNoSpan;
  if (tracer_ != nullptr) {
    const uint32_t root = tb.StartTrace("client_query", obs::TraceContext{});
    rpc = tb.BeginSpan("rpc", root);
    req.trace = tb.ContextFor(rpc);
    req.trace.sampled = true;
  }

  auto resp = Call(std::move(req));
  RemoteQueryResult out;
  if (tb.active()) {
    tb.EndSpan(rpc);
    if (resp.ok() && resp->has_trace) tb.Graft(resp->trace, rpc);
    if (resp.ok() && resp->status.ok()) {
      tb.Annotate(rpc, "docs", resp->docs.size());
    }
    out.trace_id = tb.ContextFor(rpc).trace_id;
    tb.Commit(tracer_);
  }
  if (!resp.ok()) return resp.status();
  XSEQ_RETURN_IF_ERROR(resp->status);
  out.docs = std::move(resp->docs);
  out.stats = resp->stats;
  if (resp->has_explain) {
    out.has_explain = true;
    out.explain = std::move(resp->explain);
  }
  return out;
}

StatusOr<std::string> XseqClient::Stats() {
  WireRequest req;
  req.op = WireOp::kStats;
  auto resp = Call(std::move(req));
  if (!resp.ok()) return resp.status();
  XSEQ_RETURN_IF_ERROR(resp->status);
  return std::move(resp->payload);
}

StatusOr<std::string> XseqClient::Metrics() {
  WireRequest req;
  req.op = WireOp::kMetrics;
  auto resp = Call(std::move(req));
  if (!resp.ok()) return resp.status();
  XSEQ_RETURN_IF_ERROR(resp->status);
  return std::move(resp->payload);
}

Status XseqClient::Ping() {
  WireRequest req;
  req.op = WireOp::kPing;
  auto resp = Call(std::move(req));
  if (!resp.ok()) return resp.status();
  return resp->status;
}

StatusOr<uint64_t> XseqClient::Reload(std::string_view path) {
  WireRequest req;
  req.op = WireOp::kReload;
  req.reload_path.assign(path.data(), path.size());
  auto resp = Call(std::move(req));
  if (!resp.ok()) return resp.status();
  XSEQ_RETURN_IF_ERROR(resp->status);
  return resp->generation;
}

StatusOr<uint64_t> XseqClient::Delete(uint64_t id) {
  WireRequest req;
  req.op = WireOp::kDelete;
  req.doc_id = id;
  auto resp = Call(std::move(req));
  if (!resp.ok()) return resp.status();
  XSEQ_RETURN_IF_ERROR(resp->status);
  return resp->generation;
}

StatusOr<uint64_t> XseqClient::Update(uint64_t id, std::string_view xml) {
  WireRequest req;
  req.op = WireOp::kUpdate;
  req.doc_id = id;
  req.update_xml.assign(xml.data(), xml.size());
  auto resp = Call(std::move(req));
  if (!resp.ok()) return resp.status();
  XSEQ_RETURN_IF_ERROR(resp->status);
  return resp->generation;
}

StatusOr<uint64_t> XseqClient::Compact() {
  WireRequest req;
  req.op = WireOp::kCompact;
  auto resp = Call(std::move(req));
  if (!resp.ok()) return resp.status();
  XSEQ_RETURN_IF_ERROR(resp->status);
  return resp->generation;
}

Status XseqClient::Shutdown() {
  WireRequest req;
  req.op = WireOp::kShutdown;
  auto resp = Call(std::move(req));
  if (!resp.ok()) return resp.status();
  return resp->status;
}

void XseqClient::Close() {
  if (conn_ != nullptr) {
    conn_->Close();
    conn_.reset();
  }
}

}  // namespace xseq
