#include "src/server/server.h"

#include <utility>

#include "src/obs/exposition.h"
#include "src/obs/metrics.h"

namespace xseq {

namespace {

/// Registry handles for the daemon metrics, resolved once.
struct ServerMetricSet {
  obs::Counter* connections;
  obs::Counter* frames;
  obs::Counter* frame_errors;
  obs::Gauge* active_connections;
};

const ServerMetricSet& ServerMetrics() {
  static const ServerMetricSet s = [] {
    obs::MetricsRegistry* r = obs::MetricsRegistry::Default();
    return ServerMetricSet{r->GetCounter("xseq.server.connections"),
                           r->GetCounter("xseq.server.frames"),
                           r->GetCounter("xseq.server.frame_errors"),
                           r->GetGauge("xseq.server.active_connections")};
  }();
  return s;
}

}  // namespace

XseqServer::XseqServer(QueryService::Backend backend, ServerOptions options)
    : service_(std::move(backend), options.service),
      options_(std::move(options)),
      socket_env_(options_.socket_env != nullptr ? options_.socket_env
                                                 : SocketEnv::Default()) {
  if (!options_.stats_source) {
    options_.stats_source = [] {
      return obs::MetricsRegistry::Default()->JsonDump();
    };
  }
}

XseqServer::~XseqServer() { Stop(); }

Status XseqServer::Start() {
  auto listener = socket_env_->Listen(options_.host, options_.port);
  if (!listener.ok()) return listener.status();
  {
    std::lock_guard<std::mutex> lock(mu_);
    listener_ = std::move(*listener);
    started_ = true;
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

int XseqServer::port() const {
  std::lock_guard<std::mutex> lock(mu_);
  return listener_ != nullptr ? listener_->port() : -1;
}

void XseqServer::AcceptLoop() {
  for (;;) {
    auto conn = listener_->Accept();
    if (!conn.ok()) return;  // listener closed (stop) or fatal accept error
    auto handler = std::make_unique<Handler>();
    handler->conn = std::move(*conn);
    Handler* raw = handler.get();
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || stop_requested_) {
      // Raced with shutdown: drop the connection unserved.
      continue;
    }
    ++connections_;
    if (obs::MetricsEnabled()) {
      const ServerMetricSet& m = ServerMetrics();
      m.connections->Increment();
      m.active_connections->Add(1);
    }
    ReapFinishedLocked();
    handler->thread = std::thread([this, raw] { HandleConnection(raw); });
    handlers_.push_back(std::move(handler));
  }
}

void XseqServer::ReapFinishedLocked() {
  for (auto it = handlers_.begin(); it != handlers_.end();) {
    if ((*it)->done) {
      (*it)->thread.join();
      it = handlers_.erase(it);
    } else {
      ++it;
    }
  }
}

bool XseqServer::Dispatch(const WireRequest& req, WireResponse* resp) {
  resp->op = req.op;
  resp->id = req.id;
  resp->status = Status::OK();
  switch (req.op) {
    case WireOp::kPing:
      return true;
    case WireOp::kQuery: {
      RequestOptions ropts;
      ropts.deadline_budget_micros = req.deadline_micros;
      ropts.trace = req.trace;
      ropts.want_explain = req.want_explain;
      ropts.request_id = req.id;
      // The outcome only matters when the peer asked for a section of it
      // (the access log and local trace ring are fed inside the service).
      const bool wants_outcome = req.trace.sampled || req.want_explain;
      RequestOutcome outcome;
      auto result = service_.Execute(
          req.xpath, ropts, wants_outcome ? &outcome : nullptr);
      if (!result.ok()) {
        resp->status = result.status();
        return true;
      }
      resp->docs = std::move(result->docs);
      resp->stats = WireQueryStats::FromExecStats(result->stats);
      if (req.trace.sampled && outcome.traced) {
        resp->has_trace = true;
        resp->trace = std::move(outcome.trace);
      }
      if (req.want_explain && outcome.explained) {
        resp->has_explain = true;
        resp->explain = std::move(outcome.explain);
      }
      return true;
    }
    case WireOp::kStats:
      resp->payload = options_.stats_source();
      return true;
    case WireOp::kMetrics:
      resp->payload = obs::PrometheusDefaultDump();
      return true;
    case WireOp::kShutdown:
      // Respond first (the caller deserves an ack), then stop: the
      // connection closes after this request.
      RequestStop();
      return false;
    case WireOp::kReload: {
      if (!options_.reload_handler) {
        resp->status =
            Status::Unimplemented("this server has no reload handler");
        return true;
      }
      // The swap (or its rejection) happens entirely inside the handler;
      // in-flight queries keep their generation either way. This handler
      // thread is pinned for the duration, which is the intended
      // backpressure: one reload at a time per connection.
      auto generation = options_.reload_handler(req.reload_path);
      if (!generation.ok()) {
        resp->status = generation.status();
      } else {
        resp->generation = *generation;
      }
      return true;
    }
    case WireOp::kDelete: {
      if (!options_.delete_handler) {
        resp->status = Status::Unimplemented(
            "this server's backend is immutable (no delete handler); serve "
            "a dynamic backend to mutate over the wire");
        return true;
      }
      auto generation = options_.delete_handler(req.doc_id);
      if (!generation.ok()) {
        resp->status = generation.status();
      } else {
        resp->generation = *generation;
      }
      return true;
    }
    case WireOp::kUpdate: {
      if (!options_.update_handler) {
        resp->status = Status::Unimplemented(
            "this server's backend is immutable (no update handler); serve "
            "a dynamic backend to mutate over the wire");
        return true;
      }
      auto generation = options_.update_handler(req.doc_id, req.update_xml);
      if (!generation.ok()) {
        resp->status = generation.status();
      } else {
        resp->generation = *generation;
      }
      return true;
    }
    case WireOp::kCompact: {
      if (!options_.compact_handler) {
        resp->status = Status::Unimplemented(
            "this server's backend is immutable (no compact handler); serve "
            "a dynamic backend to compact over the wire");
        return true;
      }
      // Like reload, the handler thread is pinned for the duration — one
      // compaction at a time per connection is the intended backpressure.
      auto generation = options_.compact_handler();
      if (!generation.ok()) {
        resp->status = generation.status();
      } else {
        resp->generation = *generation;
      }
      return true;
    }
  }
  resp->status = Status::Internal("unreachable: op validated by decoder");
  return true;
}

void XseqServer::HandleConnection(Handler* handler) {
  Connection* conn = handler->conn.get();
  bool keep_going = true;
  while (keep_going) {
    std::string body;
    Status st = ReadFrame(conn, &body, /*eof_ok=*/true);
    if (!st.ok()) {
      // kNotFound = orderly close between frames. Anything else is a torn
      // or corrupt frame: tell the peer best-effort (it may be gone) and
      // drop the connection — framing cannot resynchronize.
      if (!st.IsNotFound()) {
        if (obs::MetricsEnabled()) ServerMetrics().frame_errors->Increment();
        WireResponse resp;
        resp.op = WireOp::kPing;
        resp.id = 0;
        resp.status = st;
        std::string out;
        EncodeResponseBody(resp, &out);
        (void)WriteFrame(conn, out);
      }
      break;
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) break;  // draining: the frame arrived too late
      ++busy_;
    }
    if (obs::MetricsEnabled()) ServerMetrics().frames->Increment();

    WireResponse resp;
    WireRequest req;
    Status decoded = DecodeRequestBody(body, &req);
    if (!decoded.ok()) {
      if (obs::MetricsEnabled()) ServerMetrics().frame_errors->Increment();
      resp.op = WireOp::kPing;
      resp.id = 0;
      resp.status = decoded;
      keep_going = false;  // can't trust the stream any further
    } else {
      keep_going = Dispatch(req, &resp);
    }
    std::string out;
    EncodeResponseBody(resp, &out);
    Status wrote = WriteFrame(conn, out);

    {
      std::lock_guard<std::mutex> lock(mu_);
      --busy_;
      if (busy_ == 0) drain_cv_.notify_all();
    }
    if (!wrote.ok()) break;
  }
  conn->Close();
  std::lock_guard<std::mutex> lock(mu_);
  handler->done = true;
  if (obs::MetricsEnabled()) ServerMetrics().active_connections->Sub(1);
}

void XseqServer::RequestStop() {
  std::unique_ptr<Listener>* listener = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_requested_) return;
    stop_requested_ = true;
    listener = &listener_;
  }
  stop_cv_.notify_all();
  // Closing the listener unblocks the accept thread; Close is safe to
  // call while Accept blocks.
  if (*listener != nullptr) (*listener)->Close();
}

void XseqServer::WaitForStopRequest() {
  std::unique_lock<std::mutex> lock(mu_);
  stop_cv_.wait(lock, [&] { return stop_requested_; });
}

size_t XseqServer::Stop() {
  RequestStop();
  size_t inflight = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_ || !started_) {
      stopped_ = true;
      return 0;
    }
    stopping_ = true;
    // A query runs on its handler thread, so busy_ already counts it,
    // whether it holds an execution slot or waits for one.
    inflight = busy_;
  }
  if (accept_thread_.joinable()) accept_thread_.join();

  // Phase 1: let handlers finish the request they are serving (response
  // written included). A handler checks `stopping_` and bumps busy_ under
  // one lock, so no request starts after this wait ends.
  {
    std::unique_lock<std::mutex> lock(mu_);
    drain_cv_.wait(lock, [&] { return busy_ == 0; });
  }

  // Phase 2: kick idle handlers off their blocking reads and join everyone.
  std::vector<std::unique_ptr<Handler>> handlers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    handlers.swap(handlers_);
  }
  for (auto& handler : handlers) handler->conn->Close();
  for (auto& handler : handlers) {
    if (handler->thread.joinable()) handler->thread.join();
  }

  // Phase 3: close the service. Every handler has exited, so nothing runs
  // or waits there and this returns at once.
  service_.Shutdown();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
  }
  return inflight;
}

uint64_t XseqServer::connections_accepted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return connections_;
}

}  // namespace xseq
