#include "ledger.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "stats.h"

namespace perfbench {

namespace {

thread_local Req* tl_handler_req = nullptr;

void Stamp(std::atomic<int64_t>* slot, int64_t t) {
  slot->store(t, std::memory_order_relaxed);
}

class TimingListener : public xseq::Listener {
 public:
  TimingListener(std::unique_ptr<xseq::Listener> base, TimingSocketEnv* env)
      : base_(std::move(base)), env_(env) {}

  xseq::StatusOr<std::unique_ptr<xseq::Connection>> Accept() override {
    auto conn = base_->Accept();
    if (!conn.ok()) return conn.status();
    return std::unique_ptr<xseq::Connection>(
        new TimingConnection(std::move(*conn), env_->ledger(),
                             env_->NextServerIndex(), /*server_side=*/true));
  }
  int port() const override { return base_->port(); }
  void Close() override { base_->Close(); }

 private:
  std::unique_ptr<xseq::Listener> base_;
  TimingSocketEnv* env_;
};

}  // namespace

Ledger::Ledger(size_t clients)
    : current_(clients), client_conns_(clients, nullptr) {
  for (auto& slot : current_) slot.store(nullptr);
}

void Ledger::SetCurrent(size_t client, Req* req) {
  current_[client].store(req, std::memory_order_release);
}

Req* Ledger::Current(size_t conn) const {
  if (conn >= current_.size()) return nullptr;
  return current_[conn].load(std::memory_order_acquire);
}

Req* Ledger::ClaimForBackend(std::string_view xpath) {
  std::lock_guard<std::mutex> lock(mu_);
  Req* best = nullptr;
  for (const auto& slot : current_) {
    Req* r = slot.load(std::memory_order_acquire);
    if (r == nullptr || r->claimed.load(std::memory_order_relaxed)) continue;
    const int64_t admitted = r->ga.load(std::memory_order_relaxed);
    if (admitted == 0 || *r->xpath != xpath) continue;
    if (best == nullptr ||
        admitted < best->ga.load(std::memory_order_relaxed)) {
      best = r;
    }
  }
  if (best != nullptr) best->claimed.store(true, std::memory_order_relaxed);
  return best;
}

void Ledger::RegisterClientConnection(size_t index, TimingConnection* conn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (index < client_conns_.size()) client_conns_[index] = conn;
}

TimingConnection* Ledger::client_connection(size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return index < client_conns_.size() ? client_conns_[index] : nullptr;
}

void NoteAdmission() {
  Req* r = tl_handler_req;
  if (r != nullptr && r->ga.load(std::memory_order_relaxed) == 0) {
    Stamp(&r->ga, NowNs());
  }
}

xseq::StatusOr<std::unique_ptr<xseq::Listener>> TimingSocketEnv::Listen(
    const std::string& host, int port) {
  auto base = xseq::SocketEnv::Default()->Listen(host, port);
  if (!base.ok()) return base.status();
  return std::unique_ptr<xseq::Listener>(
      new TimingListener(std::move(*base), this));
}

xseq::StatusOr<std::unique_ptr<xseq::Connection>> TimingSocketEnv::Connect(
    const std::string& host, int port) {
  auto base = xseq::SocketEnv::Default()->Connect(host, port);
  if (!base.ok()) return base.status();
  const size_t index = connected_.fetch_add(1);
  auto conn = std::make_unique<TimingConnection>(std::move(*base), ledger_,
                                                 index, /*server_side=*/false);
  ledger_->RegisterClientConnection(index, conn.get());
  return std::unique_ptr<xseq::Connection>(std::move(conn));
}

bool TimingConnection::Consume(const char* data, size_t n,
                               bool* frame_started) {
  bool frame_ended = false;
  *frame_started = false;
  while (n > 0) {
    if (!in_body_) {
      if (header_.empty()) *frame_started = true;
      const size_t take = std::min(n, xseq::kFrameHeaderBytes - header_.size());
      header_.append(data, take);
      data += take;
      n -= take;
      if (header_.size() == xseq::kFrameHeaderBytes) {
        uint32_t len = 0;
        std::memcpy(&len, header_.data(), sizeof(len));  // little-endian host
        body_left_ = len;
        in_body_ = true;
        if (!server_side_) body_.clear();
      }
    } else {
      const size_t take =
          static_cast<size_t>(std::min<uint64_t>(n, body_left_));
      if (!server_side_) body_.append(data, take);
      data += take;
      n -= take;
      body_left_ -= take;
    }
    if (in_body_ && body_left_ == 0) {
      in_body_ = false;
      header_.clear();
      frame_ended = true;
      if (!server_side_) last_response_.swap(body_);
    }
  }
  return frame_ended;
}

xseq::StatusOr<size_t> TimingConnection::Read(char* buf, size_t n) {
  const int64_t entry = NowNs();
  auto r = base_->Read(buf, n);
  const int64_t t = NowNs();
  if (!r.ok() || *r == 0) return r;
  bool started = false;
  const bool ended = Consume(buf, *r, &started);
  if (server_side_) {
    if (started) {
      serving_ = ledger_->Current(index_);
      tl_handler_req = serving_;
      if (serving_ != nullptr) {
        Stamp(&serving_->sr0, entry);
        Stamp(&serving_->sr_hdr, t);
      }
    }
    if (ended && serving_ != nullptr) Stamp(&serving_->sb1, t);
  } else if (Req* req = ledger_->Current(index_)) {
    req->response_bytes += *r;
    if (started) Stamp(&req->cr0, entry);
    if (ended) Stamp(&req->cr1, t);
  }
  return r;
}

xseq::Status TimingConnection::WriteAll(std::string_view data) {
  const int64_t t0 = NowNs();
  xseq::Status st = base_->WriteAll(data);
  const int64_t t1 = NowNs();
  if (server_side_) {
    if (Req* req = tl_handler_req) {
      Stamp(&req->sw0, t0);
      Stamp(&req->sw1, t1);
    }
    tl_handler_req = nullptr;
  } else {
    if (Req* req = ledger_->Current(index_)) {
      Stamp(&req->cw0, t0);
      Stamp(&req->cw1, t1);
      req->request_bytes += data.size();
    }
    last_request_.assign(data.substr(std::min(data.size(),
                                              xseq::kFrameHeaderBytes)));
  }
  return st;
}

// ---------------------------------------------------------------------------
// Analysis

namespace {

enum Layer {
  kSocket,
  kProtocol,
  kQueue,
  kServiceSelf,
  kShardedSelf,
  kDynamicSelf,
  kParse,
  kInstantiate,
  kPlannerSelf,
  kMatcher,
  kVindex,
  kLayerCount
};

const char* const kLayerMetric[kLayerCount] = {
    "socket.self_us",
    "protocol.codec_us",
    "query_service.queue_us",
    "query_service.self_us",
    "sharded_collection.self_us",
    "dynamic_index.query_self_us",
    "query_pattern.parse_us",
    "instantiate.us",
    "planner.compile_self_us",
    "matcher.us",
    "vindex.us",
};

/// What a tile of the request timeline belongs to.
enum class Tile { kClientCodec, kSocket, kServicePre, kQueue, kBackend,
                  kServicePost };

struct Split {
  double ns[kLayerCount] = {};
  double wall_ns = 0.0;
};

double Load(const std::atomic<int64_t>& a) {
  return static_cast<double>(a.load(std::memory_order_relaxed));
}

/// True when every boundary of the request was stamped: client and server
/// connections were paired, and a request that missed the result cache was
/// matched to its backend call.
bool StampsComplete(const Req& r) {
  for (const std::atomic<int64_t>* s :
       {&r.c0, &r.cw0, &r.cw1, &r.sr0, &r.sr_hdr, &r.sb1, &r.ga, &r.sw0,
        &r.sw1, &r.cr0, &r.cr1, &r.c5}) {
    if (s->load(std::memory_order_relaxed) == 0) return false;
  }
  if (r.result_cache_hit) return true;
  return r.claimed.load(std::memory_order_relaxed) && Load(r.b0) != 0.0 &&
         Load(r.b1) != 0.0;
}

/// Wall time of one request that lies inside an interval timed around a
/// call (see ledger.h), clipped to [c0, c5].
double TimedNs(const Req& r) {
  const double start = Load(r.c0);
  const double end = Load(r.c5);
  const bool backend = r.claimed.load(std::memory_order_relaxed);
  // A blocked Read counts from the moment its peer began to write: before
  // that, the wait is the peer's time and must be covered on its side.
  std::vector<std::pair<double, double>> spans = {
      {start, Load(r.cw0)},                              // client encode
      {Load(r.cw0), Load(r.cw1)},                        // client WriteAll
      {std::max(Load(r.sr0), Load(r.cw0)), Load(r.sb1)}, // server Reads
      {Load(r.sw0), Load(r.sw1)},                        // server WriteAll
      {std::max(Load(r.cr0), Load(r.sw0)), Load(r.cr1)}, // client Reads
      {Load(r.cr1), end}};                               // client decode
  if (backend) {
    spans.push_back({Load(r.ga), Load(r.b0)});  // admission queue
    spans.push_back({Load(r.b0), Load(r.b1)});  // backend call
  }
  std::vector<std::pair<double, double>> kept;
  for (const auto& [a, b] : spans) {
    if (a == 0.0 || b == 0.0) continue;  // a boundary never stamped
    const double lo = std::clamp(a, start, end);
    const double hi = std::clamp(b, start, end);
    if (hi > lo) kept.push_back({lo, hi});
  }
  std::sort(kept.begin(), kept.end());
  double covered = 0.0, reach = start;
  for (const auto& [lo, hi] : kept) {
    if (hi <= reach) continue;
    covered += hi - std::max(lo, reach);
    reach = hi;
  }
  // The replayed codec runs in the server's untimed gaps: request decode
  // between the frame read and admission, response encode between the
  // answer (backend return, or admission for a cache hit) and the write.
  auto gap = [](double a, double b) {
    return a > 0.0 && b > a ? b - a : 0.0;
  };
  covered += std::min(gap(Load(r.sb1), Load(r.ga)),
                      static_cast<double>(r.decode_request_ns));
  covered += std::min(gap(backend ? Load(r.b1) : Load(r.ga), Load(r.sw0)),
                      static_cast<double>(r.encode_response_ns));
  return std::min(covered, end - start);
}

/// Splits one request's wall time into layers.
Split SplitRequest(const Req& r, bool dynamic_backend) {
  struct Edge {
    double t;
    Tile next;  ///< tile that starts at this boundary
  };
  std::vector<Edge> edges = {
      {Load(r.c0), Tile::kClientCodec}, {Load(r.cw0), Tile::kSocket},
      {Load(r.cw1), Tile::kSocket},     {Load(r.sr_hdr), Tile::kSocket},
      {Load(r.sb1), Tile::kServicePre}};
  const bool backend = r.claimed.load(std::memory_order_relaxed);
  if (backend) {
    edges.push_back({Load(r.ga), Tile::kQueue});
    edges.push_back({Load(r.b0), Tile::kBackend});
    edges.push_back({Load(r.b1), Tile::kServicePost});
  } else {
    edges.push_back({Load(r.ga), Tile::kServicePost});
  }
  edges.push_back({Load(r.sw0), Tile::kSocket});
  edges.push_back({Load(r.sw1), Tile::kSocket});
  edges.push_back({Load(r.cr1), Tile::kClientCodec});
  edges.push_back({Load(r.c5), Tile::kClientCodec});

  Split out;
  const double start = Load(r.c0);
  const double end = Load(r.c5);
  out.wall_ns = end - start;
  double tiles[6] = {};
  double prev = start;
  for (size_t i = 0; i + 1 < edges.size(); ++i) {
    const double a = edges[i].t;
    const double b = edges[i + 1].t;
    if (a == 0.0 || b == 0.0) continue;  // a boundary never stamped: a gap
    // Boundaries from different threads may cross by a few hundred ns;
    // clamp to a monotone chain inside [c0, c5].
    const double lo = std::clamp(std::max(a, prev), start, end);
    const double hi = std::clamp(std::max(b, lo), start, end);
    tiles[static_cast<int>(edges[i].next)] += hi - lo;
    prev = hi;
  }

  double* ns = out.ns;
  ns[kSocket] = tiles[static_cast<int>(Tile::kSocket)];
  ns[kProtocol] = tiles[static_cast<int>(Tile::kClientCodec)];
  ns[kQueue] = tiles[static_cast<int>(Tile::kQueue)];
  // The server-side codec runs inside the service tiles; its replayed time
  // moves from the service to the protocol layer.
  const double pre = tiles[static_cast<int>(Tile::kServicePre)];
  const double post = tiles[static_cast<int>(Tile::kServicePost)];
  const double dec = std::min(pre, static_cast<double>(r.decode_request_ns));
  const double enc = std::min(post, static_cast<double>(r.encode_response_ns));
  ns[kProtocol] += dec + enc;
  ns[kServiceSelf] = (pre - dec) + (post - enc);

  const double b = tiles[static_cast<int>(Tile::kBackend)];
  if (backend && b > 0.0) {
    const double compile = 1000.0 * static_cast<double>(r.exec.compile_micros);
    const double match = 1000.0 * static_cast<double>(r.exec.match_micros);
    // Only a plan-cache miss instantiates. Each miss the served backend
    // had is charged the replay's mean instantiation per shard compile.
    const double per_compile =
        r.compilations > 0 ? static_cast<double>(r.instantiate_ns) /
                                 static_cast<double>(r.compilations)
                           : 0.0;
    double inst = std::min(
        compile, static_cast<double>(r.plan_misses) * per_compile);
    double planner = compile - inst;
    double matcher = match;
    double vindex = static_cast<double>(r.vindex_ns);
    double parse = static_cast<double>(r.parse_ns);
    // Shards (and segments) are probed concurrently on the pool, so inner
    // times may add up to more than the backend's wall time; scale them
    // down to it so the ledger still sums to the request.
    const double inner = inst + planner + matcher + vindex + parse;
    if (inner > b) {
      const double f = b / inner;
      inst *= f;
      planner *= f;
      matcher *= f;
      vindex *= f;
      parse *= f;
    }
    ns[kInstantiate] = inst;
    ns[kPlannerSelf] = planner;
    ns[kMatcher] = matcher;
    ns[kVindex] = vindex;
    ns[kParse] = parse;
    const double rest = std::max(0.0, b - (inst + planner + matcher + vindex +
                                           parse));
    ns[dynamic_backend ? kDynamicSelf : kShardedSelf] = rest;
  }
  return out;
}

std::string FormatRow(const char* name, const std::vector<double>& us) {
  Summary s = Summarize(us);
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  %-28s %10.1f %10.1f %10.1f\n", name,
                s.mean, s.p50, s.p99);
  return buf;
}

}  // namespace

LayerReport Analyze(const std::vector<const Req*>& reqs,
                    bool dynamic_backend) {
  LayerReport report;
  std::vector<double> per_layer[kLayerCount];
  std::vector<double> wild_layer[kLayerCount];
  std::vector<double> child_layer[kLayerCount];
  std::vector<double> wall_us;
  double hits = 0, bytes = 0, response_bytes = 0;
  double trees = 0, pruned = 0, sequences = 0, entries = 0, candidates = 0,
         terminals = 0, sibling_checks = 0, sibling_rejections = 0;
  double vprobes = 0, vcands = 0, vresults = 0;
  double timed_ns = 0, traced_wall_ns = 0;
  for (const Req* r : reqs) {
    if (!r->ok) continue;
    ++report.queries;
    if (!StampsComplete(*r)) ++report.stamp_failures;
    Split split = SplitRequest(*r, dynamic_backend);
    const double timed = TimedNs(*r);
    timed_ns += timed;
    traced_wall_ns += split.wall_ns;
    const double coverage = split.wall_ns > 0 ? timed / split.wall_ns : 0.0;
    report.coverage_min = std::min(report.coverage_min, coverage);
    if (coverage < 0.95) ++report.coverage_failures;
    wall_us.push_back(split.wall_ns / 1000.0);
    for (int l = 0; l < kLayerCount; ++l) {
      const double us = split.ns[l] / 1000.0;
      per_layer[l].push_back(us);
      (r->wildcard ? wild_layer : child_layer)[l].push_back(us);
    }
    if (r->result_cache_hit) hits += 1;
    bytes += static_cast<double>(r->request_bytes + r->response_bytes);
    response_bytes += static_cast<double>(r->response_bytes);
    if (r->claimed.load(std::memory_order_relaxed)) {
      const xseq::ExecStats& e = r->exec;
      trees += static_cast<double>(e.instantiations);
      pruned += static_cast<double>(e.pruned_instantiations);
      sequences += static_cast<double>(e.matched_sequences);
      entries += static_cast<double>(e.match.link_entries_read);
      candidates += static_cast<double>(e.match.candidates);
      terminals += static_cast<double>(e.match.terminals);
      sibling_checks += static_cast<double>(e.match.sibling_checks);
      sibling_rejections += static_cast<double>(e.match.sibling_rejections);
      if (e.vindex_probes > 0) {
        vprobes += static_cast<double>(e.vindex_probes);
        vcands += static_cast<double>(e.vindex_candidates);
        vresults += static_cast<double>(e.result_docs);
      }
    }
  }
  const double n = std::max<double>(1.0, static_cast<double>(report.queries));
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  auto& m = report.metrics;
  for (int l = 0; l < kLayerCount; ++l) {
    m[kLayerMetric[l]] = Summarize(per_layer[l]).mean;
  }
  m["socket.bytes_per_op"] = bytes / n;
  m["protocol.response_bytes"] = response_bytes / n;
  m["result_cache.hit_ratio"] = hits / n;
  m["instantiate.trees"] = trees / n;
  m["instantiate.pruned"] = pruned / n;
  m["planner.sequences"] = sequences / n;
  m["matcher.link_entries_read"] = entries / n;
  m["matcher.candidates"] = candidates / n;
  m["matcher.useful_ratio"] = ratio(terminals, candidates);
  m["matcher.sibling_rejection_ratio"] =
      ratio(sibling_rejections, sibling_checks);
  m["vindex.probes"] = vprobes / n;
  m["vindex.candidates_per_result"] = ratio(vcands, vresults);
  report.coverage = ratio(timed_ns, traced_wall_ns);
  m["trace.coverage"] = report.coverage;
  m["trace.coverage_min"] = report.coverage_min;

  std::string& t = report.table;
  char line[200];
  auto section = [&](const char* title,
                     const std::vector<double> (&layers)[kLayerCount]) {
    if (layers[0].empty()) return;
    std::snprintf(line, sizeof(line),
                  "ledger (%s, %zu queries): self time per query, us\n"
                  "  %-28s %10s %10s %10s\n",
                  title, layers[0].size(), "layer", "mean", "p50", "p99");
    t += line;
    int largest = 0;
    double largest_mean = -1.0;
    for (int l = 0; l < kLayerCount; ++l) {
      t += FormatRow(kLayerMetric[l], layers[l]);
      const double mean = Summarize(layers[l]).mean;
      if (mean > largest_mean) {
        largest = l;
        largest_mean = mean;
      }
    }
    std::snprintf(line, sizeof(line), "  largest self time: %s\n",
                  kLayerMetric[largest]);
    t += line;
  };
  section("all", per_layer);
  section("'//' and '*' texts", wild_layer);
  section("child-only texts", child_layer);
  t += FormatRow("(client wall time)", wall_us);
  return report;
}

}  // namespace perfbench
