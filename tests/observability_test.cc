// Tests for the observability plane: the wire protocol's trace context and
// explain sections, the Prometheus text
// exposition and its HTTP scrape endpoint, the structured request log
// (tail-sampling policy, rotation), and the acceptance scenario — one
// stitched trace, with a single trace id, spanning an XseqClient round
// trip, the server's queue wait, and per-shard probe spans of a
// three-shard collection.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "src/obs/exposition.h"
#include "src/obs/metrics.h"
#include "src/obs/request_log.h"
#include "src/obs/trace.h"
#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/server/scrape_server.h"
#include "src/server/server.h"
#include "src/server/sharded_collection.h"
#include "src/server/socket.h"
#include "src/util/env.h"
#include "tests/test_util.h"

namespace xseq {
namespace {

using ::xseq::testing::MakeDoc;
using ::xseq::testing::MakeIndex;

std::vector<std::string> Corpus() {
  std::vector<std::string> specs;
  for (int i = 0; i < 60; ++i) {
    specs.push_back(i % 2 == 0 ? "a(b('v1'),c(d('v2')))" : "a(c(b('v1')))");
  }
  return specs;
}

obs::TraceSpan MakeSpan(const char* name, uint32_t parent, uint64_t start,
                        uint64_t dur) {
  obs::TraceSpan s;
  s.name = name;
  s.parent = parent;
  s.start_us = start;
  s.dur_us = dur;
  s.closed = true;
  return s;
}

ShardedCollection BuildSharded(const std::vector<std::string>& specs,
                               int shards) {
  ShardedOptions opts;
  opts.shards = shards;
  ShardedCollection col(opts);
  for (DocId id = 0; id < specs.size(); ++id) {
    size_t s = col.ShardOf(id);
    Document doc = MakeDoc(specs[id], col.names(s), col.values(s), id);
    EXPECT_TRUE(col.Add(std::move(doc)).ok());
  }
  EXPECT_TRUE(col.Seal().ok());
  return col;
}

// ---------------------------------------------------------------------------
// Wire protocol: trace context + explain sections.

TEST(ProtocolV4Test, TraceContextAndExplainFlagRoundTrip) {
  WireRequest req;
  req.op = WireOp::kQuery;
  req.id = 77;
  req.xpath = "/a//b";
  req.deadline_micros = 500;
  req.trace.trace_id = 0xABCDEF123456ull;
  req.trace.parent_span = 3;
  req.trace.sampled = true;
  req.want_explain = true;
  std::string body;
  EncodeRequestBody(req, &body);
  WireRequest out;
  ASSERT_TRUE(DecodeRequestBody(body, &out).ok());
  EXPECT_EQ(static_cast<uint8_t>(body[0]), kWireVersion);
  EXPECT_EQ(out.trace.trace_id, req.trace.trace_id);
  EXPECT_EQ(out.trace.parent_span, 3u);
  EXPECT_TRUE(out.trace.sampled);
  EXPECT_TRUE(out.want_explain);

  // A context-free request decodes to an invalid (zero) context.
  WireRequest plain;
  plain.op = WireOp::kQuery;
  plain.id = 78;
  plain.xpath = "/a";
  body.clear();
  EncodeRequestBody(plain, &body);
  ASSERT_TRUE(DecodeRequestBody(body, &out).ok());
  EXPECT_FALSE(out.trace.valid());
  EXPECT_FALSE(out.want_explain);
}

TEST(ProtocolV4Test, ResponseTraceAndExplainRoundTrip) {
  WireResponse resp;
  resp.op = WireOp::kQuery;
  resp.id = 9;
  resp.docs = {4, 8};
  resp.has_trace = true;
  resp.trace.trace_id = 0x1234ull;
  resp.trace.parent_span = 2;
  resp.trace.wall_start_us = 100;
  resp.trace.spans.push_back(MakeSpan("serve", obs::kNoSpan, 0, 50));
  resp.trace.spans.push_back(MakeSpan("queue", 0, 1, 9));
  resp.trace.spans[1].args.push_back({"queued_us", 9});
  resp.has_explain = true;
  resp.explain.instantiations = 2;
  resp.explain.sequences = 3;
  resp.explain.plan_cache_hit = true;
  resp.explain.predicted_cost = 41;
  resp.explain.actual_cost = 40;
  QueryExplain::SeqEntry e;
  e.positions = 4;
  e.anchor_cardinality = 7;
  e.anchor = 1;
  e.shard = 2;
  resp.explain.seq.push_back(e);
  QueryExplain::ShardBreakdown row;
  row.shard = 2;
  row.docs = 2;
  row.entries_read = 40;
  row.micros = 123;
  resp.explain.shards.push_back(row);

  std::string body;
  EncodeResponseBody(resp, &body);
  WireResponse out;
  ASSERT_TRUE(DecodeResponseBody(body, &out).ok());
  ASSERT_TRUE(out.has_trace);
  EXPECT_EQ(out.trace.trace_id, 0x1234ull);
  EXPECT_EQ(out.trace.parent_span, 2u);
  ASSERT_EQ(out.trace.spans.size(), 2u);
  EXPECT_EQ(out.trace.spans[0].name, "serve");
  EXPECT_EQ(out.trace.spans[1].parent, 0u);
  ASSERT_EQ(out.trace.spans[1].args.size(), 1u);
  EXPECT_EQ(out.trace.spans[1].args[0].first, "queued_us");
  ASSERT_TRUE(out.has_explain);
  EXPECT_EQ(out.explain.instantiations, 2u);
  EXPECT_EQ(out.explain.sequences, 3u);
  EXPECT_TRUE(out.explain.plan_cache_hit);
  EXPECT_EQ(out.explain.predicted_cost, 41u);
  ASSERT_EQ(out.explain.seq.size(), 1u);
  EXPECT_EQ(out.explain.seq[0].positions, 4u);
  EXPECT_EQ(out.explain.seq[0].shard, 2);
  ASSERT_EQ(out.explain.shards.size(), 1u);
  EXPECT_EQ(out.explain.shards[0].entries_read, 40u);
  EXPECT_EQ(out.explain.shards[0].micros, 123);

  // Truncating anywhere inside the trace/explain sections is corruption.
  for (size_t len = body.size() - 40; len < body.size(); ++len) {
    WireResponse trunc;
    EXPECT_FALSE(DecodeResponseBody(body.substr(0, len), &trunc).ok());
  }
}

TEST(ProtocolV4Test, ZeroTraceIdInContextIsCorruption) {
  WireRequest req;
  req.op = WireOp::kQuery;
  req.id = 6;
  req.xpath = "/a";
  req.trace.trace_id = 0x5555ull;
  req.trace.sampled = true;
  std::string body;
  EncodeRequestBody(req, &body);
  // The trace context is the final 17 bytes of a trace-only query body:
  // u64 trace id, u64 parent span, u8 sampled. Zero the id in place.
  ASSERT_GE(body.size(), 17u);
  for (size_t i = body.size() - 17; i < body.size() - 9; ++i) body[i] = '\0';
  WireRequest out;
  EXPECT_EQ(DecodeRequestBody(body, &out).code(), StatusCode::kCorruption);
}

TEST(ProtocolV4Test, MetricsOpRoundTrip) {
  WireRequest req;
  req.op = WireOp::kMetrics;
  req.id = 11;
  std::string body;
  EncodeRequestBody(req, &body);
  WireRequest out;
  ASSERT_TRUE(DecodeRequestBody(body, &out).ok());
  EXPECT_EQ(out.op, WireOp::kMetrics);

  WireResponse resp;
  resp.op = WireOp::kMetrics;
  resp.id = 11;
  resp.payload = "# TYPE xseq_serve_requests counter\nxseq_serve_requests 3\n";
  std::string rbody;
  EncodeResponseBody(resp, &rbody);
  WireResponse rout;
  ASSERT_TRUE(DecodeResponseBody(rbody, &rout).ok());
  EXPECT_EQ(rout.payload, resp.payload);
}

// ---------------------------------------------------------------------------
// Prometheus exposition.

TEST(ExpositionTest, NameSanitization) {
  EXPECT_EQ(obs::PrometheusName("xseq.serve.latency_us"),
            "xseq_serve_latency_us");
  EXPECT_EQ(obs::PrometheusName("9lives!"), "_9lives_");
  EXPECT_EQ(obs::PrometheusName("already_fine"), "already_fine");
}

TEST(ExpositionTest, DumpRendersEveryMetricKind) {
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"xseq.serve.requests", 41});
  snap.gauges.push_back({"xseq.serve.queue_depth", -2});
  snap.gauge_maxes.push_back({"xseq.serve.queue_depth", 9});
  obs::MetricsSnapshot::HistogramView h;
  h.name = "xseq.serve.latency_us";
  h.count = 10;
  h.sum = 1000;
  h.max = 400;
  h.p50 = 80.0;
  h.p90 = 300.0;
  h.p99 = 390.0;
  snap.histograms.push_back(h);

  const std::string text = obs::PrometheusDump(snap);
  EXPECT_NE(text.find("# TYPE xseq_serve_requests counter\n"
                      "xseq_serve_requests 41\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE xseq_serve_queue_depth gauge\n"
                      "xseq_serve_queue_depth -2\n"),
            std::string::npos);
  EXPECT_NE(text.find("xseq_serve_queue_depth_max 9\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE xseq_serve_latency_us summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("xseq_serve_latency_us{quantile=\"0.5\"} 80\n"),
            std::string::npos);
  EXPECT_NE(text.find("xseq_serve_latency_us{quantile=\"0.99\"} 390\n"),
            std::string::npos);
  EXPECT_NE(text.find("xseq_serve_latency_us_sum 1000\n"), std::string::npos);
  EXPECT_NE(text.find("xseq_serve_latency_us_count 10\n"),
            std::string::npos);
  EXPECT_NE(text.find("xseq_serve_latency_us_max 400\n"), std::string::npos);
  // Every line is a comment or a "name[{labels}] value" sample.
  size_t start = 0;
  while (start < text.size()) {
    size_t eol = text.find('\n', start);
    ASSERT_NE(eol, std::string::npos) << "unterminated line";
    const std::string line = text.substr(start, eol - start);
    if (line.rfind("# TYPE ", 0) != 0) {
      EXPECT_NE(line.find(' '), std::string::npos) << line;
    }
    start = eol + 1;
  }
  // A prefix namespaces every series.
  const std::string prefixed = obs::PrometheusDump(snap, "acme_");
  EXPECT_NE(prefixed.find("acme_xseq_serve_requests 41\n"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// HTTP scrape endpoint.

TEST(ScrapeServerTest, ServesMetricsAnd404s) {
  MemorySocketEnv env;
  ScrapeOptions opts;
  opts.host = "scrape";
  opts.socket_env = &env;
  ScrapeServer server(opts, [] {
    return std::string("# TYPE xseq_serve_requests counter\n"
                       "xseq_serve_requests 7\n");
  });
  ASSERT_TRUE(server.Start().ok());

  auto fetch = [&](const std::string& request) {
    auto conn = env.Connect("scrape", server.port());
    EXPECT_TRUE(conn.ok());
    EXPECT_TRUE((*conn)->WriteAll(request).ok());
    std::string out;
    char buf[512];
    for (;;) {
      auto n = (*conn)->Read(buf, sizeof buf);
      if (!n.ok() || *n == 0) break;
      out.append(buf, *n);
    }
    (*conn)->Close();
    return out;
  };

  const std::string ok = fetch("GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(ok.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(ok.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(ok.find("xseq_serve_requests 7"), std::string::npos);
  // Content-Length matches the body exactly.
  const size_t blank = ok.find("\r\n\r\n");
  ASSERT_NE(blank, std::string::npos);
  const std::string hdr = ok.substr(0, blank);
  const size_t cl = hdr.find("Content-Length: ");
  ASSERT_NE(cl, std::string::npos);
  EXPECT_EQ(static_cast<size_t>(
                std::stoul(hdr.substr(cl + strlen("Content-Length: ")))),
            ok.size() - blank - 4);

  EXPECT_NE(fetch("GET /other HTTP/1.0\r\n\r\n").find("404"),
            std::string::npos);
  EXPECT_NE(fetch("POST /metrics HTTP/1.0\r\n\r\n").find("405"),
            std::string::npos);
  EXPECT_NE(fetch("garbage\r\n\r\n").find("400"), std::string::npos);
  EXPECT_EQ(server.requests_served(), 4u);
  server.Stop();
}

TEST(ScrapeServerTest, LiveRegistryScrapeCarriesServeSeries) {
  obs::ScopedMetricsEnabled on(true);
  obs::MetricsRegistry::Default()
      ->GetCounter("xseq.serve.requests")
      ->Increment();
  MemorySocketEnv env;
  ScrapeOptions opts;
  opts.host = "scrape2";
  opts.socket_env = &env;
  ScrapeServer server(opts);  // default content: PrometheusDefaultDump
  ASSERT_TRUE(server.Start().ok());
  auto conn = env.Connect("scrape2", server.port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE((*conn)->WriteAll("GET /metrics HTTP/1.0\r\n\r\n").ok());
  std::string out;
  char buf[4096];
  for (;;) {
    auto n = (*conn)->Read(buf, sizeof buf);
    if (!n.ok() || *n == 0) break;
    out.append(buf, *n);
  }
  (*conn)->Close();
  EXPECT_NE(out.find("xseq_serve_requests"), std::string::npos);
  server.Stop();
}

// ---------------------------------------------------------------------------
// Request log.

TEST(RequestLogTest, LineFormatCarriesTheFields) {
  obs::RequestLogRecord rec;
  rec.ts_us = 1700000000000000ull;
  rec.request_id = 42;
  rec.trace_id = 0xBEEF;
  rec.query = "/a/\"b\"";
  rec.latency_us = 1234;
  rec.queue_us = 56;
  rec.docs = 3;
  rec.explain_json = "{\"sequences\":2}";
  const std::string line = obs::RequestLogLine(rec, "slow");
  EXPECT_NE(line.find("\"id\":42"), std::string::npos);
  EXPECT_NE(line.find("\"trace_id\":48879"), std::string::npos);
  EXPECT_NE(line.find("\"query\":\"/a/\\\"b\\\"\""), std::string::npos);
  EXPECT_NE(line.find("\"reason\":\"slow\""), std::string::npos);
  EXPECT_NE(line.find("\"latency_us\":1234"), std::string::npos);
  EXPECT_NE(line.find("\"queue_us\":56"), std::string::npos);
  EXPECT_NE(line.find("\"explain\":{\"sequences\":2}"), std::string::npos);
  // trace_id 0 omits the field entirely.
  rec.trace_id = 0;
  EXPECT_EQ(obs::RequestLogLine(rec, "slow").find("trace_id"),
            std::string::npos);
}

TEST(RequestLogTest, TailSamplingKeepsEveryInterestingRequest) {
  const std::string path =
      ::testing::TempDir() + "/xseq_obs_request_log.jsonl";
  obs::RequestLogOptions opts;
  opts.path = path;
  opts.slow_micros = 1000;
  opts.sample_every = 10;  // 1 of 10 ordinary OK requests
  auto log = obs::RequestLog::Open(opts);
  ASSERT_TRUE(log.ok());

  auto make = [](bool ok, bool shed, bool deadline, uint64_t latency) {
    obs::RequestLogRecord rec;
    rec.ok = ok;
    rec.shed = shed;
    rec.deadline_miss = deadline;
    rec.latency_us = latency;
    rec.status = ok ? "OK" : "Internal";
    return rec;
  };

  // 100 fast OK requests: exactly 10 survive sampling.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*log)->Append(make(true, false, false, 10)).ok());
  }
  EXPECT_EQ((*log)->records_written(), 10u);
  EXPECT_EQ((*log)->records_dropped(), 90u);

  // Every interesting class survives regardless of the sampler.
  ASSERT_TRUE((*log)->Append(make(false, true, false, 1)).ok());    // shed
  ASSERT_TRUE((*log)->Append(make(false, false, true, 1)).ok());    // ddl
  ASSERT_TRUE((*log)->Append(make(false, false, false, 1)).ok());   // error
  ASSERT_TRUE((*log)->Append(make(true, false, false, 5000)).ok()); // slow
  EXPECT_EQ((*log)->records_written(), 14u);
  ASSERT_TRUE((*log)->Sync().ok());

  std::string data;
  ASSERT_TRUE(Env::Default()->ReadFileToString(path, &data).ok());
  EXPECT_NE(data.find("\"reason\":\"shed\""), std::string::npos);
  EXPECT_NE(data.find("\"reason\":\"deadline\""), std::string::npos);
  EXPECT_NE(data.find("\"reason\":\"error\""), std::string::npos);
  EXPECT_NE(data.find("\"reason\":\"slow\""), std::string::npos);

  // sample_every = 0 drops every ordinary record but keeps the classes.
  obs::RequestLogOptions none = opts;
  none.path = path + ".none";
  none.sample_every = 0;
  auto quiet = obs::RequestLog::Open(none);
  ASSERT_TRUE(quiet.ok());
  ASSERT_TRUE((*quiet)->Append(make(true, false, false, 10)).ok());
  EXPECT_EQ((*quiet)->records_written(), 0u);
  ASSERT_TRUE((*quiet)->Append(make(false, true, false, 1)).ok());
  EXPECT_EQ((*quiet)->records_written(), 1u);
}

TEST(RequestLogTest, RotationBoundsTheFootprint) {
  const std::string path = ::testing::TempDir() + "/xseq_obs_rotate.jsonl";
  obs::RequestLogOptions opts;
  opts.path = path;
  opts.rotate_bytes = 512;  // rotate quickly
  auto log = obs::RequestLog::Open(opts);
  ASSERT_TRUE(log.ok());
  obs::RequestLogRecord rec;
  rec.query = std::string(100, 'q');
  for (int i = 0; i < 40; ++i) ASSERT_TRUE((*log)->Append(rec).ok());
  EXPECT_GT((*log)->rotations(), 0u);
  // Both generations exist; the live file is within a record of the cap.
  std::string live, old;
  ASSERT_TRUE(Env::Default()->ReadFileToString(path, &live).ok());
  ASSERT_TRUE(Env::Default()->ReadFileToString(path + ".1", &old).ok());
  EXPECT_LE(live.size(), 512u + 300u);
  EXPECT_FALSE(old.empty());
}

// ---------------------------------------------------------------------------
// The acceptance scenario: one stitched trace across XseqClient's rpc,
// the server queue, and per-shard probes of a three-shard collection.

// The stitched-trace scenario over `col`, a three-shard collection.
void CheckStitchedTrace(std::shared_ptr<ShardedCollection> col) {
  MemorySocketEnv env;
  obs::Tracer server_ring(8);
  ServerOptions options;
  options.host = "mem";
  options.socket_env = &env;
  options.service.exec.tracer = &server_ring;
  XseqServer server(
      [col](std::string_view xpath, const ExecOptions& opts) {
        return col->Query(xpath, opts);
      },
      options);
  ASSERT_TRUE(server.Start().ok());

  obs::Tracer client_ring(8);
  auto client = XseqClient::Connect("mem", server.port(), &env);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  client->set_tracer(&client_ring);

  auto r = client->Query("/a//b", 0, /*want_explain=*/true);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->docs, col->Query("/a//b")->docs);
  EXPECT_NE(r->trace_id, 0u);

  // Client side: the committed trace holds the whole story under one id.
  ASSERT_EQ(client_ring.size(), 1u);
  const obs::Trace trace = client_ring.Latest();
  EXPECT_EQ(trace.trace_id, r->trace_id);
  std::multiset<std::string> names;
  for (const obs::TraceSpan& s : trace.spans) {
    names.insert(s.name);
    EXPECT_TRUE(s.closed) << s.name;
  }
  EXPECT_EQ(names.count("client_query"), 1u);
  EXPECT_EQ(names.count("rpc"), 1u);
  EXPECT_EQ(names.count("serve"), 1u) << "server root not grafted";
  EXPECT_EQ(names.count("queue"), 1u) << "queue wait span missing";
  EXPECT_EQ(names.count("execute"), 1u);
  EXPECT_EQ(names.count("shard_probe"), 3u)
      << "expected one probe span per shard";

  // Parent links: serve hangs under the rpc span, probes under execute
  // (transitively under serve). Walk each probe up to the root.
  auto index_of = [&](const std::string& name) {
    for (size_t i = 0; i < trace.spans.size(); ++i) {
      if (trace.spans[i].name == name) return i;
    }
    return trace.spans.size();
  };
  const size_t rpc = index_of("rpc");
  const size_t serve = index_of("serve");
  ASSERT_LT(rpc, trace.spans.size());
  ASSERT_LT(serve, trace.spans.size());
  EXPECT_EQ(trace.spans[serve].parent, static_cast<uint32_t>(rpc));
  for (size_t i = 0; i < trace.spans.size(); ++i) {
    if (trace.spans[i].name != "shard_probe") continue;
    uint32_t p = trace.spans[i].parent;
    bool reaches_serve = false;
    while (p != obs::kNoSpan) {
      if (p == serve) reaches_serve = true;
      p = trace.spans[p].parent;
    }
    EXPECT_TRUE(reaches_serve) << "probe span detached from the server root";
  }

  // Server side: its own ring recorded the same distributed id.
  ASSERT_GE(server_ring.size(), 1u);
  EXPECT_EQ(server_ring.Latest().trace_id, r->trace_id);

  // The Chrome export tags every event with the shared id as its pid, so
  // the stitched trace renders as one lane group.
  const std::string json = obs::TraceToChromeJson(trace);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"client_query\""), std::string::npos);
  EXPECT_NE(json.find("\"shard_probe\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":" + std::to_string(r->trace_id)),
            std::string::npos);

  // The explain came back merged across shards.
  ASSERT_TRUE(r->has_explain);
  EXPECT_EQ(r->explain.shards.size(), 3u);
  EXPECT_EQ(r->explain.result_docs, r->docs.size());
  std::set<int32_t> shard_ids;
  for (const auto& row : r->explain.shards) shard_ids.insert(row.shard);
  EXPECT_EQ(shard_ids.size(), 3u);

  client->Close();
  server.Stop();
}

TEST(StitchedTraceTest, OneTraceIdFromClientAttemptToShardProbes) {
  CheckStitchedTrace(
      std::make_shared<ShardedCollection>(BuildSharded(Corpus(), 3)));
  // The dynamic backend, with sealed, tombstoned and buffered documents:
  // the same one trace, and an explain that counts the answer once.
  ShardedOptions opts;
  opts.shards = 3;
  opts.dynamic = true;
  opts.flush_threshold = 8;
  auto dynamic = std::make_shared<ShardedCollection>(opts);
  const std::vector<std::string> specs = Corpus();
  for (DocId id = 0; id < specs.size(); ++id) {
    const size_t s = dynamic->ShardOf(id);
    ASSERT_TRUE(dynamic
                    ->Add(MakeDoc(specs[id], dynamic->names(s),
                                  dynamic->values(s), id))
                    .ok());
  }
  ASSERT_TRUE(dynamic->Delete(0).ok());
  ASSERT_TRUE(dynamic->Delete(static_cast<DocId>(specs.size() - 1)).ok());
  CheckStitchedTrace(dynamic);
}

// ---------------------------------------------------------------------------
// Explain over the wire through the plain client, plus the metrics op.

TEST(ServerObservabilityTest, ExplainAndMetricsOverTheWire) {
  obs::ScopedMetricsEnabled on(true);
  MemorySocketEnv env;
  CollectionIndex idx = MakeIndex(Corpus());
  ServerOptions options;
  options.host = "mem";
  options.socket_env = &env;
  XseqServer server(
      [&](std::string_view xpath, const ExecOptions& opts) {
        return idx.Query(xpath, opts);
      },
      options);
  ASSERT_TRUE(server.Start().ok());
  auto client = XseqClient::Connect("mem", server.port(), &env);
  ASSERT_TRUE(client.ok());

  auto r = client->Query("/a//b", 0, /*want_explain=*/true);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->has_explain);
  EXPECT_GT(r->explain.sequences, 0u);
  EXPECT_EQ(r->explain.result_docs, r->docs.size());
  EXPECT_FALSE(r->explain.ToString().empty());
  EXPECT_NE(r->explain.ToJson().find("\"sequences\""), std::string::npos);

  // Without the flag, no explain crosses the wire.
  auto plain = client->Query("/a//b");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->has_explain);

  auto metrics = client->Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics->find("xseq_serve_requests"), std::string::npos);
  EXPECT_NE(metrics->find("# TYPE"), std::string::npos);

  client->Close();
  server.Stop();
}

// ---------------------------------------------------------------------------
// The access log observes real served traffic end to end.

TEST(ServerObservabilityTest, AccessLogRecordsServedRequests) {
  MemorySocketEnv env;
  CollectionIndex idx = MakeIndex(Corpus());
  const std::string path = ::testing::TempDir() + "/xseq_obs_access.jsonl";
  obs::RequestLogOptions lopts;
  lopts.path = path;
  lopts.sample_every = 1;
  auto log = obs::RequestLog::Open(lopts);
  ASSERT_TRUE(log.ok());

  ServerOptions options;
  options.host = "mem";
  options.socket_env = &env;
  options.service.request_log = log->get();
  XseqServer server(
      [&](std::string_view xpath, const ExecOptions& opts) {
        return idx.Query(xpath, opts);
      },
      options);
  ASSERT_TRUE(server.Start().ok());
  auto client = XseqClient::Connect("mem", server.port(), &env);
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(client->Query("/a/b").ok());
  ASSERT_FALSE(client->Query("][").ok());  // parse error: always logged
  client->Close();
  server.Stop();
  ASSERT_TRUE((*log)->Sync().ok());
  EXPECT_EQ((*log)->records_written(), 2u);

  std::string data;
  ASSERT_TRUE(Env::Default()->ReadFileToString(path, &data).ok());
  EXPECT_NE(data.find("\"query\":\"/a/b\""), std::string::npos);
  EXPECT_NE(data.find("\"reason\":\"error\""), std::string::npos);
  // OK records carry the explain the service computed for the log.
  EXPECT_NE(data.find("\"explain\":{"), std::string::npos);
}

}  // namespace
}  // namespace xseq
