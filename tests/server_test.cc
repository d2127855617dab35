// Tests for the serving layer: sharded collections (differential against
// the unsharded index), the QueryService admission controller (deadlines,
// load shedding, drain), the wire protocol (round trips, truncation at
// every offset, checksum flips), the socket seam (memory env, fault
// injection), and the end-to-end server (query/stats/ping/shutdown over a
// connection, protocol fuzz that must never take the daemon down).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/persist.h"
#include "src/query/executor.h"
#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/server/query_service.h"
#include "src/server/server.h"
#include "src/server/sharded_collection.h"
#include "src/server/socket.h"
#include "src/server/topology.h"
#include "src/util/env.h"
#include "tests/test_util.h"

namespace xseq {
namespace {

using ::xseq::testing::MakeDoc;
using ::xseq::testing::MakeIndex;

// A small corpus with overlapping shapes and values so different queries
// select different (non-trivial) subsets.
std::vector<std::string> Corpus() {
  std::vector<std::string> specs;
  for (int i = 0; i < 60; ++i) {
    switch (i % 5) {
      case 0:
        specs.push_back("a(b('v1'),c(d('v2')))");
        break;
      case 1:
        specs.push_back("a(c(b('v1')),e('v3'))");
        break;
      case 2:
        specs.push_back("a(b('v2'),b('v1'))");
        break;
      case 3:
        specs.push_back("r(a(b('v1')),a(c('v4')))");
        break;
      case 4:
        specs.push_back("a(c(d(b('v5'))))");
        break;
    }
  }
  return specs;
}

std::vector<std::string> Queries() {
  return {
      "/a/b",
      "/a//b",
      "//b[text='v1']",
      "/a/c/d",
      "/a/*/b",
      "//a/b[text='v1']",
      "/r//b",
      "//nosuch",
  };
}

ShardedCollection BuildSharded(const std::vector<std::string>& specs,
                               int shards, bool dynamic) {
  ShardedOptions opts;
  opts.shards = shards;
  opts.dynamic = dynamic;
  opts.flush_threshold = 16;  // force multi-segment dynamic shards
  ShardedCollection col(opts);
  for (DocId id = 0; id < specs.size(); ++id) {
    size_t s = col.ShardOf(id);
    Document doc = MakeDoc(specs[id], col.names(s), col.values(s), id);
    EXPECT_TRUE(col.Add(std::move(doc)).ok());
  }
  EXPECT_TRUE(col.Seal().ok());
  EXPECT_TRUE(col.sealed());
  return col;
}

// ---------------------------------------------------------------------------
// ShardOfDoc

TEST(ShardOfDocTest, StableInRangeAndSpreads) {
  std::set<size_t> hit;
  for (DocId id = 0; id < 1000; ++id) {
    size_t s = ShardOfDoc(id, 7);
    EXPECT_LT(s, 7u);
    EXPECT_EQ(s, ShardOfDoc(id, 7));  // deterministic
    hit.insert(s);
  }
  EXPECT_EQ(hit.size(), 7u);  // 1000 ids must touch every one of 7 shards
  for (DocId id = 0; id < 100; ++id) EXPECT_EQ(ShardOfDoc(id, 1), 0u);
}

// ---------------------------------------------------------------------------
// Differential: sharded results must be bit-identical to unsharded.

class ShardedDifferentialTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(ShardedDifferentialTest, MatchesUnshardedIndex) {
  const int shards = std::get<0>(GetParam());
  const bool dynamic = std::get<1>(GetParam());
  const std::vector<std::string> specs = Corpus();

  CollectionIndex baseline = MakeIndex(specs);
  ShardedCollection col = BuildSharded(specs, shards, dynamic);
  EXPECT_EQ(col.total_documents(), specs.size());

  for (const std::string& q : Queries()) {
    auto expect = baseline.Query(q);
    ASSERT_TRUE(expect.ok()) << q;
    auto got = col.Query(q);
    ASSERT_TRUE(got.ok()) << q;
    EXPECT_EQ(got->docs, expect->docs)
        << q << " (shards=" << shards << " dynamic=" << dynamic << ")";
    // The merged stats' result_docs is the union size, and matching work
    // was really done somewhere whenever something matched (candidates
    // count distinct sequences, so they can be far fewer than docs —
    // identical documents share one constraint sequence).
    EXPECT_EQ(got->stats.result_docs, got->docs.size()) << q;
    if (!expect->docs.empty()) {
      EXPECT_GE(got->stats.match.candidates, 1u) << q;
      EXPECT_GE(got->stats.matched_sequences, 1u) << q;
    }
  }

  // Malformed query surfaces the parse error, not a crash.
  EXPECT_FALSE(col.Query("][").ok());
}

INSTANTIATE_TEST_SUITE_P(
    Shards, ShardedDifferentialTest,
    ::testing::Combine(::testing::Values(1, 2, 7),
                       ::testing::Values(false, true)));

TEST(ShardedCollectionTest, MergedStatsSumAcrossShards) {
  ShardedCollection col = BuildSharded(Corpus(), 3, /*dynamic=*/false);
  auto stats = col.MergedStats();
  EXPECT_EQ(stats.documents, Corpus().size());
  EXPECT_GT(stats.trie_nodes, 0u);
}

TEST(ShardedCollectionTest, AddAfterSealFailsOnStaticBackend) {
  ShardedCollection col = BuildSharded(Corpus(), 2, /*dynamic=*/false);
  ShardedOptions opts;  // fresh tables for the post-seal doc
  ShardedCollection scratch(opts);
  Document doc =
      MakeDoc("a(b('v1'))", scratch.names(0), scratch.values(0), 999);
  EXPECT_FALSE(col.Add(std::move(doc)).ok());
}

TEST(ShardedCollectionTest, DynamicAcceptsAddsAfterSeal) {
  std::vector<std::string> specs = Corpus();
  ShardedCollection col = BuildSharded(specs, 3, /*dynamic=*/true);
  DocId id = static_cast<DocId>(specs.size());
  size_t s = col.ShardOf(id);
  EXPECT_TRUE(
      col.Add(MakeDoc("a(b('fresh'))", col.names(s), col.values(s), id)).ok());
  auto result = col.Query("//b[text='fresh']");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->docs, std::vector<DocId>{id});
}

// ---------------------------------------------------------------------------
// Sharded persistence.

TEST(ShardedPersistTest, SaveLoadRoundTrip) {
  const std::string prefix = ::testing::TempDir() + "/xseq_sharded.col";
  ShardedCollection col = BuildSharded(Corpus(), 3, /*dynamic=*/false);
  ASSERT_TRUE(col.Save(prefix).ok());

  auto loaded = ShardedCollection::Load(prefix);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->shard_count(), 3u);
  EXPECT_EQ(loaded->total_documents(), col.total_documents());
  for (const std::string& q : Queries()) {
    auto expect = col.Query(q);
    auto got = loaded->Query(q);
    ASSERT_TRUE(expect.ok() && got.ok()) << q;
    EXPECT_EQ(got->docs, expect->docs) << q;
  }
}

/// Records every path read through it.
class ReadRecordingEnv : public FaultInjectionEnv {
 public:
  explicit ReadRecordingEnv(Env* base) : FaultInjectionEnv(base) {}
  StatusOr<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    reads.push_back(path);
    return FaultInjectionEnv::NewRandomAccessFile(path);
  }
  std::vector<std::string> reads;
};

TEST(ShardedPersistTest, CorruptManifestRejected) {
  const std::string prefix = ::testing::TempDir() + "/xseq_sharded_bad.col";
  ShardedCollection col = BuildSharded(Corpus(), 2, /*dynamic=*/false);
  ASSERT_TRUE(col.Save(prefix).ok());

  std::string manifest;
  ASSERT_TRUE(Env::Default()->ReadFileToString(prefix, &manifest).ok());
  auto rewrite = [&](const std::string& contents) {
    std::ofstream out(prefix, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
    ASSERT_TRUE(out.good());
  };
  // Both loaders refuse the damaged manifest, and the hot swap refuses it
  // before reading any part.
  auto expect_refused = [&](const std::string& what) {
    EXPECT_FALSE(ShardedCollection::Load(prefix).ok()) << what;
    ReadRecordingEnv env(Env::Default());
    TopologyOptions topts;
    topts.persist.env = &env;
    TopologyManager topo(topts);
    EXPECT_FALSE(topo.Reload(prefix).ok()) << what;
    EXPECT_EQ(topo.Current(), nullptr) << what;
    for (const std::string& read : env.reads) {
      EXPECT_EQ(read.find(".shard"), std::string::npos)
          << what << ": read " << read;
    }
  };
  for (size_t flip : {size_t(0), manifest.size() / 2, manifest.size() - 1}) {
    std::string bad = manifest;
    bad[flip] ^= 0x40;
    rewrite(bad);
    expect_refused("flip@" + std::to_string(flip));
  }
  // Every section boundary (frame start and payload end) and the footer,
  // truncated; bytes flipped at a fixed stride through every shared
  // section's payload.
  const IndexFileReport report = InspectEncodedIndex(manifest);
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  ASSERT_EQ(report.kind, "manifest");
  ASSERT_EQ(report.sections.size(), 5u);
  std::vector<size_t> cuts = {manifest.size() - 8};
  for (const IndexSectionInfo& section : report.sections) {
    cuts.push_back(section.offset - 16);
    cuts.push_back(section.offset + section.length);
    const size_t stride = std::max<size_t>(1, section.length / 16);
    for (size_t off = 0; off < section.length; off += stride) {
      std::string bad = manifest;
      bad[section.offset + off] ^= 0x04;
      rewrite(bad);
      expect_refused(section.name + " flip@" + std::to_string(off));
    }
  }
  for (size_t cut : cuts) {
    rewrite(manifest.substr(0, cut));
    expect_refused("truncated@" + std::to_string(cut));
  }
  // Restore the manifest but remove one shard file: still rejected.
  rewrite(manifest);
  ASSERT_TRUE(ShardedCollection::Load(prefix).ok());
  ASSERT_TRUE(Env::Default()->RemoveFile(prefix + ".shard1").ok());
  EXPECT_FALSE(ShardedCollection::Load(prefix).ok());
}

TEST(ShardedPersistTest, DynamicSaveCompactsToALoadableImage) {
  ShardedCollection col = BuildSharded(Corpus(), 2, /*dynamic=*/true);
  const std::string prefix = ::testing::TempDir() + "/xseq_dyn.col";
  ASSERT_TRUE(col.Save(prefix).ok());
  auto loaded = ShardedCollection::Load(prefix);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->total_documents(), col.total_documents());
}

// ---------------------------------------------------------------------------
// Status codes & executor deadline.

TEST(StatusTest, NewCodesRoundTripAndPrint) {
  Status over = Status::Overloaded("queue full");
  EXPECT_TRUE(over.IsOverloaded());
  EXPECT_NE(over.ToString().find("Overloaded"), std::string::npos);
  Status dead = Status::DeadlineExceeded("too slow");
  EXPECT_TRUE(dead.IsDeadlineExceeded());
  EXPECT_NE(dead.ToString().find("DeadlineExceeded"), std::string::npos);
}

TEST(ExecutorDeadlineTest, ExpiredDeadlineAbortsQuery) {
  CollectionIndex idx = MakeIndex(Corpus());
  ExecOptions opts;
  opts.deadline_micros = DeadlineNowMicros() - 1;  // already past
  auto result = idx.Query("/a//b", opts);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded());

  opts.deadline_micros = DeadlineNowMicros() + 60'000'000;  // generous
  EXPECT_TRUE(idx.Query("/a//b", opts).ok());
}

// ---------------------------------------------------------------------------
// QueryService: admission control.

/// A backend over a real index that can be blocked to hold a worker busy.
struct BlockableBackend {
  CollectionIndex index = MakeIndex(Corpus());
  std::mutex mu;
  std::condition_variable cv;
  bool blocked = false;
  std::atomic<int> entered{0};

  QueryService::Backend AsBackend() {
    return [this](std::string_view xpath, const ExecOptions& opts) {
      ++entered;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !blocked; });
      }
      return index.Query(xpath, opts);
    };
  }
  // Blocks until `n` requests have entered the backend — i.e. each holds
  // an execution slot.
  void WaitForEntered(int n) const {
    while (entered.load() < n) std::this_thread::yield();
  }
  void Block() {
    std::lock_guard<std::mutex> lock(mu);
    blocked = true;
  }
  void Unblock() {
    {
      std::lock_guard<std::mutex> lock(mu);
      blocked = false;
    }
    cv.notify_all();
  }
};

TEST(QueryServiceTest, ExecutesAgainstBackend) {
  BlockableBackend backend;
  ServiceOptions options;
  options.workers = 2;
  QueryService service(backend.AsBackend(), options);
  auto direct = backend.index.Query("/a/b");
  auto served = service.Execute("/a/b");
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served->docs, direct->docs);
  // Parse errors propagate untouched.
  EXPECT_FALSE(service.Execute("][").ok());
  service.Shutdown();
  EXPECT_EQ(service.Execute("/a/b").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(QueryServiceTest, ShedsWhenQueueFull) {
  BlockableBackend backend;
  backend.Block();
  ServiceOptions options;
  options.workers = 1;
  options.max_queue = 1;
  QueryService service(backend.AsBackend(), options);

  // One request occupies the worker (blocked inside the backend)...
  std::thread runner([&] {
    auto r = service.Execute("/a/b");
    EXPECT_TRUE(r.ok());
  });
  // Wait until the worker has dequeued it (queue empty, in-flight 1) —
  // if the filler submitted while the first request was still queued, the
  // filler itself would shed against the depth-1 queue.
  backend.WaitForEntered(1);
  std::thread filler([&] {
    auto r = service.Execute("/a//b");
    EXPECT_TRUE(r.ok());
  });
  while (service.pending() < 2) std::this_thread::yield();

  // Worker busy + queue full: the next request must shed immediately.
  auto shed = service.Execute("/a/c/d");
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsOverloaded());

  backend.Unblock();
  runner.join();
  filler.join();
  service.Shutdown();
}

TEST(QueryServiceTest, DeadlineExpiresInQueue) {
  BlockableBackend backend;
  backend.Block();
  ServiceOptions options;
  options.workers = 1;
  options.max_queue = 4;
  QueryService service(backend.AsBackend(), options);

  std::thread runner([&] { (void)service.Execute("/a/b"); });
  while (service.pending() == 0) std::this_thread::yield();

  // Queued behind the blocked worker with a 1us budget: by the time a
  // worker picks it up the deadline is gone — the backend is never called.
  std::thread waiter([&] {
    auto r = service.Execute("/a//b", /*deadline_budget_micros=*/1);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsDeadlineExceeded());
  });
  while (service.pending() < 2) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  backend.Unblock();
  runner.join();
  waiter.join();
  service.Shutdown();
}

TEST(QueryServiceTest, DefaultDeadlineApplies) {
  CollectionIndex idx = MakeIndex(Corpus());
  ServiceOptions options;
  options.workers = 1;
  options.default_deadline_micros = 60'000'000;
  QueryService service(
      [&](std::string_view xpath, const ExecOptions& opts) {
        // The service must have threaded an absolute deadline in.
        EXPECT_GT(opts.deadline_micros, 0);
        return idx.Query(xpath, opts);
      },
      options);
  EXPECT_TRUE(service.Execute("/a/b").ok());
  service.Shutdown();
}

TEST(QueryServiceTest, ShutdownDrainsQueuedRequests) {
  BlockableBackend backend;
  backend.Block();
  ServiceOptions options;
  options.workers = 1;
  options.max_queue = 8;
  QueryService service(backend.AsBackend(), options);

  std::vector<std::thread> callers;
  std::atomic<int> completed{0};
  for (int i = 0; i < 4; ++i) {
    callers.emplace_back([&] {
      auto r = service.Execute("/a/b");
      if (r.ok()) ++completed;
    });
  }
  while (service.pending() < 4) std::this_thread::yield();
  // Shutdown must wait for all four, not abandon the queue.
  std::thread shutdown([&] { service.Shutdown(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  backend.Unblock();
  shutdown.join();
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(completed.load(), 4);
}

TEST(QueryServiceTest, BackendRunsOnTheCallingThread) {
  CollectionIndex idx = MakeIndex(Corpus());
  std::thread::id backend_thread;
  QueryService service(
      [&](std::string_view xpath, const ExecOptions& opts) {
        backend_thread = std::this_thread::get_id();
        return idx.Query(xpath, opts);
      },
      ServiceOptions{});
  ASSERT_TRUE(service.Execute("/a/b").ok());
  EXPECT_EQ(backend_thread, std::this_thread::get_id());
}

TEST(QueryServiceTest, NeverMoreThanWorkersInTheBackend) {
  CollectionIndex idx = MakeIndex(Corpus());
  std::atomic<int> inside{0};
  std::atomic<int> most{0};
  ServiceOptions options;
  options.workers = 2;
  QueryService service(
      [&](std::string_view xpath, const ExecOptions& opts) {
        const int now = ++inside;
        int seen = most.load();
        while (now > seen && !most.compare_exchange_weak(seen, now)) {
        }
        // Stay inside long enough for the other callers to pile up.
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        auto result = idx.Query(xpath, opts);
        --inside;
        return result;
      },
      options);

  constexpr int kCallers = 8;
  constexpr int kRequests = 25;
  std::atomic<int> ok{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int i = 0; i < kRequests; ++i) {
        if (service.Execute("/a//b").ok()) ++ok;
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(ok.load(), kCallers * kRequests);
  EXPECT_EQ(most.load(), 2);
  EXPECT_EQ(service.pending(), 0u);
}

// ---------------------------------------------------------------------------
// Wire protocol: encode/decode round trips and adversarial bytes.

TEST(ProtocolTest, StatusCodesRoundTripTheWire) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kCorruption, StatusCode::kIOError,
        StatusCode::kFailedPrecondition, StatusCode::kUnimplemented,
        StatusCode::kInternal, StatusCode::kDeadlineExceeded,
        StatusCode::kOverloaded}) {
    EXPECT_EQ(StatusCodeFromWire(StatusCodeToWire(code)), code);
  }
  EXPECT_EQ(StatusCodeFromWire(0xEE), StatusCode::kInternal);
}

TEST(ProtocolTest, RequestRoundTrip) {
  WireRequest req;
  req.op = WireOp::kQuery;
  req.id = 0xDEADBEEFCAFEull;
  req.xpath = "/a//b[text='v1']";
  req.deadline_micros = 12345;
  std::string body;
  EncodeRequestBody(req, &body);
  WireRequest out;
  ASSERT_TRUE(DecodeRequestBody(body, &out).ok());
  EXPECT_EQ(out.op, req.op);
  EXPECT_EQ(out.id, req.id);
  EXPECT_EQ(out.xpath, req.xpath);
  EXPECT_EQ(out.deadline_micros, req.deadline_micros);

  WireRequest ping;
  ping.op = WireOp::kPing;
  ping.id = 7;
  body.clear();
  EncodeRequestBody(ping, &body);
  ASSERT_TRUE(DecodeRequestBody(body, &out).ok());
  EXPECT_EQ(out.op, WireOp::kPing);
  EXPECT_EQ(out.id, 7u);
}

TEST(ProtocolTest, ResponseRoundTripSuccessAndErrors) {
  WireResponse resp;
  resp.op = WireOp::kQuery;
  resp.id = 42;
  resp.docs = {1, 5, 9, 1000000};
  resp.stats.result_docs = 4;
  resp.stats.candidates = 17;
  resp.stats.match_micros = 99;
  resp.stats.plan_cache_hits = 3;
  resp.stats.result_cache_hits = 2;
  resp.stats.pruned_instantiations = 11;
  std::string body;
  EncodeResponseBody(resp, &body);
  WireResponse out;
  ASSERT_TRUE(DecodeResponseBody(body, &out).ok());
  EXPECT_EQ(out.docs, resp.docs);
  EXPECT_EQ(out.stats.result_docs, 4u);
  EXPECT_EQ(out.stats.candidates, 17u);
  EXPECT_EQ(out.stats.match_micros, 99u);
  EXPECT_EQ(out.stats.plan_cache_hits, 3u);
  EXPECT_EQ(out.stats.result_cache_hits, 2u);
  EXPECT_EQ(out.stats.pruned_instantiations, 11u);

  // Error responses rebuild the remote status — code and message — for
  // every failure code the serving layer emits.
  for (Status remote :
       {Status::Overloaded("shed it"), Status::DeadlineExceeded("late"),
        Status::InvalidArgument("bad query"), Status::Internal("boom")}) {
    WireResponse err;
    err.op = WireOp::kQuery;
    err.id = 43;
    err.status = remote;
    body.clear();
    EncodeResponseBody(err, &body);
    ASSERT_TRUE(DecodeResponseBody(body, &out).ok());
    EXPECT_EQ(out.status.code(), remote.code());
    EXPECT_EQ(out.status.ToString(), remote.ToString());
  }

  // Stats payload round-trips verbatim.
  WireResponse stats;
  stats.op = WireOp::kStats;
  stats.id = 44;
  stats.payload = "{\"counters\":{}}";
  body.clear();
  EncodeResponseBody(stats, &body);
  ASSERT_TRUE(DecodeResponseBody(body, &out).ok());
  EXPECT_EQ(out.payload, stats.payload);
}

TEST(ProtocolTest, TruncationAtEveryOffsetRejected) {
  WireRequest req;
  req.op = WireOp::kQuery;
  req.id = 99;
  req.xpath = "/a/b";
  req.deadline_micros = 5;
  std::string body;
  EncodeRequestBody(req, &body);
  WireRequest out;
  for (size_t len = 0; len < body.size(); ++len) {
    EXPECT_FALSE(DecodeRequestBody(body.substr(0, len), &out).ok())
        << "accepted a request truncated to " << len << " bytes";
  }
  // Trailing garbage is as corrupt as missing bytes.
  EXPECT_FALSE(DecodeRequestBody(body + "x", &out).ok());

  WireResponse resp;
  resp.op = WireOp::kQuery;
  resp.id = 99;
  resp.docs = {2, 4};
  std::string rbody;
  EncodeResponseBody(resp, &rbody);
  WireResponse rout;
  for (size_t len = 0; len < rbody.size(); ++len) {
    EXPECT_FALSE(DecodeResponseBody(rbody.substr(0, len), &rout).ok())
        << "accepted a response truncated to " << len << " bytes";
  }
  EXPECT_FALSE(DecodeResponseBody(rbody + "x", &rout).ok());
}

TEST(ProtocolTest, VersionAndOpValidation) {
  WireRequest req;
  req.op = WireOp::kPing;
  req.id = 1;
  std::string body;
  EncodeRequestBody(req, &body);
  WireRequest out;

  std::string future = body;
  future[0] = 9;  // a well-formed frame from the future
  EXPECT_EQ(DecodeRequestBody(future, &out).code(),
            StatusCode::kUnimplemented);

  std::string zero = body;
  zero[0] = 0;
  // Any version mismatch — older or nonsense — is a clean negotiation
  // error naming both versions, never corruption (the bytes are fine).
  EXPECT_EQ(DecodeRequestBody(zero, &out).code(), StatusCode::kUnimplemented);

  std::string badop = body;
  badop[1] = 0x7F;
  EXPECT_EQ(DecodeRequestBody(badop, &out).code(), StatusCode::kCorruption);
  EXPECT_FALSE(IsValidWireOp(0));
  EXPECT_FALSE(IsValidWireOp(0x7F));
  EXPECT_TRUE(IsValidWireOp(static_cast<uint8_t>(WireOp::kQuery)));
}

// ---------------------------------------------------------------------------
// Framing over the in-memory socket env.

TEST(FramingTest, RoundTripOverMemorySocket) {
  MemorySocketEnv env;
  auto listener = env.Listen("mem", 0);
  ASSERT_TRUE(listener.ok());
  auto client = env.Connect("mem", (*listener)->port());
  ASSERT_TRUE(client.ok());
  auto server_side = (*listener)->Accept();
  ASSERT_TRUE(server_side.ok());

  std::string sent(100000, 'x');  // big enough to span many chunks
  sent += "payload-tail";
  ASSERT_TRUE(WriteFrame(client->get(), sent).ok());
  std::string got;
  ASSERT_TRUE(ReadFrame(server_side->get(), &got).ok());
  EXPECT_EQ(got, sent);

  // Clean hangup between frames: kNotFound with eof_ok, kIOError without.
  (*client)->Close();
  EXPECT_EQ(ReadFrame(server_side->get(), &got, /*eof_ok=*/true).code(),
            StatusCode::kNotFound);
}

TEST(FramingTest, FlippedChecksumAndOversizeRejected) {
  MemorySocketEnv env;
  auto listener = env.Listen("mem", 0);
  ASSERT_TRUE(listener.ok());
  auto client = env.Connect("mem", (*listener)->port());
  ASSERT_TRUE(client.ok());
  auto server_side = (*listener)->Accept();
  ASSERT_TRUE(server_side.ok());

  // Hand-build a frame with a corrupted checksum byte.
  std::string good;
  {
    // Borrow WriteFrame's encoding through a scratch connection pair.
    auto l2 = env.Listen("mem2", 0);
    ASSERT_TRUE(l2.ok());
    auto c2 = env.Connect("mem2", (*l2)->port());
    ASSERT_TRUE(c2.ok());
    auto s2 = (*l2)->Accept();
    ASSERT_TRUE(s2.ok());
    ASSERT_TRUE(WriteFrame(c2->get(), "hello frame").ok());
    char buf[256];
    auto n = (*s2)->Read(buf, sizeof buf);
    ASSERT_TRUE(n.ok());
    good.assign(buf, *n);
  }
  ASSERT_GE(good.size(), kFrameHeaderBytes);

  std::string bad = good;
  bad[6] ^= 0x01;  // inside the checksum field
  ASSERT_TRUE((*client)->WriteAll(bad).ok());
  std::string body;
  EXPECT_EQ(ReadFrame(server_side->get(), &body).code(),
            StatusCode::kCorruption);

  // A length header beyond kMaxFrameBody is rejected before allocation.
  std::string huge = good;
  huge[0] = '\xFF';
  huge[1] = '\xFF';
  huge[2] = '\xFF';
  huge[3] = '\xFF';
  ASSERT_TRUE((*client)->WriteAll(huge).ok());
  EXPECT_EQ(ReadFrame(server_side->get(), &body).code(),
            StatusCode::kCorruption);

  // Truncation at every prefix of a valid frame: the reader sees a torn
  // frame (kIOError), never a success and never a hang.
  for (size_t len = 1; len < good.size(); ++len) {
    auto l3 = env.Listen("mem3", 0);
    ASSERT_TRUE(l3.ok());
    auto c3 = env.Connect("mem3", (*l3)->port());
    ASSERT_TRUE(c3.ok());
    auto s3 = (*l3)->Accept();
    ASSERT_TRUE(s3.ok());
    ASSERT_TRUE((*c3)->WriteAll(good.substr(0, len)).ok());
    (*c3)->Close();
    Status st = ReadFrame(s3->get(), &body, /*eof_ok=*/true);
    EXPECT_FALSE(st.ok()) << "accepted a frame truncated to " << len;
    EXPECT_NE(st.code(), StatusCode::kNotFound) << len;
  }
}

TEST(FaultInjectionSocketTest, ShortReadsAreInvisibleToFraming) {
  MemorySocketEnv base;
  FaultInjectionSocketEnv env(&base);
  auto listener = env.Listen("mem", 0);
  ASSERT_TRUE(listener.ok());
  auto client = env.Connect("mem", (*listener)->port());
  ASSERT_TRUE(client.ok());
  auto server_side = (*listener)->Accept();
  ASSERT_TRUE(server_side.ok());

  // Every read dribbles one byte at a time for a while: ReadFull must loop.
  for (uint64_t op = 1; op < 40; ++op) {
    env.FailOperation(op, FaultInjectionSocketEnv::FaultKind::kShortRead);
  }
  ASSERT_TRUE(WriteFrame(client->get(), "short reads are fine").ok());
  std::string body;
  ASSERT_TRUE(ReadFrame(server_side->get(), &body).ok());
  EXPECT_EQ(body, "short reads are fine");
}

TEST(FaultInjectionSocketTest, ReadAndWriteErrorsSurface) {
  MemorySocketEnv base;
  FaultInjectionSocketEnv env(&base);
  auto listener = env.Listen("mem", 0);
  ASSERT_TRUE(listener.ok());
  auto client = env.Connect("mem", (*listener)->port());
  ASSERT_TRUE(client.ok());
  auto server_side = (*listener)->Accept();
  ASSERT_TRUE(server_side.ok());

  // Op indices are 0-based: ops_seen() is exactly the next operation.
  env.FailOperation(env.ops_seen(),
                    FaultInjectionSocketEnv::FaultKind::kWriteError);
  EXPECT_EQ(WriteFrame(client->get(), "never sent").code(),
            StatusCode::kIOError);

  env.ClearFaults();
  ASSERT_TRUE(WriteFrame(client->get(), "arrives").ok());
  env.FailOperation(env.ops_seen(),
                    FaultInjectionSocketEnv::FaultKind::kReadError);
  std::string body;
  EXPECT_EQ(ReadFrame(server_side->get(), &body).code(),
            StatusCode::kIOError);
}

TEST(FaultInjectionSocketTest, TornWriteYieldsTornFrameAtPeer) {
  MemorySocketEnv base;
  FaultInjectionSocketEnv env(&base);
  auto listener = env.Listen("mem", 0);
  ASSERT_TRUE(listener.ok());
  auto client = env.Connect("mem", (*listener)->port());
  ASSERT_TRUE(client.ok());
  auto server_side = (*listener)->Accept();
  ASSERT_TRUE(server_side.ok());

  env.FailOperation(env.ops_seen(),
                    FaultInjectionSocketEnv::FaultKind::kShortWrite);
  EXPECT_EQ(WriteFrame(client->get(), "this frame will tear in half").code(),
            StatusCode::kIOError);
  // The peer got half a frame and a dead connection: a torn frame, never a
  // successful (or hanging) read.
  std::string body;
  Status st = ReadFrame(server_side->get(), &body, /*eof_ok=*/true);
  EXPECT_FALSE(st.ok());
}

// ---------------------------------------------------------------------------
// End-to-end server. MemorySocketEnv keeps the kernel out of the loop;
// one test at the bottom exercises real loopback TCP.

class ServerE2ETest : public ::testing::Test {
 protected:
  void StartServer(ServiceOptions service, QueryService::Backend backend) {
    ServerOptions options;
    options.host = "mem";
    options.service = service;
    options.socket_env = &env_;
    server_ = std::make_unique<XseqServer>(std::move(backend), options);
    ASSERT_TRUE(server_->Start().ok());
  }

  XseqClient Connect() {
    auto client = XseqClient::Connect("mem", server_->port(), &env_);
    EXPECT_TRUE(client.ok());
    return std::move(*client);
  }

  MemorySocketEnv env_;
  std::unique_ptr<XseqServer> server_;
};

TEST_F(ServerE2ETest, QueryStatsPingRoundTrip) {
  CollectionIndex idx = MakeIndex(Corpus());
  StartServer(ServiceOptions{},
              [&](std::string_view xpath, const ExecOptions& opts) {
                return idx.Query(xpath, opts);
              });
  XseqClient client = Connect();

  EXPECT_TRUE(client.Ping().ok());

  auto direct = idx.Query("/a//b");
  ASSERT_TRUE(direct.ok());
  auto remote = client.Query("/a//b");
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(remote->docs, direct->docs);
  EXPECT_EQ(remote->stats.result_docs, direct->docs.size());

  // Several queries on one connection (strict request/response).
  for (const std::string& q : Queries()) {
    auto expect = idx.Query(q);
    ASSERT_TRUE(expect.ok());
    auto got = client.Query(q);
    ASSERT_TRUE(got.ok()) << q;
    EXPECT_EQ(got->docs, expect->docs) << q;
  }

  // A parse error crosses the wire as InvalidArgument, connection intact.
  auto bad = client.Query("][");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(client.Ping().ok());

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("counters"), std::string::npos);

  client.Close();
  // The drain count is a snapshot: the handler that wrote the last
  // response may not have unwound yet when Stop() samples it.
  EXPECT_LE(server_->Stop(), 1u);
}

TEST_F(ServerE2ETest, RemoteShutdownDrains) {
  CollectionIndex idx = MakeIndex(Corpus());
  StartServer(ServiceOptions{},
              [&](std::string_view xpath, const ExecOptions& opts) {
                return idx.Query(xpath, opts);
              });
  XseqClient client = Connect();
  EXPECT_TRUE(client.Shutdown().ok());  // acked before the drain
  server_->WaitForStopRequest();        // must already be requested
  server_->Stop();
  // New connections are refused once stopped.
  EXPECT_FALSE(XseqClient::Connect("mem", server_->port(), &env_).ok());
}

TEST_F(ServerE2ETest, OverloadShedsAcrossTheWire) {
  BlockableBackend backend;
  backend.Block();
  ServiceOptions service;
  service.workers = 1;
  service.max_queue = 1;
  StartServer(service, backend.AsBackend());

  // Four concurrent one-shot queries against capacity 2 (1 worker +
  // queue of 1): however the arrivals interleave, at most two are
  // admitted (they block in the backend / queue until Unblock) and at
  // least two shed immediately with kOverloaded over the wire.
  constexpr int kClients = 4;
  std::vector<XseqClient> clients;
  for (int i = 0; i < kClients; ++i) clients.push_back(Connect());
  std::atomic<int> ok{0}, shed{0}, other{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      auto r = clients[static_cast<size_t>(i)].Query("/a/b");
      if (r.ok()) {
        ++ok;
      } else if (r.status().IsOverloaded()) {
        ++shed;
      } else {
        ++other;
      }
    });
  }
  // Shed responses return immediately; admitted ones block until released.
  while (shed.load() < kClients - 2) std::this_thread::yield();
  backend.Unblock();
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(other.load(), 0);
  EXPECT_GE(shed.load(), kClients - 2);
  EXPECT_EQ(ok.load(), kClients - shed.load());
  EXPECT_GE(ok.load(), 1);  // the admitted request(s) completed normally
  server_->Stop();
}

TEST_F(ServerE2ETest, StopCountsAnInFlightQueryOnce) {
  BlockableBackend backend;
  backend.Block();
  StartServer(ServiceOptions{}, backend.AsBackend());
  XseqClient client = Connect();
  std::thread query([&] { EXPECT_TRUE(client.Query("/a/b").ok()); });
  backend.WaitForEntered(1);

  size_t drained = 0;
  std::thread stopper([&] { drained = server_->Stop(); });
  // Stop() takes its count right after requesting the stop; give it that
  // moment before the query may finish.
  server_->WaitForStopRequest();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  backend.Unblock();
  query.join();
  stopper.join();
  EXPECT_EQ(drained, 1u);
}

TEST_F(ServerE2ETest, DeadlineExceededCrossesTheWire) {
  CollectionIndex idx = MakeIndex(Corpus());
  ServiceOptions service;
  service.workers = 1;
  StartServer(service,
              [&](std::string_view xpath, const ExecOptions& opts) {
                // Burn past any 1us budget before consulting the deadline.
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
                if (opts.DeadlineExpired()) {
                  return StatusOr<QueryResult>(
                      Status::DeadlineExceeded("query deadline exceeded"));
                }
                return idx.Query(xpath, opts);
              });
  XseqClient client = Connect();
  auto r = client.Query("/a/b", /*deadline_budget_micros=*/1);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDeadlineExceeded());
  // The connection survives a deadline miss.
  EXPECT_TRUE(client.Ping().ok());
  server_->Stop();
}

TEST_F(ServerE2ETest, ProtocolFuzzNeverKillsTheServer) {
  CollectionIndex idx = MakeIndex(Corpus());
  StartServer(ServiceOptions{},
              [&](std::string_view xpath, const ExecOptions& opts) {
                return idx.Query(xpath, opts);
              });

  // A valid query frame to mutate.
  WireRequest req;
  req.op = WireOp::kQuery;
  req.id = 5;
  req.xpath = "/a/b";
  std::string body;
  EncodeRequestBody(req, &body);
  std::string frame;
  {
    MemorySocketEnv scratch;
    auto l = scratch.Listen("s", 0);
    ASSERT_TRUE(l.ok());
    auto c = scratch.Connect("s", (*l)->port());
    ASSERT_TRUE(c.ok());
    auto s = (*l)->Accept();
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE(WriteFrame(c->get(), body).ok());
    char buf[256];
    auto n = (*s)->Read(buf, sizeof buf);
    ASSERT_TRUE(n.ok());
    frame.assign(buf, *n);
  }

  // Truncate at every offset; server must respond with an error frame or
  // just close — and keep serving everyone else.
  for (size_t len = 0; len <= frame.size(); ++len) {
    auto conn = env_.Connect("mem", server_->port());
    ASSERT_TRUE(conn.ok());
    if (len > 0) {
      ASSERT_TRUE((*conn)->WriteAll(frame.substr(0, len)).ok());
    }
    (*conn)->Close();
  }
  // Flip every byte of the header and the first body bytes. Don't wait
  // for a response: a flip in the length field legitimately leaves the
  // server expecting more body bytes — closing is what unwedges it.
  for (size_t i = 0; i < std::min(frame.size(), kFrameHeaderBytes + 4); ++i) {
    std::string bad = frame;
    bad[i] ^= 0x20;
    auto conn = env_.Connect("mem", server_->port());
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE((*conn)->WriteAll(bad).ok());
    (*conn)->Close();
  }
  // Pure garbage.
  {
    auto conn = env_.Connect("mem", server_->port());
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE((*conn)->WriteAll("GET / HTTP/1.1\r\n\r\n").ok());
    (*conn)->Close();
  }

  // After all of that, a well-behaved client still gets answers.
  XseqClient client = Connect();
  auto direct = idx.Query("/a/b");
  ASSERT_TRUE(direct.ok());
  auto remote = client.Query("/a/b");
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(remote->docs, direct->docs);
  server_->Stop();
}

TEST_F(ServerE2ETest, ShardedBackendOverTheWire) {
  auto col = std::make_shared<ShardedCollection>(
      BuildSharded(Corpus(), 4, /*dynamic=*/false));
  CollectionIndex baseline = MakeIndex(Corpus());
  StartServer(ServiceOptions{},
              [col](std::string_view xpath, const ExecOptions& opts) {
                return col->Query(xpath, opts);
              });
  XseqClient client = Connect();
  for (const std::string& q : Queries()) {
    auto expect = baseline.Query(q);
    ASSERT_TRUE(expect.ok());
    auto got = client.Query(q);
    ASSERT_TRUE(got.ok()) << q;
    EXPECT_EQ(got->docs, expect->docs) << q;
  }
  server_->Stop();
}

TEST(ServerTcpTest, LoopbackEndToEnd) {
  CollectionIndex idx = MakeIndex(Corpus());
  ServerOptions options;  // real TCP on 127.0.0.1, ephemeral port
  XseqServer server(
      [&](std::string_view xpath, const ExecOptions& opts) {
        return idx.Query(xpath, opts);
      },
      options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  auto client = XseqClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client->Ping().ok());
  auto direct = idx.Query("/a//b");
  ASSERT_TRUE(direct.ok());
  auto remote = client->Query("/a//b");
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(remote->docs, direct->docs);
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("xseq"), std::string::npos);
  client->Close();
  server.Stop();

  // Stop is idempotent and the port is now closed.
  server.Stop();
  EXPECT_FALSE(XseqClient::Connect("127.0.0.1", server.port()).ok());
}

}  // namespace
}  // namespace xseq
