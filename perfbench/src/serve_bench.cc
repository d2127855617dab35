// serve_bench: one workload of the serving benchmark, end to end.
//
// An in-process XseqServer, wired as examples/xseq_serve.cpp wires it (a
// TopologyManager over a 4-shard ShardedCollection, 2 workers, a queue of
// 64, the result cache on), is driven over loopback TCP by closed-loop
// reader clients and, on mixed_rw, one open-loop writer. Every answer is
// checked outside the timed window. See perfbench/NOTES.md for why each
// workload exists and what each metric should move.
//
//   serve_bench --workload cold_param|warm_hot|mixed_rw --seed N
//               --seconds S --trace 0|1 --dir SCRATCH_DIR [--commit SHA]
//
// The last stdout line is the result object {correct, attempted, failed,
// metrics}: end-to-end metrics untraced, per-layer metrics traced. The line
// before it ("ALL_METRICS {...}") carries every number plus the host row.
// Exit status is nonzero when an answer was wrong or an operation failed.

#include <pthread.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <iterator>
#include <memory>
#include <random>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ledger.h"
#include "queries.h"
#include "src/core/collection_index.h"
#include "src/gen/xmark.h"
#include "src/obs/trace.h"
#include "src/query/planner.h"
#include "src/server/client.h"
#include "src/server/result_cache.h"
#include "src/server/server.h"
#include "src/server/sharded_collection.h"
#include "src/server/topology.h"
#include "src/vindex/compare.h"
#include "src/xml/parser.h"
#include "stats.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using xseq::DocId;
using xseq::Status;
using xseq::StatusOr;

constexpr int kShards = 4;
constexpr int kReaders = 2;
constexpr double kWriteRate = 200.0;  // mixed_rw mutations per second
constexpr size_t kFlushThreshold = 32;  // mixed_rw; see SetupDynamic
constexpr int kSetups = 3;             // set-ups per run; setup_s is the median
constexpr double kWarmupSeconds = 1.0;
constexpr int kSubwindows = 10;
constexpr double kMaxTraced = 100000;  // traced requests kept per run

// ---------------------------------------------------------------------------
// Arguments and workloads

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    if (key == "--workload") a->workload = value;
    else if (key == "--seed") a->seed = std::stoull(value);
    else if (key == "--seconds") a->seconds = std::stod(value);
    else if (key == "--trace") a->trace = value == "1";
    else if (key == "--dir") a->dir = value;
    else if (key == "--commit") a->commit = value;
    else return false;
  }
  return !a->workload.empty() && !a->dir.empty() && a->seconds > 0;
}

enum class Kind { kColdParam, kWarmHot, kMixedRw };

struct Workload {
  Kind kind;
  DocId docs;
};

bool LookupWorkload(const std::string& name, Workload* w) {
  if (name == "cold_param") *w = {Kind::kColdParam, 40000};
  else if (name == "warm_hot") *w = {Kind::kWarmHot, 40000};
  else if (name == "mixed_rw") *w = {Kind::kMixedRw, 20000};
  else return false;
  return true;
}

// ---------------------------------------------------------------------------
// Host row

/// Cores that really run in parallel: spin work done by nproc threads over
/// the work one thread does in the same time.
double EffectiveCores(int nproc) {
  auto spin = [](int threads) {
    std::atomic<bool> stop{false};
    std::vector<uint64_t> counts(static_cast<size_t>(threads), 0);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&stop, &counts, t] {
        uint64_t n = 0, x = 1;
        while (!stop.load(std::memory_order_relaxed)) {
          for (int i = 0; i < 1000; ++i) x = x * 6364136223846793005ULL + 1;
          ++n;
        }
        counts[static_cast<size_t>(t)] = n + (x == 0 ? 1 : 0);
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    stop.store(true);
    for (std::thread& th : pool) th.join();
    uint64_t total = 0;
    for (uint64_t c : counts) total += c;
    return static_cast<double>(total);
  };
  const double one = spin(1);
  const double all = spin(nproc);
  return one > 0 ? all / one : 0.0;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec / 1e9;
}

double ThreadCpuSeconds(std::thread* t) {
  clockid_t cid;
  if (pthread_getcpuclockid(t->native_handle(), &cid) != 0) return 0.0;
  timespec ts{};
  clock_gettime(cid, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec / 1e9;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double Median(std::vector<double> v) { return Summarize(std::move(v)).p50; }

// ---------------------------------------------------------------------------
// Corpus and set-up

/// Adds records [0, n) of the seeded XMark corpus, each generated against
/// the tables of the shard that owns it (as xseq_serve --gen does). A
/// nonzero `compact_every` compacts after that many records, which bounds
/// how many small segments a dynamic collection holds at once.
Status AddGenerated(xseq::ShardedCollection* col, uint64_t seed, DocId n,
                    DocId compact_every = 0) {
  xseq::XMarkParams params;
  params.seed = seed;
  std::vector<std::unique_ptr<xseq::XMarkGenerator>> gens;
  for (size_t s = 0; s < col->shard_count(); ++s) {
    gens.push_back(std::make_unique<xseq::XMarkGenerator>(
        params, col->names(s), col->values(s)));
  }
  for (DocId d = 0; d < n; ++d) {
    XSEQ_RETURN_IF_ERROR(col->Add(gens[col->ShardOf(d)]->Generate(d)));
    if (compact_every != 0 && (d + 1) % compact_every == 0) {
      XSEQ_RETURN_IF_ERROR(col->Compact());
    }
  }
  return col->Seal();
}

/// Process CPU and wall seconds of one set-up phase. Set-up is reported in
/// CPU seconds: the work it takes, which other tenants of the host change
/// far less than they change its wall time.
struct Cost {
  double cpu = 0, wall = 0;
  Cost operator+(const Cost& o) const { return {cpu + o.cpu, wall + o.wall}; }
};

class Stopwatch {
 public:
  Cost Elapsed() const {
    return {ProcessCpuSeconds() - cpu0_, (NowNs() - wall0_) / 1e9};
  }

 private:
  double cpu0_ = ProcessCpuSeconds();
  int64_t wall0_ = NowNs();
};

struct SetupTimes {
  Cost build, save, reload;
  Cost total() const { return build + save + reload; }
};

struct Served {
  std::shared_ptr<xseq::TopologyManager> topo;
  std::shared_ptr<xseq::ShardedCollection> dynamic;  ///< mixed_rw only
  uint64_t image_bytes = 0;
};

/// Bytes of a saved sharded image: the manifest plus every shard file.
uint64_t ImageBytes(const std::string& prefix, size_t shards) {
  auto size = [](const std::string& path) -> uint64_t {
    std::error_code ec;
    const uintmax_t n = std::filesystem::file_size(path, ec);
    return ec ? 0 : n;
  };
  uint64_t total = size(prefix);
  for (size_t s = 0; s < shards; ++s) {
    total += size(xseq::ShardImagePath(prefix, s));
  }
  return total;
}

/// Static set-up: build the sharded image, save it, then load it through
/// TopologyManager::Reload, the path `xseq_serve --sharded` takes.
StatusOr<Served> SetupStatic(uint64_t seed, DocId n, const std::string& dir,
                             SetupTimes* times) {
  const std::string prefix = dir + "/image";
  Served out;
  {
    xseq::ShardedOptions opts;
    opts.shards = kShards;
    xseq::ShardedCollection col(opts);
    Stopwatch build;
    XSEQ_RETURN_IF_ERROR(AddGenerated(&col, seed, n));
    times->build = build.Elapsed();
    Stopwatch save;
    XSEQ_RETURN_IF_ERROR(col.Save(prefix));
    times->save = save.Elapsed();
  }
  out.image_bytes = ImageBytes(prefix, kShards);
  out.topo = std::make_shared<xseq::TopologyManager>(xseq::TopologyOptions{});
  Stopwatch reload;
  auto gen = out.topo->Reload(prefix);
  if (!gen.ok()) return gen.status();
  times->reload = reload.Elapsed();
  return out;
}

/// Dynamic set-up: the records go into DynamicIndex shards, compacted into
/// one segment per shard and installed live as `xseq_serve --gen
/// --dynamic` does. Unlike xseq_serve (1024 documents), each shard seals
/// its buffer every kFlushThreshold documents: unsealed documents are
/// scanned brute force by every query, so at 1024 the scan would grow for
/// the whole window (~40 s per cycle at this write rate) and no seal would
/// fall inside it; at 32 a shard seals about every 1.3 s. Every segment
/// copies its shard's vocabulary, so the seed corpus is compacted every
/// 5000 records while it loads, keeping set-up memory bounded.
StatusOr<Served> SetupDynamic(uint64_t seed, DocId n, SetupTimes* times) {
  xseq::ShardedOptions opts;
  opts.shards = kShards;
  opts.dynamic = true;
  opts.flush_threshold = kFlushThreshold;
  Served out;
  out.dynamic = std::make_shared<xseq::ShardedCollection>(opts);
  Stopwatch build;
  XSEQ_RETURN_IF_ERROR(
      AddGenerated(out.dynamic.get(), seed, n, /*compact_every=*/5000));
  XSEQ_RETURN_IF_ERROR(out.dynamic->Compact());
  out.topo = std::make_shared<xseq::TopologyManager>(xseq::TopologyOptions{});
  out.topo->Install(out.dynamic);
  times->build = build.Elapsed();
  return out;
}

// ---------------------------------------------------------------------------
// Load generation

struct ReadRecord {
  int64_t start = 0, end = 0;
  uint32_t text = 0;
  bool ok = false;
  bool shed = false;
  bool hit = false;
  uint64_t hash = 0;
  uint32_t docs = 0;
};

struct MutationRecord {
  int64_t due = 0, sent = 0, done = 0;
  bool ok = false;
};

uint64_t HashDocs(const std::vector<DocId>& docs) {
  uint64_t h = 1469598103934665603ULL;
  for (DocId d : docs) {
    h ^= d;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Times the inner public calls of one traced query again, on the same
/// input, on the shards of `target` (see ledger.h).
void ReplayInner(const xseq::ShardedCollection& target, Req* req) {
  for (size_t s = 0; s < target.shard_count(); ++s) {
    const xseq::CollectionIndex* idx = target.shard(s);
    if (idx == nullptr) return;
    int64_t t = NowNs();
    auto pattern = xseq::ParseXPath(*req->xpath);
    req->parse_ns += NowNs() - t;
    if (!pattern.ok()) return;
    xseq::QueryPattern skeleton;
    const xseq::QueryPattern* use = &*pattern;
    if (xseq::HasComparisons(*pattern)) {
      std::vector<xseq::ValueComparison> cmps;
      skeleton = xseq::StripComparisons(*pattern, &cmps);
      t = NowNs();
      std::vector<DocId> docs;
      for (size_t i = 0; i < cmps.size(); ++i) {
        std::vector<DocId> c = xseq::CandidateDocs(
            idx->vindex(), idx->dict(), idx->names(), cmps[i], nullptr,
            nullptr);
        if (i == 0) {
          docs = std::move(c);
        } else {
          std::vector<DocId> both;
          std::set_intersection(docs.begin(), docs.end(), c.begin(), c.end(),
                                std::back_inserter(both));
          docs = std::move(both);
        }
      }
      req->vindex_ns += NowNs() - t;
      if (docs.empty() || xseq::ComparisonImpliesSkeleton(skeleton, cmps)) {
        continue;  // answered from postings: no compile on this shard
      }
      use = &skeleton;
    }
    xseq::QueryPlanner planner(&idx->index(), &idx->schema());
    xseq::InstantiateOptions inst;
    inst.viable = [&planner](xseq::PathId p) { return planner.Viable(p); };
    t = NowNs();
    auto trees = xseq::InstantiatePattern(*use, idx->dict(), idx->names(),
                                          idx->values(), inst);
    req->instantiate_ns += NowNs() - t;
    ++req->compilations;
  }
}

void ReplayCodec(const TimingConnection& conn, Req* req) {
  xseq::WireRequest wreq;
  int64_t t = NowNs();
  (void)xseq::DecodeRequestBody(conn.last_request_body(), &wreq);
  req->decode_request_ns = NowNs() - t;
  xseq::WireResponse wresp;
  if (!xseq::DecodeResponseBody(conn.last_response_body(), &wresp).ok()) {
    return;
  }
  std::string out;
  t = NowNs();
  xseq::EncodeResponseBody(wresp, &out);
  req->encode_response_ns = NowNs() - t;
}

struct Shared {
  std::atomic<bool> stop{false};
  std::atomic<int64_t> window_start{0};
  int64_t window_end = 0;        ///< set before window_start is published
  uint64_t trace_stride = 1;     ///< likewise
  std::atomic<uint64_t> warmup_reads{0};
};

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
  uint64_t samples;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + Num(ms[i].value) +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}";
}

/// Value of counter `name` in a MetricsRegistry JSON dump (0 if absent).
uint64_t CounterFromStats(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const size_t pos = json.find(key);
  if (pos == std::string::npos) return 0;
  return std::strtoull(json.c_str() + pos + key.size(), nullptr, 10);
}

// ---------------------------------------------------------------------------

int Run(const Args& args) {
  Workload w;
  if (!LookupWorkload(args.workload, &w)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const bool mixed = w.kind == Kind::kMixedRw;
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const double effective_cores = EffectiveCores(nproc);
  std::printf("serve_bench %s seed=%llu seconds=%g trace=%d docs=%u\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, w.docs);
  std::printf("host: nproc=%d effective_cores=%.2f build=%s commit=%s\n",
              nproc, effective_cores, PERFBENCH_BUILD_TYPE,
              args.commit.c_str());

  // Inputs, all from the seed.
  std::vector<QueryText> texts;
  if (w.kind == Kind::kColdParam) {
    texts = ParamTexts(args.seed, args.seed * 7 + 1, w.docs, 40000);
  } else if (w.kind == Kind::kWarmHot) {
    texts = ParamTexts(args.seed, args.seed * 7 + 2, w.docs, 16);
  } else {
    std::vector<QueryText> structural =
        ParamTexts(args.seed, args.seed * 7 + 3, w.docs, 32);
    std::vector<QueryText> ranges = RangeTexts(args.seed * 7 + 4, 32);
    for (size_t i = 0; i < 32; ++i) {
      texts.push_back(structural[i]);
      texts.push_back(ranges[i]);
    }
  }
  std::vector<Mutation> mutations;
  std::vector<std::string> update_xml;
  if (mixed) {
    mutations = MakeMutations(args.seed, w.docs,
                              static_cast<size_t>(kWriteRate * args.seconds) + 16,
                              &update_xml);
  }

  // Set-up, repeated; the last one serves.
  std::filesystem::create_directories(args.dir);
  std::vector<double> setup_s, setup_wall_s, build_s, save_s, reload_s;
  Served served;
  for (int k = 0; k < kSetups; ++k) {
    served = Served{};  // release the previous generation first
    SetupTimes t;
    auto s = mixed ? SetupDynamic(args.seed, w.docs, &t)
                   : SetupStatic(args.seed, w.docs, args.dir, &t);
    if (!s.ok()) {
      std::fprintf(stderr, "setup: %s\n", s.status().ToString().c_str());
      return 1;
    }
    served = std::move(*s);
    setup_s.push_back(t.total().cpu);
    setup_wall_s.push_back(t.total().wall);
    build_s.push_back(t.build.cpu);
    save_s.push_back(t.save.cpu);
    reload_s.push_back(t.reload.cpu);
  }
  std::shared_ptr<xseq::TopologyManager> topo = served.topo;

  // Replay target for traced runs: the served static shards, or for the
  // dynamic backend (whose segments are private) a static build of the
  // same seed corpus.
  std::shared_ptr<const xseq::ShardedCollection> replay_target;
  if (args.trace) {
    if (mixed) {
      xseq::ShardedOptions opts;
      opts.shards = kShards;
      auto shadow = std::make_shared<xseq::ShardedCollection>(opts);
      Status st = AddGenerated(shadow.get(), args.seed, w.docs);
      if (!st.ok()) {
        std::fprintf(stderr, "shadow: %s\n", st.ToString().c_str());
        return 1;
      }
      replay_target = shadow;
    } else {
      replay_target = topo->Current();
    }
  }

  // The server, wired like xseq_serve.
  const size_t clients = kReaders + (mixed ? 1 : 0) + 1;  // + admin
  Ledger ledger(clients);
  TimingSocketEnv timing_env(&ledger);
  xseq::ResultCache result_cache;
  auto vocab_mu = std::make_shared<std::shared_mutex>();
  std::atomic<int64_t> mutation_ns{0};
  std::atomic<uint64_t> mutation_calls{0};

  xseq::QueryService::Backend backend;
  if (mixed) {
    backend = [topo, vocab_mu](std::string_view xpath,
                               const xseq::ExecOptions& o) {
      std::shared_lock<std::shared_mutex> lock(*vocab_mu);
      return topo->Query(xpath, o);
    };
  } else {
    backend = [topo](std::string_view xpath, const xseq::ExecOptions& o) {
      return topo->Query(xpath, o);
    };
  }
  xseq::ServerOptions options;
  options.service.workers = 2;
  options.service.max_queue = 64;
  options.service.result_cache = &result_cache;
  if (args.trace) {
    options.socket_env = &timing_env;
    // The call gets a TraceBuilder only to count its compiles: every shard
    // or segment probe that compiles opens a "compile" span, marked
    // plan_cache_hit when the plan came from the cache. No span time from
    // it enters the ledger.
    backend = [inner = std::move(backend), &ledger](
                  std::string_view xpath, const xseq::ExecOptions& o) {
      const int64_t b0 = NowNs();
      Req* req = ledger.ClaimForBackend(xpath);
      xseq::ExecOptions counted = o;
      xseq::obs::TraceBuilder compiles;
      if (counted.trace == nullptr) {
        counted.trace_parent = compiles.StartTrace("perfbench");
        counted.trace = &compiles;
      }
      auto result = inner(xpath, counted);
      const int64_t b1 = NowNs();
      if (req != nullptr) {
        req->b0.store(b0, std::memory_order_relaxed);
        req->b1.store(b1, std::memory_order_relaxed);
        if (result.ok()) req->exec = result->stats;
        for (const xseq::obs::TraceSpan& s : compiles.Finish().spans) {
          if (s.name != "compile") continue;
          bool hit = false;
          for (const auto& [key, value] : s.args) {
            hit = hit || (key == "plan_cache_hit" && value != 0);
          }
          if (!hit) ++req->plan_misses;
        }
      }
      return result;
    };
    options.service.generation = [topo] {
      NoteAdmission();
      return topo->generation();
    };
  } else {
    options.service.generation = [topo] { return topo->generation(); };
  }
  if (mixed) {
    std::shared_ptr<xseq::ShardedCollection> col = served.dynamic;
    const bool trace = args.trace;
    auto timed = [trace, &mutation_ns, &mutation_calls](auto&& call) {
      const int64_t t0 = NowNs();
      Status st = call();
      if (trace) {
        mutation_ns += NowNs() - t0;
        ++mutation_calls;
      }
      return st;
    };
    options.delete_handler = [col, topo, timed](uint64_t id)
        -> StatusOr<uint64_t> {
      XSEQ_RETURN_IF_ERROR(
          timed([&] { return col->Delete(static_cast<DocId>(id)); }));
      return topo->generation();
    };
    options.update_handler = [col, topo, vocab_mu, timed](
                                 uint64_t id, const std::string& xml)
        -> StatusOr<uint64_t> {
      const DocId doc_id = static_cast<DocId>(id);
      const size_t shard = col->ShardOf(doc_id);
      xseq::Document doc;
      {
        std::unique_lock<std::shared_mutex> lock(*vocab_mu);
        xseq::XmlParser parser(col->names(shard), col->values(shard));
        auto parsed = parser.Parse(xml, doc_id);
        if (!parsed.ok()) return parsed.status();
        doc = std::move(*parsed);
      }
      XSEQ_RETURN_IF_ERROR(
          timed([&] { return col->Update(std::move(doc), doc_id); }));
      return topo->generation();
    };
  }

  xseq::XseqServer server(std::move(backend), options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
    return 1;
  }
  // Clients connect one at a time, each pinging before the next connects,
  // so server connection k is client k's (see ledger.h).
  std::vector<xseq::XseqClient> conns;
  for (size_t c = 0; c < clients; ++c) {
    auto client = xseq::XseqClient::Connect(
        "127.0.0.1", server.port(), args.trace ? &timing_env : nullptr);
    if (!client.ok() || !client->Ping().ok()) {
      std::fprintf(stderr, "connect failed\n");
      return 1;
    }
    conns.push_back(std::move(*client));
  }
  xseq::XseqClient& admin = conns.back();

  // Readers: closed loop from the first request on; the window opens after
  // the warm-up.
  Shared shared;
  std::vector<std::vector<ReadRecord>> reads(kReaders);
  std::vector<std::deque<Req>> reqs(kReaders);
  std::atomic<size_t> next_cold{0};
  auto pick = [&](int reader, uint64_t i, std::mt19937_64* rng) -> size_t {
    switch (w.kind) {
      case Kind::kColdParam:
        return next_cold.fetch_add(1) % texts.size();
      case Kind::kWarmHot:
        return (static_cast<size_t>(reader) * 8 + i) % texts.size();
      default:
        return (*rng)() % texts.size();
    }
  };
  std::vector<std::thread> threads;
  for (int k = 0; k < kReaders; ++k) {
    threads.emplace_back([&, k] {
      xseq::XseqClient& client = conns[static_cast<size_t>(k)];
      std::mt19937_64 rng(args.seed * 131 + static_cast<uint64_t>(k));
      TimingConnection* conn =
          args.trace ? ledger.client_connection(static_cast<size_t>(k))
                     : nullptr;
      for (uint64_t i = 0; !shared.stop.load(std::memory_order_relaxed); ++i) {
        const size_t t = pick(k, i, &rng);
        Req* req = nullptr;
        const bool in_window = shared.window_start.load() != 0;
        if (!in_window) shared.warmup_reads.fetch_add(1);
        if (args.trace && in_window && i % shared.trace_stride == 0) {
          req = &reqs[static_cast<size_t>(k)].emplace_back();
          req->xpath = &texts[t].xpath;
          req->wildcard = texts[t].wildcard;
          ledger.SetCurrent(static_cast<size_t>(k), req);
        }
        ReadRecord r;
        r.text = static_cast<uint32_t>(t);
        r.start = NowNs();
        if (req != nullptr) req->c0.store(r.start, std::memory_order_relaxed);
        auto result = client.Query(texts[t].xpath);
        r.end = NowNs();
        if (result.ok()) {
          r.ok = true;
          r.hit = result->stats.result_cache_hits > 0;
          r.hash = HashDocs(result->docs);
          r.docs = static_cast<uint32_t>(result->docs.size());
        } else {
          r.shed = result.status().IsOverloaded();
        }
        reads[static_cast<size_t>(k)].push_back(r);
        if (req != nullptr) {
          req->c5.store(r.end, std::memory_order_relaxed);
          ledger.SetCurrent(static_cast<size_t>(k), nullptr);
          req->ok = r.ok;
          req->result_cache_hit = r.hit;
          ReplayCodec(*conn, req);
          if (r.ok && !r.hit) ReplayInner(*replay_target, req);
        }
      }
    });
  }

  // Writer: open loop at a fixed rate, each mutation timed from its due
  // time; it runs only inside the window.
  std::vector<MutationRecord> writes;
  std::vector<int> doc_state(w.docs, 0);  // -1 deleted, v+1 = update v
  if (mixed) {
    threads.emplace_back([&] {
      xseq::XseqClient& client = conns[kReaders];
      int64_t start = 0;
      while ((start = shared.window_start.load()) == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      const int64_t period = static_cast<int64_t>(1e9 / kWriteRate);
      for (size_t i = 0; i < mutations.size(); ++i) {
        const int64_t due = start + static_cast<int64_t>(i) * period;
        if (due >= shared.window_end || shared.stop.load()) break;
        const int64_t now = NowNs();
        if (due > now) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        }
        MutationRecord m;
        m.due = due;
        m.sent = NowNs();
        const Mutation& op = mutations[i];
        if (op.update) {
          m.ok = client.Update(op.id, update_xml[static_cast<size_t>(op.version)]).ok();
          if (m.ok) doc_state[op.id] = op.version + 1;
        } else {
          m.ok = client.Delete(op.id).ok();
          if (m.ok) doc_state[op.id] = -1;
        }
        m.done = NowNs();
        writes.push_back(m);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  // Peak RSS of the warm server (set-up included), before the window's
  // per-request records, whose size follows the throughput, pile up.
  const double rss_mb = PeakRssMb();
  auto stats_before = admin.Stats();
  // The window is cut into equal sub-windows; process CPU and the load
  // generator's thread CPU are sampled at every cut.
  auto loadgen_cpu_now = [&threads] {
    double s = 0;
    for (std::thread& t : threads) s += ThreadCpuSeconds(&t);
    return s;
  };
  std::vector<int64_t> cut(kSubwindows + 1);
  std::vector<double> cpu_at(kSubwindows + 1), loadgen_at(kSubwindows + 1);
  cpu_at[0] = ProcessCpuSeconds();
  loadgen_at[0] = loadgen_cpu_now();
  const int64_t t_start = NowNs();
  const int64_t t_end = t_start + static_cast<int64_t>(args.seconds * 1e9);
  for (int j = 0; j <= kSubwindows; ++j) {
    cut[j] = t_start + (t_end - t_start) * j / kSubwindows;
  }
  shared.window_end = t_end;
  // Traced runs keep at most ~kMaxTraced requests: the stride follows the
  // rate the warm-up measured.
  shared.trace_stride =
      1 + static_cast<uint64_t>(shared.warmup_reads.load() / kWarmupSeconds *
                                args.seconds / kMaxTraced);
  shared.window_start.store(t_start);
  for (int j = 1; j <= kSubwindows; ++j) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(cut[j] - NowNs()));
    cpu_at[j] = ProcessCpuSeconds();
    loadgen_at[j] = loadgen_cpu_now();
  }
  shared.stop.store(true);
  for (std::thread& t : threads) t.join();
  auto stats_after = admin.Stats();

  // Quiesced final read set (mixed_rw): every text once, nothing in flight.
  std::vector<std::vector<DocId>> final_reads;
  uint64_t final_failed = 0;
  if (mixed) {
    for (const QueryText& q : texts) {
      auto r = admin.Query(q.xpath);
      if (!r.ok()) ++final_failed;
      final_reads.push_back(r.ok() ? r->docs : std::vector<DocId>());
    }
  }
  for (xseq::XseqClient& c : conns) c.Close();
  server.Stop();

  // Accounting. Every read, warm-up and tail included, is attempted and
  // either failed or checked below. Only those inside the window time the
  // server: a completed operation belongs to the sub-window in which it
  // completed; latency, throughput and CPU per operation are computed per
  // sub-window and reported as their median across them, so one sub-window
  // disturbed by the rest of the host does not move them.
  auto sub_of = [&cut](int64_t end) {
    int j = 0;
    while (j + 1 < kSubwindows && end >= cut[j + 1]) ++j;
    return j;
  };
  std::vector<double> latency_us;
  std::vector<std::vector<double>> sub_latency(kSubwindows);
  std::vector<uint64_t> sub_ops(kSubwindows, 0);
  uint64_t attempted = 0, failed = 0, shed = 0, hits = 0;
  std::vector<const ReadRecord*> answered;
  for (const auto& per_reader : reads) {
    for (const ReadRecord& r : per_reader) {
      ++attempted;
      if (!r.ok) {
        ++failed;
        if (r.shed) ++shed;
        continue;
      }
      answered.push_back(&r);
      if (r.start < t_start || r.end > t_end) continue;
      const double us = (r.end - r.start) / 1000.0;
      latency_us.push_back(us);
      sub_latency[sub_of(r.end)].push_back(us);
      ++sub_ops[sub_of(r.end)];
      if (r.hit) ++hits;
    }
  }
  const uint64_t reads_attempted = attempted;
  const uint64_t read_failures = failed;
  const uint64_t reads_ok = latency_us.size();
  std::vector<double> mutation_us, lag_us;
  for (const MutationRecord& m : writes) {
    ++attempted;
    if (!m.ok) {
      ++failed;
      continue;
    }
    mutation_us.push_back((m.done - m.due) / 1000.0);
    lag_us.push_back((m.sent - m.due) / 1000.0);
    if (m.done <= t_end) ++sub_ops[sub_of(m.done)];
  }
  const double window_s = (t_end - t_start) / 1e9;
  const uint64_t ops_done = reads_ok + mutation_us.size();
  std::vector<double> sub_p50, sub_p99, sub_qps, sub_cpu;
  for (int j = 0; j < kSubwindows; ++j) {
    const Summary s = Summarize(sub_latency[j]);
    sub_p50.push_back(s.p50);
    sub_p99.push_back(s.p99);
    sub_qps.push_back(s.count / ((cut[j + 1] - cut[j]) / 1e9));
    const double server_cpu = (cpu_at[j + 1] - cpu_at[j]) -
                              (loadgen_at[j + 1] - loadgen_at[j]);
    sub_cpu.push_back(sub_ops[j] > 0 ? server_cpu * 1e6 / sub_ops[j] : 0.0);
  }

  // Correctness, outside the timed window.
  uint64_t wrong = 0;
  // Reads checked one by one (static workloads); with the failed reads
  // they must make up every read attempted.
  uint64_t compared = 0;
  xseq::ExecOptions uncached;
  uncached.plan.cache = nullptr;
  if (!mixed) {
    // Every answer against an unsharded in-process index of the corpus.
    xseq::CollectionBuilder builder;
    xseq::XMarkParams params;
    params.seed = args.seed;
    xseq::XMarkGenerator gen(params, builder.names(), builder.values());
    for (DocId d = 0; d < w.docs; ++d) {
      if (!builder.Add(gen.Generate(d)).ok()) return 1;
    }
    auto oracle = std::move(builder).Finish();
    if (!oracle.ok()) return 1;
    // Distinct texts answered, run as one batch across the default pool.
    std::unordered_map<uint32_t, size_t> slot;
    std::vector<std::string> distinct;
    for (const ReadRecord* r : answered) {
      if (slot.emplace(r->text, distinct.size()).second) {
        distinct.push_back(texts[r->text].xpath);
      }
    }
    auto want = oracle->QueryBatch(distinct, uncached, /*threads=*/0);
    for (const ReadRecord* r : answered) {
      const auto& e = want[slot[r->text]];
      ++compared;
      if (!e.ok() || HashDocs(e->docs) != r->hash || e->docs.size() != r->docs) {
        ++wrong;
      }
    }
  } else {
    // The quiesced final read set against a fresh build over the
    // surviving documents.
    xseq::CollectionBuilder builder;
    xseq::XMarkParams params;
    params.seed = args.seed;
    xseq::XMarkGenerator gen(params, builder.names(), builder.values());
    xseq::XmlParser parser(builder.names(), builder.values());
    for (DocId d = 0; d < w.docs; ++d) {
      const int state = doc_state[d];
      if (state < 0) continue;
      if (state == 0) {
        if (!builder.Add(gen.Generate(d)).ok()) return 1;
      } else {
        auto doc = parser.Parse(update_xml[static_cast<size_t>(state - 1)], d);
        if (!doc.ok() || !builder.Add(std::move(*doc)).ok()) return 1;
      }
    }
    auto fresh = std::move(builder).Finish();
    if (!fresh.ok()) return 1;
    for (size_t i = 0; i < texts.size(); ++i) {
      auto want = fresh->Query(texts[i].xpath, uncached);
      if (!want.ok() || want->docs != final_reads[i]) ++wrong;
    }
    attempted += texts.size();
    failed += final_failed;
    // Image size: what the mutated collection saves to.
    const std::string prefix = args.dir + "/final";
    Status st = served.dynamic->Save(prefix);
    if (!st.ok()) {
      std::fprintf(stderr, "save: %s\n", st.ToString().c_str());
      return 1;
    }
    served.image_bytes = ImageBytes(prefix, kShards);
  }
  const bool counts_ok =
      mixed || compared + read_failures == reads_attempted;
  failed += wrong;
  const double image_docs =
      mixed ? static_cast<double>(served.dynamic->total_documents())
            : static_cast<double>(w.docs);

  // Writer health: an open loop whose lag grows has stopped offering load.
  const Summary lag = Summarize(lag_us);
  const bool lag_ok = !mixed || lag.max < 500000.0;

  Summary lat = Summarize(latency_us);
  Summary mut = Summarize(mutation_us);
  // Client-observed latency and throughput: printed and recorded, but
  // not bounded — on a host shared with other tenants they moved by up to
  // 3x between runs minutes apart (see NOTES.md).
  std::vector<Metric> wall = {
      {"query_p50_us", Median(sub_p50), "us", lat.count},
      {"query_p99_us", Median(sub_p99), "us", lat.count},
      {"query_qps", Median(sub_qps), "1/s", reads_ok},
  };
  // The end-to-end metrics of BENCHMARK.json.
  std::vector<Metric> e2e = {
      {"server_cpu_us_per_op", Median(sub_cpu), "us", ops_done},
      {"setup_s", Median(setup_s), "s", setup_s.size()},
      {"server_rss_mb", rss_mb, "MB", 1},
      {"image_bytes_per_doc", served.image_bytes / image_docs, "B",
       static_cast<uint64_t>(image_docs)},
  };
  const double fail_ratio =
      attempted > 0 ? static_cast<double>(failed) / attempted : 0.0;

  // Per-layer metrics.
  std::vector<Metric> layers;
  LayerReport ledger_report;
  if (args.trace) {
    std::vector<const Req*> window;
    for (const auto& per_reader : reqs) {
      for (const Req& r : per_reader) {
        const int64_t c0 = r.c0.load(), c5 = r.c5.load();
        if (c0 >= t_start && c5 <= t_end && c5 != 0) window.push_back(&r);
      }
    }
    ledger_report = Analyze(window, /*dynamic_backend=*/mixed);
    for (const auto& [name, value] : ledger_report.metrics) {
      const std::string tail = name.substr(name.size() - 3);
      std::string unit = "count";
      if (tail == "_us" || tail == ".us") {
        unit = "us";
      } else if (name.find("ratio") != std::string::npos ||
                 name.rfind("trace.coverage", 0) == 0) {
        unit = "ratio";
      } else if (name.find("bytes") != std::string::npos) {
        unit = "B";
      }
      layers.push_back({name, value, unit, ledger_report.queries});
    }
  }
  const std::string before = stats_before.ok() ? *stats_before : "";
  const std::string after = stats_after.ok() ? *stats_after : "";
  auto delta = [&](const char* name) {
    return static_cast<double>(CounterFromStats(after, name) -
                               CounterFromStats(before, name));
  };
  const double plan_hits = delta("xseq.plan.hits");
  const double plan_misses = delta("xseq.plan.misses");
  const uint64_t n_mut = mutation_calls.load();
  std::vector<Metric> extra = {
      {"plan_cache.hit_ratio",
       plan_hits + plan_misses > 0 ? plan_hits / (plan_hits + plan_misses)
                                   : 0.0,
       "ratio", static_cast<uint64_t>(plan_hits + plan_misses)},
      {"dynamic_index.mutation_us",
       n_mut > 0 ? mutation_ns.load() / 1000.0 / n_mut : 0.0, "us", n_mut},
      {"dynamic_index.seals", delta("xseq.dynamic.seals"), "count", 1},
      {"dynamic_index.compactions", delta("xseq.dynamic.compactions"),
       "count", 1},
      {"collection_index.build_s", Median(build_s), "s", build_s.size()},
      {"persist.save_s", Median(save_s), "s", save_s.size()},
      {"topology.reload_s", Median(reload_s), "s", reload_s.size()},
      {"loadgen.lag_us_p99", lag.p99, "us", lag.count},
      {"mutation.p50_us", mut.p50, "us", mut.count},
      {"mutation.p99_us", mut.p99, "us", mut.count},
  };
  if (args.trace) layers.insert(layers.end(), extra.begin(), extra.end());

  const bool correct = wrong == 0 && failed == 0 && lag_ok && counts_ok &&
                       ledger_report.stamp_failures == 0;

  // Human-readable report.
  std::printf("\nend-to-end (%s, %.2f s window%s)\n", args.workload.c_str(),
              window_s, args.trace ? ", traced" : "");
  for (const std::vector<Metric>* ms : {&wall, &e2e}) {
    for (const Metric& m : *ms) {
      std::printf("  %-24s %14.3f %-5s n=%llu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    }
  }
  std::printf("  %-24s %14.3f %-5s n=%zu (wall clock; setup_s is CPU)\n",
              "setup_wall_s", Median(setup_wall_s), "s", setup_wall_s.size());
  if (mixed) {
    std::printf("  %-24s %14.3f %-5s n=%llu\n", "mutation_p50_us", mut.p50,
                "us", static_cast<unsigned long long>(mut.count));
    std::printf("  %-24s %14.3f %-5s n=%llu\n", "mutation_p99_us", mut.p99,
                "us", static_cast<unsigned long long>(mut.count));
  }
  std::printf("  %-24s %14.6f %-5s n=%llu (failed %llu, shed %llu, wrong %llu)\n",
              "fail_ratio", fail_ratio, "ratio",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(shed),
              static_cast<unsigned long long>(wrong));
  std::printf("  latency, qps and cpu/op: median of %d sub-windows; whole "
              "window p50 %.1f us, p99 %.1f us (%zu samples beyond it), "
              "max %.1f us\n",
              kSubwindows, lat.p50, lat.p99, lat.beyond_p99, lat.max);
  std::printf("  sub-windows (p50/p99 us, qps):");
  for (int j = 0; j < kSubwindows; ++j) {
    std::printf(" %.0f/%.0f,%.0f", sub_p50[j], sub_p99[j], sub_qps[j]);
  }
  std::printf("\n  result-cache hits %llu of %llu reads\n",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(reads_ok));
  if (mixed && !lag_ok) {
    std::printf("  INVALID: writer lag reached %.0f us\n", lag.max);
  }
  if (args.trace) {
    std::printf("\n%s", ledger_report.table.c_str());
    std::printf("per-layer (traced):\n");
    for (const Metric& m : layers) {
      std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("trace coverage (wall time inside timed calls): %.4f of "
                "all traced time; per request min %.4f, %zu of %zu below "
                "0.95 (reported, not checked)\n",
                ledger_report.coverage, ledger_report.coverage_min,
                ledger_report.coverage_failures, ledger_report.queries);
    std::printf("trace stamps: %zu of %zu requests with a boundary not "
                "stamped\n",
                ledger_report.stamp_failures, ledger_report.queries);
  }
  if (!counts_ok) {
    std::printf("  INVALID: %llu reads attempted, %llu failed, %llu compared\n",
                static_cast<unsigned long long>(reads_attempted),
                static_cast<unsigned long long>(read_failures),
                static_cast<unsigned long long>(compared));
  }

  std::vector<Metric> all = wall;
  all.insert(all.end(), e2e.begin(), e2e.end());
  all.push_back({"setup_wall_s", Median(setup_wall_s), "s", setup_wall_s.size()});
  all.push_back({"fail_ratio", fail_ratio, "ratio", attempted});
  if (args.trace) {
    all.insert(all.end(), layers.begin(), layers.end());
  } else {
    all.insert(all.end(), extra.begin(), extra.end());
  }
  std::printf(
      "ALL_METRICS {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"host\": {\"nproc\": %d, \"effective_cores\": %s, \"build_type\": "
      "\"%s\", \"commit\": \"%s\"}, \"metrics\": %s}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, nproc, Num(effective_cores).c_str(),
      PERFBENCH_BUILD_TYPE, args.commit.c_str(), MetricsJson(all).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(args.trace ? layers : e2e).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: serve_bench --workload cold_param|warm_hot|mixed_rw"
                 " --seed N --seconds S --trace 0|1 --dir DIR [--commit SHA]\n");
    return 2;
  }
  return perfbench::Run(args);
}
