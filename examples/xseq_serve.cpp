// xseq_serve: the query-serving daemon. Loads (or generates) a document
// collection, wraps it in a QueryService for admission control, and speaks
// the length-prefixed wire protocol over TCP until told to stop.
//
//   xseq_serve --index=FILE                       # one saved index
//   xseq_serve --sharded=PREFIX                   # saved sharded collection
//   xseq_serve --gen=xmark|dblp|synthetic --n=N [--shards=S] [--dynamic]
//   xseq_serve --gen=... --n=N --shards=S --save=PREFIX   # build + save, no serve
//
// Common flags:
//   --host=ADDR        bind address (default 127.0.0.1)
//   --port=N           TCP port; 0 = ephemeral (default)
//   --port_file=PATH   write the bound port there (scripts poll this file;
//                      written via rename so readers never see a partial)
//   --workers=N        queries executing at once, each on its connection's
//                      thread (default 2)
//   --queue=N          queries that may wait for a free slot; past that
//                      => kOverloaded (default 64)
//   --deadline_ms=N    default per-request deadline; 0 = none
//   --result_cache=0|1 generation-keyed result cache; hits are served on
//                      the connection thread without waiting (default 1)
//   --canary=XPATH     (repeatable) validation query a candidate image must
//                      answer without error before a hot-swap goes live
//
// Observability flags:
//   --prom_port=N        serve `GET /metrics` (Prometheus text exposition)
//                        on this plain-HTTP port; 0 = ephemeral, absent =
//                        no scrape endpoint
//   --prom_port_file=PATH  write the bound scrape port there (same atomic
//                        protocol as --port_file)
//   --access_log=PATH    structured JSON-lines request log; errors, sheds,
//                        deadline misses and slow queries always logged,
//                        each record carrying timings and a plan explain
//   --log_slow_ms=N      latency that classifies a request "slow" (default
//                        50 ms; 0 = never slow-classify)
//   --log_sample=N       log 1 of every N ordinary OK requests (default 1 =
//                        all; 0 = only the always-log classes)
//   --log_rotate_mb=N    rotate the access log to PATH.1 at this size
//                        (default 64 MiB)
//
// Mutation ops: a --gen --dynamic backend serves the v5 wire mutations —
// `xseq_client delete --id=N`, `update --id=N --xml=DOC` (parsed
// server-side against the owning shard's vocabulary) and `compact`. Every
// other backend is immutable and answers those ops kUnimplemented.
//
// Hot swap: for --sharded/--gen backends the collection lives behind a
// TopologyManager. `xseq_client reload [--path=PREFIX]` — or SIGHUP, which
// re-reads the current prefix — validates, loads and canaries a new image
// next to the live one, then swaps atomically; in-flight queries finish on
// the old generation, and any validation failure rolls back to it.
//
// The port file carries "PORT\nPID\n". On startup the daemon refuses to
// reuse a port file naming a still-live process, so two daemons never
// fight over one rendezvous file.
//
// Shutdown: SIGTERM/SIGINT, or a client's shutdown op. Either way the
// server drains gracefully — in-flight requests finish and get their
// responses — and the process prints "drained N" before exiting 0.

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/persist.h"
#include "src/gen/dblp.h"
#include "src/gen/synthetic.h"
#include "src/gen/xmark.h"
#include "src/obs/request_log.h"
#include "src/server/result_cache.h"
#include "src/server/scrape_server.h"
#include "src/server/server.h"
#include "src/server/sharded_collection.h"
#include "src/server/topology.h"
#include "src/util/flags.h"
#include "src/util/timer.h"
#include "src/xml/parser.h"

namespace {

using namespace xseq;

int Usage() {
  std::fprintf(
      stderr,
      "usage: xseq_serve (--index=FILE | --sharded=PREFIX |"
      " --gen=xmark|dblp|synthetic --n=N [--shards=S] [--dynamic]"
      " [--save=PREFIX])\n"
      "                  [--host=ADDR] [--port=N] [--port_file=PATH]\n"
      "                  [--workers=N] [--queue=N] [--deadline_ms=N]"
      " [--result_cache=0|1] [--canary=XPATH ...]\n"
      "                  [--prom_port=N [--prom_port_file=PATH]]"
      " [--access_log=PATH [--log_slow_ms=N] [--log_sample=N]"
      " [--log_rotate_mb=N]]\n");
  return 2;
}

// The signal handler may only do async-signal-safe work: it writes one
// byte into a pipe, and a watcher thread turns that into RequestStop().
int g_signal_pipe[2] = {-1, -1};

void OnStopSignal(int) {
  char byte = 's';
  // A full pipe means a stop is already pending; dropping the byte is fine.
  (void)!write(g_signal_pipe[1], &byte, 1);
}

void OnReloadSignal(int) {
  char byte = 'h';
  (void)!write(g_signal_pipe[1], &byte, 1);
}

/// Writes "PORT\nPID\n" to `path` atomically (temp + rename), so a script
/// polling the file never reads a partially written number. The pid line
/// lets the next daemon tell a stale file from a live one.
bool WritePortFile(const std::string& path, int port) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    if (!out) return false;
    out << port << "\n" << getpid() << "\n";
    if (!out.flush()) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

/// True when `path` exists and its pid line names a process that is still
/// alive — meaning another daemon owns this rendezvous file. A missing
/// file, a pid-less file (older format) or a dead pid are all fine to
/// overwrite.
bool PortFileNamesLiveProcess(const std::string& path, pid_t* live_pid) {
  std::ifstream in(path);
  if (!in) return false;
  long port = 0, pid = 0;
  if (!(in >> port >> pid) || pid <= 0) return false;
  if (kill(static_cast<pid_t>(pid), 0) == 0 || errno == EPERM) {
    *live_pid = static_cast<pid_t>(pid);
    return true;
  }
  return false;
}

/// Builds a generated sharded collection: one generator per shard, bound
/// to that shard's vocabulary tables, documents routed by id.
StatusOr<ShardedCollection> BuildGenerated(const FlagSet& flags,
                                           const std::string& gen_name) {
  ShardedOptions opts;
  opts.shards = static_cast<int>(flags.GetInt("shards", 1));
  opts.dynamic = flags.GetBool("dynamic", false);
  if (opts.shards < 1) return Status::InvalidArgument("--shards must be >= 1");
  const DocId n = static_cast<DocId>(flags.GetInt("n", 20000));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  ShardedCollection collection(opts);
  std::vector<std::function<Document(DocId)>> make(
      static_cast<size_t>(opts.shards));
  std::vector<std::unique_ptr<XMarkGenerator>> xmark;
  std::vector<std::unique_ptr<DblpGenerator>> dblp;
  std::vector<std::unique_ptr<SyntheticDataset>> synth;
  for (size_t s = 0; s < collection.shard_count(); ++s) {
    NameTable* names = collection.names(s);
    ValueEncoder* values = collection.values(s);
    if (gen_name == "xmark") {
      XMarkParams p;
      p.seed = seed;
      xmark.push_back(std::make_unique<XMarkGenerator>(p, names, values));
      XMarkGenerator* g = xmark.back().get();
      make[s] = [g](DocId d) { return g->Generate(d); };
    } else if (gen_name == "dblp") {
      DblpParams p;
      p.seed = seed;
      dblp.push_back(std::make_unique<DblpGenerator>(p, names, values));
      DblpGenerator* g = dblp.back().get();
      make[s] = [g](DocId d) { return g->Generate(d); };
    } else if (gen_name == "synthetic") {
      SyntheticParams p;
      p.seed = seed;
      synth.push_back(std::make_unique<SyntheticDataset>(p, names, values));
      SyntheticDataset* g = synth.back().get();
      make[s] = [g](DocId d) { return g->Generate(d); };
    } else {
      return Status::InvalidArgument("unknown --gen: " + gen_name);
    }
  }
  for (DocId d = 0; d < n; ++d) {
    XSEQ_RETURN_IF_ERROR(collection.Add(make[collection.ShardOf(d)](d)));
  }
  XSEQ_RETURN_IF_ERROR(collection.Seal());
  return collection;
}

int Run(int argc, char** argv) {
  FlagSet flags(argc, argv);

  // A port file naming a live daemon means this instance would fight it
  // for the rendezvous; refuse before doing any expensive loading.
  const std::string port_file = flags.GetString("port_file", "");
  if (!port_file.empty()) {
    pid_t live = 0;
    if (PortFileNamesLiveProcess(port_file, &live)) {
      std::fprintf(stderr,
                   "refusing to start: %s names live process %ld (stop it or"
                   " remove the file)\n",
                   port_file.c_str(), static_cast<long>(live));
      return 1;
    }
  }

  // Canary queries guard every hot-swap: a candidate image must answer
  // each without error before it goes live.
  TopologyOptions topo_options;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    constexpr std::string_view kCanaryPrefix = "--canary=";
    if (arg.substr(0, kCanaryPrefix.size()) == kCanaryPrefix) {
      CanaryQuery canary;
      canary.xpath = std::string(arg.substr(kCanaryPrefix.size()));
      topo_options.canaries.push_back(std::move(canary));
    }
  }

  // Resolve the backend.
  QueryService::Backend backend;
  std::string described;
  std::shared_ptr<CollectionIndex> single;
  std::shared_ptr<ShardedCollection> sharded;
  std::shared_ptr<TopologyManager> topo;
  Timer load_timer;
  if (flags.Has("index")) {
    auto idx = LoadCollectionIndex(flags.GetString("index", ""));
    if (!idx.ok()) {
      std::fprintf(stderr, "load: %s\n", idx.status().ToString().c_str());
      return 1;
    }
    single = std::make_shared<CollectionIndex>(std::move(*idx));
    described = std::to_string(single->Stats().documents) +
                " documents (single index)";
    backend = [single](std::string_view xpath, const ExecOptions& opts) {
      return single->Query(xpath, opts);
    };
  } else if (flags.Has("sharded")) {
    // The initial load goes through the same validate→load→canary pipeline
    // as every later hot-swap, so a daemon never starts on an image a
    // reload would reject.
    topo = std::make_shared<TopologyManager>(topo_options);
    auto gen = topo->Reload(flags.GetString("sharded", ""));
    if (!gen.ok()) {
      std::fprintf(stderr, "load: %s\n", gen.status().ToString().c_str());
      return 1;
    }
  } else if (flags.Has("gen")) {
    auto col = BuildGenerated(flags, flags.GetString("gen", ""));
    if (!col.ok()) {
      std::fprintf(stderr, "build: %s\n", col.status().ToString().c_str());
      return 1;
    }
    sharded = std::make_shared<ShardedCollection>(std::move(*col));
    if (flags.Has("save")) {
      // Build-and-save mode: write the sharded images (one per shard plus
      // the manifest) and exit without serving. The result is what
      // --sharded=PREFIX loads.
      const std::string prefix = flags.GetString("save", "");
      Status save = sharded->Save(prefix);
      if (!save.ok()) {
        std::fprintf(stderr, "save: %s\n", save.ToString().c_str());
        return 1;
      }
      std::printf("xseq_serve: saved %llu documents in %zu shard(s) -> %s\n",
                  static_cast<unsigned long long>(sharded->total_documents()),
                  sharded->shard_count(), prefix.c_str());
      return 0;
    }
    topo = std::make_shared<TopologyManager>(topo_options);
    topo->Install(sharded);
  } else {
    return Usage();
  }
  // Wire mutations need the dynamic backend: the update op parses XML
  // into the owning shard's vocabulary tables, and interning is not
  // synchronized against concurrent query compilation, so updates take
  // this lock exclusively while queries share it. Delete and compact only
  // touch the internally synchronized DynamicIndex and need neither side.
  const bool mutable_backend =
      sharded != nullptr && sharded->options().dynamic;
  auto vocab_mu = std::make_shared<std::shared_mutex>();
  if (topo != nullptr) {
    std::shared_ptr<const ShardedCollection> live = topo->Current();
    described = std::to_string(live->total_documents()) + " documents in " +
                std::to_string(live->shard_count()) + " shard(s)";
    // Each query grabs the live generation once; a swap mid-query cannot
    // pull the image out from under it.
    if (mutable_backend) {
      backend = [topo, vocab_mu](std::string_view xpath,
                                 const ExecOptions& opts) {
        std::shared_lock<std::shared_mutex> lock(*vocab_mu);
        return topo->Query(xpath, opts);
      };
    } else {
      backend = [topo](std::string_view xpath, const ExecOptions& opts) {
        return topo->Query(xpath, opts);
      };
    }
  }

  ServerOptions options;
  options.host = flags.GetString("host", "127.0.0.1");
  options.port = static_cast<int>(flags.GetInt("port", 0));
  options.service.workers = static_cast<int>(flags.GetInt("workers", 2));
  options.service.max_queue =
      static_cast<size_t>(flags.GetInt("queue", 64));
  options.service.default_deadline_micros =
      static_cast<uint64_t>(flags.GetInt("deadline_ms", 0)) * 1000;

  // Result cache: keyed on (query, backend generation), so answers cached
  // against a dynamic collection are dropped the moment a mutation commits.
  std::unique_ptr<ResultCache> result_cache;
  if (flags.GetBool("result_cache", true)) {
    result_cache = std::make_unique<ResultCache>();
    options.service.result_cache = result_cache.get();
    if (single != nullptr) {
      // A loaded single index is immutable: one generation forever.
      options.service.generation = [] { return uint64_t{1}; };
    } else {
      // The topology generation folds the swap epoch in, so a hot-swap
      // retires every cached answer even when the images look alike.
      options.service.generation = [topo] { return topo->generation(); };
    }
  }
  if (topo != nullptr) {
    options.reload_handler = [topo](const std::string& path) {
      return topo->Reload(path.empty() ? topo->prefix() : path);
    };
  }
  if (mutable_backend) {
    // Acks carry the topology generation — the same counter the result
    // cache keys on, so a client can tie its own invalidation to the ack.
    options.delete_handler =
        [sharded, topo](uint64_t id) -> StatusOr<uint64_t> {
      if (id > std::numeric_limits<DocId>::max()) {
        return Status::InvalidArgument("document id " + std::to_string(id) +
                                       " is out of range");
      }
      XSEQ_RETURN_IF_ERROR(sharded->Delete(static_cast<DocId>(id)));
      return topo->generation();
    };
    options.update_handler =
        [sharded, topo, vocab_mu](
            uint64_t id, const std::string& xml) -> StatusOr<uint64_t> {
      if (id > std::numeric_limits<DocId>::max()) {
        return Status::InvalidArgument("document id " + std::to_string(id) +
                                       " is out of range");
      }
      const DocId doc_id = static_cast<DocId>(id);
      const size_t shard = sharded->ShardOf(doc_id);
      Document doc;
      {
        std::unique_lock<std::shared_mutex> lock(*vocab_mu);
        XmlParser parser(sharded->names(shard), sharded->values(shard));
        auto parsed = parser.Parse(xml, doc_id);
        if (!parsed.ok()) return parsed.status();
        doc = std::move(*parsed);
      }
      XSEQ_RETURN_IF_ERROR(sharded->Update(std::move(doc), doc_id));
      return topo->generation();
    };
    options.compact_handler = [sharded, topo]() -> StatusOr<uint64_t> {
      XSEQ_RETURN_IF_ERROR(sharded->Compact());
      return topo->generation();
    };
  }

  // Structured access log (see src/obs/request_log.h for the policy).
  std::unique_ptr<obs::RequestLog> request_log;
  if (flags.Has("access_log")) {
    obs::RequestLogOptions log_opts;
    log_opts.path = flags.GetString("access_log", "");
    log_opts.slow_micros =
        static_cast<uint64_t>(flags.GetInt("log_slow_ms", 50)) * 1000;
    log_opts.sample_every =
        static_cast<uint32_t>(flags.GetInt("log_sample", 1));
    log_opts.rotate_bytes =
        static_cast<uint64_t>(flags.GetInt("log_rotate_mb", 64)) << 20;
    auto opened = obs::RequestLog::Open(log_opts);
    if (!opened.ok()) {
      std::fprintf(stderr, "access log: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    request_log = std::move(*opened);
    options.service.request_log = request_log.get();
  }

  // Prometheus scrape endpoint, on its own port so monitoring needs no
  // xseq-protocol client.
  std::unique_ptr<ScrapeServer> scrape;
  if (flags.Has("prom_port")) {
    ScrapeOptions scrape_opts;
    scrape_opts.host = options.host;
    scrape_opts.port = static_cast<int>(flags.GetInt("prom_port", 0));
    scrape = std::make_unique<ScrapeServer>(scrape_opts);
    Status scrape_st = scrape->Start();
    if (!scrape_st.ok()) {
      std::fprintf(stderr, "scrape endpoint: %s\n",
                   scrape_st.ToString().c_str());
      return 1;
    }
  }

  XseqServer server(std::move(backend), options);
  Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "start: %s\n", st.ToString().c_str());
    return 1;
  }

  // Stop path 1: SIGTERM/SIGINT -> pipe -> watcher -> RequestStop().
  // Stop path 2: a client's shutdown op calls RequestStop() directly.
  // Reload path: SIGHUP -> pipe ('h') -> watcher re-reads the live prefix.
  if (pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "pipe failed\n");
    return 1;
  }
  struct sigaction sa = {};
  sa.sa_handler = OnStopSignal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  struct sigaction hup = {};
  hup.sa_handler = OnReloadSignal;
  sigaction(SIGHUP, &hup, nullptr);
  std::thread watcher([&server, topo] {
    for (;;) {
      char byte = 0;
      ssize_t n = read(g_signal_pipe[0], &byte, 1);
      if (n < 0) continue;  // EINTR: the signal itself interrupts the read
      if (n == 0) return;   // pipe closed: shutting down
      if (byte == 'h') {
        if (topo == nullptr) {
          std::fprintf(stderr,
                       "xseq_serve: SIGHUP ignored (single-index backend has"
                       " no reloadable topology)\n");
          continue;
        }
        auto generation = topo->Reload(topo->prefix());
        if (generation.ok()) {
          std::printf("xseq_serve: reloaded %s, generation %llu\n",
                      topo->prefix().c_str(),
                      static_cast<unsigned long long>(*generation));
        } else {
          std::fprintf(stderr, "xseq_serve: reload failed (still serving"
                               " the old generation): %s\n",
                       generation.status().ToString().c_str());
        }
        std::fflush(stdout);
        continue;
      }
      server.RequestStop();
      return;
    }
  });

  std::printf("xseq_serve: %s, loaded in %.2f s\n", described.c_str(),
              load_timer.ElapsedSeconds());
  std::printf("xseq_serve: listening on %s:%d (workers=%d queue=%zu)\n",
              options.host.c_str(), server.port(), options.service.workers,
              options.service.max_queue);
  if (scrape != nullptr) {
    std::printf("xseq_serve: metrics on http://%s:%d/metrics\n",
                options.host.c_str(), scrape->port());
  }
  if (request_log != nullptr) {
    std::printf("xseq_serve: access log at %s\n",
                flags.GetString("access_log", "").c_str());
  }
  std::fflush(stdout);
  if (!port_file.empty() && !WritePortFile(port_file, server.port())) {
    std::fprintf(stderr, "cannot write %s\n", port_file.c_str());
    server.Stop();
    return 1;
  }
  const std::string prom_port_file = flags.GetString("prom_port_file", "");
  if (scrape != nullptr && !prom_port_file.empty() &&
      !WritePortFile(prom_port_file, scrape->port())) {
    std::fprintf(stderr, "cannot write %s\n", prom_port_file.c_str());
    server.Stop();
    return 1;
  }

  server.WaitForStopRequest();
  std::printf("xseq_serve: stop requested, draining\n");
  std::fflush(stdout);
  size_t inflight = server.Stop();
  if (scrape != nullptr) scrape->Stop();
  if (request_log != nullptr) (void)request_log->Sync();

  // Wake the watcher if the stop came from the wire rather than a signal
  // (the byte is simply left unread when a signal already delivered one).
  char byte = 'q';
  (void)!write(g_signal_pipe[1], &byte, 1);
  watcher.join();
  close(g_signal_pipe[0]);
  close(g_signal_pipe[1]);

  std::printf("xseq_serve: drained %zu in-flight request(s), served %llu"
              " connection(s)\n",
              inflight,
              static_cast<unsigned long long>(server.connections_accepted()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
