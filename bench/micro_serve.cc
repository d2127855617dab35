// Serving-layer load harness: an in-process XseqServer on a loopback TCP
// port, driven closed-loop by several client connections. Two phases:
//
//   1. throughput — C clients, each running `ops` queries back-to-back
//      against a well-provisioned server; reports aggregate queries/s and
//      client-observed p50/p99 latency (socket + framing + admission +
//      execution).
//   2. overload — the same corpus behind a deliberately starved server
//      (1 execution slot, 1 waiter) under max(C, 16) clients × `ops`
//      queries (4 clients rarely found the slot and the waiter both
//      taken); reports how many requests were shed with kOverloaded.
//      Shedding is the designed behavior, so the phase warns when
//      shed == 0 rather than treating shedding as failure.
//
//   micro_serve [--n=N] [--scale=f] [--shards=S] [--clients=C] [--ops=K]
//               [--workers=W] [--out=BENCH_serve.json]
//
// --workers (phase 1's execution slots) defaults to the hardware
// concurrency; XSEQ_THREADS sizes thread pools only and leaves it alone.
//
// Emits BENCH_serve.json: {..., "throughput_qps", "p50_us", "p99_us",
// "shed", "shed_rate"} — schema-checked by scripts/bench_smoke.sh.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/gen/xmark.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/server/sharded_collection.h"

namespace xseq {
namespace {

const char* kShapes[4] = {
    "/site//item[location='United States']/mail/date[text='07/05/2000']",
    "/site//person/*/age[text='32']",
    "//closed_auction[seller/person='person11304']/date[text='12/15/1999']",
    "/site//person/name",
};

struct ClientTally {
  std::vector<uint64_t> latencies_us;  ///< successful queries only
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t other_errors = 0;
};

/// One closed-loop client: connect, run `ops` queries, record latencies.
ClientTally DriveClient(int port, int ops, int offset) {
  ClientTally tally;
  auto client = XseqClient::Connect("127.0.0.1", port);
  if (!client.ok()) {
    std::fprintf(stderr, "client connect: %s\n",
                 client.status().ToString().c_str());
    tally.other_errors = static_cast<uint64_t>(ops);
    return tally;
  }
  for (int i = 0; i < ops; ++i) {
    Timer timer;
    auto result = client->Query(kShapes[(i + offset) % 4]);
    const uint64_t us =
        static_cast<uint64_t>(timer.ElapsedSeconds() * 1e6);
    if (result.ok()) {
      ++tally.ok;
      tally.latencies_us.push_back(us);
    } else if (result.status().IsOverloaded()) {
      ++tally.shed;
    } else {
      ++tally.other_errors;
    }
  }
  client->Close();
  return tally;
}

/// Runs `clients` closed-loop drivers against `server` and merges tallies.
ClientTally OfferLoad(XseqServer* server, int clients, int ops) {
  std::vector<ClientTally> tallies(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  const int port = server->port();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back(
        [&tallies, c, port, ops] { tallies[static_cast<size_t>(c)] =
                                       DriveClient(port, ops, c); });
  }
  for (std::thread& t : threads) t.join();
  ClientTally merged;
  for (ClientTally& t : tallies) {
    merged.ok += t.ok;
    merged.shed += t.shed;
    merged.other_errors += t.other_errors;
    merged.latencies_us.insert(merged.latencies_us.end(),
                               t.latencies_us.begin(), t.latencies_us.end());
  }
  return merged;
}

uint64_t Percentile(std::vector<uint64_t>* v, double p) {
  if (v->empty()) return 0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(v->size() - 1));
  std::nth_element(v->begin(), v->begin() + static_cast<long>(idx), v->end());
  return (*v)[idx];
}

int Run(const FlagSet& flags) {
  const DocId n = static_cast<DocId>(
      flags.GetInt("n", static_cast<int64_t>(bench::Scaled(flags, 5000, 50000))));
  const int shards = static_cast<int>(flags.GetInt("shards", 4));
  const int clients = static_cast<int>(flags.GetInt("clients", 4));
  const int ops = static_cast<int>(flags.GetInt("ops", 50));
  const int workers = static_cast<int>(flags.GetInt(
      "workers", std::max(1u, std::thread::hardware_concurrency())));
  const std::string out_path = flags.GetString("out", "BENCH_serve.json");

  bench::Header("serving layer: " + std::to_string(n) + " XMark records, " +
                std::to_string(shards) + " shards, " +
                std::to_string(clients) + " clients x " +
                std::to_string(ops) + " ops");

  // Corpus: one sharded collection shared by both phases.
  ShardedOptions sopts;
  sopts.shards = shards;
  auto collection = std::make_shared<ShardedCollection>(sopts);
  {
    XMarkParams params;
    params.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    std::vector<std::unique_ptr<XMarkGenerator>> gens;
    for (size_t s = 0; s < collection->shard_count(); ++s) {
      gens.push_back(std::make_unique<XMarkGenerator>(
          params, collection->names(s), collection->values(s)));
    }
    for (DocId d = 0; d < n; ++d) {
      Status st = collection->Add(
          gens[collection->ShardOf(d)]->Generate(d));
      if (!st.ok()) {
        std::fprintf(stderr, "add: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    Status st = collection->Seal();
    if (!st.ok()) {
      std::fprintf(stderr, "seal: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  QueryService::Backend backend = [collection](std::string_view xpath,
                                               const ExecOptions& opts) {
    return collection->Query(xpath, opts);
  };

  // Phase 1: throughput against a provisioned server.
  double throughput_qps = 0.0;
  uint64_t p50 = 0, p99 = 0;
  uint64_t phase1_errors = 0;
  {
    ServerOptions options;
    options.service.workers = workers;
    options.service.max_queue = 256;
    XseqServer server(backend, options);
    Status st = server.Start();
    if (!st.ok()) {
      std::fprintf(stderr, "start: %s\n", st.ToString().c_str());
      return 1;
    }
    Timer wall;
    ClientTally tally = OfferLoad(&server, clients, ops);
    const double elapsed = wall.ElapsedSeconds();
    server.Stop();
    throughput_qps =
        elapsed > 0 ? static_cast<double>(tally.ok) / elapsed : 0.0;
    p50 = Percentile(&tally.latencies_us, 0.50);
    p99 = Percentile(&tally.latencies_us, 0.99);
    phase1_errors = tally.shed + tally.other_errors;
    std::printf("%-12s %10.0f qps   p50 %6llu us   p99 %6llu us"
                "   errors %llu\n",
                "throughput:", throughput_qps,
                static_cast<unsigned long long>(p50),
                static_cast<unsigned long long>(p99),
                static_cast<unsigned long long>(phase1_errors));
  }

  // Phase 2: a heavier offered load against a starved server; admission
  // control must shed rather than queue without bound.
  uint64_t shed = 0, shed_total = 0;
  double shed_rate = 0.0;
  {
    ServerOptions options;
    options.service.workers = 1;
    options.service.max_queue = 1;
    XseqServer server(backend, options);
    Status st = server.Start();
    if (!st.ok()) {
      std::fprintf(stderr, "start: %s\n", st.ToString().c_str());
      return 1;
    }
    ClientTally tally = OfferLoad(&server, std::max(clients, 16), ops);
    server.Stop();
    shed = tally.shed;
    shed_total = tally.ok + tally.shed + tally.other_errors;
    shed_rate = shed_total > 0
                    ? static_cast<double>(shed) /
                          static_cast<double>(shed_total)
                    : 0.0;
    std::printf("%-12s %llu/%llu shed (%.1f%%), %llu served\n",
                "overload:", static_cast<unsigned long long>(shed),
                static_cast<unsigned long long>(shed_total),
                shed_rate * 100.0, static_cast<unsigned long long>(tally.ok));
    if (shed == 0) {
      std::fprintf(stderr,
                   "WARNING: starved server shed nothing — offered load too"
                   " low to exercise admission control\n");
    }
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(
      out,
      "{\"bench\":\"serve\",\"n\":%llu,\"shards\":%d,\"clients\":%d,"
      "\"ops_per_client\":%d,\"workers\":%d,"
      "\"throughput_qps\":%.1f,\"p50_us\":%llu,\"p99_us\":%llu,"
      "\"errors\":%llu,\"shed\":%llu,\"shed_total\":%llu,"
      "\"shed_rate\":%.4f}\n",
      static_cast<unsigned long long>(n), shards, clients, ops, workers,
      throughput_qps, static_cast<unsigned long long>(p50),
      static_cast<unsigned long long>(p99),
      static_cast<unsigned long long>(phase1_errors),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(shed_total), shed_rate);
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace xseq

int main(int argc, char** argv) {
  xseq::FlagSet flags(argc, argv);
  return xseq::Run(flags);
}
