// Concurrency scaling harness: batch-query throughput on XMark-like data
// at 1/2/4/8 threads over one index. Emits one JSON line per thread
// configuration (machine-readable scaling record) in addition to the
// human-readable table.
//
//   micro_concurrency [--n=N] [--scale=f] [--queries=Q] [--seed=S]
//                     [--out=bench/BENCH_concurrency.json]
//
// The index is built once, on one thread (a build never fans out), and
// every row repeats that build's time. A batch runs one query per pool
// task, so every config also cross-checks its answers against threads=1.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/gen/xmark.h"
#include "src/util/thread_pool.h"

namespace xseq {
namespace {

int Run(const FlagSet& flags) {
  const DocId n = bench::Scaled(flags, 20000, 100000);
  const int query_rounds = flags.GetInt("queries", 8);
  const std::string out_path =
      flags.GetString("out", "bench/BENCH_concurrency.json");

  XMarkParams params;
  params.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  // A mixed batch: value-selective, wildcard and '//' queries (the Table 7
  // shapes), replicated to make one QueryBatch call big enough to spread.
  const char* shapes[4] = {
      "/site//item[location='United States']/mail/date[text='07/05/2000']",
      "/site//person/*/age[text='32']",
      "//closed_auction[seller/person='person11304']/date[text='12/15/1999']",
      "/site//person/name",
  };
  std::vector<std::string> batch;
  for (int r = 0; r < query_rounds; ++r) {
    for (const char* q : shapes) batch.push_back(q);
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }

  bench::Header("concurrency scaling on XMark (" + std::to_string(n) +
                " records, " + std::to_string(batch.size()) +
                " queries/batch, hardware threads: " +
                std::to_string(ResolveThreadCount(0)) + ")");
  CollectionBuilder builder;
  XMarkGenerator gen(params, builder.names(), builder.values());
  Timer build_timer;
  CollectionIndex idx = bench::BuildStreaming(
      &builder, [&gen](DocId d) { return gen.Generate(d); }, n);
  const double build_s = build_timer.ElapsedSeconds();
  const uint64_t nodes = idx.Stats().trie_nodes;
  std::printf("build: %.3f s, %llu index nodes\n", build_s,
              static_cast<unsigned long long>(nodes));
  std::printf("%8s %14s %16s\n", "threads", "batch (ms)", "queries/s");

  std::vector<std::vector<DocId>> serial_docs;
  double base_qps = 0.0;
  for (int threads : {1, 2, 4, 8}) {
    // Warm once, then time the batch entry point.
    (void)idx.QueryBatch(batch, ExecOptions(), threads);
    Timer query_timer;
    auto results = idx.QueryBatch(batch, ExecOptions(), threads);
    const double batch_ms = query_timer.ElapsedMillis();
    for (size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok()) {
        std::fprintf(stderr, "FATAL: %s failed: %s\n", batch[i].c_str(),
                     results[i].status().ToString().c_str());
        return 1;
      }
      if (threads == 1) serial_docs.push_back(results[i]->docs);
      if (results[i]->docs != serial_docs[i]) {
        std::fprintf(stderr, "FATAL: threads=%d answered %s differently\n",
                     threads, batch[i].c_str());
        return 1;
      }
    }
    const double qps =
        batch_ms <= 0.0
            ? 0.0
            : static_cast<double>(batch.size()) / (batch_ms / 1000.0);
    if (threads == 1) base_qps = qps;

    std::printf("%8d %14.3f %16.0f\n", threads, batch_ms, qps);
    std::fprintf(
        out,
        "{\"bench\": \"concurrency\", \"dataset\": \"xmark\", "
        "\"records\": %llu, \"threads\": %d, \"build_seconds\": %.6f, "
        "\"batch_queries\": %zu, \"batch_millis\": %.6f, "
        "\"queries_per_second\": %.1f, \"query_speedup\": %.3f, "
        "\"index_nodes\": %llu}\n",
        static_cast<unsigned long long>(n), threads, build_s, batch.size(),
        batch_ms, qps, base_qps > 0.0 ? qps / base_qps : 0.0,
        static_cast<unsigned long long>(nodes));
  }
  std::fclose(out);
  bench::Note("wrote " + out_path);
  bench::Note("query speedups are relative to threads=1 on this machine; "
              "with a single hardware core all configs time alike.");
  return 0;
}

}  // namespace
}  // namespace xseq

int main(int argc, char** argv) {
  xseq::FlagSet flags(argc, argv);
  return xseq::Run(flags);
}
