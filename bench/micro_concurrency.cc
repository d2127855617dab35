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
//
// One batch takes a few milliseconds, so a single timing per width follows
// the host's load more than the width. The harness times 16 rounds; each
// round runs one batch at every width, the first width rotating from round
// to round, so every width samples the host alike. Each width reports the
// median and quartiles of its batch times, and speedups compare medians.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/gen/xmark.h"
#include "src/util/thread_pool.h"

namespace xseq {
namespace {

constexpr int kRounds = 16;

/// The q-quantile of `v` (linear between the closest ranks).
double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

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

  const std::vector<int> widths = {1, 2, 4, 8};
  std::vector<std::vector<DocId>> serial_docs;
  auto answers_match = [&](const std::vector<StatusOr<QueryResult>>& results,
                           int threads) {
    for (size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok()) {
        std::fprintf(stderr, "FATAL: %s failed: %s\n", batch[i].c_str(),
                     results[i].status().ToString().c_str());
        return false;
      }
      if (i == serial_docs.size()) serial_docs.push_back(results[i]->docs);
      if (results[i]->docs != serial_docs[i]) {
        std::fprintf(stderr, "FATAL: threads=%d answered %s differently\n",
                     threads, batch[i].c_str());
        return false;
      }
    }
    return true;
  };
  // Warm every width once (width 1 first: it records the reference
  // answers), then time the rounds.
  for (int threads : widths) {
    if (!answers_match(idx.QueryBatch(batch, ExecOptions(), threads),
                       threads)) {
      return 1;
    }
  }
  std::vector<std::vector<double>> batch_ms(widths.size());
  for (int round = 0; round < kRounds; ++round) {
    for (size_t k = 0; k < widths.size(); ++k) {
      const size_t w = (static_cast<size_t>(round) + k) % widths.size();
      Timer query_timer;
      auto results = idx.QueryBatch(batch, ExecOptions(), widths[w]);
      batch_ms[w].push_back(query_timer.ElapsedMillis());
      if (!answers_match(results, widths[w])) return 1;
    }
  }

  std::printf("%d rounds; batch times are median [p25, p75]\n", kRounds);
  std::printf("%8s %26s %16s %10s\n", "threads", "batch (ms)", "queries/s",
              "speedup");
  const double base_ms = Quantile(batch_ms[0], 0.5);
  for (size_t w = 0; w < widths.size(); ++w) {
    const double p25 = Quantile(batch_ms[w], 0.25);
    const double median = Quantile(batch_ms[w], 0.5);
    const double p75 = Quantile(batch_ms[w], 0.75);
    const double qps =
        median <= 0.0
            ? 0.0
            : static_cast<double>(batch.size()) / (median / 1000.0);
    const double speedup = median > 0.0 ? base_ms / median : 0.0;
    std::printf("%8d %8.3f [%6.3f, %6.3f] %16.0f %9.2fx\n", widths[w],
                median, p25, p75, qps, speedup);
    std::fprintf(
        out,
        "{\"bench\": \"concurrency\", \"dataset\": \"xmark\", "
        "\"records\": %llu, \"threads\": %d, \"build_seconds\": %.6f, "
        "\"batch_queries\": %zu, \"rounds\": %d, "
        "\"batch_millis_median\": %.6f, \"batch_millis_p25\": %.6f, "
        "\"batch_millis_p75\": %.6f, \"queries_per_second\": %.1f, "
        "\"query_speedup\": %.3f, \"index_nodes\": %llu}\n",
        static_cast<unsigned long long>(n), widths[w], build_s,
        batch.size(), kRounds, median, p25, p75, qps, speedup,
        static_cast<unsigned long long>(nodes));
  }
  std::fclose(out);
  bench::Note("wrote " + out_path);
  bench::Note("query speedups are median over median, relative to "
              "threads=1 on this machine; with a single hardware core all "
              "configs time alike.");
  return 0;
}

}  // namespace
}  // namespace xseq

int main(int argc, char** argv) {
  xseq::FlagSet flags(argc, argv);
  return xseq::Run(flags);
}
