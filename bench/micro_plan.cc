// Planner/caching harness: cold vs warm compilation through the plan
// cache, result-cache hit latency through a QueryService, and end-to-end
// throughput with the caches off vs on — all on the Table 7 XMark query
// shapes.
//
//   micro_plan [--n=N] [--scale=f] [--rounds=R] [--seed=S]
//              [--min_warm_speedup=X] [--min_hit_rate=F]
//              [--out=bench/BENCH_plan.json]
//
// Emits bench/BENCH_plan.json: {..., "cold_compile_us", "warm_compile_us",
// "warm_speedup", "plan_hit_rate", "result_hit_us", "qps_nocache",
// "qps_cache", "qps_speedup"} — schema-checked by scripts/bench_smoke.sh.
//
// Two gates make this a regression harness, not just a report: the warm
// (cached) compile path must be at least --min_warm_speedup times faster
// than a cold compile (default 5x), and the plan-cache hit rate over the
// warm phase must reach --min_hit_rate (default 0.5). Violations exit 1.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/gen/xmark.h"
#include "src/query/plan_cache.h"
#include "src/query/query_pattern.h"
#include "src/server/query_service.h"
#include "src/server/result_cache.h"

namespace xseq {
namespace {

const char* kShapes[4] = {
    "/site//item[location='United States']/mail/date[text='07/05/2000']",
    "/site//person/*/age[text='32']",
    "//closed_auction[seller/person='person11304']/date[text='12/15/1999']",
    "/site//person/name",
};

int Run(const FlagSet& flags) {
  const DocId n = static_cast<DocId>(flags.GetInt(
      "n", static_cast<int64_t>(bench::Scaled(flags, 5000, 50000))));
  const int rounds = static_cast<int>(flags.GetInt("rounds", 20));
  const double min_warm_speedup = flags.GetDouble("min_warm_speedup", 5.0);
  const double min_hit_rate = flags.GetDouble("min_hit_rate", 0.5);
  const std::string out_path =
      flags.GetString("out", "bench/BENCH_plan.json");

  bench::Header("query planning: " + std::to_string(n) +
                " XMark records, " + std::to_string(rounds) + " rounds");

  XMarkParams params;
  params.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  CollectionBuilder builder{IndexOptions{}};
  XMarkGenerator gen(params, builder.names(), builder.values());
  CollectionIndex index = bench::BuildStreaming(
      &builder, [&gen](DocId d) { return gen.Generate(d); }, n);

  // Phase 1: cold vs warm compilation through a dedicated plan cache.
  // Cold samples clear the cache first; warm samples rerun the same query
  // and must hit. compile_micros isolates the compile stage (miss: full
  // pipeline + insert; hit: lookup + stat replay) from matching.
  PlanCache cache;
  ExecOptions exec;
  exec.plan.cache = &cache;
  uint64_t cold_us = 0, warm_us = 0;
  uint64_t cold_samples = 0, warm_samples = 0;
  MatchContext ctx;
  for (const char* shape : kShapes) {
    auto pattern = ParseXPath(shape);
    if (!pattern.ok()) {
      std::fprintf(stderr, "parse %s: %s\n", shape,
                   pattern.status().ToString().c_str());
      return 1;
    }
    ExecOptions opts = exec;
    opts.plan.cache_key = shape;
    for (int r = 0; r < rounds; ++r) {
      cache.Clear();
      ExecStats stats;
      auto docs = index.executor().ExecutePattern(*pattern, &stats, opts,
                                                  &ctx);
      if (!docs.ok()) {
        std::fprintf(stderr, "query %s: %s\n", shape,
                     docs.status().ToString().c_str());
        return 1;
      }
      cold_us += static_cast<uint64_t>(stats.compile_micros);
      ++cold_samples;
    }
    for (int r = 0; r < rounds; ++r) {
      ExecStats stats;
      auto docs = index.executor().ExecutePattern(*pattern, &stats, opts,
                                                  &ctx);
      if (!docs.ok()) {
        std::fprintf(stderr, "query %s: %s\n", shape,
                     docs.status().ToString().c_str());
        return 1;
      }
      if (r > 0 && stats.plan_cache_hits == 0) {
        std::fprintf(stderr, "warm run of %s missed the plan cache\n", shape);
        return 1;
      }
      warm_us += static_cast<uint64_t>(stats.compile_micros);
      ++warm_samples;
    }
  }
  const double cold_avg =
      static_cast<double>(cold_us) / static_cast<double>(cold_samples);
  // Sub-microsecond warm hits round to zero; clamp so the ratio is finite
  // (and conservative: the true speedup is higher).
  const double warm_avg = std::max(
      0.5, static_cast<double>(warm_us) / static_cast<double>(warm_samples));
  const double warm_speedup = cold_avg / warm_avg;

  PlanCache::Stats cs = cache.GetStats();
  // Hit rate over the warm phase only: every cold lookup misses by
  // construction (the cache is cleared first), so folding them in would
  // just restate the cold/warm split. All hits come from warm lookups.
  const double hit_rate =
      warm_samples > 0
          ? static_cast<double>(cs.hits) / static_cast<double>(warm_samples)
          : 0.0;
  std::printf("%-14s cold %8.1f us   warm %8.1f us   speedup %6.1fx\n",
              "compile:", cold_avg, warm_avg, warm_speedup);
  std::printf("%-14s %llu hits / %llu misses (%.1f%% hit rate)\n",
              "plan cache:", static_cast<unsigned long long>(cs.hits),
              static_cast<unsigned long long>(cs.misses), hit_rate * 100.0);

  // Phase 2: result-cache hit latency through a QueryService (a hit takes
  // no execution slot).
  auto shared_index = std::make_shared<CollectionIndex>(std::move(index));
  QueryService::Backend backend = [shared_index](std::string_view xpath,
                                                 const ExecOptions& opts) {
    return shared_index->Query(xpath, opts);
  };
  double result_hit_us = 0.0;
  {
    ResultCache results;
    ServiceOptions sopts;
    sopts.workers = 2;
    sopts.result_cache = &results;
    sopts.generation = [] { return uint64_t{1}; };  // immutable corpus
    QueryService service(backend, sopts);
    uint64_t total_us = 0, hits = 0;
    for (const char* shape : kShapes) {
      auto first = service.Execute(shape);
      if (!first.ok()) {
        std::fprintf(stderr, "serve %s: %s\n", shape,
                     first.status().ToString().c_str());
        return 1;
      }
      for (int r = 0; r < rounds; ++r) {
        Timer timer;
        auto hit = service.Execute(shape);
        const uint64_t us = static_cast<uint64_t>(timer.ElapsedMicros());
        if (!hit.ok()) {
          std::fprintf(stderr, "serve %s: %s\n", shape,
                       hit.status().ToString().c_str());
          return 1;
        }
        if (hit->stats.result_cache_hits == 0) {
          std::fprintf(stderr, "repeat of %s missed the result cache\n",
                       shape);
          return 1;
        }
        total_us += us;
        ++hits;
      }
    }
    result_hit_us =
        static_cast<double>(total_us) / static_cast<double>(hits);
    std::printf("%-14s %8.1f us per cached answer\n", "result hit:",
                result_hit_us);
  }

  // Phase 3: end-to-end throughput, caches off vs on, on a repeated-query
  // workload (the serving steady state the caches are designed for).
  auto measure = [&](bool caching) -> double {
    ResultCache results;
    ServiceOptions sopts;
    sopts.workers = 2;
    if (caching) {
      sopts.result_cache = &results;
      sopts.generation = [] { return uint64_t{1}; };
    }
    QueryService service(backend, sopts);
    Timer wall;
    uint64_t ok = 0;
    for (int r = 0; r < rounds; ++r) {
      for (const char* shape : kShapes) {
        auto result = service.Execute(shape);
        if (result.ok()) ++ok;
      }
    }
    const double elapsed = wall.ElapsedSeconds();
    return elapsed > 0 ? static_cast<double>(ok) / elapsed : 0.0;
  };
  const double qps_nocache = measure(false);
  const double qps_cache = measure(true);
  const double qps_speedup = qps_nocache > 0 ? qps_cache / qps_nocache : 0.0;
  std::printf("%-14s %10.0f qps uncached   %10.0f qps cached (%.1fx)\n",
              "end to end:", qps_nocache, qps_cache, qps_speedup);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(
      out,
      "{\"bench\":\"plan\",\"n\":%llu,\"rounds\":%d,"
      "\"cold_compile_us\":%.1f,\"warm_compile_us\":%.1f,"
      "\"warm_speedup\":%.1f,\"plan_hit_rate\":%.4f,"
      "\"result_hit_us\":%.1f,\"qps_nocache\":%.1f,\"qps_cache\":%.1f,"
      "\"qps_speedup\":%.2f}\n",
      static_cast<unsigned long long>(n), rounds, cold_avg, warm_avg,
      warm_speedup, hit_rate, result_hit_us, qps_nocache, qps_cache,
      qps_speedup);
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  if (warm_speedup < min_warm_speedup) {
    std::fprintf(stderr,
                 "FAIL: warm compile speedup %.1fx below the %.1fx gate\n",
                 warm_speedup, min_warm_speedup);
    return 1;
  }
  if (hit_rate < min_hit_rate) {
    std::fprintf(stderr,
                 "FAIL: plan-cache hit rate %.2f below the %.2f gate\n",
                 hit_rate, min_hit_rate);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace xseq

int main(int argc, char** argv) {
  xseq::FlagSet flags(argc, argv);
  return xseq::Run(flags);
}
