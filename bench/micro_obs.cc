// Instrumentation overhead: the fig15 identical-siblings query mix executed
// end to end (compile + match) under four observability configurations —
// metrics disabled, metrics enabled, metrics + per-query tracing, and
// metrics + tracing + a tail-sampled structured access log (the full
// serving-plane observability stack).
//
// Two modes:
//   * default        — google-benchmark micros for the primitive costs
//     (counter add, histogram record, the disabled-site guard).
//   * --json=<path>  — the overhead workload. Each rep runs every query
//     under every config back to back (the first config rotating), timed
//     in thread CPU time, which does not advance while a shared host
//     deschedules the benchmark. A config's overhead is the median over
//     --reps (default 9) of its per-rep time over the metrics-off time of
//     the same rep: the configs of one query share the host's speed of that
//     millisecond. Writes BENCH_obs.json and exits 1 when the
//     metrics-enabled (tracing off) overhead exceeds --max_overhead_pct
//     (default 2).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/collection_index.h"
#include "src/gen/querygen.h"
#include "src/gen/synthetic.h"
#include "src/obs/metrics.h"
#include "src/obs/request_log.h"
#include "src/obs/trace.h"
#include "src/util/flags.h"
#include "src/util/timer.h"

namespace xseq {
namespace {

// ---------------------------------------------------------------------------
// Primitive-cost microbenchmarks.

void BM_CounterAdd(benchmark::State& state) {
  obs::Counter c;
  for (auto _ : state) {
    c.Increment();
    benchmark::DoNotOptimize(&c);
  }
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramRecord(benchmark::State& state) {
  obs::Histogram h;
  uint64_t v = 0;
  for (auto _ : state) {
    h.Record(v++ & 0xFFF);
    benchmark::DoNotOptimize(&h);
  }
}
BENCHMARK(BM_HistogramRecord);

void BM_DisabledSiteGuard(benchmark::State& state) {
  // The whole per-site cost when metrics are off: one relaxed load + branch.
  obs::ScopedMetricsEnabled off(false);
  for (auto _ : state) {
    bool enabled = obs::MetricsEnabled();
    benchmark::DoNotOptimize(enabled);
  }
}
BENCHMARK(BM_DisabledSiteGuard);

void BM_RequestLogLineFormat(benchmark::State& state) {
  // Pure formatting cost of one access-log line (the write is I/O-bound
  // and measured by the --json workload instead).
  obs::RequestLogRecord rec;
  rec.ts_us = 1700000000000000ull;
  rec.request_id = 7;
  rec.trace_id = 0xBEEF;
  rec.query = "/a/b/c[text='v1']";
  rec.latency_us = 1234;
  rec.queue_us = 56;
  rec.docs = 9;
  for (auto _ : state) {
    std::string line = obs::RequestLogLine(rec, "sampled");
    benchmark::DoNotOptimize(line.data());
  }
}
BENCHMARK(BM_RequestLogLineFormat);

// ---------------------------------------------------------------------------
// --json overhead workload.

struct Workload {
  std::unique_ptr<CollectionIndex> idx;
  std::vector<QueryPattern> patterns;
};

/// The fig15 identical-siblings mix from micro_match, kept at the pattern
/// level so each measured query pays the full instrumented path (compile,
/// instantiate, ordering expansion, match).
Workload MakeFig15Workload(DocId docs) {
  Workload w;
  SyntheticParams params;
  params.identical_percent = 80;
  params.value_percent = 25;
  IndexOptions opts;
  CollectionBuilder builder(opts);
  SyntheticDataset gen(params, builder.names(), builder.values());
  w.idx = std::make_unique<CollectionIndex>(bench::BuildStreaming(
      &builder, [&gen](DocId d) { return gen.Generate(d); }, docs));
  Rng rng(params.seed, /*stream=*/29);
  for (int q = 0; q < 48; ++q) {
    Document sample = gen.Generate(rng.Uniform(docs));
    QueryPattern pattern = SampleQueryPattern(sample, w.idx->names(), 5,
                                              &rng, /*value_bias=*/0.4);
    auto compiled = w.idx->executor().Compile(pattern);
    if (compiled.ok() && !compiled->empty()) {
      w.patterns.push_back(std::move(pattern));
    }
  }
  return w;
}

/// Runs one query; returns its result-doc count (a checksum that also
/// keeps the work from being optimized away).
uint64_t RunQuery(const Workload& w, const QueryPattern& p,
                  const ExecOptions& exec, obs::RequestLog* log) {
  Timer timer;
  auto r = w.idx->executor().ExecutePattern(p, /*stats=*/nullptr, exec);
  if (!r.ok()) {
    std::fprintf(stderr, "query: %s\n", r.status().ToString().c_str());
    std::exit(1);
  }
  if (log != nullptr) {
    // What the serving layer pays per request: build the record, run the
    // sampling policy, and (for the admitted minority) write one line.
    obs::RequestLogRecord rec;
    rec.latency_us = static_cast<uint64_t>(timer.ElapsedMicros());
    rec.docs = r->size();
    (void)log->Append(rec);
  }
  return r->size();
}

/// One observability configuration and its thread CPU time per rep.
struct ConfigResult {
  std::string name;
  ExecOptions exec;
  bool metrics = false;
  obs::RequestLog* log = nullptr;
  std::vector<double> ms;  ///< thread CPU time per rep
  uint64_t checksum = 0;

  double MinMs() const { return *std::min_element(ms.begin(), ms.end()); }
  double MeanMs() const {
    double sum = 0.0;
    for (double m : ms) sum += m;
    return sum / static_cast<double>(ms.size());
  }
  /// Median over reps of this config's time over `base`'s, as a percent
  /// overhead.
  double OverheadPct(const ConfigResult& base) const {
    std::vector<double> ratios;
    for (size_t i = 0; i < ms.size(); ++i) {
      ratios.push_back(ms[i] / base.ms[i]);
    }
    std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                     ratios.end());
    return 100.0 * (ratios[ratios.size() / 2] - 1.0);
  }
};

/// One rep: every query runs under each config back to back, the first
/// config rotating per query and rep, and each run's thread CPU time is
/// added to its config. Configs measured within the same millisecond share
/// the host's speed of that moment.
void RunRep(const Workload& w, int rep, std::vector<ConfigResult>* cfgs) {
  const size_t n = cfgs->size();
  std::vector<double> ms(n, 0.0);
  std::vector<uint64_t> docs(n, 0);
  for (size_t q = 0; q < w.patterns.size(); ++q) {
    for (size_t k = 0; k < n; ++k) {
      const size_t i = (q + k + static_cast<size_t>(rep)) % n;
      const ConfigResult& c = (*cfgs)[i];
      obs::ScopedMetricsEnabled scoped(c.metrics);
      ThreadCpuTimer timer;
      docs[i] += RunQuery(w, w.patterns[q], c.exec, c.log);
      ms[i] += timer.ElapsedMillis();
    }
  }
  for (size_t i = 0; i < n; ++i) {
    ConfigResult& c = (*cfgs)[i];
    c.ms.push_back(ms[i]);
    if (c.checksum != 0 && c.checksum != docs[i]) {
      std::fprintf(stderr, "nondeterministic results in %s\n",
                   c.name.c_str());
      std::exit(1);
    }
    c.checksum = docs[i];
  }
}

int RunJsonMode(const FlagSet& flags) {
  const DocId docs = static_cast<DocId>(flags.GetInt("docs", 4000));
  const int reps = static_cast<int>(flags.GetInt("reps", 9));
  const double max_overhead_pct = flags.GetDouble("max_overhead_pct", 2.0);

  Workload w = MakeFig15Workload(docs);
  std::fprintf(stderr, "fig15 workload: %u docs, %zu queries, %d reps\n",
               static_cast<unsigned>(docs), w.patterns.size(), reps);

  // The access-log leg: tail-sampling at the serving default (1 in 100 OK
  // requests admitted; nothing in this workload sheds or misses a deadline)
  // so the measured cost is dominated by record build + Classify, as in
  // production.
  obs::RequestLogOptions log_opts;
  log_opts.path = flags.GetString("log_path", "/tmp/xseq_micro_obs.jsonl");
  log_opts.sample_every = 100;
  log_opts.slow_micros = 0;
  auto request_log = obs::RequestLog::Open(log_opts);
  if (!request_log.ok()) {
    std::fprintf(stderr, "request log: %s\n",
                 request_log.status().ToString().c_str());
    return 1;
  }

  obs::Tracer tracer;
  ExecOptions traced;
  traced.tracer = &tracer;
  std::vector<ConfigResult> cfgs(4);
  cfgs[0].name = "metrics_off";
  cfgs[1].name = "metrics_on";
  cfgs[1].metrics = true;
  cfgs[2].name = "tracing_on";
  cfgs[2].exec = traced;
  cfgs[2].metrics = true;
  cfgs[3].name = "logging_on";
  cfgs[3].exec = traced;
  cfgs[3].metrics = true;
  cfgs[3].log = request_log->get();

  // Warmup: fault in the index pages and the metric registrations.
  RunRep(w, 0, &cfgs);
  for (ConfigResult& c : cfgs) c.ms.clear();
  for (int rep = 0; rep < reps; ++rep) RunRep(w, rep, &cfgs);

  const ConfigResult& off = cfgs[0];
  const ConfigResult& on = cfgs[1];
  const ConfigResult& tracing = cfgs[2];
  const ConfigResult& logging = cfgs[3];
  if (off.checksum != on.checksum || off.checksum != tracing.checksum ||
      off.checksum != logging.checksum) {
    std::fprintf(stderr, "result drift across configs\n");
    return 1;
  }

  const double overhead_pct = on.OverheadPct(off);
  const double tracing_pct = tracing.OverheadPct(off);
  const double logging_pct = logging.OverheadPct(off);
  const bool pass = overhead_pct < max_overhead_pct;

  char buf[1024];
  std::string json = "{\"bench\":\"micro_obs\",\"workload\":"
                     "\"fig15_identical_siblings\",";
  std::snprintf(buf, sizeof(buf),
                "\"docs\":%u,\"queries\":%zu,\"reps\":%d,\"configs\":[\n",
                static_cast<unsigned>(docs), w.patterns.size(), reps);
  json += buf;
  for (size_t i = 0; i < cfgs.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"min_cpu_ms\":%.3f,"
                  "\"mean_cpu_ms\":%.3f,\"result_docs\":%llu}%s\n",
                  cfgs[i].name.c_str(), cfgs[i].MinMs(), cfgs[i].MeanMs(),
                  static_cast<unsigned long long>(cfgs[i].checksum),
                  i + 1 < cfgs.size() ? "," : "");
    json += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "],\"metrics_overhead_pct\":%.3f,"
                "\"tracing_overhead_pct\":%.3f,"
                "\"logging_overhead_pct\":%.3f,"
                "\"max_overhead_pct\":%.1f,\"pass\":%s}\n",
                overhead_pct, tracing_pct, logging_pct, max_overhead_pct,
                pass ? "true" : "false");
  json += buf;

  std::string path = flags.GetString("json", "BENCH_obs.json");
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  out << json;
  out.close();
  std::fprintf(stderr,
               "wrote %s (metrics overhead %.2f%%, tracing %.2f%%, "
               "tracing+log %.2f%%, limit %.1f%%)\n",
               path.c_str(), overhead_pct, tracing_pct, logging_pct,
               max_overhead_pct);

  if (!pass) {
    std::fprintf(stderr,
                 "FAIL: metrics-on overhead %.2f%% exceeds %.1f%%\n",
                 overhead_pct, max_overhead_pct);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace xseq

int main(int argc, char** argv) {
  xseq::FlagSet flags(argc, argv);
  if (flags.Has("json")) {
    return xseq::RunJsonMode(flags);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
