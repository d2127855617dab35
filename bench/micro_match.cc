// Microbenchmarks: Algorithm 1 subsequence matching (constraint vs naive),
// query compilation, and end-to-end XPath execution.
//
// Two modes:
//   * default           — google-benchmark microbenchmarks.
//   * --json=<path>     — deterministic counter workloads (the fig15
//     identical-siblings mix, a fig16-style length sweep, the table7 XMark
//     queries, and Q1 texts narrowed by literals read off records) run
//     against both the in-memory and the paged accessor;
//     wall clock + MatchStats totals are written as one JSON object per
//     line so shell tooling can grep instead of parsing. With
//     --baseline=<path> the run additionally compares itself against a
//     recorded BENCH_match.json and fails (exit 1) when
//     link_entries_read regresses by more than --guard_pct (default 10) or
//     the result set drifts (result_docs / terminals must match exactly).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/bench_util.h"
#include "src/core/collection_index.h"
#include "src/gen/querygen.h"
#include "src/gen/synthetic.h"
#include "src/gen/xmark.h"
#include "src/storage/paged_index.h"
#include "src/util/flags.h"
#include "src/util/timer.h"

namespace xseq {
namespace {

struct MatchCorpus {
  std::unique_ptr<CollectionIndex> idx;
  std::unique_ptr<SyntheticDataset> gen;
  std::vector<QuerySeq> queries;
  std::vector<QueryPattern> patterns;

  MatchCorpus() {
    SyntheticParams params;
    params.identical_percent = 20;
    IndexOptions opts;
    CollectionBuilder builder(opts);
    gen = std::make_unique<SyntheticDataset>(params, builder.names(),
                                             builder.values());
    for (DocId d = 0; d < 20000; ++d) {
      Status st = builder.Observe(gen->Generate(d));
      benchmark::DoNotOptimize(st.ok());
    }
    Status st = builder.BeginIndexing();
    benchmark::DoNotOptimize(st.ok());
    for (DocId d = 0; d < 20000; ++d) {
      st = builder.Index(gen->Generate(d));
      benchmark::DoNotOptimize(st.ok());
    }
    auto built = std::move(builder).Finish();
    idx = std::make_unique<CollectionIndex>(std::move(*built));

    Rng rng(3, 29);
    for (int i = 0; i < 64; ++i) {
      Document sample = gen->Generate(rng.Uniform(20000));
      patterns.push_back(
          SampleQueryPattern(sample, idx->names(), 5, &rng));
      auto compiled = idx->executor().Compile(patterns.back());
      if (compiled.ok()) {
        for (QuerySeq& qs : *compiled) queries.push_back(std::move(qs));
      }
    }
  }
};

MatchCorpus& GetCorpus() {
  static MatchCorpus* corpus = new MatchCorpus();
  return *corpus;
}

void BM_MatchSequence(benchmark::State& state, MatchMode mode) {
  MatchCorpus& c = GetCorpus();
  size_t i = 0;
  std::vector<DocId> out;
  for (auto _ : state) {
    out.clear();
    Status st = MatchSequence(c.idx->index(),
                              c.queries[i % c.queries.size()], mode, &out);
    benchmark::DoNotOptimize(st.ok());
    benchmark::DoNotOptimize(out.data());
    ++i;
  }
}
BENCHMARK_CAPTURE(BM_MatchSequence, constraint, MatchMode::kConstraint);
BENCHMARK_CAPTURE(BM_MatchSequence, naive, MatchMode::kNaive);

void BM_Compile(benchmark::State& state) {
  MatchCorpus& c = GetCorpus();
  size_t i = 0;
  for (auto _ : state) {
    auto compiled =
        c.idx->executor().Compile(c.patterns[i % c.patterns.size()]);
    benchmark::DoNotOptimize(compiled.ok());
    ++i;
  }
}
BENCHMARK(BM_Compile);

void BM_EndToEndXPath(benchmark::State& state) {
  MatchCorpus& c = GetCorpus();
  size_t i = 0;
  for (auto _ : state) {
    auto r = c.idx->executor().ExecutePattern(
        c.patterns[i % c.patterns.size()]);
    benchmark::DoNotOptimize(r.ok());
    ++i;
  }
}
BENCHMARK(BM_EndToEndXPath);

// ---------------------------------------------------------------------------
// --json counter workloads.

/// Totals of one (workload, accessor) cell.
struct CellResult {
  std::string name;
  std::string accessor;  // "memory" | "paged"
  size_t queries = 0;
  size_t sequences = 0;
  double wall_ms = 0.0;
  MatchStats stats;
  // Paged-only buffer-pool totals (0 for the in-memory accessor).
  uint64_t pool_fetches = 0;
  uint64_t pool_misses = 0;
  uint64_t pool_link_misses = 0;
};

/// One workload: an index plus the compiled sequences of its query mix.
struct Workload {
  std::string name;
  std::unique_ptr<CollectionIndex> idx;
  std::vector<std::vector<QuerySeq>> compiled;  // one entry per query
};

Workload MakeSyntheticWorkload(const std::string& name,
                               const SyntheticParams& params, DocId docs,
                               const std::vector<size_t>& lengths,
                               int queries_per_length, uint64_t rng_stream) {
  Workload w;
  w.name = name;
  IndexOptions opts;
  CollectionBuilder builder(opts);
  SyntheticDataset gen(params, builder.names(), builder.values());
  w.idx = std::make_unique<CollectionIndex>(bench::BuildStreaming(
      &builder, [&gen](DocId d) { return gen.Generate(d); }, docs));
  Rng rng(params.seed, rng_stream);
  for (size_t len : lengths) {
    for (int q = 0; q < queries_per_length; ++q) {
      Document sample = gen.Generate(rng.Uniform(docs));
      QueryPattern pattern = SampleQueryPattern(sample, w.idx->names(), len,
                                                &rng, /*value_bias=*/0.4);
      auto compiled = w.idx->executor().Compile(pattern);
      if (compiled.ok() && !compiled->empty()) {
        w.compiled.push_back(std::move(*compiled));
      }
    }
  }
  return w;
}

Workload MakeXMarkWorkload(DocId docs) {
  Workload w;
  w.name = "table7_xmark";
  XMarkParams params;
  IndexOptions opts;
  CollectionBuilder builder(opts);
  XMarkGenerator gen(params, builder.names(), builder.values());
  w.idx = std::make_unique<CollectionIndex>(bench::BuildStreaming(
      &builder, [&gen](DocId d) { return gen.Generate(d); }, docs));
  const char* queries[3] = {
      "/site//item[location='United States']/mail/date[text='07/05/2000']",
      "/site//person/*/age[text='32']",
      "//closed_auction[seller/person='person11304']"
      "/date[text='12/15/1999']",
  };
  for (const char* q : queries) {
    auto pattern = ParseXPath(q);
    if (!pattern.ok()) continue;
    auto compiled = w.idx->executor().Compile(*pattern);
    if (compiled.ok() && !compiled->empty()) {
      w.compiled.push_back(std::move(*compiled));
    }
  }
  return w;
}

/// Table-7 Q1 texts narrowed to one mail, literals read off records — the
/// shape the serving benchmark's cold parameterized workload sends. The
/// sender's value path occurs about once, so the anchor sits late in each
/// sequence and steering skips the nested item/mail occurrences.
Workload MakeXMarkQ1Workload(DocId docs) {
  Workload w;
  w.name = "table7_q1_params";
  XMarkParams params;
  IndexOptions opts;
  CollectionBuilder builder(opts);
  XMarkGenerator gen(params, builder.names(), builder.values());
  w.idx = std::make_unique<CollectionIndex>(bench::BuildStreaming(
      &builder, [&gen](DocId d) { return gen.Generate(d); }, docs));
  Rng rng(params.seed, 41);
  for (const std::string& q :
       XMarkQ1Texts(gen, w.idx->names(), docs, /*count=*/64, &rng)) {
    auto pattern = ParseXPath(q);
    if (!pattern.ok()) continue;
    auto compiled = w.idx->executor().Compile(*pattern);
    if (compiled.ok() && !compiled->empty()) {
      w.compiled.push_back(std::move(*compiled));
    }
  }
  return w;
}

CellResult RunMemory(const Workload& w) {
  CellResult cell;
  cell.name = w.name;
  cell.accessor = "memory";
  cell.queries = w.compiled.size();
  Timer timer;
  for (const auto& seqs : w.compiled) {
    std::vector<DocId> out;
    for (const QuerySeq& qs : seqs) {
      ++cell.sequences;
      Status st = MatchSequence(w.idx->index(), qs, MatchMode::kConstraint,
                                &out, &cell.stats);
      if (!st.ok()) {
        std::fprintf(stderr, "match: %s\n", st.ToString().c_str());
        std::exit(1);
      }
    }
  }
  cell.wall_ms = timer.ElapsedMillis();
  return cell;
}

CellResult RunPaged(const Workload& w) {
  CellResult cell;
  cell.name = w.name;
  cell.accessor = "paged";
  cell.queries = w.compiled.size();
  PagedIndex paged = PagedIndex::Build(w.idx->index());
  BufferPool pool(&paged.file(), 1024);
  pool.SetRegionBoundary(paged.first_data_page());
  Timer timer;
  for (const auto& seqs : w.compiled) {
    // Cold per query, like the paper's per-query disk-access counts.
    pool.Clear();
    std::vector<DocId> out;
    for (const QuerySeq& qs : seqs) {
      ++cell.sequences;
      Status st = paged.Match(qs, MatchMode::kConstraint, &pool, &out,
                              &cell.stats);
      if (!st.ok()) {
        std::fprintf(stderr, "match: %s\n", st.ToString().c_str());
        std::exit(1);
      }
    }
  }
  cell.wall_ms = timer.ElapsedMillis();
  cell.pool_fetches = pool.fetches();
  cell.pool_misses = pool.misses();
  cell.pool_link_misses = pool.link_misses();
  return cell;
}

void AppendCellJson(std::string* out, const CellResult& c) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"name\":\"%s\",\"accessor\":\"%s\",\"queries\":%zu,"
      "\"sequences\":%zu,\"wall_ms\":%.3f,"
      "\"link_binary_searches\":%llu,\"link_entries_read\":%llu,"
      "\"link_gallop_probes\":%llu,"
      "\"candidates\":%llu,\"sibling_checks\":%llu,"
      "\"sibling_rejections\":%llu,\"terminals\":%llu,"
      "\"result_docs\":%llu,\"pool_fetches\":%llu,\"pool_misses\":%llu,"
      "\"pool_link_misses\":%llu}",
      c.name.c_str(), c.accessor.c_str(), c.queries, c.sequences, c.wall_ms,
      static_cast<unsigned long long>(c.stats.link_binary_searches),
      static_cast<unsigned long long>(c.stats.link_entries_read),
      static_cast<unsigned long long>(c.stats.link_gallop_probes),
      static_cast<unsigned long long>(c.stats.candidates),
      static_cast<unsigned long long>(c.stats.sibling_checks),
      static_cast<unsigned long long>(c.stats.sibling_rejections),
      static_cast<unsigned long long>(c.stats.terminals),
      static_cast<unsigned long long>(c.stats.result_docs),
      static_cast<unsigned long long>(c.pool_fetches),
      static_cast<unsigned long long>(c.pool_misses),
      static_cast<unsigned long long>(c.pool_link_misses));
  out->append(buf);
}

/// Pulls the integer field `key` out of the one-line JSON object `line`.
/// Returns false when absent (older baselines may lack newer fields).
bool ExtractField(const std::string& line, const std::string& key,
                  uint64_t* value) {
  std::string needle = "\"" + key + "\":";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  *value = std::strtoull(line.c_str() + pos + needle.size(), nullptr, 10);
  return true;
}

/// Compares this run's cells against a recorded BENCH_match.json. Every
/// (name, accessor) cell present in the baseline must exist, produce the
/// identical result set, and stay within `guard_pct` of its recorded
/// link_entries_read. Returns the number of violations.
int CheckAgainstBaseline(const std::vector<CellResult>& cells,
                         const std::string& baseline_path, double guard_pct) {
  std::ifstream in(baseline_path);
  if (!in) {
    std::fprintf(stderr, "cannot read baseline %s\n", baseline_path.c_str());
    return 1;
  }
  int violations = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"name\":") == std::string::npos) continue;
    const CellResult* match = nullptr;
    for (const CellResult& c : cells) {
      if (line.find("\"name\":\"" + c.name + "\"") != std::string::npos &&
          line.find("\"accessor\":\"" + c.accessor + "\"") !=
              std::string::npos) {
        match = &c;
        break;
      }
    }
    if (match == nullptr) {
      std::fprintf(stderr, "GUARD: baseline cell missing from this run: %s\n",
                   line.c_str());
      ++violations;
      continue;
    }
    uint64_t base_reads = 0, base_docs = 0, base_terminals = 0;
    if (!ExtractField(line, "link_entries_read", &base_reads) ||
        !ExtractField(line, "result_docs", &base_docs) ||
        !ExtractField(line, "terminals", &base_terminals)) {
      std::fprintf(stderr, "GUARD: malformed baseline line: %s\n",
                   line.c_str());
      ++violations;
      continue;
    }
    if (match->stats.result_docs != base_docs ||
        match->stats.terminals != base_terminals) {
      std::fprintf(stderr,
                   "GUARD: %s/%s result drift: result_docs %llu vs %llu, "
                   "terminals %llu vs %llu\n",
                   match->name.c_str(), match->accessor.c_str(),
                   static_cast<unsigned long long>(match->stats.result_docs),
                   static_cast<unsigned long long>(base_docs),
                   static_cast<unsigned long long>(match->stats.terminals),
                   static_cast<unsigned long long>(base_terminals));
      ++violations;
    }
    double limit =
        static_cast<double>(base_reads) * (1.0 + guard_pct / 100.0);
    if (static_cast<double>(match->stats.link_entries_read) > limit) {
      std::fprintf(
          stderr,
          "GUARD: %s/%s link_entries_read %llu exceeds baseline %llu "
          "by more than %.0f%%\n",
          match->name.c_str(), match->accessor.c_str(),
          static_cast<unsigned long long>(match->stats.link_entries_read),
          static_cast<unsigned long long>(base_reads), guard_pct);
      ++violations;
    }
  }
  return violations;
}

int RunJsonMode(const FlagSet& flags) {
  // Sizes are smoke-scale: the counters are machine-independent, so small
  // deterministic corpora are enough to catch algorithmic regressions.
  DocId docs = static_cast<DocId>(flags.GetInt("docs", 4000));

  std::vector<Workload> workloads;
  {
    // fig15 mix: heavy identical siblings — the sibling-cover stress case.
    SyntheticParams params;
    params.identical_percent = 80;
    params.value_percent = 25;
    workloads.push_back(MakeSyntheticWorkload(
        "fig15_identical_siblings", params, docs, {5}, 48,
        /*rng_stream=*/29));
  }
  {
    // fig16 mix: query-length sweep on a mildly nested corpus.
    SyntheticParams params;
    params.identical_percent = 20;
    workloads.push_back(MakeSyntheticWorkload("fig16_query_lengths", params,
                                              docs, {2, 3, 4, 5, 6, 7, 8},
                                              8, /*rng_stream=*/11));
  }
  workloads.push_back(MakeXMarkWorkload(docs));
  workloads.push_back(MakeXMarkQ1Workload(docs));

  std::vector<CellResult> cells;
  for (const Workload& w : workloads) {
    cells.push_back(RunMemory(w));
    cells.push_back(RunPaged(w));
  }

  std::string json = "{\"bench\":\"micro_match\",\"docs\":" +
                     std::to_string(docs) + ",\"cells\":[\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    AppendCellJson(&json, cells[i]);
    json += i + 1 < cells.size() ? ",\n" : "\n";
  }
  json += "]}\n";

  std::string path = flags.GetString("json", "BENCH_match.json");
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  out << json;
  out.close();
  std::fprintf(stderr, "wrote %s (%zu cells)\n", path.c_str(), cells.size());

  if (flags.Has("baseline")) {
    double guard_pct = flags.GetDouble("guard_pct", 10.0);
    int violations = CheckAgainstBaseline(
        cells, flags.GetString("baseline", ""), guard_pct);
    if (violations > 0) {
      std::fprintf(stderr, "GUARD: %d violation(s)\n", violations);
      return 1;
    }
    std::fprintf(stderr, "GUARD: ok (within %.0f%% of baseline)\n",
                 guard_pct);
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
