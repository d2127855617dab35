// Link-compression harness: codec density and throughput, plus the CPU
// cost of matching through the block-compressed link core against a flat
// uncompressed accessor.
//
// Size is measured on the paper's size corpora — the two fig14 synthetic
// configurations, the table5 XMark collection — plus the fig15
// identical-siblings mix; match cost is measured on the query corpora
// (fig15 mix, table7 XMark queries) as thread CPU time, which does not
// advance while the host deschedules the benchmark.
//
//   micro_compress [--docs=N] [--reps=R]
//                  [--min_size_reduction_pct=30]
//                  [--max_cpu_regression_pct=10]
//                  [--out=bench/BENCH_compress.json]
//
// Emits one JSON object with a per-corpus array: packed vs logical link
// bytes, bits per entry, and — for the query corpora — pack/unpack
// throughput (million entries per CPU second) and min-of-R thread CPU
// times for the compressed engine vs the flat baseline. Two gates make it a
// regression harness: the packed link region summed over every corpus
// must be at least --min_size_reduction_pct smaller than the flat
// 12-byte-entry layout (per-corpus reductions are reported unmanaged —
// an adversarial corpus may expand), and each query corpus's compressed
// CPU time must stay within --max_cpu_regression_pct of the flat
// accessor's. Violations exit 1.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/gen/querygen.h"
#include "src/gen/synthetic.h"
#include "src/gen/xmark.h"
#include "src/index/link_codec.h"
#include "src/index/matcher_impl.h"
#include "src/query/query_pattern.h"

namespace xseq {
namespace {

/// The pre-compression link layout: per-path flat arrays of serials, ends
/// and link-local cover indices, materialized once from the index.
struct FlatLinks {
  std::vector<uint32_t> off;  // per-path entry offset, size paths+1
  std::vector<uint32_t> serials, ends, covers;

  explicit FlatLinks(const FrozenIndex& fi) {
    size_t paths = fi.distinct_paths();
    off.assign(paths + 1, 0);
    for (PathId p = 0; p < paths; ++p) {
      off[p + 1] = off[p] + fi.LinkSize(p);
    }
    serials.reserve(off[paths]);
    ends.reserve(off[paths]);
    covers.reserve(off[paths]);
    for (PathId p = 0; p < paths; ++p) {
      for (const FrozenIndex::LinkEntry& e : fi.Link(p)) {
        serials.push_back(e.serial);
        ends.push_back(e.end);
      }
      std::vector<uint32_t> c = fi.LinkCover(p);
      covers.insert(covers.end(), c.begin(), c.end());
    }
  }
};

/// Accessor over FlatLinks — the uncompressed CPU-time baseline. Runs
/// the identical MatchCore; only link reads differ (direct array loads,
/// no block decode, no cache).
class FlatAccessor {
 public:
  FlatAccessor(const FrozenIndex& fi, const FlatLinks& links)
      : fi_(&fi), links_(&links) {}

  void BindCache(LinkBlockCache* cache) { (void)cache; }

  uint32_t node_count() const {
    return static_cast<uint32_t>(fi_->node_count());
  }
  uint32_t LinkSize(PathId p) const {
    return links_->off[p + 1] - links_->off[p];
  }
  uint32_t LinkBlockBaseSerial(PathId p, uint32_t b) const {
    return LinkSerial(p, b * kLinkBlockSize);
  }
  uint32_t LinkSerial(PathId p, uint32_t i) const {
    return links_->serials[links_->off[p] + i];
  }
  uint32_t LinkEnd(PathId p, uint32_t i) const {
    return links_->ends[links_->off[p] + i];
  }
  uint32_t LinkCover(PathId p, uint32_t i) const {
    return links_->covers[links_->off[p] + i];
  }
  LinkColumns LinkBlockColumns(PathId p, uint32_t b,
                               uint32_t streams) const {
    (void)streams;  // flat columns are always materialized
    const uint32_t base = links_->off[p] + b * kLinkBlockSize;
    return {links_->serials.data() + base, links_->ends.data() + base,
            links_->covers.data() + base};
  }
  // Flat views point into permanent arrays, so they never die.
  uint64_t DecodeStamp() const { return 0; }
  // Never retains (the flat engine doesn't use the block cache).
  uint64_t CacheIdentity() const { return 0; }
  bool HasNested(PathId p) const { return fi_->HasNested(p); }
  std::pair<uint32_t, uint32_t> DocOffsets(uint32_t serial,
                                           uint32_t end) const {
    (void)end;
    return fi_->DocOffsetsInSubtree(serial);
  }
  DocId DocAt(uint32_t offset) const { return fi_->doc_at(offset); }

 private:
  const FrozenIndex* fi_;
  const FlatLinks* links_;
};

struct Corpus {
  std::string name;
  std::unique_ptr<CollectionIndex> idx;
  /// Query mix; empty for size-only corpora (no CPU measurement).
  std::vector<std::vector<QuerySeq>> compiled;
  /// Rounds of timed blocks per rep. Small mixes (table7's two queries run
  /// in a few microseconds) take several rounds so a rep is tens of
  /// milliseconds of work, else the CPU gate flaps on timer granularity.
  int cpu_rounds = 1;
};

/// Size-only corpus: one of the two fig14 synthetic configurations.
Corpus MakeFig14Corpus(char config, DocId docs) {
  Corpus c;
  SyntheticParams params;  // (a) L3 F5 A25 I0 P40
  if (config == 'b') {     // (b) L5 F3 A40 I0 P5
    params.max_height = 5;
    params.max_fanout = 3;
    params.value_percent = 40;
    params.prob_floor = 5;
  }
  c.name = std::string("fig14") + config + "_synthetic";
  IndexOptions opts;
  CollectionBuilder builder(opts);
  SyntheticDataset gen(params, builder.names(), builder.values());
  c.idx = std::make_unique<CollectionIndex>(bench::BuildStreaming(
      &builder, [&gen](DocId d) { return gen.Generate(d); }, docs));
  return c;
}

Corpus MakeFig15Corpus(DocId docs) {
  Corpus c;
  c.name = "fig15_identical_siblings";
  SyntheticParams params;
  params.identical_percent = 80;
  params.value_percent = 25;
  IndexOptions opts;
  CollectionBuilder builder(opts);
  SyntheticDataset gen(params, builder.names(), builder.values());
  c.idx = std::make_unique<CollectionIndex>(bench::BuildStreaming(
      &builder, [&gen](DocId d) { return gen.Generate(d); }, docs));
  Rng rng(params.seed, 29);
  for (int q = 0; q < 48; ++q) {
    Document sample = gen.Generate(rng.Uniform(docs));
    QueryPattern pattern =
        SampleQueryPattern(sample, c.idx->names(), 5, &rng, 0.4);
    auto compiled = c.idx->executor().Compile(pattern);
    if (compiled.ok() && !compiled->empty()) {
      c.compiled.push_back(std::move(*compiled));
    }
  }
  return c;
}

/// XMark: the table5 size collection, queried with the table7 XPaths.
Corpus MakeTable7Corpus(DocId docs) {
  Corpus c;
  c.name = "table5_7_xmark";
  XMarkParams params;
  IndexOptions opts;
  CollectionBuilder builder(opts);
  XMarkGenerator gen(params, builder.names(), builder.values());
  c.idx = std::make_unique<CollectionIndex>(bench::BuildStreaming(
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
    auto compiled = c.idx->executor().Compile(*pattern);
    if (compiled.ok() && !compiled->empty()) {
      c.compiled.push_back(std::move(*compiled));
    }
  }
  c.cpu_rounds = 16;
  return c;
}

struct CorpusResult {
  std::string name;
  bool has_cpu = false;
  uint64_t entries = 0;
  uint64_t packed_bytes = 0;
  uint64_t logical_bytes = 0;
  double bits_per_entry = 0.0;
  double reduction_pct = 0.0;
  double pack_mentries_s = 0.0;
  double unpack_mentries_s = 0.0;
  double cpu_compressed_ms = 0.0;
  double cpu_flat_ms = 0.0;
  double cpu_delta_pct = 0.0;
  // Sanity: both engines must produce the same answers.
  uint64_t result_docs_compressed = 0;
  uint64_t result_docs_flat = 0;
};

/// Min-of-reps thread CPU time of one full pass of `run`.
template <typename RunFn>
double MinCpuMs(int reps, const RunFn& run) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    ThreadCpuTimer timer;
    run();
    best = std::min(best, timer.ElapsedMillis());
  }
  return best;
}

CorpusResult Measure(const Corpus& c, const FlatLinks& flat, int reps) {
  const FrozenIndex& fi = c.idx->index();
  CorpusResult r;
  r.name = c.name;
  r.has_cpu = !c.compiled.empty();
  r.entries = flat.off.back();
  r.packed_bytes = fi.PackedLinkBytes();
  r.logical_bytes = fi.LogicalLinkBytes();
  r.bits_per_entry =
      r.entries > 0
          ? 8.0 * static_cast<double>(r.packed_bytes) /
                static_cast<double>(r.entries)
          : 0.0;
  r.reduction_pct =
      r.logical_bytes > 0
          ? 100.0 * (1.0 - static_cast<double>(r.packed_bytes) /
                               static_cast<double>(r.logical_bytes))
          : 0.0;
  if (!r.has_cpu) return r;

  // Pack throughput: re-encode every link from the flat arrays.
  {
    uint64_t packed_entries = 0;
    double ms = MinCpuMs(reps, [&] {
      std::vector<uint64_t> words;
      words.reserve(fi.link_words().size());
      packed_entries = 0;
      for (PathId p = 0; p < fi.distinct_paths(); ++p) {
        const uint32_t n = fi.LinkSize(p);
        const uint32_t base = flat.off[p];
        for (uint32_t off = 0; off < n; off += kLinkBlockSize) {
          uint32_t count = std::min(kLinkBlockSize, n - off);
          LinkBlockHeader h = PackLinkBlock(
              flat.serials.data() + base + off, flat.ends.data() + base + off,
              flat.covers.data() + base + off, count, off, &words);
          packed_entries += LinkBlockCount(h);
        }
      }
    });
    r.pack_mentries_s =
        ms > 0 ? static_cast<double>(packed_entries) / (ms * 1e3) : 0.0;
  }

  // Unpack throughput: decode every block of every link.
  {
    uint64_t decoded = 0;
    double ms = MinCpuMs(reps, [&] {
      LinkBlockScratch scratch;
      decoded = 0;
      for (PathId p = 0; p < fi.distinct_paths(); ++p) {
        for (uint32_t b = 0; b < fi.LinkBlocks(p); ++b) {
          fi.DecodeLinkBlock(p, b, &scratch);
          decoded += LinkBlockCount(fi.LinkBlock(p, b));
        }
      }
    });
    r.unpack_mentries_s =
        ms > 0 ? static_cast<double>(decoded) / (ms * 1e3) : 0.0;
  }

  // Thread CPU time, compressed engine vs flat accessor, same sequences,
  // same MatchCore. Each engine keeps its own match context, as a serving
  // worker does, so neither evicts the other's decoded blocks.
  MatchContext compressed_ctx, flat_ctx;
  const FlatAccessor flat_acc(fi, flat);
  // Matches one query of the mix `iters` times through one engine and
  // returns its result-doc count.
  auto run = [&](bool compressed, const std::vector<QuerySeq>& seqs,
                 int iters) {
    uint64_t docs = 0;
    for (int it = 0; it < iters; ++it) {
      std::vector<DocId> out;
      for (const QuerySeq& qs : seqs) {
        Status st = compressed
                        ? MatchSequence(fi, qs, MatchMode::kConstraint, &out,
                                        nullptr, &compressed_ctx)
                        : internal::MatchCore(flat_acc, qs,
                                              MatchMode::kConstraint, &out,
                                              nullptr, &flat_ctx);
        if (!st.ok()) {
          std::fprintf(stderr, "%s match: %s\n",
                       compressed ? "compressed" : "flat",
                       st.ToString().c_str());
          std::exit(1);
        }
      }
      std::sort(out.begin(), out.end());
      out.erase(std::unique(out.begin(), out.end()), out.end());
      docs = out.size();
    }
    return docs;
  };
  // One untimed pass per engine warms the block cache, the page cache and
  // the CPU governor. Each query then gets its block size: the iterations
  // the flat engine needs for about a millisecond of thread CPU, doubled
  // from one until a block lasts that long — a fixed count would shrink
  // the blocks to timer noise whenever the engine gets faster. A rep runs
  // the mix in blocks of one query, the two engines back to back per block
  // with the first one alternating, and keeps the ratio of their summed
  // per-iteration thread CPU times. A slowdown of the host lasts longer
  // than one block pair, so it hits both engines alike; the median over
  // reps shrugs off the odd disturbed rep that would flap a min-based gate.
  constexpr double kBlockMs = 1.0;
  std::vector<int> block_iters;
  for (const auto& seqs : c.compiled) {
    r.result_docs_compressed += run(true, seqs, 1);
    r.result_docs_flat += run(false, seqs, 1);
    int n = 1;
    for (;;) {
      ThreadCpuTimer timer;
      run(false, seqs, n);
      if (timer.ElapsedMillis() >= kBlockMs || n >= (1 << 20)) break;
      n *= 2;
    }
    block_iters.push_back(n);
  }
  double best_compressed = 1e300, best_flat = 1e300;
  std::vector<double> ratios;
  ratios.reserve(static_cast<size_t>(reps));
  for (int rep = 0; rep < reps; ++rep) {
    double tc = 0.0, tf = 0.0;  // per-iteration CPU ms, summed
    size_t turn = static_cast<size_t>(rep);
    for (int round = 0; round < c.cpu_rounds; ++round) {
      for (size_t q = 0; q < c.compiled.size(); ++q) {
        const bool compressed_first = turn++ % 2 == 0;
        for (bool compressed : {compressed_first, !compressed_first}) {
          ThreadCpuTimer timer;
          run(compressed, c.compiled[q], block_iters[q]);
          (compressed ? tc : tf) += timer.ElapsedMillis() / block_iters[q];
        }
      }
    }
    best_compressed = std::min(best_compressed, tc);
    best_flat = std::min(best_flat, tf);
    if (tf > 0) ratios.push_back(tc / tf);
  }
  r.cpu_compressed_ms = best_compressed / c.cpu_rounds;
  r.cpu_flat_ms = best_flat / c.cpu_rounds;
  if (!ratios.empty()) {
    std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                     ratios.end());
    r.cpu_delta_pct = 100.0 * (ratios[ratios.size() / 2] - 1.0);
  }
  return r;
}

int Run(const FlagSet& flags) {
  const DocId docs = static_cast<DocId>(flags.GetInt("docs", 4000));
  const int reps = static_cast<int>(flags.GetInt("reps", 3));
  const double min_size_reduction =
      flags.GetDouble("min_size_reduction_pct", 30.0);
  const double max_cpu_regression =
      flags.GetDouble("max_cpu_regression_pct", 10.0);
  const std::string out_path =
      flags.GetString("out", "bench/BENCH_compress.json");

  bench::Header("link compression: " + std::to_string(docs) +
                " docs per corpus, min of " + std::to_string(reps) +
                " reps");

  std::vector<Corpus> corpora;
  corpora.push_back(MakeFig14Corpus('a', docs));
  corpora.push_back(MakeFig14Corpus('b', docs));
  corpora.push_back(MakeFig15Corpus(docs));
  corpora.push_back(MakeTable7Corpus(docs));

  uint64_t total_packed = 0, total_logical = 0;
  std::vector<CorpusResult> results;
  for (const Corpus& c : corpora) {
    FlatLinks flat(c.idx->index());
    results.push_back(Measure(c, flat, reps));
    const CorpusResult& r = results.back();
    total_packed += r.packed_bytes;
    total_logical += r.logical_bytes;
    std::printf(
        "%-26s %8llu entries  %6.2f bits/entry  %5.1f%% smaller\n",
        r.name.c_str(), static_cast<unsigned long long>(r.entries),
        r.bits_per_entry, r.reduction_pct);
    if (!r.has_cpu) continue;
    std::printf(
        "%-26s pack %7.1f Me/s   unpack %7.1f Me/s\n", "",
        r.pack_mentries_s, r.unpack_mentries_s);
    std::printf(
        "%-26s cpu %8.4f ms compressed vs %8.4f ms flat "
        "(median pair delta %+.1f%%)\n",
        "", r.cpu_compressed_ms, r.cpu_flat_ms, r.cpu_delta_pct);
  }
  const double total_reduction =
      total_logical > 0
          ? 100.0 * (1.0 - static_cast<double>(total_packed) /
                               static_cast<double>(total_logical))
          : 0.0;
  std::printf("%-26s %.1f%% smaller (%llu -> %llu bytes)\n",
              "total link region", total_reduction,
              static_cast<unsigned long long>(total_logical),
              static_cast<unsigned long long>(total_packed));

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\"bench\":\"compress\",\"docs\":%llu,\"reps\":%d,"
               "\"corpora\":[\n",
               static_cast<unsigned long long>(docs), reps);
  for (size_t i = 0; i < results.size(); ++i) {
    const CorpusResult& r = results[i];
    std::fprintf(
        out,
        "{\"name\":\"%s\",\"entries\":%llu,\"packed_bytes\":%llu,"
        "\"logical_bytes\":%llu,\"bits_per_entry\":%.2f,"
        "\"reduction_pct\":%.1f",
        r.name.c_str(), static_cast<unsigned long long>(r.entries),
        static_cast<unsigned long long>(r.packed_bytes),
        static_cast<unsigned long long>(r.logical_bytes), r.bits_per_entry,
        r.reduction_pct);
    if (r.has_cpu) {
      std::fprintf(
          out,
          ",\"pack_mentries_s\":%.1f,\"unpack_mentries_s\":%.1f,"
          "\"cpu_compressed_ms\":%.4f,\"cpu_flat_ms\":%.4f,"
          "\"cpu_delta_pct\":%.1f,\"result_docs\":%llu",
          r.pack_mentries_s, r.unpack_mentries_s, r.cpu_compressed_ms,
          r.cpu_flat_ms, r.cpu_delta_pct,
          static_cast<unsigned long long>(r.result_docs_compressed));
    }
    std::fprintf(out, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out,
               "],\"total_packed_bytes\":%llu,"
               "\"total_logical_bytes\":%llu,"
               "\"total_reduction_pct\":%.1f}\n",
               static_cast<unsigned long long>(total_packed),
               static_cast<unsigned long long>(total_logical),
               total_reduction);
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  int violations = 0;
  if (total_reduction < min_size_reduction) {
    std::fprintf(stderr,
                 "FAIL: total link size reduction %.1f%% below the %.1f%% "
                 "gate\n",
                 total_reduction, min_size_reduction);
    ++violations;
  }
  for (const CorpusResult& r : results) {
    if (!r.has_cpu) continue;
    if (r.result_docs_compressed != r.result_docs_flat) {
      std::fprintf(
          stderr, "FAIL: %s result drift: %llu compressed vs %llu flat\n",
          r.name.c_str(),
          static_cast<unsigned long long>(r.result_docs_compressed),
          static_cast<unsigned long long>(r.result_docs_flat));
      ++violations;
    }
    if (r.cpu_delta_pct > max_cpu_regression) {
      std::fprintf(stderr,
                   "FAIL: %s compressed CPU %.1f%% over flat (budget "
                   "%.1f%%)\n",
                   r.name.c_str(), r.cpu_delta_pct, max_cpu_regression);
      ++violations;
    }
  }
  return violations > 0 ? 1 : 0;
}

}  // namespace
}  // namespace xseq

int main(int argc, char** argv) {
  xseq::FlagSet flags(argc, argv);
  return xseq::Run(flags);
}
