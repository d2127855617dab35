// Value-index harness: range-predicate latency against the ordered value
// index vs a brute-force document scan, across three selectivities, plus
// mutation throughput on the dynamic backend.
//
//   micro_vindex [--n=N] [--scale=f] [--reps=R] [--seed=S]
//                [--min_speedup=X] [--out=bench/BENCH_vindex.json]
//
// The corpus is N `item(price, label)` records with integer prices uniform
// in [0, 100000), so `/item[price < 100]` selects ~0.1% of the documents,
// `< 1000` ~1%, and `< 10000` ~10%. The brute scan answers the same full
// query per document — structural oracle plus comparison check, the
// DynamicIndex::ScanDocs shape — which is the engine's only option without
// the ordered postings. Pattern instantiation is hoisted out of the timed
// region, so the scan numbers are a floor on the real brute cost.
//
// Gate: at the 1% selectivity the value-index path must be at least
// --min_speedup times faster than the brute scan (default 10x); a
// violation exits 1. Emits bench/BENCH_vindex.json:
// {..., "vindex_us_low", "scan_us_low", "speedup_low", "vindex_us_mid",
// "scan_us_mid", "speedup_mid", "vindex_us_high", "scan_us_high",
// "speedup_high", "mutations_per_sec"} — schema-checked by
// scripts/bench_smoke.sh.

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/collection_index.h"
#include "src/core/dynamic_index.h"
#include "src/query/instantiate.h"
#include "src/query/oracle.h"
#include "src/query/query_pattern.h"
#include "src/seq/path_dict.h"
#include "src/vindex/compare.h"
#include "src/xml/name_table.h"
#include "src/xml/tree.h"

namespace xseq {
namespace {

Document MakeItem(DocId id, uint32_t price, NameTable* names,
                  ValueEncoder* values, std::mt19937* rng) {
  Document doc(id);
  Node* root = doc.CreateElement(names->Intern("item"));
  Node* p = doc.CreateElement(names->Intern("price"));
  const std::string text = std::to_string(price);
  doc.AppendChild(p, doc.CreateValue(values->Encode(text), text));
  doc.AppendChild(root, p);
  Node* l = doc.CreateElement(names->Intern("label"));
  const std::string label = "label" + std::to_string((*rng)() % 997);
  doc.AppendChild(l, doc.CreateValue(values->Encode(label), label));
  doc.AppendChild(root, l);
  doc.SetRoot(root);
  return doc;
}

struct Selectivity {
  const char* key;    ///< JSON suffix
  const char* xpath;  ///< the range query
  double expected;    ///< fraction of docs selected, for the report
};

int Run(const FlagSet& flags) {
  const DocId n = static_cast<DocId>(flags.GetInt(
      "n", static_cast<int64_t>(bench::Scaled(flags, 20000, 100000))));
  const int reps = static_cast<int>(flags.GetInt("reps", 25));
  const double min_speedup = flags.GetDouble("min_speedup", 10.0);
  const std::string out_path =
      flags.GetString("out", "bench/BENCH_vindex.json");
  std::mt19937 rng(static_cast<uint32_t>(flags.GetInt("seed", 99)));

  bench::Header("value index: " + std::to_string(n) +
                " item records, 3 selectivities, " + std::to_string(reps) +
                " reps");

  IndexOptions opts;
  opts.keep_documents = true;  // the brute scan needs the originals
  CollectionBuilder builder(opts);
  for (DocId d = 0; d < n; ++d) {
    Document doc = MakeItem(d, rng() % 100000u, builder.names(),
                            builder.values(), &rng);
    if (!builder.Add(std::move(doc)).ok()) {
      std::fprintf(stderr, "add failed\n");
      return 1;
    }
  }
  auto built = std::move(builder).Finish();
  if (!built.ok()) {
    std::fprintf(stderr, "build: %s\n", built.status().ToString().c_str());
    return 1;
  }
  CollectionIndex index = std::move(*built);

  const Selectivity kSelectivities[3] = {
      {"low", "/item[price < 100]", 0.001},
      {"mid", "/item[price < 1000]", 0.01},
      {"high", "/item[price < 10000]", 0.1},
  };

  double vindex_us[3] = {0, 0, 0};
  double scan_us[3] = {0, 0, 0};
  double speedup[3] = {0, 0, 0};
  for (int s = 0; s < 3; ++s) {
    const Selectivity& sel = kSelectivities[s];
    auto pattern = ParseXPath(sel.xpath);
    if (!pattern.ok()) {
      std::fprintf(stderr, "parse %s: %s\n", sel.xpath,
                   pattern.status().ToString().c_str());
      return 1;
    }
    std::vector<ValueComparison> cmps;
    QueryPattern skeleton = StripComparisons(*pattern, &cmps);

    // Value-index path: the full query through the executor. Score is the
    // minimum over reps (robust against host noise).
    std::vector<DocId> vindex_answer;
    double best_vindex = 0.0;
    for (int r = 0; r < reps; ++r) {
      Timer timer;
      auto result = index.Query(sel.xpath);
      const double us = timer.ElapsedSeconds() * 1e6;
      if (!result.ok()) {
        std::fprintf(stderr, "query %s: %s\n", sel.xpath,
                     result.status().ToString().c_str());
        return 1;
      }
      if (r == 0 || us < best_vindex) best_vindex = us;
      vindex_answer = std::move(result->docs);
    }

    // Brute scan: the full query answered per document — structural oracle
    // then comparison check, as DynamicIndex::ScanDocs does for unsealed
    // buffers. The instantiated skeleton is reused across reps, so only
    // the per-document work is on the clock.
    PathDict dict;
    for (const Document& doc : index.documents()) BindPaths(doc, &dict);
    auto inst =
        InstantiatePattern(skeleton, dict, index.names(), index.values());
    if (!inst.ok()) {
      std::fprintf(stderr, "instantiate %s: %s\n", sel.xpath,
                   inst.status().ToString().c_str());
      return 1;
    }
    std::vector<DocId> scan_answer;
    double best_scan = 0.0;
    for (int r = 0; r < reps; ++r) {
      Timer timer;
      std::vector<DocId> part;
      for (const ConcreteQuery& cq : inst->queries) {
        std::vector<DocId> one = OracleScan(index.documents(), cq);
        part.insert(part.end(), one.begin(), one.end());
      }
      std::sort(part.begin(), part.end());
      part.erase(std::unique(part.begin(), part.end()), part.end());
      std::vector<DocId> kept;
      for (DocId d : part) {
        if (DocMatchesComparisons(index.documents()[d], index.names(),
                                  cmps)) {
          kept.push_back(d);
        }
      }
      const double us = timer.ElapsedSeconds() * 1e6;
      if (r == 0 || us < best_scan) best_scan = us;
      scan_answer = std::move(kept);
    }

    if (vindex_answer != scan_answer) {
      std::fprintf(stderr,
                   "FAIL: %s — value index answered %zu docs, brute scan "
                   "%zu\n",
                   sel.xpath, vindex_answer.size(), scan_answer.size());
      return 1;
    }
    vindex_us[s] = best_vindex;
    scan_us[s] = best_scan;
    speedup[s] = best_vindex > 0 ? best_scan / best_vindex : 0.0;
    std::printf("%-28s %9.1f us vindex  %9.1f us scan  %7.1fx  (%zu docs,"
                " ~%.1f%%)\n",
                sel.xpath, best_vindex, best_scan, speedup[s],
                vindex_answer.size(), 100.0 * sel.expected);
  }

  // Mutation throughput on the dynamic backend: 60% adds, 20% deletes,
  // 20% updates against a pre-seeded corpus; every seal runs inline, so
  // each is counted in the wall clock.
  DynamicOptions dopts;
  dopts.flush_threshold = 512;
  DynamicIndex dyn(dopts);
  const DocId seeded = n / 10 + 1;
  for (DocId d = 0; d < seeded; ++d) {
    Document doc =
        MakeItem(d, rng() % 100000u, dyn.names(), dyn.values(), &rng);
    if (!dyn.Add(std::move(doc)).ok()) {
      std::fprintf(stderr, "seed add failed\n");
      return 1;
    }
  }
  const uint64_t ops = seeded * 2;
  DocId next_id = seeded;
  Timer mutation_wall;
  for (uint64_t i = 0; i < ops; ++i) {
    const uint32_t roll = rng() % 10;
    Status st;
    if (roll < 6) {
      const DocId id = next_id++;
      st = dyn.Add(
          MakeItem(id, rng() % 100000u, dyn.names(), dyn.values(), &rng));
    } else if (roll < 8) {
      st = dyn.Delete(rng() % next_id);
    } else {
      const DocId id = rng() % next_id;
      st = dyn.Update(
          MakeItem(id, rng() % 100000u, dyn.names(), dyn.values(), &rng),
          id);
    }
    if (!st.ok()) {
      std::fprintf(stderr, "mutation %llu: %s\n",
                   static_cast<unsigned long long>(i),
                   st.ToString().c_str());
      return 1;
    }
  }
  const double mutation_secs = mutation_wall.ElapsedSeconds();
  const double mutations_per_sec =
      mutation_secs > 0 ? static_cast<double>(ops) / mutation_secs : 0.0;
  std::printf("%-28s %10.0f ops/sec (%llu mutations)\n",
              "dynamic mutations:", mutations_per_sec,
              static_cast<unsigned long long>(ops));

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(
      out,
      "{\"bench\":\"vindex\",\"n\":%llu,\"reps\":%d,"
      "\"vindex_us_low\":%.1f,\"scan_us_low\":%.1f,\"speedup_low\":%.1f,"
      "\"vindex_us_mid\":%.1f,\"scan_us_mid\":%.1f,\"speedup_mid\":%.1f,"
      "\"vindex_us_high\":%.1f,\"scan_us_high\":%.1f,"
      "\"speedup_high\":%.1f,\"mutations_per_sec\":%.0f}\n",
      static_cast<unsigned long long>(n), reps, vindex_us[0], scan_us[0],
      speedup[0], vindex_us[1], scan_us[1], speedup[1], vindex_us[2],
      scan_us[2], speedup[2], mutations_per_sec);
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  if (speedup[1] < min_speedup) {
    std::fprintf(stderr,
                 "FAIL: value index %.1fx over brute scan at 1%% "
                 "selectivity, below the %.1fx gate\n",
                 speedup[1], min_speedup);
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
