// Ablation: dynamic (segmented) index vs one-shot build.
//
// The ViST lineage stresses dynamic maintenance; xseq's DynamicIndex
// trades query cost (one probe per segment) for O(1) insertion into a
// buffer. This measures that trade and what Compact() buys back, what
// queries and mutations pay for the unsealed buffer alone (brute-force scan
// of up to flush_threshold documents, 1024 by default), and what sealing a
// small buffer costs as the records in, and so the vocabulary, grow.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/dynamic_index.h"
#include "src/gen/querygen.h"
#include "src/gen/xmark.h"

int main(int argc, char** argv) {
  using namespace xseq;
  FlagSet flags(argc, argv);
  DocId n = bench::Scaled(flags, 40000, 160000);
  int queries = static_cast<int>(flags.GetInt("queries", 60));
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  bench::Header("Ablation: dynamic segmented index (" + std::to_string(n) +
                " XMark records)");

  // Dynamic, incremental ingestion: each seal builds inline on this
  // thread. Ingest ends once every segment is built and counted. Each Add
  // is also timed alone; the slowest is one that filled the buffer and
  // sealed it.
  DynamicOptions dopts;
  dopts.flush_threshold = n / 16 + 1;
  DynamicIndex dyn(dopts);
  XMarkParams params;
  params.seed = seed;
  XMarkGenerator gen(params, dyn.names(), dyn.values());
  Timer ingest;
  double slowest_add_ms = 0;
  for (DocId d = 0; d < n; ++d) {
    Document doc = gen.Generate(d);
    Timer add;
    if (!dyn.Add(std::move(doc)).ok()) return 1;
    slowest_add_ms = std::max(slowest_add_ms, add.ElapsedMillis());
  }
  if (!dyn.Flush().ok()) return 1;
  uint64_t seg_nodes = dyn.TotalIndexNodes();
  double dyn_build_s = ingest.ElapsedSeconds();

  // One-shot reference (streaming two-pass).
  IndexOptions sopts;
  CollectionBuilder builder(sopts);
  XMarkGenerator gen2(params, builder.names(), builder.values());
  Timer oneshot;
  CollectionIndex ref = bench::BuildStreaming(
      &builder, [&gen2](DocId d) { return gen2.Generate(d); }, n);
  double ref_build_s = oneshot.ElapsedSeconds();

  // Query workload against both, plus the compacted dynamic index. Query
  // shapes are sampled from the first `docs` records.
  auto run = [&](DocId docs, auto&& query_fn) {
    Rng rng(9, 27);
    uint64_t us = 0;
    NameTable names;
    ValueEncoder values;
    XMarkGenerator sampler(params, &names, &values);
    for (int q = 0; q < queries; ++q) {
      Document sample = sampler.Generate(rng.Uniform(docs));
      QueryPattern pattern =
          SampleQueryPattern(sample, names, 6, &rng, 0.5);
      Timer t;
      if (!query_fn(pattern)) std::abort();
      us += static_cast<uint64_t>(t.ElapsedMicros());
    }
    return static_cast<double>(us) / queries;
  };

  double seg_us = run(n, [&](const QueryPattern& p) {
    return dyn.ExecutePattern(p).ok();
  });
  size_t seg_count = dyn.segment_count();

  Timer compact_timer;
  if (!dyn.Compact().ok()) return 1;
  double compact_s = compact_timer.ElapsedSeconds();
  double compacted_us = run(n, [&](const QueryPattern& p) {
    return dyn.ExecutePattern(p).ok();
  });

  double ref_us = run(n, [&](const QueryPattern& p) {
    return ref.executor().ExecutePattern(p).ok();
  });

  std::printf("%-22s %12s %14s %14s\n", "configuration", "build (ms)",
              "index nodes", "query (us)");
  std::printf("%-22s %12.0f %14llu %14.1f\n",
              ("dynamic, " + std::to_string(seg_count) + " segments")
                  .c_str(),
              dyn_build_s * 1e3, static_cast<unsigned long long>(seg_nodes),
              seg_us);
  std::printf("%-22s %12.0f %14llu %14.1f\n", "dynamic, compacted",
              compact_s * 1e3,
              static_cast<unsigned long long>(dyn.TotalIndexNodes()),
              compacted_us);
  std::printf("%-22s %12.0f %14llu %14.1f\n", "one-shot reference",
              ref_build_s * 1e3,
              static_cast<unsigned long long>(ref.Stats().trie_nodes),
              ref_us);
  std::printf("dynamic ingest: %.3f s, slowest single Add %.2f ms\n",
              dyn_build_s, slowest_add_ms);
  bench::Note("expected: segmented queries pay a per-segment probe; "
              "Compact() recovers one-shot node counts and query cost");

  // Buffer only: the threshold sits above the leg's size, so nothing seals
  // and every query scans the unsealed documents brute-force. Mutations hit
  // buffered ids and run back to back (each delete is followed by an
  // untimed re-add, so the buffer stays full); "update+query" times one
  // update followed by one query, the read-after-write case that pays for
  // whatever the update left the scan to redo. Documents are generated
  // before any clock starts; every column is mean wall-clock µs per op.
  using Clock = std::chrono::steady_clock;
  auto us_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
  };
  std::printf("\n%-14s %10s %10s %10s %10s %14s\n", "buffered docs",
              "add (us)", "update", "delete", "query", "update+query");
  for (DocId buffered : {DocId{32}, DocId{256}, DocId{1024}}) {
    DynamicOptions bopts;
    bopts.flush_threshold = buffered + 1;
    DynamicIndex buf(bopts);
    XMarkGenerator bgen(params, buf.names(), buf.values());
    Rng pick(seed, buffered);
    auto buffered_docs = [&](size_t count) {
      std::vector<Document> docs;
      docs.reserve(count);
      for (size_t i = 0; i < count; ++i) {
        docs.push_back(bgen.Generate(pick.Uniform(buffered)));
      }
      return docs;
    };
    std::vector<Document> initial;
    initial.reserve(buffered);
    for (DocId d = 0; d < buffered; ++d) initial.push_back(bgen.Generate(d));
    std::vector<Document> updates = buffered_docs(queries);
    std::vector<Document> readds = buffered_docs(queries);
    std::vector<Document> cycle = buffered_docs(queries);

    Clock::time_point t0 = Clock::now();
    for (Document& doc : initial) {
      if (!buf.Add(std::move(doc)).ok()) return 1;
    }
    double add_us = us_since(t0) / buffered;
    double query_us = run(buffered, [&](const QueryPattern& p) {
      return buf.ExecutePattern(p).ok();
    });
    t0 = Clock::now();
    for (Document& doc : updates) {
      DocId id = doc.id();
      if (!buf.Update(std::move(doc), id).ok()) return 1;
    }
    double update_us = us_since(t0) / queries;
    double delete_us = 0;
    for (Document& doc : readds) {
      t0 = Clock::now();
      if (!buf.Delete(doc.id()).ok()) return 1;
      delete_us += us_since(t0);
      if (!buf.Add(std::move(doc)).ok()) return 1;
    }
    delete_us /= queries;
    size_t next = 0;
    double cycle_us = run(buffered, [&](const QueryPattern& p) {
      Document& doc = cycle[next++];
      DocId id = doc.id();
      return buf.Update(std::move(doc), id).ok() &&
             buf.ExecutePattern(p).ok();
    });
    if (buf.segment_count() != 0 || buf.buffered_documents() != buffered) {
      return 1;
    }
    std::printf("%-14llu %10.2f %10.2f %10.2f %10.1f %14.1f\n",
                static_cast<unsigned long long>(buffered), add_us, update_us,
                delete_us, query_us, cycle_us);
  }
  bench::Note("expected: per-query cost grows with the buffered documents "
              "the oracle scans; mutations stay flat");

  // Seal: inline on this thread, like every build. Records load under a
  // threshold nothing reaches and are compacted into one segment at each
  // stop; then every round adds 32 fresh records (generated before the
  // clock starts) and times the Flush() that seals them. The tables every
  // segment holds grow with the records in.
  constexpr int kSealRounds = 20;
  constexpr DocId kSealBatch = 32;
  std::printf("\n%-14s %10s %10s %14s\n", "records in", "names", "values",
              "seal (us)");
  DynamicOptions sealopts;
  sealopts.flush_threshold = std::numeric_limits<size_t>::max();
  DynamicIndex sealing(sealopts);
  XMarkGenerator sgen(params, sealing.names(), sealing.values());
  DocId next_record = 0;
  for (DocId records : {DocId{1000}, DocId{5000}, DocId{20000}}) {
    for (; next_record < records; ++next_record) {
      if (!sealing.Add(sgen.Generate(next_record)).ok()) return 1;
    }
    if (!sealing.Compact().ok()) return 1;
    double seal_us = 0;
    for (int round = 0; round < kSealRounds; ++round) {
      for (DocId i = 0; i < kSealBatch; ++i) {
        if (!sealing.Add(sgen.Generate(next_record++)).ok()) return 1;
      }
      Clock::time_point t0 = Clock::now();
      if (!sealing.Flush().ok()) return 1;
      seal_us += us_since(t0);
    }
    std::printf("%-14llu %10zu %10zu %14.1f\n",
                static_cast<unsigned long long>(records),
                sealing.names()->size(), sealing.values()->size(),
                seal_us / kSealRounds);
  }
  bench::Note("expected: a seal costs what its 32 records cost, whatever "
              "the size of the vocabulary every segment shares");
  return 0;
}
