// Concurrency tests: the parallel build/query paths must be bit-identical
// to their serial counterparts, and DynamicIndex must answer queries
// correctly while other threads mutate it. Pool widths are forced (> 1)
// so the parallel code runs even on single-core machines.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/core/dynamic_index.h"
#include "src/core/persist.h"
#include "src/gen/querygen.h"
#include "src/gen/synthetic.h"
#include "src/gen/xmark.h"
#include "src/util/thread_pool.h"
#include "tests/test_util.h"

namespace xseq {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.width(), 4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedParallelForCompletes) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.ParallelFor(8, [&](size_t) {
    // The caller always participates in its own loop, so nesting cannot
    // starve even when every worker is busy with outer iterations.
    pool.ParallelFor(8, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, SerialWidthRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.width(), 1);
  std::thread::id self = std::this_thread::get_id();
  pool.ParallelFor(10, [&](size_t) {
    EXPECT_EQ(std::this_thread::get_id(), self);
  });
}

TEST(ThreadPool, ParallelSortMatchesStdSort) {
  ThreadPool pool(4);
  Rng rng(7, 3);
  std::vector<uint32_t> v(20000);
  for (auto& x : v) x = rng.Uniform(1000);
  std::vector<uint32_t> expected = v;
  std::sort(expected.begin(), expected.end());
  ParallelSort(&pool, &v, std::less<uint32_t>());
  EXPECT_EQ(v, expected);
}

// Builds the same synthetic collection with the given thread count.
CollectionIndex BuildSynthetic(int threads, DocId docs) {
  SyntheticParams params;
  params.identical_percent = 30;
  params.seed = 99;
  IndexOptions opts;
  opts.threads = threads;
  CollectionBuilder builder(opts);
  SyntheticDataset gen(params, builder.names(), builder.values());
  for (DocId d = 0; d < docs; ++d) {
    EXPECT_TRUE(builder.Add(gen.Generate(d)).ok());
  }
  auto index = std::move(builder).Finish();
  EXPECT_TRUE(index.ok());
  return std::move(*index);
}

TEST(ParallelBuild, RetainedModeBitIdenticalToSerial) {
  CollectionIndex serial = BuildSynthetic(1, 300);
  CollectionIndex parallel = BuildSynthetic(4, 300);
  EXPECT_EQ(serial.Stats().trie_nodes, parallel.Stats().trie_nodes);
  EXPECT_EQ(serial.Stats().sequence_elements,
            parallel.Stats().sequence_elements);
  // The persisted image captures the whole frozen index — byte equality is
  // the strongest form of "parallelism changed nothing".
  EXPECT_EQ(EncodeCollectionIndex(serial), EncodeCollectionIndex(parallel));
}

TEST(ParallelBuild, StreamingModeBitIdenticalToSerial) {
  auto build = [](int threads) {
    XMarkParams params;
    params.seed = 5;
    IndexOptions opts;
    opts.threads = threads;
    CollectionBuilder builder(opts);
    XMarkGenerator gen(params, builder.names(), builder.values());
    for (DocId d = 0; d < 200; ++d) {
      EXPECT_TRUE(builder.Observe(gen.Generate(d)).ok());
    }
    EXPECT_TRUE(builder.BeginIndexing().ok());
    for (DocId d = 0; d < 200; ++d) {
      EXPECT_TRUE(builder.Index(gen.Generate(d)).ok());
    }
    auto index = std::move(builder).Finish();
    EXPECT_TRUE(index.ok());
    return std::move(*index);
  };
  CollectionIndex serial = build(1);
  CollectionIndex parallel = build(4);
  EXPECT_EQ(EncodeCollectionIndex(serial), EncodeCollectionIndex(parallel));
}

TEST(ParallelQuery, MatchAndBatchResultsEqualSerial) {
  CollectionIndex index = BuildSynthetic(1, 300);

  NameTable names;
  ValueEncoder values;
  SyntheticParams params;
  params.identical_percent = 30;
  params.seed = 99;
  SyntheticDataset sampler(params, &names, &values);
  Rng rng(3, 11);
  std::vector<QueryPattern> patterns;
  std::vector<std::string> xpaths;  // the parseable subset, for QueryBatch
  for (int q = 0; q < 40; ++q) {
    Document sample = sampler.Generate(rng.Uniform(300));
    patterns.push_back(
        SampleQueryPattern(sample, names, 2 + rng.Uniform(5), &rng, 0.5));
    // Sampled sources with text() predicates are not XPath-parser syntax;
    // keep the ones that round-trip for the string entry points.
    if (ParseXPath(patterns.back().source).ok()) {
      xpaths.push_back(patterns.back().source);
    }
  }
  xpaths.push_back("/e0");
  xpaths.push_back("/e0//e2");
  ASSERT_GE(xpaths.size(), 4u);

  // Per-query match parallelism: identical ids and identical ExecStats.
  for (const QueryPattern& pattern : patterns) {
    ExecOptions serial_opts;
    serial_opts.threads = 1;
    ExecOptions parallel_opts;
    parallel_opts.threads = 4;
    ExecStats sa, sb;
    auto a = index.executor().ExecutePattern(pattern, &sa, serial_opts);
    auto b = index.executor().ExecutePattern(pattern, &sb, parallel_opts);
    ASSERT_TRUE(a.ok()) << pattern.source;
    ASSERT_TRUE(b.ok()) << pattern.source;
    EXPECT_EQ(*a, *b) << pattern.source;
    EXPECT_EQ(sa.matched_sequences, sb.matched_sequences);
    EXPECT_EQ(sa.match.candidates, sb.match.candidates);
    EXPECT_EQ(sa.match.link_binary_searches, sb.match.link_binary_searches);
  }

  // Batch parallelism across queries.
  auto batch = index.QueryBatch(xpaths, ExecOptions(), /*threads=*/4);
  ASSERT_EQ(batch.size(), xpaths.size());
  for (size_t i = 0; i < xpaths.size(); ++i) {
    auto expected = index.Query(xpaths[i]);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(batch[i].ok()) << xpaths[i];
    EXPECT_EQ(batch[i]->docs, expected->docs) << xpaths[i];
  }
}

TEST(ParallelQuery, FreshImageBuildsElementOrderUnderConcurrentFirstUse) {
  // A decoded image has not built its dictionary's element order yet: the
  // first '//' lookups of eight workers race to build it.
  CollectionIndex built = BuildSynthetic(1, 300);
  auto fresh = DecodeCollectionIndex(EncodeCollectionIndex(built));
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  const std::vector<std::string> shapes = {
      "//e2", "/e0//e3", "//*", "//e1/*", "//e4//e5", "/e0//*", "//e6",
      "/e0/e1"};
  std::vector<std::string> xpaths;
  for (int round = 0; round < 4; ++round) {
    xpaths.insert(xpaths.end(), shapes.begin(), shapes.end());
  }
  auto batch = fresh->QueryBatch(xpaths, ExecOptions(), /*threads=*/8);
  ASSERT_EQ(batch.size(), xpaths.size());
  size_t nonempty = 0;
  for (size_t i = 0; i < xpaths.size(); ++i) {
    auto expected = built.Query(xpaths[i]);
    ASSERT_TRUE(expected.ok()) << xpaths[i];
    ASSERT_TRUE(batch[i].ok()) << xpaths[i];
    EXPECT_EQ(batch[i]->docs, expected->docs) << xpaths[i];
    if (!expected->docs.empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, xpaths.size() / 2);
}

TEST(DynamicConcurrency, ParallelSealsMatchSerialAnswers) {
  SyntheticParams params;
  params.seed = 41;
  constexpr DocId kDocs = 160;

  auto run = [&](int threads) {
    DynamicOptions opts;
    opts.index.threads = threads;
    opts.flush_threshold = 32;
    DynamicIndex dyn(opts);
    SyntheticDataset gen(params, dyn.names(), dyn.values());
    for (DocId d = 0; d < kDocs; ++d) {
      EXPECT_TRUE(dyn.Add(gen.Generate(d)).ok());
    }
    EXPECT_TRUE(dyn.Flush().ok());
    return dyn.TotalIndexNodes();  // drains in-flight seals
  };
  // Background sealing sequences each segment under the same per-segment
  // statistics as the inline path, so the total node count is identical.
  EXPECT_EQ(run(1), run(4));
}

TEST(DynamicConcurrency, QueriesRaceAddsAndFlushes) {
  SyntheticParams params;
  params.seed = 77;
  constexpr DocId kDocs = 300;

  DynamicOptions opts;
  opts.index.threads = 4;
  opts.flush_threshold = 25;
  DynamicIndex dyn(opts);

  // Documents are generated up front: the shared vocabulary tables are not
  // synchronized against concurrent queries (the one documented rule).
  std::vector<Document> docs;
  docs.reserve(kDocs);
  SyntheticDataset gen(params, dyn.names(), dyn.values());
  for (DocId d = 0; d < kDocs; ++d) docs.push_back(gen.Generate(d));

  NameTable names;
  ValueEncoder values;
  SyntheticDataset sampler(params, &names, &values);
  Rng rng(13, 29);
  std::vector<QueryPattern> patterns;
  for (int q = 0; q < 8; ++q) {
    Document sample = sampler.Generate(rng.Uniform(kDocs));
    patterns.push_back(
        SampleQueryPattern(sample, names, 2 + rng.Uniform(4), &rng, 0.4));
  }

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t);
      while (!done.load()) {
        auto r = dyn.ExecutePattern(patterns[i % patterns.size()]);
        if (!r.ok()) failures.fetch_add(1);
        ++i;
      }
    });
  }

  for (Document& doc : docs) {
    ASSERT_TRUE(dyn.Add(std::move(doc)).ok());
  }
  ASSERT_TRUE(dyn.Flush().ok());
  done.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(dyn.total_documents(), kDocs);

  // Once quiescent, answers equal a serial one-shot reference.
  IndexOptions ref_opts;
  ref_opts.threads = 1;
  CollectionBuilder ref_builder(ref_opts);
  SyntheticDataset ref_gen(params, ref_builder.names(),
                           ref_builder.values());
  for (DocId d = 0; d < kDocs; ++d) {
    ASSERT_TRUE(ref_builder.Add(ref_gen.Generate(d)).ok());
  }
  auto ref = std::move(ref_builder).Finish();
  ASSERT_TRUE(ref.ok());
  for (const QueryPattern& pattern : patterns) {
    auto a = ref->executor().ExecutePattern(pattern);
    auto b = dyn.ExecutePattern(pattern);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok()) << pattern.source;
    EXPECT_EQ(*a, *b) << pattern.source;
  }

  // Batch entry point agrees with one-at-a-time queries (sampled sources
  // with text() predicates are not parser syntax; use the subset that is).
  std::vector<std::string> xpaths{"/e0"};
  for (const QueryPattern& pattern : patterns) {
    if (ParseXPath(pattern.source).ok()) xpaths.push_back(pattern.source);
  }
  auto batch = dyn.QueryBatch(xpaths);
  ASSERT_EQ(batch.size(), xpaths.size());
  for (size_t i = 0; i < xpaths.size(); ++i) {
    auto expected = dyn.Query(xpaths[i]);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(batch[i].ok()) << xpaths[i];
    EXPECT_EQ(*batch[i], *expected) << xpaths[i];
  }
}

TEST(DynamicConcurrency, CompactDrainsPendingSeals) {
  SyntheticParams params;
  params.seed = 55;
  DynamicOptions opts;
  opts.index.threads = 4;
  opts.flush_threshold = 20;
  DynamicIndex dyn(opts);
  SyntheticDataset gen(params, dyn.names(), dyn.values());
  for (DocId d = 0; d < 100; ++d) {
    ASSERT_TRUE(dyn.Add(gen.Generate(d)).ok());
  }
  ASSERT_TRUE(dyn.Compact().ok());
  EXPECT_EQ(dyn.segment_count(), 1u);
  EXPECT_EQ(dyn.buffered_documents(), 0u);
  EXPECT_EQ(dyn.total_documents(), 100u);
}

}  // namespace
}  // namespace xseq
