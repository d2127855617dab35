// Concurrency tests: the two fan-outs left, parts in FinishParts (so
// shards in a sharded seal) and queries in QueryBatch, must be
// bit-identical to their serial counterparts; a build and a query each
// run on one thread, queueing no pool task; and DynamicIndex must answer
// queries correctly while other threads mutate it. Pool widths are forced
// (> 1) so the parallel code runs even on single-core machines.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/dynamic_index.h"
#include "src/core/persist.h"
#include "src/gen/querygen.h"
#include "src/gen/synthetic.h"
#include "src/gen/xmark.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/server/sharded_collection.h"
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

const SyntheticParams kSyntheticParams = [] {
  SyntheticParams params;
  params.identical_percent = 30;
  params.seed = 99;
  return params;
}();

// Builds `docs` synthetic records into one index.
CollectionIndex BuildSynthetic(DocId docs) {
  CollectionBuilder builder;
  SyntheticDataset gen(kSyntheticParams, builder.names(), builder.values());
  for (DocId d = 0; d < docs; ++d) {
    EXPECT_TRUE(builder.Add(gen.Generate(d)).ok());
  }
  auto index = std::move(builder).Finish();
  EXPECT_TRUE(index.ok());
  return std::move(*index);
}

// Adds `docs` synthetic records to `add`, routed to the four shards
// ShardOfDoc names, each generated by its shard's generator.
template <typename AddFn>
void AddSyntheticShards(NameTable* names, ValueEncoder* values, DocId docs,
                        AddFn add) {
  std::vector<std::unique_ptr<SyntheticDataset>> gens;
  for (size_t s = 0; s < 4; ++s) {
    gens.push_back(
        std::make_unique<SyntheticDataset>(kSyntheticParams, names, values));
  }
  for (DocId d = 0; d < docs; ++d) {
    const size_t shard = ShardOfDoc(d, 4);
    EXPECT_TRUE(add(gens[shard]->Generate(d), shard).ok());
  }
}

// FinishParts of a four-part builder of `docs` records on a pool of width
// `width`.
std::vector<CollectionIndex> FinishSyntheticParts(int width, DocId docs) {
  CollectionBuilder builder(IndexOptions(), 4);
  AddSyntheticShards(builder.names(), builder.values(), docs,
                     [&](Document&& doc, size_t part) {
                       return builder.Add(std::move(doc), part);
                     });
  ThreadPool pool(width);
  auto parts = std::move(builder).FinishParts(&pool);
  EXPECT_TRUE(parts.ok());
  return parts.ok() ? std::move(*parts) : std::vector<CollectionIndex>();
}

TEST(ParallelBuild, RetainedModeBitIdenticalToSerial) {
  // The one build fan-out: FinishParts builds one part per pool task, each
  // on its task's thread. The persisted image captures the whole frozen
  // index, so byte equality per part is the strongest form of "the
  // fan-out changed nothing". A sealed 4-shard collection of the same
  // records, built on the default pool, holds the same bytes.
  const std::vector<CollectionIndex> serial = FinishSyntheticParts(1, 400);
  const std::vector<CollectionIndex> parallel = FinishSyntheticParts(4, 400);
  ShardedOptions opts;
  opts.shards = 4;
  ShardedCollection sealed(opts);
  AddSyntheticShards(sealed.names(0), sealed.values(0), 400,
                     [&](Document&& doc, size_t) {
                       return sealed.Add(std::move(doc));
                     });
  ASSERT_TRUE(sealed.Seal().ok());
  ASSERT_EQ(serial.size(), 4u);
  ASSERT_EQ(parallel.size(), 4u);
  ASSERT_EQ(sealed.shard_count(), 4u);
  for (size_t s = 0; s < serial.size(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    EXPECT_GT(serial[s].Stats().documents, 0u);
    const std::string want = EncodeCollectionIndex(serial[s]);
    EXPECT_EQ(EncodeCollectionIndex(parallel[s]), want);
    ASSERT_NE(sealed.shard(s), nullptr);
    EXPECT_EQ(EncodeCollectionIndex(*sealed.shard(s)), want);
  }
}

// Encodes a build of records 0..docs-1 from a `Gen` generator, retained
// (Add, then Finish) or streamed in two passes (Observe; BeginIndexing and
// Index; Finish).
template <typename Gen, typename Params>
std::string EncodeBuild(const Params& params, ValueMode mode, bool streaming,
                        DocId docs) {
  IndexOptions opts;
  opts.value_mode = mode;
  CollectionBuilder builder(opts);
  Gen gen(params, builder.names(), builder.values());
  for (DocId d = 0; d < docs; ++d) {
    Status st = streaming ? builder.Observe(gen.Generate(d))
                          : builder.Add(gen.Generate(d));
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  if (streaming) {
    EXPECT_TRUE(builder.BeginIndexing().ok());
    for (DocId d = 0; d < docs; ++d) {
      EXPECT_TRUE(builder.Index(gen.Generate(d)).ok());
    }
  }
  auto index = std::move(builder).Finish();
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  return index.ok() ? EncodeCollectionIndex(*index) : std::string();
}

TEST(ParallelBuild, StreamingModeBitIdenticalToSerial) {
  // Streaming Index() and a retained Finish() sequence through one loop, so
  // a two-pass build encodes byte for byte as a retained one.
  XMarkParams xmark;
  xmark.seed = 5;
  for (ValueMode mode : {ValueMode::kExact, ValueMode::kHashed,
                         ValueMode::kCharSequence}) {
    SCOPED_TRACE("value mode " + std::to_string(static_cast<int>(mode)));
    EXPECT_EQ(EncodeBuild<SyntheticDataset>(kSyntheticParams, mode, true, 200),
              EncodeBuild<SyntheticDataset>(kSyntheticParams, mode, false,
                                            200));
    EXPECT_EQ(EncodeBuild<XMarkGenerator>(xmark, mode, true, 200),
              EncodeBuild<XMarkGenerator>(xmark, mode, false, 200));
  }
}

TEST(OneThreadPerBuild, BuildsQueueNoPoolTask) {
  // A retained and a streaming build, and a DynamicIndex's seals and
  // compaction, each run on the calling thread: no pool runs a task.
  obs::ScopedMetricsEnabled on(true);
  obs::Counter* tasks =
      obs::MetricsRegistry::Default()->GetCounter("xseq.pool.tasks");
  const uint64_t tasks0 = tasks->value();
  EXPECT_GT(BuildSynthetic(300).Stats().trie_nodes, 0u);
  EXPECT_FALSE(EncodeBuild<SyntheticDataset>(kSyntheticParams,
                                             ValueMode::kExact,
                                             /*streaming=*/true, 300)
                   .empty());
  DynamicOptions opts;
  opts.flush_threshold = 64;
  DynamicIndex dyn(opts);
  SyntheticDataset gen(kSyntheticParams, dyn.names(), dyn.values());
  for (DocId d = 0; d < 300; ++d) {
    ASSERT_TRUE(dyn.Add(gen.Generate(d)).ok());
  }
  ASSERT_GE(dyn.segment_count(), 4u);
  ASSERT_TRUE(dyn.Compact().ok());
  EXPECT_EQ(tasks->value(), tasks0);
}

TEST(ParallelQuery, MatchAndBatchResultsEqualSerial) {
  CollectionIndex index = BuildSynthetic(300);

  NameTable names;
  ValueEncoder values;
  SyntheticDataset sampler(kSyntheticParams, &names, &values);
  Rng rng(3, 11);
  std::vector<std::string> xpaths;  // the parseable subset, for QueryBatch
  for (int q = 0; q < 40; ++q) {
    Document sample = sampler.Generate(rng.Uniform(300));
    QueryPattern pattern =
        SampleQueryPattern(sample, names, 2 + rng.Uniform(5), &rng, 0.5);
    // Sampled sources with text() predicates are not XPath-parser syntax;
    // keep the ones that round-trip.
    if (ParseXPath(pattern.source).ok()) xpaths.push_back(pattern.source);
  }
  xpaths.push_back("/e0");
  xpaths.push_back("/e0//e2");
  ASSERT_GE(xpaths.size(), 4u);

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
  CollectionIndex built = BuildSynthetic(300);
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

// Returns once every task queued on the default pool before the call has
// been taken by a worker: each worker takes one task of this round, and a
// worker takes a task only after finishing the one before it.
void DrainDefaultPool() {
  ThreadPool* pool = DefaultPool();
  const size_t width = static_cast<size_t>(pool->width());
  std::mutex mu;
  std::condition_variable cv;
  size_t arrived = 0;
  pool->ParallelFor(width, [&](size_t) {
    std::unique_lock<std::mutex> lock(mu);
    if (++arrived == width) cv.notify_all();
    cv.wait(lock, [&] { return arrived == width; });
  });
}

// The spans named `name` in `trace` ran one after another on the thread
// that started the trace.
void ExpectProbesInTurn(const obs::Trace& trace, const std::string& name,
                        size_t want) {
  std::vector<const obs::TraceSpan*> probes;
  for (const obs::TraceSpan& s : trace.spans) {
    if (s.name == name) probes.push_back(&s);
  }
  ASSERT_EQ(probes.size(), want) << name;
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(probes[i]->tid, trace.spans[0].tid) << name << " " << i;
    if (i == 0) continue;
    EXPECT_GE(probes[i]->start_us, probes[i - 1]->start_us +
                                       probes[i - 1]->dur_us)
        << name << " " << i << " overlaps its predecessor";
  }
}

TEST(OneThreadPerQuery, ProbesRunInTurnOnTheCallingThread) {
  // A 4-shard static and a 4-shard dynamic collection, sealed on the
  // default pool, beside a DynamicIndex with several segments. A query
  // still runs start to finish on its caller: no pool task, probe spans in
  // turn on one thread, and the answers of an unsharded index.
  std::vector<std::string> specs;
  for (int i = 0; i < 48; ++i) {
    switch (i % 4) {
      case 0:
        specs.push_back("a(b('v1'),c(d('v2')))");
        break;
      case 1:
        specs.push_back("a(c(b('v1')),e('v3'))");
        break;
      case 2:
        specs.push_back("a(b('v2'),b('v1'))");
        break;
      case 3:
        specs.push_back("a(c(d(b('v5'))))");
        break;
    }
  }
  CollectionIndex baseline = testing::MakeIndex(specs);

  // Set-up counts no pool task: it runs with metrics off, and the default
  // pool, which seals the static shards, is drained before counting starts.
  obs::ScopedMetricsEnabled off(false);
  obs::Counter* tasks =
      obs::MetricsRegistry::Default()->GetCounter("xseq.pool.tasks");
  uint64_t tasks0 = 0;
  {
    auto build_sharded = [&](bool dynamic) {
      ShardedOptions opts;
      opts.shards = 4;
      opts.dynamic = dynamic;
      opts.flush_threshold = 4;
      auto col = std::make_unique<ShardedCollection>(opts);
      for (DocId id = 0; id < specs.size(); ++id) {
        const size_t s = col->ShardOf(id);
        EXPECT_TRUE(col->Add(testing::MakeDoc(specs[id], col->names(s),
                                              col->values(s), id))
                        .ok());
      }
      EXPECT_TRUE(col->Seal().ok());
      return col;
    };
    std::unique_ptr<ShardedCollection> sharded[] = {build_sharded(false),
                                                    build_sharded(true)};

    DynamicOptions dopts;
    dopts.flush_threshold = 8;
    DynamicIndex dyn(dopts);
    for (DocId id = 0; id < specs.size(); ++id) {
      ASSERT_TRUE(
          dyn.Add(testing::MakeDoc(specs[id], dyn.names(), dyn.values(), id))
              .ok());
    }
    ASSERT_GE(dyn.segment_count(), 2u);

    DrainDefaultPool();
    obs::ScopedMetricsEnabled on(true);
    tasks0 = tasks->value();
    for (const char* q :
         {"/a/b", "/a//b", "//b[text='v1']", "/a/*/b", "//d", "//nosuch"}) {
      SCOPED_TRACE(q);
      auto want = baseline.Query(q);
      ASSERT_TRUE(want.ok());
      for (const auto& col : sharded) {
        obs::TraceBuilder tb;
        ExecOptions opts;
        opts.trace = &tb;
        opts.trace_parent = tb.StartTrace("query");
        auto got = col->Query(q, opts);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(got->docs, want->docs);
        ExpectProbesInTurn(tb.Finish(), "shard_probe", col->shard_count());
      }
      obs::Tracer tracer;
      ExecOptions opts;
      opts.tracer = &tracer;
      auto got = dyn.Query(q, opts);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, want->docs);
      ExpectProbesInTurn(tracer.Latest(), "segment_probe",
                         dyn.segment_count());
    }
  }
  // No query queued a pool task while metrics counted.
  EXPECT_EQ(tasks->value(), tasks0);
}

TEST(DynamicConcurrency, QueriesRaceAddsAndFlushes) {
  SyntheticParams params;
  params.seed = 77;
  constexpr DocId kDocs = 300;

  DynamicOptions opts;
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

  // Once quiescent, answers equal a one-shot reference.
  CollectionBuilder ref_builder;
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
}

TEST(DynamicConcurrency, QueriesRaceBufferedUpdatesAndDeletes) {
  // The writer seals inline under the index lock while readers wait on it,
  // and buffered deletes and updates empty the buffer's dictionary for the
  // next query to rebuild under the same lock. Each query probes the
  // sealed segments in turn on its reader's thread.
  DynamicOptions opts;
  opts.flush_threshold = 12;
  DynamicIndex dyn(opts);
  // A twin that no reader queries takes the same schedule and answers for
  // the writer's own checks.
  DynamicIndex twin(opts);

  static const char* const kSpecs[] = {
      "a(b('5'),c('17'))",        "a(b('30'),b(c('apple')))",
      "a(c('pear'))",             "a(b(c('42')),c('zebra'),b('3.5'))",
      "a(x(b('100')),c('7'))",    "a(y(b('x9')),y(c('30')))"};
  constexpr size_t kSpecCount = sizeof(kSpecs) / sizeof(kSpecs[0]);

  // The whole schedule, documents included, is generated up front: the
  // shared vocabulary tables are not synchronized against queries.
  enum Kind { kAdd, kUpdate, kDelete, kFlush };
  struct Op {
    Kind kind;
    DocId id;
    Document doc;
    Document twin_doc;
  };
  std::vector<Op> ops;
  std::map<DocId, std::string> live;
  Rng rng(71, 5);
  DocId next_id = 0;
  // Updates and deletes pick among the latest ids, so they land in the
  // buffer as well as in sealed slots.
  auto recent = [&rng, &next_id] {
    return next_id - 1 - rng.Uniform(std::min<DocId>(next_id, 20));
  };
  for (int step = 0; step < 240; ++step) {
    const uint32_t roll = rng.Uniform(10);
    const std::string spec = kSpecs[rng.Uniform(kSpecCount)];
    if (roll < 5 || next_id < 4) {
      const DocId id = next_id++;
      ops.push_back({kAdd, id,
                     testing::MakeDoc(spec, dyn.names(), dyn.values(), id),
                     testing::MakeDoc(spec, twin.names(), twin.values(), id)});
      live[id] = spec;
    } else if (roll < 7) {
      const DocId id = recent();
      ops.push_back({kUpdate, id,
                     testing::MakeDoc(spec, dyn.names(), dyn.values(), id),
                     testing::MakeDoc(spec, twin.names(), twin.values(), id)});
      live[id] = spec;
    } else if (roll < 9) {
      const DocId id = recent();
      ops.push_back({kDelete, id, Document(), Document()});
      live.erase(id);
    } else {
      ops.push_back({kFlush, 0, Document(), Document()});
    }
  }

  const std::vector<std::string> texts = {
      "//b",           "/a/*/c",
      "//y/c",         "//c[. != 'apple']",
      "/a/b[. < 30]",  "/a/*/b[. >= 'apple']",
      "/a/*/b[. > 40]", "/a//c[. < 'pear']"};
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t);
      while (!done.load()) {
        if (!dyn.Query(texts[i % texts.size()]).ok()) failures.fetch_add(1);
        reads.fetch_add(1);
        ++i;
      }
    });
  }

  auto apply = [](DynamicIndex* index, const Op& op, Document doc) {
    switch (op.kind) {
      case kAdd:
        return index->Add(std::move(doc));
      case kUpdate:
        return index->Update(std::move(doc), op.id);
      case kDelete:
        return index->Delete(op.id);
      case kFlush:
        return index->Flush();
    }
    return Status::OK();
  };
  // Only this thread mutates, so a delete that shrinks the buffer removed
  // a buffered document. After every mutation, including one that sealed,
  // one text must answer as on the twin.
  size_t buffered_deletes = 0;
  for (size_t step = 0; step < ops.size(); ++step) {
    Op& op = ops[step];
    const size_t buffered = dyn.buffered_documents();
    Status st = apply(&dyn, op, std::move(op.doc));
    if (st.ok()) st = apply(&twin, op, std::move(op.twin_doc));
    if (!st.ok()) {
      ADD_FAILURE() << st.ToString();
      break;  // the readers must still be joined
    }
    buffered_deletes +=
        op.kind == kDelete && dyn.buffered_documents() < buffered;
    const std::string& text = texts[step % texts.size()];
    auto got = dyn.Query(text);
    auto want = twin.Query(text);
    if (!got.ok() || !want.ok() || *got != *want) {
      ADD_FAILURE() << "step " << step << ", " << text;
      break;
    }
    // Let a read in between mutations, so the two interleave on any host.
    const uint64_t seen = reads.load();
    while (reads.load() == seen) std::this_thread::yield();
  }
  done.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(buffered_deletes, 0u);
  EXPECT_EQ(dyn.total_documents(), live.size());
  EXPECT_GT(dyn.buffered_documents(), 0u);

  // Once quiescent, every text equals a fresh one-shot index over the
  // surviving documents.
  CollectionBuilder ref_builder;
  for (const auto& [id, spec] : live) {
    ASSERT_TRUE(ref_builder
                    .Add(testing::MakeDoc(spec, ref_builder.names(),
                                          ref_builder.values(), id))
                    .ok());
  }
  auto ref = std::move(ref_builder).Finish();
  ASSERT_TRUE(ref.ok());
  size_t nonempty = 0;
  for (const std::string& text : texts) {
    auto want = ref->Query(text);
    auto got = dyn.Query(text);
    ASSERT_TRUE(want.ok()) << text << ": " << want.status().ToString();
    ASSERT_TRUE(got.ok()) << text << ": " << got.status().ToString();
    EXPECT_EQ(*got, want->docs) << text;
    nonempty += !want->docs.empty();
  }
  EXPECT_EQ(nonempty, texts.size());
}

TEST(DynamicConcurrency, WriterInternsWhileSegmentsShareTables) {
  // xseq_serve's discipline: the writer parses each document, interning its
  // new names and values, under an exclusive lock that queries share, and
  // mutates the index outside it, sealing inline. A Compact() from another
  // thread takes no vocabulary lock, so a compaction that read the tables
  // every segment shares would race the interning.
  DynamicOptions opts;
  opts.flush_threshold = 8;
  DynamicIndex dyn(opts);
  std::shared_mutex vocab_mu;

  // Every version of a document brings an element name and a value text
  // that no earlier document carried.
  auto xml = [](DocId id, int step) {
    std::string tag = "e";
    tag += std::to_string(id) + "_" + std::to_string(step);
    std::string out = "<a><b>";
    out += std::to_string(step % 50) + "</b><" + tag + "><c>t" +
           std::to_string(step) + "</c></" + tag + "></a>";
    return out;
  };
  const std::vector<std::string> texts = {
      "//b",         "/a/*/c",         "/a/b[. < 25]", "//c[. != 't3']",
      "//e3_3",      "/a/e40_61/c",    "//*[c='t90']", "/a/b[.='7']"};

  constexpr int kSteps = 200;
  std::atomic<int> step_reached{0};
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> reads{0};
  // glibc's std::shared_mutex prefers readers, so readers that never pause
  // would starve the writer; they step aside while it waits.
  std::atomic<bool> writer_waiting{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t);
      while (!done.load()) {
        if (writer_waiting.load()) {
          std::this_thread::yield();
          continue;
        }
        std::shared_lock<std::shared_mutex> lock(vocab_mu);
        if (!dyn.Query(texts[i % texts.size()]).ok()) failures.fetch_add(1);
        reads.fetch_add(1);
        ++i;
      }
    });
  }
  std::thread compactor([&] {
    while (step_reached.load() < kSteps / 2) std::this_thread::yield();
    if (!dyn.Compact().ok()) failures.fetch_add(1);
  });

  std::map<DocId, std::string> live;
  Rng rng(97, 13);
  DocId next_id = 0;
  for (int step = 0; step < kSteps; ++step) {
    const uint32_t roll = rng.Uniform(10);
    Status st;
    if (roll < 6 || live.empty()) {
      const DocId id = roll < 4 || live.empty()
                           ? next_id++
                           : next_id - 1 - rng.Uniform(next_id);
      const std::string text = xml(id, step);
      StatusOr<Document> doc = Status::Internal("not parsed");
      {
        writer_waiting.store(true);
        std::unique_lock<std::shared_mutex> lock(vocab_mu);
        writer_waiting.store(false);
        XmlParser parser(dyn.names(), dyn.values());
        doc = parser.Parse(text, id);
      }
      if (!doc.ok()) {
        st = doc.status();
      } else {
        st = live.count(id) != 0 ? dyn.Update(std::move(*doc), id)
                                 : dyn.Add(std::move(*doc));
      }
      live[id] = text;
    } else {
      const DocId id = next_id - 1 - rng.Uniform(next_id);
      st = dyn.Delete(id);
      live.erase(id);
    }
    if (!st.ok()) {
      ADD_FAILURE() << "step " << step << ": " << st.ToString();
      break;  // the other threads must still be joined
    }
    step_reached.store(step + 1);
    // Let a read in between mutations, so the two interleave on any host.
    const uint64_t seen = reads.load();
    while (reads.load() == seen) std::this_thread::yield();
  }
  step_reached.store(kSteps);
  compactor.join();
  done.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(dyn.total_documents(), live.size());

  // Once quiescent, every text equals a fresh index over the surviving
  // documents, parsed against its own tables.
  CollectionBuilder ref_builder;
  XmlParser ref_parser(ref_builder.names(), ref_builder.values());
  for (const auto& [id, text] : live) {
    auto doc = ref_parser.Parse(text, id);
    ASSERT_TRUE(doc.ok());
    ASSERT_TRUE(ref_builder.Add(std::move(*doc)).ok());
  }
  auto ref = std::move(ref_builder).Finish();
  ASSERT_TRUE(ref.ok());
  size_t nonempty = 0;
  for (const std::string& text : texts) {
    auto want = ref->Query(text);
    auto got = dyn.Query(text);
    ASSERT_TRUE(want.ok()) << text << ": " << want.status().ToString();
    ASSERT_TRUE(got.ok()) << text << ": " << got.status().ToString();
    EXPECT_EQ(*got, want->docs) << text;
    nonempty += !want->docs.empty();
  }
  EXPECT_GE(nonempty, texts.size() / 2);
}

TEST(DynamicConcurrency, CompactDrainsPendingSeals) {
  // Every twentieth Add seals inline, so nothing is pending when Compact()
  // folds the five segments into one.
  SyntheticParams params;
  params.seed = 55;
  DynamicOptions opts;
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
