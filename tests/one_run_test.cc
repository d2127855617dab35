// One run per query: every public query entry point, on every backend,
// records exactly one xseq.query.* sample per query, commits at most one
// trace (or attaches to the caller's), and reports result_docs equal to
// the size of its answer — whether a DynamicIndex holds no segment, one or
// several, with or without buffered and tombstoned documents.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/collection_index.h"
#include "src/core/dynamic_index.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/server/sharded_collection.h"
#include "tests/test_util.h"

namespace xseq {
namespace {

using ::xseq::testing::MakeDoc;

std::string SpecOf(DocId id) {
  switch (id % 4) {
    case 0:
      return "a(b('v1'),c(d('v2')))";
    case 1:
      return "a(c(b('v1')),e('v3'))";
    case 2:
      return "a(b('v2'),b('v1'))";
    default:
      return "a(c(d(b('v5'))))";
  }
}

const std::vector<std::string>& Queries() {
  static const std::vector<std::string> q = {"/a//b", "//b[text='v1']",
                                             "//b[. >= 'v2']", "/a/c/d"};
  return q;
}

// A DynamicIndex of documents 0..docs-1 that seals every `threshold`
// documents, with the ids in `deleted` deleted afterwards.
std::unique_ptr<DynamicIndex> MakeDynamic(DocId docs, size_t threshold,
                                          const std::vector<DocId>& deleted) {
  DynamicOptions opts;
  opts.flush_threshold = threshold;
  auto dyn = std::make_unique<DynamicIndex>(opts);
  for (DocId id = 0; id < docs; ++id) {
    EXPECT_TRUE(
        dyn->Add(MakeDoc(SpecOf(id), dyn->names(), dyn->values(), id)).ok());
  }
  for (DocId id : deleted) EXPECT_TRUE(dyn->Delete(id).ok());
  return dyn;
}

// A 3-shard collection of documents 0..docs-1. The dynamic one seals every
// 2 documents per shard, so shards hold several segments and an odd shard
// a buffered document, and ids 1 and 8 are tombstoned or erased.
std::unique_ptr<ShardedCollection> MakeSharded(bool dynamic, DocId docs) {
  ShardedOptions opts;
  opts.shards = 3;
  opts.dynamic = dynamic;
  opts.flush_threshold = 2;
  auto col = std::make_unique<ShardedCollection>(opts);
  for (DocId id = 0; id < docs; ++id) {
    const size_t s = col->ShardOf(id);
    EXPECT_TRUE(
        col->Add(MakeDoc(SpecOf(id), col->names(s), col->values(s), id)).ok());
  }
  if (dynamic) {
    EXPECT_TRUE(col->Delete(1).ok());
    EXPECT_TRUE(col->Delete(8).ok());
  } else {
    EXPECT_TRUE(col->Seal().ok());
  }
  return col;
}

// The oracle: a one-part index over the documents MakeDynamic/MakeSharded
// keep.
std::vector<DocId> Want(const std::string& q, DocId docs,
                        const std::vector<DocId>& deleted) {
  std::vector<std::string> specs;
  std::vector<DocId> ids;
  for (DocId id = 0; id < docs; ++id) {
    bool gone = false;
    for (DocId d : deleted) gone = gone || d == id;
    if (gone) continue;
    specs.push_back(SpecOf(id));
    ids.push_back(id);
  }
  CollectionIndex idx = testing::MakeIndex(specs);
  auto r = idx.Query(q);
  EXPECT_TRUE(r.ok()) << q;
  std::vector<DocId> out;
  if (r.ok()) {
    for (DocId d : r->docs) out.push_back(ids[d]);
  }
  return out;
}

// Runs `query` once and checks it recorded exactly one xseq.query sample,
// and one error exactly when it failed.
void ExpectOneSample(const std::string& what, bool want_ok,
                     const std::function<bool()>& query) {
  obs::MetricsRegistry* r = obs::MetricsRegistry::Default();
  obs::Counter* count = r->GetCounter("xseq.query.count");
  obs::Counter* errors = r->GetCounter("xseq.query.errors");
  obs::Histogram* latency = r->GetHistogram("xseq.query.latency_us");
  const uint64_t count0 = count->value();
  const uint64_t errors0 = errors->value();
  const uint64_t samples0 = latency->count();
  EXPECT_EQ(query(), want_ok) << what;
  EXPECT_EQ(count->value() - count0, 1u) << what;
  EXPECT_EQ(latency->count() - samples0, 1u) << what;
  EXPECT_EQ(errors->value() - errors0, want_ok ? 0u : 1u) << what;
}

TEST(OneSamplePerQuery, EveryEntryPointOnEveryBackend) {
  obs::ScopedMetricsEnabled on(true);
  std::vector<std::string> specs;
  for (DocId id = 0; id < 12; ++id) specs.push_back(SpecOf(id));
  CollectionIndex idx = testing::MakeIndex(specs);

  // Dynamic indexes with 0, 1 and several segments, each with and without
  // a buffer.
  struct DynCase {
    std::string name;
    std::unique_ptr<DynamicIndex> dyn;
  };
  std::vector<DynCase> dyns;
  dyns.push_back({"empty", MakeDynamic(0, 1024, {})});
  dyns.push_back({"buffer only", MakeDynamic(5, 1024, {})});
  dyns.push_back({"one segment", MakeDynamic(4, 4, {})});
  dyns.push_back({"one segment and a buffer", MakeDynamic(6, 4, {})});
  dyns.push_back({"segments", MakeDynamic(8, 2, {3})});
  dyns.push_back({"segments and a buffer", MakeDynamic(9, 2, {3})});
  EXPECT_EQ(dyns[1].dyn->segment_count(), 0u);
  EXPECT_EQ(dyns[3].dyn->segment_count(), 1u);
  EXPECT_EQ(dyns[3].dyn->buffered_documents(), 2u);
  EXPECT_GE(dyns[4].dyn->segment_count(), 2u);
  EXPECT_EQ(dyns[4].dyn->buffered_documents(), 0u);
  EXPECT_EQ(dyns[5].dyn->buffered_documents(), 1u);
  std::unique_ptr<ShardedCollection> sharded[] = {MakeSharded(false, 20),
                                                  MakeSharded(true, 20)};

  for (const std::string& q : Queries()) {
    SCOPED_TRACE(q);
    auto pattern = ParseXPath(q);
    ASSERT_TRUE(pattern.ok());
    ExpectOneSample("CollectionIndex::Query", true,
                    [&] { return idx.Query(q).ok(); });
    ExpectOneSample("QueryExecutor::ExecutePattern", true, [&] {
      return idx.executor().ExecutePattern(*pattern).ok();
    });
    for (const DynCase& c : dyns) {
      ExpectOneSample("DynamicIndex::Query, " + c.name, true,
                      [&] { return c.dyn->Query(q).ok(); });
      ExpectOneSample("DynamicIndex::ExecutePattern, " + c.name, true,
                      [&] { return c.dyn->ExecutePattern(*pattern).ok(); });
    }
    for (const auto& col : sharded) {
      ExpectOneSample(col->options().dynamic ? "dynamic shards"
                                             : "static shards",
                      true, [&] { return col->Query(q).ok(); });
    }
  }

  // A failed query records one sample and one error.
  ExecOptions late;
  late.deadline_micros = DeadlineNowMicros() - 1;
  ExpectOneSample("expired CollectionIndex::Query", false,
                  [&] { return idx.Query("/a//b", late).ok(); });
  ExpectOneSample("expired DynamicIndex::Query", false,
                  [&] { return dyns[5].dyn->Query("/a//b", late).ok(); });
  for (const auto& col : sharded) {
    ExpectOneSample("expired ShardedCollection::Query", false,
                    [&] { return col->Query("/a//b", late).ok(); });
  }

  // No backend records a sample before a successful parse.
  obs::Counter* count =
      obs::MetricsRegistry::Default()->GetCounter("xseq.query.count");
  const uint64_t before = count->value();
  EXPECT_FALSE(idx.Query("][").ok());
  EXPECT_FALSE(dyns[5].dyn->Query("][").ok());
  for (const auto& col : sharded) EXPECT_FALSE(col->Query("][").ok());
  EXPECT_EQ(count->value(), before);
}

// Span indices named `name` whose parent is `parent`.
std::vector<uint32_t> Children(const obs::Trace& t, uint32_t parent,
                               const std::string& name) {
  std::vector<uint32_t> out;
  for (uint32_t i = 0; i < t.spans.size(); ++i) {
    if (t.spans[i].parent == parent && t.spans[i].name == name) {
      out.push_back(i);
    }
  }
  return out;
}

uint64_t Arg(const obs::TraceSpan& s, const std::string& key) {
  for (const auto& [k, v] : s.args) {
    if (k == key) return v;
  }
  return UINT64_MAX;
}

size_t CountSpans(const obs::Trace& t, const std::string& name) {
  size_t n = 0;
  for (const obs::TraceSpan& s : t.spans) n += s.name == name;
  return n;
}

TEST(OneTracePerQuery, ShardedQueryCommitsOneTraceOnEitherBackend) {
  std::unique_ptr<ShardedCollection> sharded[] = {MakeSharded(false, 20),
                                                  MakeSharded(true, 20)};
  // Segments per dynamic shard: every 2 documents added to it sealed one.
  std::map<size_t, uint64_t> segments;
  for (DocId id = 0; id < 20; ++id) ++segments[sharded[1]->ShardOf(id)];
  for (auto& [shard, n] : segments) n /= 2;

  for (const auto& col : sharded) {
    const bool dynamic = col->options().dynamic;
    SCOPED_TRACE(dynamic ? "dynamic" : "static");
    for (const std::string& q : Queries()) {
      SCOPED_TRACE(q);
      obs::Tracer tracer;
      ExecOptions opts;
      opts.tracer = &tracer;
      auto got = col->Query(q, opts);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->docs, Want(q, 20, dynamic ? std::vector<DocId>{1, 8}
                                               : std::vector<DocId>{}));
      ASSERT_EQ(tracer.size(), 1u);
      const obs::Trace t = tracer.Latest();
      ASSERT_FALSE(t.spans.empty());
      EXPECT_EQ(t.spans[0].name, "query");
      EXPECT_EQ(t.spans[0].parent, obs::kNoSpan);
      EXPECT_EQ(CountSpans(t, "query"), 1u);
      EXPECT_EQ(Arg(t.spans[0], "result_docs"), got->docs.size());
      for (const obs::TraceSpan& s : t.spans) EXPECT_TRUE(s.closed) << s.name;
      const std::vector<uint32_t> probes = Children(t, 0, "shard_probe");
      ASSERT_EQ(probes.size(), col->shard_count());
      EXPECT_EQ(CountSpans(t, "shard_probe"), col->shard_count());
      if (!dynamic) {
        EXPECT_EQ(CountSpans(t, "scan_unsealed"), 0u);
        EXPECT_EQ(CountSpans(t, "segment_probe"), 0u);
        continue;
      }
      for (uint32_t p : probes) {
        const uint64_t shard = Arg(t.spans[p], "shard");
        EXPECT_EQ(Children(t, p, "scan_unsealed").size(), 1u) << shard;
        EXPECT_EQ(Children(t, p, "segment_probe").size(), segments[shard])
            << shard;
      }
    }
  }

  // The one compile of a static query, one per segment on the dynamic
  // backend.
  uint64_t all_segments = 0;
  for (const auto& [shard, n] : segments) all_segments += n;
  for (const auto& col : sharded) {
    obs::Tracer tracer;
    ExecOptions opts;
    opts.tracer = &tracer;
    ASSERT_TRUE(col->Query("/a//b", opts).ok());
    ASSERT_EQ(tracer.size(), 1u);
    EXPECT_EQ(CountSpans(tracer.Latest(), "compile"),
              col->options().dynamic ? all_segments : 1u);
  }
}

TEST(OneTracePerQuery, CallerTraceGetsTheSpansAndNoSecondTrace) {
  std::unique_ptr<ShardedCollection> sharded[] = {MakeSharded(false, 20),
                                                  MakeSharded(true, 20)};
  std::unique_ptr<DynamicIndex> dyn = MakeDynamic(9, 2, {3});
  CollectionIndex idx = testing::MakeIndex({SpecOf(0), SpecOf(1)});
  using Run = std::function<bool(const ExecOptions&)>;
  const std::vector<std::pair<std::string, Run>> runs = {
      {"static shards",
       [&](const ExecOptions& o) {
         return sharded[0]->Query("/a//b", o).ok();
       }},
      {"dynamic shards",
       [&](const ExecOptions& o) {
         return sharded[1]->Query("/a//b", o).ok();
       }},
      {"DynamicIndex",
       [&](const ExecOptions& o) { return dyn->Query("/a//b", o).ok(); }},
      {"CollectionIndex",
       [&](const ExecOptions& o) { return idx.Query("/a//b", o).ok(); }},
  };
  for (const auto& [name, run] : runs) {
    SCOPED_TRACE(name);
    obs::Tracer tracer;
    obs::TraceBuilder tb;
    ExecOptions opts;
    opts.tracer = &tracer;  // ignored: the caller owns the trace
    opts.trace = &tb;
    opts.trace_parent = tb.StartTrace("caller");
    ASSERT_TRUE(run(opts));
    EXPECT_EQ(tracer.size(), 0u);
    const obs::Trace t = tb.Finish();
    EXPECT_EQ(t.spans[0].name, "caller");
    EXPECT_EQ(CountSpans(t, "query"), 0u);
    EXPECT_EQ(CountSpans(t, "dynamic_query"), 0u);
    EXPECT_GE(CountSpans(t, "compile"), 1u);
    EXPECT_GE(CountSpans(t, "match"), 1u);
  }
}

TEST(TrueCounts, ResultDocsEqualTheAnswerOnEveryBackend) {
  // Tombstoned (3, sealed) and buffered (8) documents on the dynamic
  // backends; the explain and the stats count the answer once.
  std::unique_ptr<DynamicIndex> dyn = MakeDynamic(9, 2, {3});
  ASSERT_GE(dyn->segment_count(), 2u);
  ASSERT_EQ(dyn->buffered_documents(), 1u);
  ASSERT_EQ(dyn->tombstoned_documents(), 1u);
  std::unique_ptr<ShardedCollection> sharded[] = {MakeSharded(false, 20),
                                                  MakeSharded(true, 20)};
  for (const std::string& q : Queries()) {
    SCOPED_TRACE(q);
    auto pattern = ParseXPath(q);
    ASSERT_TRUE(pattern.ok());
    ExecStats stats;
    QueryExplain explain;
    ExecOptions opts;
    opts.explain = &explain;
    auto docs = dyn->ExecutePattern(*pattern, opts, &stats);
    ASSERT_TRUE(docs.ok());
    EXPECT_EQ(*docs, Want(q, 9, {3}));
    EXPECT_EQ(stats.result_docs, docs->size());
    EXPECT_EQ(explain.result_docs, docs->size());

    for (const auto& col : sharded) {
      const bool dynamic = col->options().dynamic;
      SCOPED_TRACE(dynamic ? "dynamic" : "static");
      QueryExplain ex;
      ExecOptions o;
      o.explain = &ex;
      auto r = col->Query(q, o);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r->docs, Want(q, 20, dynamic ? std::vector<DocId>{1, 8}
                                             : std::vector<DocId>{}));
      EXPECT_EQ(r->stats.result_docs, r->docs.size());
      EXPECT_EQ(ex.result_docs, r->docs.size());
      // One breakdown row per shard, and every sequence row names its
      // shard.
      ASSERT_EQ(ex.shards.size(), col->shard_count());
      for (size_t s = 0; s < ex.shards.size(); ++s) {
        EXPECT_EQ(ex.shards[s].shard, static_cast<int32_t>(s));
      }
      EXPECT_EQ(ex.seq.size(), ex.sequences);
      for (const QueryExplain::SeqEntry& e : ex.seq) {
        EXPECT_GE(e.shard, 0);
        EXPECT_LT(e.shard, static_cast<int32_t>(col->shard_count()));
      }
    }
  }
}

}  // namespace
}  // namespace xseq
