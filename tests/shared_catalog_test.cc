// Tests for the catalog a static ShardedCollection's shards share: one
// compile per query whatever the shard count, every shard's trie sequenced
// with the collection-wide model (the sequencing hazard), answers equal to
// an unsharded index in every value mode, and the on-disk binding of each
// part to its manifest (foreign parts and miscounted manifests refused by
// both Load and the hot-swap's offline validation).

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/core/persist.h"
#include "src/obs/trace.h"
#include "src/query/plan_cache.h"
#include "src/seq/path_dict.h"
#include "src/server/sharded_collection.h"
#include "src/server/topology.h"
#include "src/util/coding.h"
#include "src/util/env.h"
#include "src/xml/value_chain.h"
#include "tests/test_util.h"

namespace xseq {
namespace {

using ::xseq::testing::MakeDoc;

std::vector<std::string> Specs(size_t n) {
  static const char* const kShapes[] = {
      "a(b('v1'),c(d('v2')))", "a(c(b('v1')),e('v3'))", "a(b('v2'),b('v1'))",
      "r(a(b('v1')),a(c('v4')))", "a(c(d(b('v5'))))", "a(b('7'),e('12'))"};
  std::vector<std::string> out;
  for (size_t i = 0; i < n; ++i) out.push_back(kShapes[i % 6]);
  return out;
}

std::vector<std::string> Queries() {
  return {"/a/b",          "/a//b",     "//b[text='v1']", "/a/c/d",
          "/a/*/b",        "/r//b",     "//nosuch",       "/a/b[. < 10]",
          "/a[e > 5]/b",   "/a[b][e]"};
}

ShardedCollection BuildSharded(const std::vector<std::string>& specs,
                               int shards, bool dynamic = false,
                               ValueMode mode = ValueMode::kExact) {
  ShardedOptions opts;
  opts.shards = shards;
  opts.dynamic = dynamic;
  opts.flush_threshold = 8;
  opts.index.value_mode = mode;
  ShardedCollection col(opts);
  for (DocId id = 0; id < specs.size(); ++id) {
    const size_t s = col.ShardOf(id);
    EXPECT_TRUE(
        col.Add(MakeDoc(specs[id], col.names(s), col.values(s), id)).ok());
  }
  EXPECT_TRUE(col.Seal().ok());
  return col;
}

CollectionIndex BuildUnsharded(const std::vector<std::string>& specs,
                               ValueMode mode = ValueMode::kExact) {
  IndexOptions opts;
  opts.value_mode = mode;
  CollectionBuilder builder(opts);
  for (DocId id = 0; id < specs.size(); ++id) {
    EXPECT_TRUE(builder
                    .Add(MakeDoc(specs[id], builder.names(), builder.values(),
                                 id))
                    .ok());
  }
  auto built = std::move(builder).Finish();
  EXPECT_TRUE(built.ok());
  return std::move(*built);
}

std::vector<std::vector<DocId>> Answers(const ShardedCollection& col,
                                        const std::vector<std::string>& qs) {
  std::vector<std::vector<DocId>> out;
  for (const std::string& q : qs) {
    auto r = col.Query(q);
    EXPECT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    out.push_back(r.ok() ? r->docs : std::vector<DocId>());
  }
  return out;
}

std::string TempPrefix(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// One compile per query.

TEST(SharedCatalogTest, ShardedQueryCompilesOnce) {
  const std::vector<std::string> specs = Specs(90);
  CollectionIndex unsharded = BuildUnsharded(specs);
  ShardedCollection col = BuildSharded(specs, 5);

  PlanCache cache;
  for (const std::string& q : Queries()) {
    SCOPED_TRACE(q);
    ExecOptions plain;
    plain.plan.cache = nullptr;
    auto want = unsharded.Query(q, plain);
    ASSERT_TRUE(want.ok());
    for (int round = 0; round < 2; ++round) {
      const PlanCache::Stats before = cache.GetStats();
      obs::TraceBuilder tb;
      QueryExplain explain;
      ExecOptions opts;
      opts.plan.cache = &cache;
      opts.trace = &tb;
      opts.trace_parent = tb.StartTrace("query");
      opts.explain = &explain;
      auto got = col.Query(q, opts);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->docs, want->docs);

      std::map<std::string, size_t> spans;
      for (const obs::TraceSpan& s : tb.Finish().spans) ++spans[s.name];
      EXPECT_EQ(spans["shard_probe"], col.shard_count());
      EXPECT_EQ(explain.shards.size(), col.shard_count());
      const PlanCache::Stats after = cache.GetStats();
      if (spans["compile"] == 0) {
        // Comparisons answered from value postings never need a plan.
        EXPECT_EQ(after.hits + after.misses, before.hits + before.misses);
        continue;
      }
      EXPECT_EQ(spans["compile"], 1u) << "round " << round;
      // One lookup per query: a miss and one insert the first time, a hit
      // after.
      EXPECT_EQ(after.hits - before.hits, round == 0 ? 0u : 1u);
      EXPECT_EQ(after.misses - before.misses, round == 0 ? 1u : 0u);
      EXPECT_EQ(after.insertions - before.insertions, round == 0 ? 1u : 0u);
      EXPECT_EQ(got->stats.plan_cache_hits, round == 0 ? 0u : 1u);
      // The compile-side counters describe the one compile: over the shared
      // dictionary they equal the unsharded index's.
      EXPECT_EQ(got->stats.instantiations, want->stats.instantiations);
      EXPECT_EQ(got->stats.orderings, want->stats.orderings);
      EXPECT_EQ(explain.instantiations, want->stats.instantiations);
      EXPECT_EQ(explain.plan_cache_hit, round == 1);
    }
  }

  // Shards report the shared dictionary; the merge counts it once.
  EXPECT_EQ(col.MergedStats().distinct_paths,
            unsharded.Stats().distinct_paths);
  for (size_t s = 0; s < col.shard_count(); ++s) {
    EXPECT_EQ(col.shard(s)->catalog(), col.shard(0)->catalog());
  }
}

// ---------------------------------------------------------------------------
// The sequencing hazard: one shard's own statistics would order sibling
// paths x and y opposite to the collection-wide g_best order.

/// Shard-0 documents carry only x; shard-1 documents always carry y and
/// every third one x too. Collection-wide x is the more frequent path, in
/// shard 1 y is.
std::vector<std::string> HazardSpecs(size_t n) {
  std::vector<std::string> out;
  size_t in_shard1 = 0;
  for (DocId id = 0; id < n; ++id) {
    if (ShardOfDoc(id, 2) == 0) {
      out.push_back("a(x('1'),z('2'))");
    } else {
      out.push_back(in_shard1++ % 3 == 0 ? "a(y('1'),x('2'))"
                                         : "a(y('1'),z('3'))");
    }
  }
  return out;
}

/// The constraint sequence of every document in `index`'s trie, read back
/// by walking the DocsAtNode chains as the reshard does.
std::map<DocId, Sequence> TrieSequences(const FrozenIndex& index) {
  std::map<DocId, Sequence> out;
  std::vector<uint32_t> ends;
  Sequence chain;
  for (uint32_t serial = 0; serial < index.node_count(); ++serial) {
    while (!ends.empty() && ends.back() < serial) {
      ends.pop_back();
      chain.pop_back();
    }
    ends.push_back(index.end(serial));
    chain.push_back(index.path(serial));
    for (DocId d : index.DocsAtNode(serial)) out[d] = chain;
  }
  return out;
}

class SequencingHazardTest : public ::testing::TestWithParam<ValueMode> {};

TEST_P(SequencingHazardTest, EveryShardSequencesWithTheSharedModel) {
  const ValueMode mode = GetParam();
  const std::vector<std::string> specs = HazardSpecs(60);

  ShardedOptions opts;
  opts.shards = 2;
  opts.index.value_mode = mode;
  ShardedCollection col(opts);
  std::vector<Document> kept;
  for (DocId id = 0; id < specs.size(); ++id) {
    const size_t s = col.ShardOf(id);
    Document doc = MakeDoc(specs[id], col.names(s), col.values(s), id);
    kept.push_back(CloneDocument(doc));
    ASSERT_TRUE(col.Add(std::move(doc)).ok());
  }
  ASSERT_TRUE(col.Seal().ok());

  // Precondition: the corpus really is hazardous. Shard 1 built alone
  // orders y before x, the shared model x before y.
  const CollectionIndex& shard1 = *col.shard(1);
  const PathDict& dict = shard1.dict();
  const PathId a = dict.Resolve("/a", shard1.names());
  const PathId x = dict.Resolve("/a/x", shard1.names());
  const PathId y = dict.Resolve("/a/y", shard1.names());
  ASSERT_NE(x, kInvalidPath);
  ASSERT_NE(y, kInvalidPath);
  ASSERT_NE(a, kInvalidPath);
  EXPECT_GT(shard1.schema().RootProb(x), shard1.schema().RootProb(y));
  {
    CollectionBuilder alone(opts.index);
    for (DocId id = 0; id < specs.size(); ++id) {
      if (ShardOfDoc(id, 2) != 1) continue;
      ASSERT_TRUE(alone
                      .Add(MakeDoc(specs[id], alone.names(), alone.values(),
                                   id))
                      .ok());
    }
    auto own = std::move(alone).Finish();
    ASSERT_TRUE(own.ok());
    const PathId own_x = own->dict().Resolve("/a/x", own->names());
    const PathId own_y = own->dict().Resolve("/a/y", own->names());
    EXPECT_GT(own->schema().RootProb(own_y), own->schema().RootProb(own_x));
  }

  // Every shard's trie holds, for each of its documents, the shared
  // sequencer's encoding of that document.
  size_t checked = 0;
  for (size_t s = 0; s < col.shard_count(); ++s) {
    const CollectionIndex& shard = *col.shard(s);
    const std::map<DocId, Sequence> stored = TrieSequences(shard.index());
    for (const Document& original : kept) {
      if (col.ShardOf(original.id()) != s) continue;
      Document expanded = mode == ValueMode::kCharSequence
                              ? ExpandValueChains(original)
                              : CloneDocument(original);
      const Sequence want = shard.sequencer().Encode(
          expanded, FindPaths(expanded, shard.dict()));
      auto it = stored.find(original.id());
      ASSERT_NE(it, stored.end()) << "doc " << original.id();
      EXPECT_EQ(it->second, want) << "doc " << original.id() << " shard " << s;
      ++checked;
    }
  }
  EXPECT_EQ(checked, specs.size());

  // Answers equal an unsharded index's.
  CollectionIndex unsharded = BuildUnsharded(specs, mode);
  for (const char* q : {"/a[x][y]", "/a[y]/x", "/a/y", "//x", "/a[x='2']/y",
                        "/a[y][z]", "/a[x][z]", "/a/*"}) {
    auto want = unsharded.Query(q);
    auto got = col.Query(q);
    ASSERT_TRUE(want.ok() && got.ok()) << q;
    EXPECT_EQ(got->docs, want->docs) << q;
  }
  auto both = col.Query("/a[x][y]");
  ASSERT_TRUE(both.ok());
  EXPECT_FALSE(both->docs.empty());
}

INSTANTIATE_TEST_SUITE_P(ValueModes, SequencingHazardTest,
                         ::testing::Values(ValueMode::kExact,
                                           ValueMode::kHashed,
                                           ValueMode::kCharSequence));

// ---------------------------------------------------------------------------
// Saves in every value mode.

class SharedLayoutRoundTripTest : public ::testing::TestWithParam<ValueMode> {
};

TEST_P(SharedLayoutRoundTripTest, StaticAndDynamicSavesLoadTheSameAnswers) {
  const ValueMode mode = GetParam();
  const std::vector<std::string> specs = Specs(70);
  CollectionIndex unsharded = BuildUnsharded(specs, mode);
  std::vector<std::vector<DocId>> want;
  for (const std::string& q : Queries()) {
    auto r = unsharded.Query(q);
    ASSERT_TRUE(r.ok()) << q;
    want.push_back(r->docs);
  }
  for (bool dynamic : {false, true}) {
    SCOPED_TRACE(dynamic ? "dynamic" : "static");
    ShardedCollection col = BuildSharded(specs, 3, dynamic, mode);
    EXPECT_EQ(Answers(col, Queries()), want);
    const std::string prefix =
        TempPrefix(std::string("xseq_shared_rt_") + (dynamic ? "d" : "s") +
                   std::to_string(static_cast<int>(mode)));
    ASSERT_TRUE(col.Save(prefix).ok());
    auto loaded = ShardedCollection::Load(prefix);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_FALSE(loaded->options().dynamic);
    EXPECT_EQ(loaded->total_documents(), specs.size());
    EXPECT_EQ(loaded->options().index.value_mode, mode);
    EXPECT_EQ(Answers(*loaded, Queries()), want);
    // The shared sections live in the manifest, once.
    std::string manifest, part;
    ASSERT_TRUE(Env::Default()->ReadFileToString(prefix, &manifest).ok());
    ASSERT_TRUE(Env::Default()
                    ->ReadFileToString(ShardImagePath(prefix, 0), &part)
                    .ok());
    EXPECT_EQ(InspectEncodedIndex(manifest).kind, "manifest");
    const IndexFileReport report = InspectEncodedIndex(part);
    EXPECT_TRUE(report.status.ok()) << report.status.ToString();
    EXPECT_EQ(report.kind, "part");
    EXPECT_EQ(report.sections.size(), 3u);
  }
}

INSTANTIATE_TEST_SUITE_P(ValueModes, SharedLayoutRoundTripTest,
                         ::testing::Values(ValueMode::kExact,
                                           ValueMode::kHashed,
                                           ValueMode::kCharSequence));

// ---------------------------------------------------------------------------
// Every part is bound to its manifest.

TEST(ManifestBindingTest, ForeignPartIsRefused) {
  const std::string a = TempPrefix("xseq_bind_a");
  const std::string b = TempPrefix("xseq_bind_b");
  ASSERT_TRUE(BuildSharded(Specs(300), 2).Save(a).ok());
  ASSERT_TRUE(BuildSharded(Specs(500), 2).Save(b).ok());
  ASSERT_TRUE(ShardedCollection::Load(a).ok());

  // Overwrite A's shard 1 with B's: the set now holds 400 documents under
  // a manifest that says 300, and shard 1 was built over another
  // dictionary.
  std::string foreign;
  Env* env = Env::Default();
  ASSERT_TRUE(env->ReadFileToString(ShardImagePath(b, 1), &foreign).ok());
  ASSERT_TRUE(AtomicWriteFile(env, ShardImagePath(a, 1), foreign).ok());

  auto loaded = ShardedCollection::Load(a);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("another save"), std::string::npos)
      << loaded.status().ToString();

  TopologyManager topo;
  auto reloaded = topo.Reload(a);
  ASSERT_FALSE(reloaded.ok());
  EXPECT_NE(reloaded.status().message().find("shard 1"), std::string::npos)
      << reloaded.status().ToString();
  EXPECT_EQ(topo.Current(), nullptr);
}

TEST(ManifestBindingTest, DocumentCountMustMatchTheParts) {
  const std::string prefix = TempPrefix("xseq_bind_count");
  ShardedCollection col = BuildSharded(Specs(40), 2);
  // A manifest whose count is one short, with parts bound to it: every
  // identity matches, only the count is wrong.
  uint64_t id = 0;
  const std::string manifest = EncodeShardedManifest(
      *col.shard(0)->catalog(), 2, col.total_documents() - 1, &id);
  Env* env = Env::Default();
  for (size_t s = 0; s < 2; ++s) {
    ASSERT_TRUE(AtomicWriteFile(env, ShardImagePath(prefix, s),
                                EncodeIndexPart(*col.shard(s), id))
                    .ok());
  }
  ASSERT_TRUE(AtomicWriteFile(env, prefix, manifest).ok());

  auto loaded = ShardedCollection::Load(prefix);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("documents"), std::string::npos)
      << loaded.status().ToString();
  TopologyManager topo;
  auto reloaded = topo.Reload(prefix);
  ASSERT_FALSE(reloaded.ok());
  EXPECT_NE(reloaded.status().message().find("documents"), std::string::npos)
      << reloaded.status().ToString();

  // With the right count the same parts load.
  const std::string good = EncodeShardedManifest(
      *col.shard(0)->catalog(), 2, col.total_documents(), &id);
  for (size_t s = 0; s < 2; ++s) {
    ASSERT_TRUE(AtomicWriteFile(env, ShardImagePath(prefix, s),
                                EncodeIndexPart(*col.shard(s), id))
                    .ok());
  }
  ASSERT_TRUE(AtomicWriteFile(env, prefix, good).ok());
  EXPECT_TRUE(ShardedCollection::Load(prefix).ok());
  EXPECT_TRUE(topo.Reload(prefix).ok());
}

TEST(ManifestBindingTest, OlderManifestAsksForARebuild) {
  const std::string prefix = TempPrefix("xseq_bind_old");
  // The version-1 manifest: magic, version byte, shard count, document
  // count, checksum.
  std::string old("XSEQSHRD", 8);
  old.push_back(1);
  PutFixed32(&old, 2);
  PutFixed64(&old, 40);
  PutFixed64(&old, 0);
  ASSERT_TRUE(AtomicWriteFile(Env::Default(), prefix, old).ok());
  auto loaded = ShardedCollection::Load(prefix);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("rebuild"), std::string::npos)
      << loaded.status().ToString();
}

}  // namespace
}  // namespace xseq
