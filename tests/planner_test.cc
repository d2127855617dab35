// Planner and cache tests: selectivity pruning must be exact (and actually
// fire when the dictionary holds observed-but-never-indexed paths), the
// ordering predictor must saturate, and the plan/result caches must key,
// hit, evict and isolate correctly.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/query/plan_cache.h"
#include "src/query/planner.h"
#include "src/server/result_cache.h"
#include "tests/test_util.h"

namespace xseq {
namespace {

using testing::MakeDoc;
using testing::MakeIndex;

// --- Instantiation pruning -----------------------------------------------

// Two-pass streaming lets Observe() see a broader corpus than Index() (the
// schema pass may cover documents later filtered out), so the dictionary
// can hold paths with zero occurrences in the trie. Instantiating '//' or
// '*' must prune those paths (their empty links cannot match) without
// changing the answer.
TEST(Planner, PruningOnObservedOnlyPathsIsExactAndCounted) {
  IndexOptions opts;
  opts.keep_documents = true;
  CollectionBuilder builder(opts);
  DocId id = 0;
  for (int i = 0; i < 4; ++i) {
    Document doc =
        MakeDoc("P(R(B('x')))", builder.names(), builder.values(), id++);
    ASSERT_TRUE(builder.Add(std::move(doc)).ok());
  }
  // Observed but never indexed: interns P/R/C and its value path into the
  // dictionary and schema, while the trie never sees them.
  for (int i = 0; i < 4; ++i) {
    Document doc =
        MakeDoc("P(R(C('y')))", builder.names(), builder.values(), id++);
    ASSERT_TRUE(builder.Observe(doc).ok());
  }
  auto finished = std::move(builder).Finish();
  ASSERT_TRUE(finished.ok());
  CollectionIndex idx = std::move(*finished);

  ExecOptions planned;  // defaults: selectivity pruning on
  ExecOptions unplanned;
  unplanned.plan.selectivity = false;

  // '*' under P/R instantiates to both B and C from the dictionary; C's
  // link is empty, so the planner must cut that candidate and still return
  // every B document.
  auto star = ParseXPath("/P/R/*");
  ASSERT_TRUE(star.ok());
  ExecStats planned_stats, unplanned_stats;
  auto with = idx.executor().ExecutePattern(*star, &planned_stats, planned);
  auto without =
      idx.executor().ExecutePattern(*star, &unplanned_stats, unplanned);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(*with, *without);
  EXPECT_EQ(*with, (std::vector<DocId>{0, 1, 2, 3}));
  EXPECT_GT(planned_stats.pruned_instantiations, 0u);
  EXPECT_EQ(unplanned_stats.pruned_instantiations, 0u);
  EXPECT_LE(planned_stats.match.link_entries_read,
            unplanned_stats.match.link_entries_read);

  // A descendant probe for the observed-only path prunes it outright; both
  // plans agree the answer is empty.
  auto dead = ParseXPath("//C[.='y']");
  ASSERT_TRUE(dead.ok());
  ExecStats dead_stats;
  auto with_dead = idx.executor().ExecutePattern(*dead, &dead_stats, planned);
  auto without_dead =
      idx.executor().ExecutePattern(*dead, nullptr, unplanned);
  ASSERT_TRUE(with_dead.ok());
  ASSERT_TRUE(without_dead.ok());
  EXPECT_EQ(*with_dead, *without_dead);
  EXPECT_TRUE(with_dead->empty());
  EXPECT_GT(dead_stats.pruned_instantiations, 0u);
}

// --- Selectivity ordering ------------------------------------------------

TEST(Planner, CompiledSequencesAreOrderedMostSelectiveFirst) {
  // P/S/L occurs once, P/R/L five times: the '*' instantiation compiles to
  // two sequences and the planner must put the rare one first.
  std::vector<std::string> specs;
  for (int i = 0; i < 5; ++i) specs.push_back("P(R(L('v')))");
  specs.push_back("P(S(L('v')))");
  CollectionIndex idx = MakeIndex(specs);

  auto pattern = ParseXPath("/P/*/L");
  ASSERT_TRUE(pattern.ok());
  auto compiled = idx.executor().Compile(*pattern);
  ASSERT_TRUE(compiled.ok());
  ASSERT_EQ(compiled->size(), 2u);

  QueryPlanner planner(&idx.index());
  uint64_t prev = 0;
  for (size_t i = 0; i < compiled->size(); ++i) {
    uint64_t min_card = planner.Selectivity((*compiled)[i]).min_cardinality;
    EXPECT_GT(min_card, 0u);  // zero-anchor sequences must have been dropped
    if (i > 0) {
      EXPECT_GE(min_card, prev);
    }
    prev = min_card;
  }

  // Ordering is unobservable in results: both plans answer identically.
  ExecOptions unplanned;
  unplanned.plan.selectivity = false;
  auto a = idx.executor().ExecutePattern(*pattern);
  auto b = idx.executor().ExecutePattern(*pattern, nullptr, unplanned);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(a->size(), 6u);
}

// --- Ordering prediction -----------------------------------------------

TEST(Planner, PredictedOrderingsSaturatesAtCap) {
  // 12 identical siblings would be 12! orderings; the predictor must clamp
  // at the cap instead of overflowing.
  std::string spec = "P(R(";
  for (int i = 0; i < 12; ++i) spec += "A('v" + std::to_string(i) + "'),";
  spec += "))";
  CollectionIndex idx = MakeIndex({spec});
  std::string query = "/P/R";
  for (int i = 0; i < 12; ++i) query += "[A='v" + std::to_string(i) + "']";
  auto pattern = ParseXPath(query);
  ASSERT_TRUE(pattern.ok());
  auto inst = InstantiatePattern(*pattern, idx.dict(), idx.names(),
                                 idx.values());
  ASSERT_TRUE(inst.ok());
  ASSERT_FALSE(inst->queries.empty());
  EXPECT_EQ(QueryPlanner::PredictedOrderings(inst->queries[0], 1000), 1000u);
}

// --- Plan cache ----------------------------------------------------------

std::shared_ptr<const CompiledQuery> TinyPlan() {
  auto plan = std::make_shared<CompiledQuery>();
  plan->instantiations = 1;
  return plan;
}

TEST(PlanCacheTest, LruEvictionRespectsEntryBudget) {
  PlanCacheOptions opts;
  opts.shards = 1;
  opts.max_entries = 4;
  PlanCache cache(opts);
  for (int i = 0; i < 8; ++i) {
    std::string key = "q";
    key += std::to_string(i);
    cache.Insert(1, key, TinyPlan());
  }
  PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.insertions, 8u);
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_EQ(stats.evictions, 4u);
  EXPECT_EQ(cache.Lookup(1, "q0"), nullptr);  // oldest: evicted
  EXPECT_NE(cache.Lookup(1, "q7"), nullptr);  // newest: resident
}

TEST(PlanCacheTest, LookupRefreshesLruPosition) {
  PlanCacheOptions opts;
  opts.shards = 1;
  opts.max_entries = 2;
  PlanCache cache(opts);
  cache.Insert(1, "a", TinyPlan());
  cache.Insert(1, "b", TinyPlan());
  ASSERT_NE(cache.Lookup(1, "a"), nullptr);  // refresh "a"
  cache.Insert(1, "c", TinyPlan());          // must evict "b", not "a"
  EXPECT_NE(cache.Lookup(1, "a"), nullptr);
  EXPECT_EQ(cache.Lookup(1, "b"), nullptr);
}

TEST(PlanCacheTest, IndexIdentityIsolatesEntries) {
  PlanCache cache;
  cache.Insert(1, "q", TinyPlan());
  EXPECT_NE(cache.Lookup(1, "q"), nullptr);
  EXPECT_EQ(cache.Lookup(2, "q"), nullptr);
  // Id 0 is the unfrozen sentinel: never cached, never found.
  cache.Insert(0, "q", TinyPlan());
  EXPECT_EQ(cache.Lookup(0, "q"), nullptr);
}

TEST(PlanCacheTest, ClearDropsEverything) {
  PlanCache cache;
  cache.Insert(1, "q", TinyPlan());
  cache.Clear();
  EXPECT_EQ(cache.Lookup(1, "q"), nullptr);
  EXPECT_EQ(cache.GetStats().entries, 0u);
  EXPECT_EQ(cache.GetStats().bytes, 0u);
}

// Compile knobs are part of the executor's cache key: the same query text
// under different planning knobs must not share an entry.
TEST(PlanCacheTest, ExecutorKeysOnCompileKnobs) {
  CollectionIndex idx = MakeIndex({"P(R(L('x')))", "P(R(L('y')))"});
  PlanCache cache;
  const std::string query = "/P/R/L[.='x']";
  auto pattern = ParseXPath(query);
  ASSERT_TRUE(pattern.ok());

  ExecOptions a;
  a.plan.cache = &cache;
  a.plan.cache_key = query;
  ExecStats s1, s2;
  ASSERT_TRUE(idx.executor().ExecutePattern(*pattern, &s1, a).ok());
  ASSERT_TRUE(idx.executor().ExecutePattern(*pattern, &s2, a).ok());
  EXPECT_EQ(s1.plan_cache_hits, 0u);
  EXPECT_EQ(s2.plan_cache_hits, 1u);

  ExecOptions b = a;
  b.isomorph.max_orderings = 7;  // different knob -> different entry
  ExecStats s3, s4;
  ASSERT_TRUE(idx.executor().ExecutePattern(*pattern, &s3, b).ok());
  ASSERT_TRUE(idx.executor().ExecutePattern(*pattern, &s4, b).ok());
  EXPECT_EQ(s3.plan_cache_hits, 0u);
  EXPECT_EQ(s4.plan_cache_hits, 1u);
}

// A cache hit must replay the exact answer and compile counters of the
// cold run — through the public Query path (which keys by query text).
TEST(PlanCacheTest, HitReplaysIdenticalResultsAndStats) {
  CollectionIndex idx =
      MakeIndex({"P(R(A('x'),A('y')))", "P(R(A('y'),A('x')))"});
  PlanCache cache;
  ExecOptions opts;
  opts.plan.cache = &cache;
  const std::string query = "/P/R[A='x'][A='y']";
  auto pattern = ParseXPath(query);
  ASSERT_TRUE(pattern.ok());
  opts.plan.cache_key = query;

  ExecStats cold, warm;
  auto r1 = idx.executor().ExecutePattern(*pattern, &cold, opts);
  auto r2 = idx.executor().ExecutePattern(*pattern, &warm, opts);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r1, *r2);
  EXPECT_EQ(warm.plan_cache_hits, 1u);
  EXPECT_EQ(warm.instantiations, cold.instantiations);
  EXPECT_EQ(warm.orderings, cold.orderings);
  EXPECT_EQ(warm.matched_sequences, cold.matched_sequences);
  EXPECT_EQ(warm.truncated, cold.truncated);
  EXPECT_EQ(warm.match.link_entries_read, cold.match.link_entries_read);
}

// --- Result cache --------------------------------------------------------

QueryResult SmallResult(std::vector<DocId> docs) {
  QueryResult r;
  r.docs = std::move(docs);
  r.stats.result_docs = r.docs.size();
  return r;
}

TEST(ResultCacheTest, GenerationIsPartOfTheKey) {
  ResultCache cache;
  cache.Insert(3, "q", SmallResult({1, 2}));
  auto hit = cache.Lookup(3, "q");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->docs, (std::vector<DocId>{1, 2}));
  // Any other generation — older or newer — misses: a mutation bumping the
  // generation makes every cached answer unreachable at once.
  EXPECT_EQ(cache.Lookup(2, "q"), nullptr);
  EXPECT_EQ(cache.Lookup(4, "q"), nullptr);
  EXPECT_EQ(cache.Lookup(3, "other"), nullptr);
}

TEST(ResultCacheTest, EvictsPastBudgetAndCountsStats) {
  ResultCacheOptions opts;
  opts.shards = 1;
  opts.max_entries = 3;
  ResultCache cache(opts);
  for (int i = 0; i < 6; ++i) {
    std::string key = "q";
    key += std::to_string(i);
    cache.Insert(1, key, SmallResult({DocId(i)}));
  }
  ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.insertions, 6u);
  EXPECT_EQ(stats.evictions, 3u);
  EXPECT_EQ(cache.Lookup(1, "q0"), nullptr);
  EXPECT_NE(cache.Lookup(1, "q5"), nullptr);
}

TEST(ResultCacheTest, OversizedAnswersAreNotCached) {
  ResultCacheOptions opts;
  opts.shards = 1;
  opts.max_entry_bytes = 64;  // a few DocIds at most
  ResultCache cache(opts);
  cache.Insert(1, "big", SmallResult(std::vector<DocId>(10000, 7)));
  EXPECT_EQ(cache.Lookup(1, "big"), nullptr);
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

}  // namespace
}  // namespace xseq
