// Result-cache invalidation under mutation: a QueryService with a
// ResultCache over a DynamicIndex, interleaving adds/flushes/compactions
// with repeated cached queries. After EVERY mutation the served answer is
// compared against a direct, uncached query of the same backend (the
// oracle) — a stale cached answer is a correctness bug, not a performance
// bug. Between mutations, repeats must actually hit the cache.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/core/dynamic_index.h"
#include "src/server/query_service.h"
#include "src/server/result_cache.h"
#include "src/server/sharded_collection.h"
#include "tests/test_util.h"

namespace xseq {
namespace {

using testing::MakeDoc;

TEST(CacheInvalidation, MutationsAreNeverMaskedByCachedAnswers) {
  DynamicOptions dopts;
  dopts.flush_threshold = 3;
  auto dyn = std::make_shared<DynamicIndex>(dopts);

  ResultCache cache;
  ServiceOptions sopts;
  sopts.workers = 2;
  sopts.result_cache = &cache;
  sopts.generation = [dyn] { return dyn->generation(); };
  QueryService service(
      [dyn](std::string_view xpath, const ExecOptions& opts) {
        auto r = dyn->Query(xpath, opts);
        if (!r.ok()) return StatusOr<QueryResult>(r.status());
        QueryResult out;
        out.docs = std::move(*r);
        return StatusOr<QueryResult>(std::move(out));
      },
      sopts);

  const std::vector<std::string> queries = {
      "/P/R/L[.='x']", "//L", "/P/R/L[.='y']"};
  auto check_all = [&](const char* when) {
    for (const std::string& q : queries) {
      auto served = service.Execute(q);
      ASSERT_TRUE(served.ok()) << when << " " << q;
      auto oracle = dyn->Query(q);
      ASSERT_TRUE(oracle.ok()) << when << " " << q;
      EXPECT_EQ(served->docs, *oracle) << when << " " << q;
    }
  };

  uint64_t hits_before_mutations = 0;
  check_all("empty");
  for (DocId d = 0; d < 20; ++d) {
    const char* spec = (d % 2 == 0) ? "P(R(L('x')))" : "P(R(L('y')))";
    ASSERT_TRUE(
        dyn->Add(MakeDoc(spec, dyn->names(), dyn->values(), d)).ok());
    // Oracle after EVERY mutation: the add bumped the generation, so the
    // serving path must recompute, never replay the pre-add answer.
    check_all("after add");
    // A repeat without an intervening mutation must be served from cache
    // and still match the oracle.
    check_all("repeat");
    if (d % 5 == 4) {
      ASSERT_TRUE(dyn->Flush().ok());
      check_all("after flush");
    }
    if (d % 4 == 3) {
      // Prime the cache, delete a doc the cached answers contain, then
      // verify the pre-delete answer is never replayed.
      check_all("prime before delete");
      ASSERT_TRUE(dyn->Delete(d - 1).ok());
      auto served = service.Execute("//L");
      ASSERT_TRUE(served.ok());
      for (DocId got : served->docs) {
        EXPECT_NE(got, d - 1) << "cached pre-delete answer served";
      }
      check_all("after delete");
      check_all("repeat after delete");
    }
    if (d % 7 == 6) {
      // An update must invalidate both the old and the new value's cached
      // answers in one generation step.
      check_all("prime before update");
      ASSERT_TRUE(dyn->Update(MakeDoc("P(R(L('y')))", dyn->names(),
                                      dyn->values(), d),
                              d)
                      .ok());
      auto as_x = service.Execute("/P/R/L[.='x']");
      ASSERT_TRUE(as_x.ok());
      for (DocId got : as_x->docs) {
        EXPECT_NE(got, d) << "cached pre-update answer served";
      }
      auto as_y = service.Execute("/P/R/L[.='y']");
      ASSERT_TRUE(as_y.ok());
      EXPECT_NE(std::find(as_y->docs.begin(), as_y->docs.end(), d),
                as_y->docs.end())
          << "update invisible through the cache";
      check_all("after update");
    }
  }
  hits_before_mutations = cache.GetStats().hits;
  EXPECT_GT(hits_before_mutations, 0u)
      << "repeats between mutations never hit the cache";

  ASSERT_TRUE(dyn->Compact().ok());
  check_all("after compact");

  // Steady state: no more mutations, so every repeat after the first is a
  // hit and the hit carries the result_cache_hits marker.
  for (int i = 0; i < 3; ++i) check_all("steady");
  auto marked = service.Execute(queries[0]);
  ASSERT_TRUE(marked.ok());
  EXPECT_EQ(marked->stats.result_cache_hits, 1u);
  EXPECT_GT(cache.GetStats().hits, hits_before_mutations);
}

TEST(CacheInvalidation, DynamicGenerationBumpsOnEveryMutation) {
  DynamicOptions opts;
  opts.flush_threshold = 100;
  DynamicIndex dyn(opts);
  uint64_t g = dyn.generation();
  ASSERT_TRUE(
      dyn.Add(MakeDoc("P(R)", dyn.names(), dyn.values(), 0)).ok());
  EXPECT_GT(dyn.generation(), g);
  g = dyn.generation();
  ASSERT_TRUE(dyn.Flush().ok());
  EXPECT_GT(dyn.generation(), g);
  g = dyn.generation();
  ASSERT_TRUE(dyn.Compact().ok());
  EXPECT_GT(dyn.generation(), g);
  g = dyn.generation();
  // An empty flush re-sequences nothing: bumping anyway is allowed
  // (conservative), but the counter must never go backwards.
  ASSERT_TRUE(dyn.Flush().ok());
  EXPECT_GE(dyn.generation(), g);
  // Delete and Update each bump exactly like Add — including a delete of
  // an id that does not exist (the cache cannot tell the difference).
  g = dyn.generation();
  ASSERT_TRUE(dyn.Delete(0).ok());
  EXPECT_GT(dyn.generation(), g);
  g = dyn.generation();
  ASSERT_TRUE(
      dyn.Update(MakeDoc("P(R)", dyn.names(), dyn.values(), 1), 1).ok());
  EXPECT_GT(dyn.generation(), g);
  g = dyn.generation();
  ASSERT_TRUE(dyn.Delete(999).ok());  // no such id
  EXPECT_GT(dyn.generation(), g);
}

TEST(CacheInvalidation, ShardedGenerationCoversEveryShard) {
  ShardedOptions opts;
  opts.shards = 3;
  opts.dynamic = true;
  opts.threads = 1;
  ShardedCollection col(opts);
  uint64_t g = col.generation();
  for (DocId d = 0; d < 9; ++d) {
    size_t shard = col.ShardOf(d);
    Document doc = MakeDoc("P(R(L('v')))", col.names(shard),
                           col.values(shard), d);
    ASSERT_TRUE(col.Add(std::move(doc)).ok());
    EXPECT_GT(col.generation(), g) << "doc " << d << " shard " << shard;
    g = col.generation();
  }
  // Delete and Update bump the collection-wide generation from any shard.
  ASSERT_TRUE(col.Delete(4).ok());
  EXPECT_GT(col.generation(), g);
  g = col.generation();
  size_t shard5 = col.ShardOf(5);
  ASSERT_TRUE(col.Update(MakeDoc("P(R(L('w')))", col.names(shard5),
                                 col.values(shard5), 5),
                         5)
                  .ok());
  EXPECT_GT(col.generation(), g);
  g = col.generation();
  ASSERT_TRUE(col.Seal().ok());
  EXPECT_GE(col.generation(), g);

  // Static backend: 0 while open, 1 once sealed.
  ShardedOptions sopts;
  sopts.shards = 2;
  ShardedCollection stat(sopts);
  EXPECT_EQ(stat.generation(), 0u);
  for (DocId d = 0; d < 4; ++d) {
    size_t shard = stat.ShardOf(d);
    ASSERT_TRUE(stat.Add(MakeDoc("P(R)", stat.names(shard),
                                 stat.values(shard), d))
                    .ok());
  }
  EXPECT_EQ(stat.generation(), 0u);
  ASSERT_TRUE(stat.Seal().ok());
  EXPECT_EQ(stat.generation(), 1u);
}

TEST(CacheInvalidation, ShardedMutationsAreNeverMaskedByCachedAnswers) {
  auto col = std::make_shared<ShardedCollection>([] {
    ShardedOptions opts;
    opts.shards = 3;
    opts.dynamic = true;
    opts.flush_threshold = 2;
    opts.threads = 1;
    return opts;
  }());

  ResultCache cache;
  ServiceOptions sopts;
  sopts.workers = 2;
  sopts.result_cache = &cache;
  sopts.generation = [col] { return col->generation(); };
  QueryService service(
      [col](std::string_view xpath, const ExecOptions& opts) {
        return col->Query(xpath, opts);
      },
      sopts);

  const std::vector<std::string> queries = {"//L", "/P/R/L[.='x']",
                                            "/P/R/L[. < 50]"};
  auto check_all = [&](const char* when) {
    for (const std::string& q : queries) {
      auto served = service.Execute(q);
      ASSERT_TRUE(served.ok()) << when << " " << q << ": "
                               << served.status().ToString();
      auto oracle = col->Query(q);
      ASSERT_TRUE(oracle.ok()) << when << " " << q;
      EXPECT_EQ(served->docs, oracle->docs) << when << " " << q;
    }
  };

  for (DocId d = 0; d < 12; ++d) {
    size_t shard = col->ShardOf(d);
    const std::string spec =
        (d % 2 == 0) ? "P(R(L('x')))" : "P(R(L('" + std::to_string(d) + "')))";
    ASSERT_TRUE(col->Add(MakeDoc(spec, col->names(shard),
                                 col->values(shard), d))
                    .ok());
    check_all("after add");
    check_all("repeat");
  }
  EXPECT_GT(cache.GetStats().hits, 0u);

  // Delete through one shard: the collection-wide generation bump must
  // invalidate cached answers that span all shards.
  check_all("prime");
  ASSERT_TRUE(col->Delete(6).ok());
  auto served = service.Execute("//L");
  ASSERT_TRUE(served.ok());
  for (DocId got : served->docs) {
    EXPECT_NE(got, 6u) << "cached pre-delete answer served";
  }
  check_all("after delete");

  size_t shard3 = col->ShardOf(3);
  ASSERT_TRUE(col->Update(MakeDoc("P(R(L('7')))", col->names(shard3),
                                  col->values(shard3), 3),
                          3)
                  .ok());
  auto range = service.Execute("/P/R/L[. < 50]");
  ASSERT_TRUE(range.ok());
  EXPECT_NE(std::find(range->docs.begin(), range->docs.end(), 3u),
            range->docs.end())
      << "update invisible through the cache";
  check_all("after update");

  ASSERT_TRUE(col->Compact().ok());
  check_all("after compact");
}

}  // namespace
}  // namespace xseq
