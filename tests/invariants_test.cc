// Structural invariants of the frozen index, checked over randomized
// corpora — the properties the matcher's correctness proof leans on.

#include <gtest/gtest.h>

#include <set>

#include "src/core/collection_index.h"
#include "src/gen/querygen.h"
#include "src/gen/synthetic.h"
#include "src/gen/xmark.h"
#include "tests/test_util.h"

namespace xseq {
namespace {

class IndexInvariants : public ::testing::TestWithParam<int> {
 protected:
  CollectionIndex Build() {
    SyntheticParams params;
    params.identical_percent = GetParam();
    params.seed = 500 + static_cast<uint64_t>(GetParam());
    IndexOptions opts;
    CollectionBuilder builder(opts);
    SyntheticDataset gen(params, builder.names(), builder.values());
    for (DocId d = 0; d < 300; ++d) {
      Status st = builder.Add(gen.Generate(d));
      EXPECT_TRUE(st.ok());
    }
    auto idx = std::move(builder).Finish();
    EXPECT_TRUE(idx.ok());
    return std::move(*idx);
  }
};

TEST_P(IndexInvariants, RangesAreLaminarAndComplete) {
  CollectionIndex idx = Build();
  const FrozenIndex& fi = idx.index();
  uint32_t n = static_cast<uint32_t>(fi.node_count());
  // Every end within bounds and >= serial; children nest via a stack scan.
  std::vector<uint32_t> stack;
  for (uint32_t s = 0; s < n; ++s) {
    ASSERT_GE(fi.end(s), s);
    ASSERT_LT(fi.end(s), n);
    while (!stack.empty() && fi.end(stack.back()) < s) stack.pop_back();
    if (!stack.empty()) {
      // s lies inside the open ancestor's range entirely.
      ASSERT_LE(fi.end(s), fi.end(stack.back()));
    }
    stack.push_back(s);
  }
}

TEST_P(IndexInvariants, LinksPartitionTheNodes) {
  CollectionIndex idx = Build();
  const FrozenIndex& fi = idx.index();
  uint64_t total = 0;
  for (PathId p = 0; p < idx.dict().size(); ++p) {
    auto link = fi.Link(p);
    total += link.size();
    for (size_t i = 0; i < link.size(); ++i) {
      ASSERT_EQ(fi.path(link[i].serial), p);
      ASSERT_EQ(fi.end(link[i].serial), link[i].end);
      if (i > 0) {
        ASSERT_LT(link[i - 1].serial, link[i].serial);
      }
    }
  }
  EXPECT_EQ(total, fi.node_count());
}

TEST_P(IndexInvariants, NestedFlagExactlyWhenContainmentExists) {
  CollectionIndex idx = Build();
  const FrozenIndex& fi = idx.index();
  for (PathId p = 0; p < idx.dict().size(); ++p) {
    auto link = fi.Link(p);
    bool contained = false;
    uint32_t max_end = 0;
    bool seen = false;
    for (const FrozenIndex::LinkEntry& e : link) {
      if (seen && e.serial <= max_end) contained = true;
      max_end = seen ? std::max(max_end, e.end) : e.end;
      seen = true;
    }
    EXPECT_EQ(fi.HasNested(p), contained) << p;
  }
}

TEST_P(IndexInvariants, EveryDocumentReachableFromRootSubtrees) {
  CollectionIndex idx = Build();
  const FrozenIndex& fi = idx.index();
  std::set<DocId> all;
  uint32_t s = 0;
  while (s < fi.node_count()) {
    // Top-level subtrees partition the serial space.
    auto docs = fi.DocsInSubtree(s);
    all.insert(docs.begin(), docs.end());
    s = fi.end(s) + 1;
  }
  EXPECT_EQ(all.size(), idx.Stats().documents);
  EXPECT_EQ(fi.total_docs(), idx.Stats().documents);
}

TEST_P(IndexInvariants, DocOffsetsMonotone) {
  CollectionIndex idx = Build();
  const FrozenIndex& fi = idx.index();
  for (uint32_t s = 0; s < fi.node_count(); ++s) {
    auto [lo, hi] = fi.DocOffsetsInSubtree(s);
    ASSERT_LE(lo, hi);
    ASSERT_LE(hi, fi.total_docs());
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, IndexInvariants,
                         ::testing::Values(0, 25, 60, 100),
                         [](const ::testing::TestParamInfo<int>& info) {
                           std::string name = "I";
                           name += std::to_string(info.param);
                           return name;
                         });

TEST(HashedMode, IsAlwaysASupersetOfExact) {
  SyntheticParams params;
  params.identical_percent = 20;
  params.value_vocab = 40;
  params.seed = 909;

  auto build = [&](ValueMode mode, uint32_t range) {
    IndexOptions opts;
    opts.value_mode = mode;
    opts.hash_range = range;
    CollectionBuilder builder(opts);
    SyntheticDataset gen(params, builder.names(), builder.values());
    for (DocId d = 0; d < 200; ++d) {
      Status st = builder.Add(gen.Generate(d));
      EXPECT_TRUE(st.ok());
    }
    auto idx = std::move(builder).Finish();
    EXPECT_TRUE(idx.ok());
    return std::move(*idx);
  };
  CollectionIndex exact = build(ValueMode::kExact, 0);
  CollectionIndex hashed = build(ValueMode::kHashed, 16);  // many collisions

  NameTable names;
  ValueEncoder values;
  SyntheticDataset gen(params, &names, &values);
  Rng rng(11, 19);
  uint64_t overshoot = 0;
  for (int q = 0; q < 40; ++q) {
    Document sample = gen.Generate(rng.Uniform(200));
    QueryPattern pattern =
        SampleQueryPattern(sample, names, 2 + rng.Uniform(5), &rng, 0.6);
    auto re = exact.executor().ExecutePattern(pattern);
    auto rh = hashed.executor().ExecutePattern(pattern);
    ASSERT_TRUE(re.ok());
    ASSERT_TRUE(rh.ok());
    EXPECT_TRUE(std::includes(rh->begin(), rh->end(), re->begin(),
                              re->end()))
        << pattern.source;
    overshoot += rh->size() - re->size();
  }
  // With a 16-slot hash, collisions must actually occur somewhere.
  EXPECT_GT(overshoot, 0u);
}

TEST(XMarkInvariants, IndexedCollectionAnswersCrossKindQueries) {
  XMarkParams params;
  IndexOptions opts;
  CollectionBuilder builder(opts);
  XMarkGenerator gen(params, builder.names(), builder.values());
  for (DocId d = 0; d < 400; ++d) {
    ASSERT_TRUE(builder.Observe(gen.Generate(d)).ok());
  }
  ASSERT_TRUE(builder.BeginIndexing().ok());
  for (DocId d = 0; d < 400; ++d) {
    ASSERT_TRUE(builder.Index(gen.Generate(d)).ok());
  }
  auto idx = std::move(builder).Finish();
  ASSERT_TRUE(idx.ok());

  // Each record-kind query must return only ids of that kind (mod 4).
  struct KindQuery {
    const char* xpath;
    DocId mod;
  };
  for (const KindQuery& kq :
       {KindQuery{"/site/regions", 0}, KindQuery{"//people/person", 1},
        KindQuery{"//open_auction", 2}, KindQuery{"//closed_auction", 3}}) {
    auto r = idx->Query(kq.xpath);
    ASSERT_TRUE(r.ok()) << kq.xpath;
    EXPECT_EQ(r->docs.size(), 100u) << kq.xpath;
    for (DocId d : r->docs) EXPECT_EQ(d % 4, kq.mod) << kq.xpath;
  }
}

}  // namespace
}  // namespace xseq
