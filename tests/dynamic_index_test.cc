// Tests for the dynamic (segmented) index: insert-after-build semantics
// must match a one-shot CollectionIndex exactly.

#include <gtest/gtest.h>

#include "src/core/dynamic_index.h"
#include "src/gen/querygen.h"
#include "src/gen/synthetic.h"
#include "tests/test_util.h"

namespace xseq {
namespace {

TEST(DynamicIndex, BufferOnlyAnswersQueries) {
  DynamicOptions opts;
  opts.flush_threshold = 100;  // nothing seals
  DynamicIndex dyn(opts);
  Document a = testing::MakeDoc("P(R(L('x')))", dyn.names(), dyn.values(),
                                0);
  Document b = testing::MakeDoc("P(D)", dyn.names(), dyn.values(), 1);
  ASSERT_TRUE(dyn.Add(std::move(a)).ok());
  ASSERT_TRUE(dyn.Add(std::move(b)).ok());
  EXPECT_EQ(dyn.segment_count(), 0u);
  EXPECT_EQ(dyn.buffered_documents(), 2u);
  auto r = dyn.Query("/P/R/L[.='x']");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<DocId>{0}));
}

TEST(DynamicIndex, AutoFlushSealsSegments) {
  DynamicOptions opts;
  opts.flush_threshold = 3;
  DynamicIndex dyn(opts);
  for (DocId d = 0; d < 7; ++d) {
    Document doc = testing::MakeDoc("P(R(L('v" + std::to_string(d % 2) +
                                        "')))",
                                    dyn.names(), dyn.values(), d);
    ASSERT_TRUE(dyn.Add(std::move(doc)).ok());
  }
  EXPECT_EQ(dyn.segment_count(), 2u);
  EXPECT_EQ(dyn.buffered_documents(), 1u);
  EXPECT_EQ(dyn.total_documents(), 7u);
  auto r = dyn.Query("/P/R/L[.='v0']");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<DocId>{0, 2, 4, 6}));
}

TEST(DynamicIndex, MatchesOneShotIndexOnRandomWorkload) {
  SyntheticParams params;
  params.identical_percent = 30;
  params.value_vocab = 8;
  params.seed = 606;
  constexpr DocId kDocs = 250;

  // One-shot reference.
  IndexOptions ref_opts;
  CollectionBuilder ref_builder(ref_opts);
  SyntheticDataset ref_gen(params, ref_builder.names(),
                           ref_builder.values());
  for (DocId d = 0; d < kDocs; ++d) {
    ASSERT_TRUE(ref_builder.Add(ref_gen.Generate(d)).ok());
  }
  auto ref = std::move(ref_builder).Finish();
  ASSERT_TRUE(ref.ok());

  // Dynamic build in several segments + a live buffer.
  DynamicOptions dyn_opts;
  dyn_opts.flush_threshold = 64;
  DynamicIndex dyn(dyn_opts);
  SyntheticDataset dyn_gen(params, dyn.names(), dyn.values());
  for (DocId d = 0; d < kDocs; ++d) {
    ASSERT_TRUE(dyn.Add(dyn_gen.Generate(d)).ok());
  }
  EXPECT_GE(dyn.segment_count(), 3u);
  EXPECT_GT(dyn.buffered_documents(), 0u);

  NameTable names;
  ValueEncoder values;
  SyntheticDataset sampler(params, &names, &values);
  Rng rng(44, 9);
  for (int q = 0; q < 40; ++q) {
    Document sample = sampler.Generate(rng.Uniform(kDocs));
    QueryPattern pattern =
        SampleQueryPattern(sample, names, 2 + rng.Uniform(5), &rng, 0.4);
    auto a = ref->executor().ExecutePattern(pattern);
    auto b = dyn.ExecutePattern(pattern);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok()) << pattern.source;
    EXPECT_EQ(*a, *b) << pattern.source;
  }
}

TEST(DynamicIndex, CompactPreservesAnswersAndImprovesSharing) {
  SyntheticParams params;
  params.seed = 321;
  DynamicOptions opts;
  opts.flush_threshold = 40;
  DynamicIndex dyn(opts);
  SyntheticDataset gen(params, dyn.names(), dyn.values());
  for (DocId d = 0; d < 200; ++d) {
    ASSERT_TRUE(dyn.Add(gen.Generate(d)).ok());
  }
  ASSERT_GE(dyn.segment_count(), 4u);
  uint64_t fragmented_nodes = dyn.TotalIndexNodes();

  NameTable names;
  ValueEncoder values;
  SyntheticDataset sampler(params, &names, &values);
  Rng rng(17, 21);
  std::vector<QueryPattern> patterns;
  std::vector<std::vector<DocId>> expected;
  for (int q = 0; q < 20; ++q) {
    Document sample = sampler.Generate(rng.Uniform(200));
    patterns.push_back(
        SampleQueryPattern(sample, names, 2 + rng.Uniform(4), &rng, 0.3));
    auto r = dyn.ExecutePattern(patterns.back());
    ASSERT_TRUE(r.ok());
    expected.push_back(*r);
  }

  ASSERT_TRUE(dyn.Compact().ok());
  EXPECT_EQ(dyn.segment_count(), 1u);
  EXPECT_EQ(dyn.buffered_documents(), 0u);
  EXPECT_EQ(dyn.total_documents(), 200u);
  // One big trie shares at least as well as many small ones.
  EXPECT_LE(dyn.TotalIndexNodes(), fragmented_nodes);

  for (size_t i = 0; i < patterns.size(); ++i) {
    auto r = dyn.ExecutePattern(patterns[i]);
    ASSERT_TRUE(r.ok()) << patterns[i].source;
    EXPECT_EQ(*r, expected[i]) << patterns[i].source;
  }
}

TEST(DynamicIndex, FlushIdempotentAndEmptyOk) {
  DynamicIndex dyn;
  EXPECT_TRUE(dyn.Flush().ok());
  EXPECT_EQ(dyn.segment_count(), 0u);
  Document doc = testing::MakeDoc("P", dyn.names(), dyn.values(), 0);
  ASSERT_TRUE(dyn.Add(std::move(doc)).ok());
  EXPECT_TRUE(dyn.Flush().ok());
  EXPECT_TRUE(dyn.Flush().ok());
  EXPECT_EQ(dyn.segment_count(), 1u);
  auto r = dyn.Query("/P");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 1u);
}

TEST(DynamicIndex, RejectsEmptyDocument) {
  DynamicIndex dyn;
  Document empty(0);
  EXPECT_TRUE(dyn.Add(std::move(empty)).IsInvalidArgument());
}

TEST(DynamicIndex, ChainModeBufferAndSegmentsAgree) {
  DynamicOptions opts;
  opts.index.value_mode = ValueMode::kCharSequence;
  opts.flush_threshold = 2;
  DynamicIndex dyn(opts);
  DocId id = 0;
  for (const char* spec :
       {"P(L('boston'))", "P(L('boxford'))", "P(L('newyork'))"}) {
    Document doc = testing::MakeDoc(spec, dyn.names(), dyn.values(), id++);
    ASSERT_TRUE(dyn.Add(std::move(doc)).ok());
  }
  EXPECT_EQ(dyn.segment_count(), 1u);   // first two sealed
  EXPECT_EQ(dyn.buffered_documents(), 1u);
  auto r = dyn.Query("/P/L[starts-with(., 'bo')]");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<DocId>{0, 1}));
  auto r2 = dyn.Query("/P/L[.='newyork']");  // served from the buffer
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, (std::vector<DocId>{2}));
}

// The unsealed buffer's path dictionary must hold exactly the paths of the
// live buffered documents. With one instantiation allowed, `//b` tries only
// the first `b` path in the dictionary's element order: a stale /a/x/b left
// behind by a deleted, replaced, sealed or compacted document would be
// interned first and would be the only tree tried, hiding the live /a/y/b.
// Queries intern the buffer lazily, so every scenario runs once with a query
// before the mutations (the dictionary already holds /a/x/b) and once
// without.
class DynamicBufferDictTest : public ::testing::TestWithParam<ValueMode> {};

TEST_P(DynamicBufferDictTest, CappedDescendantSeesOnlyLiveBufferedPaths) {
  ExecOptions capped;
  capped.instantiate.max_instantiations = 1;
  enum Scenario { kAddThenDelete, kUpdate, kFlushFirst, kCompactFirst };
  for (bool primed : {false, true}) {
    for (Scenario scenario :
         {kAddThenDelete, kUpdate, kFlushFirst, kCompactFirst}) {
      SCOPED_TRACE(::testing::Message()
                   << "scenario " << scenario << (primed ? ", primed" : ""));
      DynamicOptions opts;
      opts.index.value_mode = GetParam();
      opts.flush_threshold = 100;  // only explicit seals
      DynamicIndex dyn(opts);
      auto make = [&dyn](const char* spec, DocId id) {
        return testing::MakeDoc(spec, dyn.names(), dyn.values(), id);
      };
      ASSERT_TRUE(dyn.Add(make("a(x(b('1')))", 0)).ok());
      if (primed) {
        auto first = dyn.Query("//b", capped);
        ASSERT_TRUE(first.ok()) << first.status().ToString();
        EXPECT_EQ(*first, (std::vector<DocId>{0}));
      }
      DocId live = 1;
      switch (scenario) {
        case kAddThenDelete:
          ASSERT_TRUE(dyn.Add(make("a(y(b('2')))", 1)).ok());
          ASSERT_TRUE(dyn.Delete(0).ok());
          break;
        case kUpdate:
          ASSERT_TRUE(dyn.Update(make("a(y(b('2')))", 0), 0).ok());
          live = 0;
          break;
        case kFlushFirst:
        case kCompactFirst:
          ASSERT_TRUE(
              (scenario == kFlushFirst ? dyn.Flush() : dyn.Compact()).ok());
          ASSERT_TRUE(dyn.Delete(0).ok());
          ASSERT_TRUE(dyn.Add(make("a(y(b('2')))", 1)).ok());
          break;
      }
      EXPECT_EQ(dyn.buffered_documents(), 1u);
      auto r = dyn.Query("//b", capped);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(*r, (std::vector<DocId>{live}));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, DynamicBufferDictTest,
                         ::testing::Values(ValueMode::kExact,
                                           ValueMode::kHashed,
                                           ValueMode::kCharSequence));

// Every segment holds its index's own vocabulary tables, so once a literal
// is first interned the older segments resolve it too, though their tries
// hold no path for it. An element name and an exact text first seen after
// two segments sealed must answer exactly the live documents carrying them
// while buffered, right after the Flush() that seals them inline, with a
// second copy buffered, after a delete and after Compact(). Each text
// runs once before the literals exist, so the plan cache holds the old
// segments' plans from then on.
class DynamicLateLiteralTest : public ::testing::TestWithParam<ValueMode> {};

TEST_P(DynamicLateLiteralTest, LateLiteralsAnswerExactlyTheirDocuments) {
  DynamicOptions opts;
  opts.index.value_mode = GetParam();
  opts.flush_threshold = 100;  // only explicit seals
  DynamicIndex dyn(opts);
  auto make = [&dyn](const std::string& spec, DocId id) {
    return testing::MakeDoc(spec, dyn.names(), dyn.values(), id);
  };
  for (DocId id = 0; id < 6; ++id) {
    const std::string old = "old" + std::to_string(id % 3);
    ASSERT_TRUE(dyn.Add(make("a(b('" + old + "'),c('x'))", id)).ok());
    if (id % 3 == 2) {
      ASSERT_TRUE(dyn.Flush().ok());
    }
  }
  dyn.TotalIndexNodes();  // both seals already ran inline
  ASSERT_EQ(dyn.segment_count(), 2u);

  const std::vector<std::string> texts = {"/a/b[.='late text']", "//late",
                                          "/a/late/c", "//late[c='y']"};
  auto expect = [&dyn, &texts](const std::vector<DocId>& want,
                               const char* stage) {
    for (const std::string& text : texts) {
      auto got = dyn.Query(text);
      ASSERT_TRUE(got.ok()) << stage << ", " << text << ": "
                            << got.status().ToString();
      EXPECT_EQ(*got, want) << stage << ", " << text;
    }
  };
  expect({}, "before the literals exist");
  ASSERT_EQ(dyn.names()->Find("late"), Interner::kInvalidId);

  const std::string late = "a(b('late text'),late(c('y')))";
  ASSERT_TRUE(dyn.Add(make(late, 10)).ok());
  ASSERT_NE(dyn.names()->Find("late"), Interner::kInvalidId);
  expect({10}, "buffered");
  ASSERT_TRUE(dyn.Flush().ok());
  expect({10}, "flushed");
  dyn.TotalIndexNodes();
  expect({10}, "sealed");
  ASSERT_TRUE(dyn.Add(make(late, 11)).ok());
  expect({10, 11}, "sealed and buffered");
  ASSERT_TRUE(dyn.Delete(10).ok());
  expect({11}, "after a delete");
  ASSERT_TRUE(dyn.Compact().ok());
  EXPECT_EQ(dyn.segment_count(), 1u);
  expect({11}, "compacted");
}

INSTANTIATE_TEST_SUITE_P(AllModes, DynamicLateLiteralTest,
                         ::testing::Values(ValueMode::kExact,
                                           ValueMode::kHashed,
                                           ValueMode::kCharSequence));

}  // namespace
}  // namespace xseq
