#include <gtest/gtest.h>

#include "src/core/collection_index.h"
#include "src/gen/synthetic.h"
#include "tests/test_util.h"

namespace xseq {
namespace {

TEST(CollectionBuilder, RetainedModeBuildsAndQueries) {
  CollectionIndex idx = testing::MakeIndex({"P(R(L))", "P(D)"});
  auto r = idx.Query("/P/R/L");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->docs, (std::vector<DocId>{0}));
  EXPECT_EQ(idx.Stats().documents, 2u);
  EXPECT_EQ(idx.documents().size(), 2u);
}

TEST(CollectionBuilder, StreamingEqualsRetained) {
  SyntheticParams params;
  params.identical_percent = 20;
  params.seed = 7;

  // Retained build.
  IndexOptions opts;
  CollectionBuilder keep(opts);
  SyntheticDataset gen_a(params, keep.names(), keep.values());
  for (DocId d = 0; d < 200; ++d) {
    ASSERT_TRUE(keep.Add(gen_a.Generate(d)).ok());
  }
  auto idx_a = std::move(keep).Finish();
  ASSERT_TRUE(idx_a.ok());

  // Streaming two-pass build with regenerated documents.
  CollectionBuilder stream(opts);
  SyntheticDataset gen_b(params, stream.names(), stream.values());
  for (DocId d = 0; d < 200; ++d) {
    ASSERT_TRUE(stream.Observe(gen_b.Generate(d)).ok());
  }
  ASSERT_TRUE(stream.BeginIndexing().ok());
  for (DocId d = 0; d < 200; ++d) {
    ASSERT_TRUE(stream.Index(gen_b.Generate(d)).ok());
  }
  auto idx_b = std::move(stream).Finish();
  ASSERT_TRUE(idx_b.ok());

  EXPECT_EQ(idx_a->Stats().trie_nodes, idx_b->Stats().trie_nodes);
  EXPECT_EQ(idx_a->Stats().sequence_elements,
            idx_b->Stats().sequence_elements);
  EXPECT_EQ(idx_a->Stats().distinct_paths, idx_b->Stats().distinct_paths);
}

TEST(CollectionBuilder, StreamingMisuseRejected) {
  CollectionBuilder b;
  NameTable* names = b.names();
  ValueEncoder* values = b.values();
  Document d1 = testing::MakeDoc("P(R)", names, values, 0);
  EXPECT_TRUE(b.Index(d1).IsFailedPrecondition());
  ASSERT_TRUE(b.Observe(d1).ok());
  ASSERT_TRUE(b.BeginIndexing().ok());
  EXPECT_TRUE(b.BeginIndexing().IsFailedPrecondition());
  Document d2 = testing::MakeDoc("P(R)", names, values, 0);
  EXPECT_TRUE(b.Observe(d2).IsFailedPrecondition());
  // A document with a never-observed path is rejected in phase 2.
  Document d3 = testing::MakeDoc("P(X)", names, values, 1);
  EXPECT_TRUE(b.Index(d3).IsInvalidArgument());
}

TEST(CollectionBuilder, EmptyDocumentRejected) {
  CollectionBuilder b;
  Document empty(0);
  EXPECT_TRUE(b.Add(std::move(empty)).IsInvalidArgument());
}

// DynamicIndex builds every segment over its own tables and relies on this
// contract: the built index holds those very tables, so a name or value the
// next document interns resolves through segments built before it.
TEST(CollectionBuilder, SharedTablesReachTheBuiltIndex) {
  auto names = std::make_shared<NameTable>();
  auto values = std::make_shared<ValueEncoder>();
  CollectionBuilder builder(IndexOptions(), names, values);
  EXPECT_EQ(builder.names(), names.get());
  EXPECT_EQ(builder.values(), values.get());
  ASSERT_TRUE(builder
                  .Add(testing::MakeDoc("P(R('x'))", names.get(),
                                        values.get(), 0))
                  .ok());
  auto index = std::move(builder).Finish();
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(&index->names(), names.get());
  EXPECT_EQ(&index->values(), values.get());

  EXPECT_EQ(index->names().Find("late"), Interner::kInvalidId);
  EXPECT_EQ(index->values().EncodeForLookup("late text"),
            Interner::kInvalidId);
  const NameId late_name = names->Intern("late");
  const ValueId late_value = values->Encode("late text");
  EXPECT_EQ(index->names().Find("late"), late_name);
  EXPECT_EQ(index->values().EncodeForLookup("late text"), late_value);
  // The index resolves both now but holds no path for either.
  for (const char* text : {"/P/late", "//late", "/P/R[.='late text']"}) {
    auto r = index->Query(text);
    ASSERT_TRUE(r.ok()) << text << ": " << r.status().ToString();
    EXPECT_TRUE(r->docs.empty()) << text;
  }
  auto r = index->Query("/P/R[.='x']");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->docs, (std::vector<DocId>{0}));
}

TEST(CollectionIndex, StatsReflectSharing) {
  // Identical documents share the whole trie path.
  CollectionIndex idx =
      testing::MakeIndex({"P(R(L))", "P(R(L))", "P(R(L))"});
  auto s = idx.Stats();
  EXPECT_EQ(s.documents, 3u);
  EXPECT_EQ(s.trie_nodes, 3u);  // P, PR, PRL shared once
  EXPECT_EQ(s.sequence_elements, 9u);
  EXPECT_DOUBLE_EQ(s.avg_sequence_length, 3.0);
  EXPECT_GT(s.memory_bytes, 0u);
}

TEST(CollectionIndex, SequencerChoiceAffectsSharing) {
  // The core claim of the paper (Impact 1) at facade level: g_best yields
  // fewer trie nodes than depth-first on value-divergent documents.
  auto build = [&](SequencerKind kind) {
    IndexOptions opts;
    opts.sequencer = kind;
    CollectionBuilder b(opts);
    for (DocId d = 0; d < 50; ++d) {
      // Rare leading value ('idN'), common structure after it.
      std::string spec = "P('id" + std::to_string(d) +
                         "',R(U(M('m" + std::to_string(d) + "')),L('c')))";
      Document doc = testing::MakeDoc(spec, b.names(), b.values(), d);
      Status st = b.Add(std::move(doc));
      EXPECT_TRUE(st.ok());
    }
    auto idx = std::move(b).Finish();
    EXPECT_TRUE(idx.ok());
    return idx->Stats().trie_nodes;
  };
  uint64_t df = build(SequencerKind::kDepthFirst);
  uint64_t cs = build(SequencerKind::kProbability);
  EXPECT_LT(cs, df);
  EXPECT_LE(df, 50u * 8u);
}

TEST(CollectionIndex, HashedValueModeStillAnswersQueries) {
  IndexOptions opts;
  opts.value_mode = ValueMode::kHashed;
  opts.hash_range = 64;  // force some collisions
  opts.keep_documents = true;
  CollectionBuilder b(opts);
  for (DocId d = 0; d < 20; ++d) {
    std::string spec = "P(L('city" + std::to_string(d) + "'))";
    Document doc = testing::MakeDoc(spec, b.names(), b.values(), d);
    ASSERT_TRUE(b.Add(std::move(doc)).ok());
  }
  auto idx = std::move(b).Finish();
  ASSERT_TRUE(idx.ok());
  auto r = idx->Query("/P/L[.='city7']");
  ASSERT_TRUE(r.ok());
  // Hashed values may over-report (collisions) but never miss.
  EXPECT_TRUE(std::find(r->docs.begin(), r->docs.end(), 7u) !=
              r->docs.end());
}

TEST(CollectionIndex, NonBulkInsertSameAnswers) {
  IndexOptions bulk_opts;
  IndexOptions inc_opts;
  inc_opts.bulk_load = false;
  for (const char* xpath : {"/P//L", "/P/R"}) {
    CollectionIndex a = testing::MakeIndex({"P(R(L))", "P(D(L))"}, bulk_opts);
    CollectionIndex b = testing::MakeIndex({"P(R(L))", "P(D(L))"}, inc_opts);
    auto ra = a.Query(xpath);
    auto rb = b.Query(xpath);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    EXPECT_EQ(ra->docs, rb->docs) << xpath;
  }
}

}  // namespace
}  // namespace xseq
