// Tests for the explain/plan rendering and the schema DOT export.

#include <gtest/gtest.h>

#include "src/query/explain.h"
#include "tests/test_util.h"

namespace xseq {
namespace {

TEST(Explain, PlanShowsSequencesAndParents) {
  CollectionIndex idx = testing::MakeIndex(
      {"site(regions(item(location('US'))))",
       "site(people(person(age('32'))))"});
  auto plan = ExplainQuery(idx.executor(), "//item[location='US']",
                           idx.dict(), idx.names());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("instantiations: 1"), std::string::npos);
  EXPECT_NE(plan->find("/site/regions/item/location=v0"),
            std::string::npos);
  EXPECT_NE(plan->find("(root)"), std::string::npos);
  EXPECT_NE(plan->find("(parent [0])"), std::string::npos);
}

TEST(Explain, AnchorIsTheDeepestRarestPosition) {
  // Every record shares /site and its prefix, so those positions occur once
  // — and so does the sender value /.../mail/from=p1, deeper in the
  // sequence. Explain names the deepest of them: the position the matcher
  // steers by, not /site at position 0.
  CollectionIndex idx = testing::MakeIndex(
      {"site(regions(europe(item(location('US'),mail(from('p1'),"
       "date('d1'))))))",
       "site(regions(europe(item(location('US'),mail(from('p2'),"
       "date('d1'))))))",
       "site(regions(europe(item(location('DE'),mail(from('p3'),"
       "date('d2'))))))"});
  const char* kQuery =
      "/site//item[location='US']/mail[from='p1']/date[text='d1']";
  QueryExplain explain;
  ExecOptions opts;
  opts.explain = &explain;
  auto result = idx.executor().Execute(kQuery, nullptr, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, (std::vector<DocId>{0}));
  ASSERT_EQ(explain.seq.size(), 1u);

  auto compiled = idx.executor().Compile(*ParseXPath(kQuery));
  ASSERT_TRUE(compiled.ok());
  ASSERT_EQ(compiled->size(), 1u);
  const QuerySeq& q = (*compiled)[0];
  const uint32_t anchor = explain.seq[0].anchor;
  ASSERT_LT(anchor, q.size());
  EXPECT_EQ(explain.seq[0].anchor_cardinality, 1u);
  EXPECT_EQ(idx.index().LinkSize(q.paths[0]), 1u);  // /site ties
  EXPECT_EQ(idx.index().LinkSize(q.paths[anchor]), 1u);
  for (size_t i = anchor + 1; i < q.size(); ++i) {
    EXPECT_GT(idx.index().LinkSize(q.paths[i]), 1u) << i;
  }
  // Appended piecewise: GCC 12 -O3 flags "[" + std::to_string(...) with a
  // false -Wrestrict.
  std::string line = "[";
  line += std::to_string(anchor);
  line += "] /site/regions/europe/item/mail/from=";
  EXPECT_NE(QuerySeqToString(q, idx.dict(), idx.names()).find(line),
            std::string::npos)
      << QuerySeqToString(q, idx.dict(), idx.names());
  std::string reported = "anchor @";
  reported += std::to_string(anchor);
  reported += " (cardinality 1)";
  EXPECT_NE(explain.ToString().find(reported), std::string::npos)
      << explain.ToString();
}

TEST(Explain, TruncationFlagged) {
  std::vector<std::string> specs;
  for (int i = 0; i < 10; ++i) {
    specs.push_back("P(t" + std::to_string(i) + "(L))");
  }
  CollectionIndex idx = testing::MakeIndex(specs);
  // Force truncation through a tiny cap via the executor's options — the
  // plain ExplainQuery uses defaults, so check the normal path first.
  auto plan = ExplainQuery(idx.executor(), "/P/*/L", idx.dict(),
                           idx.names());
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("instantiations: 10"), std::string::npos);
}

TEST(Explain, ParseErrorsPropagate) {
  CollectionIndex idx = testing::MakeIndex({"P(R)"});
  EXPECT_FALSE(
      ExplainQuery(idx.executor(), "/P[", idx.dict(), idx.names()).ok());
}

TEST(Explain, SchemaDotContainsNodesAndProbabilities) {
  CollectionIndex idx = testing::MakeIndex(
      {"P(D(M),D(M),R)", "P(D(M))"});
  std::string dot = SchemaToDot(idx.schema(), idx.dict(), idx.names());
  EXPECT_NE(dot.find("digraph schema"), std::string::npos);
  EXPECT_NE(dot.find("P\\np=1.000"), std::string::npos);
  EXPECT_NE(dot.find("peripheries=2"), std::string::npos);  // repeatable D
  EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(Explain, QuerySeqToStringRendersEveryElement) {
  CollectionIndex idx = testing::MakeIndex({"a(b(c))"});
  auto compiled = idx.executor().Compile(*ParseXPath("/a/b/c"));
  ASSERT_TRUE(compiled.ok());
  ASSERT_EQ(compiled->size(), 1u);
  std::string s =
      QuerySeqToString((*compiled)[0], idx.dict(), idx.names());
  EXPECT_NE(s.find("[0] /a"), std::string::npos);
  EXPECT_NE(s.find("[2] /a/b/c"), std::string::npos);
}

}  // namespace
}  // namespace xseq
