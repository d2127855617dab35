#include <gtest/gtest.h>

#include <algorithm>

#include "src/query/executor.h"
#include "src/query/instantiate.h"
#include "src/query/isomorph.h"
#include "src/query/oracle.h"
#include "src/query/query_pattern.h"
#include "tests/test_util.h"

namespace xseq {
namespace {

using testing::MakeIndex;

// ---------------------------------------------------------------- parser

TEST(XPathParser, SimplePath) {
  auto q = ParseXPath("/inproceedings/title");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->root->children.size(), 1u);
  const PatternNode* inproc = q->root->children[0].get();
  EXPECT_EQ(inproc->name, "inproceedings");
  EXPECT_EQ(inproc->axis, PatternNode::Axis::kChild);
  ASSERT_EQ(inproc->children.size(), 1u);
  EXPECT_EQ(inproc->children[0]->name, "title");
}

TEST(XPathParser, DescendantAxisAndPredicateValue) {
  auto q = ParseXPath("//author[text='David']");
  ASSERT_TRUE(q.ok());
  const PatternNode* author = q->root->children[0].get();
  EXPECT_EQ(author->axis, PatternNode::Axis::kDescendant);
  EXPECT_EQ(author->name, "author");
  ASSERT_EQ(author->children.size(), 1u);
  EXPECT_EQ(author->children[0]->test, PatternNode::Test::kValue);
  EXPECT_EQ(author->children[0]->value, "David");
}

TEST(XPathParser, TextFunctionForm) {
  auto q = ParseXPath("//age[text()='32']");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->root->children[0]->children[0]->value, "32");
}

TEST(XPathParser, WildcardStep) {
  auto q = ParseXPath("/site//person/*/age[text='32']");
  ASSERT_TRUE(q.ok());
  const PatternNode* site = q->root->children[0].get();
  EXPECT_EQ(site->name, "site");
  const PatternNode* person = site->children[0].get();
  EXPECT_EQ(person->axis, PatternNode::Axis::kDescendant);
  const PatternNode* star = person->children[0].get();
  EXPECT_EQ(star->test, PatternNode::Test::kWildcard);
  const PatternNode* age = star->children[0].get();
  EXPECT_EQ(age->name, "age");
  EXPECT_EQ(age->children[0]->value, "32");
}

TEST(XPathParser, BranchingPredicateWithPath) {
  auto q = ParseXPath(
      "//closed_auction[seller/person='person11304']/date[text='12/15/1999']");
  ASSERT_TRUE(q.ok());
  const PatternNode* ca = q->root->children[0].get();
  EXPECT_EQ(ca->name, "closed_auction");
  ASSERT_EQ(ca->children.size(), 2u);
  const PatternNode* seller = ca->children[0].get();
  EXPECT_EQ(seller->name, "seller");
  EXPECT_EQ(seller->children[0]->name, "person");
  EXPECT_EQ(seller->children[0]->children[0]->value, "person11304");
  const PatternNode* date = ca->children[1].get();
  EXPECT_EQ(date->name, "date");
  EXPECT_EQ(date->children[0]->value, "12/15/1999");
}

TEST(XPathParser, PaperQ1FullForm) {
  auto q = ParseXPath(
      "/site//item[location='United States']/mail/date[text='07/05/2000']");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->NodeCount(), 7u);  // site,item,location,'US',mail,date,'date'
}

TEST(XPathParser, ToleratesSlashBeforePredicate) {
  // The paper's Table 8 writes "/book/[key='Maier']/author".
  auto q = ParseXPath("/book/[key='Maier']/author");
  ASSERT_TRUE(q.ok());
  const PatternNode* book = q->root->children[0].get();
  EXPECT_EQ(book->name, "book");
  ASSERT_EQ(book->children.size(), 2u);
  EXPECT_EQ(book->children[0]->name, "key");
  EXPECT_EQ(book->children[1]->name, "author");
}

TEST(XPathParser, MultiplePredicates) {
  auto q = ParseXPath("/a[b='1'][c]");
  ASSERT_TRUE(q.ok());
  const PatternNode* a = q->root->children[0].get();
  ASSERT_EQ(a->children.size(), 2u);
  EXPECT_EQ(a->children[0]->name, "b");
  EXPECT_EQ(a->children[1]->name, "c");
  EXPECT_TRUE(a->children[1]->children.empty());
}

TEST(XPathParser, DotEqualsLiteral) {
  auto q = ParseXPath("/a[.='v']");
  ASSERT_TRUE(q.ok());
  const PatternNode* a = q->root->children[0].get();
  ASSERT_EQ(a->children.size(), 1u);
  EXPECT_EQ(a->children[0]->test, PatternNode::Test::kValue);
}

TEST(XPathParser, AttributeSyntaxTreatedAsChild) {
  auto q = ParseXPath("/item[@id='i1']");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->root->children[0]->children[0]->name, "id");
}

TEST(XPathParser, DoubleQuotedAndBareLiterals) {
  ASSERT_TRUE(ParseXPath("/a[b=\"x y\"]").ok());
  auto q = ParseXPath("/a[b= 42 ]");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->root->children[0]->children[0]->children[0]->value, "42");
}

TEST(XPathParser, RejectsGarbage) {
  EXPECT_FALSE(ParseXPath("").ok());
  EXPECT_FALSE(ParseXPath("   ").ok());
  EXPECT_FALSE(ParseXPath("/a[b").ok());
  EXPECT_FALSE(ParseXPath("/a]").ok());
  EXPECT_FALSE(ParseXPath("/a[='v']").ok());
  EXPECT_FALSE(ParseXPath("/a['unterminated]").ok());
}

TEST(XPathParser, PatternToStringRoundTripsShape) {
  auto q = ParseXPath("/site//item[location='x']/mail");
  ASSERT_TRUE(q.ok());
  std::string s = PatternToString(*q);
  EXPECT_NE(s.find("site"), std::string::npos);
  EXPECT_NE(s.find("//item"), std::string::npos);
  EXPECT_NE(s.find("location"), std::string::npos);
}

// --------------------------------------------------------- instantiation

class InstantiateTest : public ::testing::Test {
 protected:
  void Build(const std::vector<std::string>& specs) {
    for (size_t i = 0; i < specs.size(); ++i) {
      docs_.push_back(testing::MakeDoc(specs[i], &names_, &values_,
                                       static_cast<DocId>(i)));
      BindPaths(docs_.back(), &dict_);
    }
  }
  size_t CountInstantiations(const std::string& xpath) {
    auto q = ParseXPath(xpath);
    EXPECT_TRUE(q.ok());
    auto r = InstantiatePattern(*q, dict_, names_, values_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r->queries.size();
  }
  NameTable names_;
  ValueEncoder values_;
  PathDict dict_;
  std::vector<Document> docs_;
};

TEST_F(InstantiateTest, ExactPathSingleInstantiation) {
  Build({"P(R(L),D(L))"});
  EXPECT_EQ(CountInstantiations("/P/R/L"), 1u);
  EXPECT_EQ(CountInstantiations("/P/R"), 1u);
}

TEST_F(InstantiateTest, UnknownNameYieldsNone) {
  Build({"P(R)"});
  EXPECT_EQ(CountInstantiations("/P/X"), 0u);
  EXPECT_EQ(CountInstantiations("/Z"), 0u);
}

TEST_F(InstantiateTest, StarExpandsToEachChildName) {
  Build({"P(R(L),D(L),E)"});
  EXPECT_EQ(CountInstantiations("/P/*"), 3u);
  EXPECT_EQ(CountInstantiations("/P/*/L"), 2u);  // R/L and D/L
}

TEST_F(InstantiateTest, DescendantFindsAllDepths) {
  Build({"P(L,R(L(L)))"});
  // //L occurs at /P/L, /P/R/L, /P/R/L/L.
  EXPECT_EQ(CountInstantiations("//L"), 3u);
  EXPECT_EQ(CountInstantiations("/P//L"), 3u);
  EXPECT_EQ(CountInstantiations("/P/R//L"), 2u);
}

TEST_F(InstantiateTest, DescendantSeesPathsInternedAfterALookup) {
  Build({"P(L)"});
  EXPECT_EQ(CountInstantiations("//L"), 1u);
  EXPECT_EQ(CountInstantiations("//*"), 2u);
  // The dictionary grows after the element order was built for `//`.
  Build({"P(R(L(L)))"});
  EXPECT_EQ(CountInstantiations("//L"), 3u);
  EXPECT_EQ(CountInstantiations("//*"), 5u);
  EXPECT_EQ(CountInstantiations("/P/R//L"), 2u);
}

TEST_F(InstantiateTest, ValuePredicateResolvesAgainstEncoder) {
  Build({"P(L('boston'))", "P(L('newyork'))"});
  EXPECT_EQ(CountInstantiations("/P/L[.='boston']"), 1u);
  EXPECT_EQ(CountInstantiations("/P/L[.='paris']"), 0u);
}

TEST_F(InstantiateTest, ConcreteTreeIncludesIntermediateChain) {
  Build({"P(R(U(L)))"});
  auto q = ParseXPath("//L");
  ASSERT_TRUE(q.ok());
  auto r = InstantiatePattern(*q, dict_, names_, values_);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->queries.size(), 1u);
  // Chain P/R/U/L materialized: 4 nodes.
  EXPECT_EQ(r->queries[0].tree.node_count(), 4u);
  EXPECT_EQ(r->queries[0].paths.size(), 4u);
}

TEST_F(InstantiateTest, CapTruncates) {
  Build({"P(a1,a2,a3,a4,a5)"});
  auto q = ParseXPath("/P/*");
  ASSERT_TRUE(q.ok());
  InstantiateOptions opts;
  opts.max_instantiations = 2;
  auto r = InstantiatePattern(*q, dict_, names_, values_, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->queries.size(), 2u);
  EXPECT_TRUE(r->truncated);
}

// ------------------------------------------------------------- isomorph

TEST(Isomorph, NoGroupsYieldsIdentity) {
  NameTable names;
  ValueEncoder values;
  PathDict dict;
  ConcreteQuery cq;
  cq.tree = testing::MakeDoc("P(R(L),D)", &names, &values);
  cq.paths = BindPaths(cq.tree, &dict);
  IsomorphResult r = ExpandIsomorphisms(cq);
  EXPECT_EQ(r.queries.size(), 1u);
  EXPECT_FALSE(r.truncated);
}

TEST(Isomorph, TwoBranchesYieldTwoOrderings) {
  NameTable names;
  ValueEncoder values;
  PathDict dict;
  ConcreteQuery cq;
  cq.tree = testing::MakeDoc("P(L(S),L(B))", &names, &values);
  cq.paths = BindPaths(cq.tree, &dict);
  IsomorphResult r = ExpandIsomorphisms(cq);
  ASSERT_EQ(r.queries.size(), 2u);
  // Both orderings are trees over the same node multiset but with the two
  // L subtrees swapped; as unordered trees they are equal.
  EXPECT_TRUE(UnorderedEqual(r.queries[0].tree.root(),
                             r.queries[1].tree.root()));
  // The S-subtree comes first in exactly one of them.
  auto first_grandchild = [&](const ConcreteQuery& q) {
    return q.tree.root()->first_child->first_child->sym.id();
  };
  EXPECT_NE(first_grandchild(r.queries[0]), first_grandchild(r.queries[1]));
}

TEST(Isomorph, NestedGroupsMultiply) {
  NameTable names;
  ValueEncoder values;
  PathDict dict;
  ConcreteQuery cq;
  // Two identical-path groups: the two D's and the two L's inside the
  // first D.
  cq.tree = testing::MakeDoc("P(D(L(S),L(B)),D(M))", &names, &values);
  cq.paths = BindPaths(cq.tree, &dict);
  IsomorphResult r = ExpandIsomorphisms(cq);
  EXPECT_EQ(r.queries.size(), 4u);  // 2! * 2!
}

TEST(Isomorph, CapTruncates) {
  NameTable names;
  ValueEncoder values;
  PathDict dict;
  ConcreteQuery cq;
  cq.tree = testing::MakeDoc("P(D(a),D(b),D(c),D(e))", &names, &values);
  cq.paths = BindPaths(cq.tree, &dict);
  IsomorphOptions opts;
  opts.max_orderings = 5;
  IsomorphResult r = ExpandIsomorphisms(cq, opts);
  EXPECT_EQ(r.queries.size(), 5u);  // 4! = 24 exist
  EXPECT_TRUE(r.truncated);
}

// --------------------------------------------------------------- oracle

TEST(Oracle, BasicEmbedding) {
  NameTable names;
  ValueEncoder values;
  PathDict dict;
  Document data = testing::MakeDoc("P(R(L,M),D)", &names, &values, 5);
  ConcreteQuery q;
  q.tree = testing::MakeDoc("P(R(M))", &names, &values);
  q.paths = BindPaths(q.tree, &dict);
  EXPECT_TRUE(OracleContains(data, q));
  ConcreteQuery q2;
  q2.tree = testing::MakeDoc("P(R(X))", &names, &values);
  q2.paths = BindPaths(q2.tree, &dict);
  EXPECT_FALSE(OracleContains(data, q2));
}

TEST(Oracle, InjectiveSiblings) {
  NameTable names;
  ValueEncoder values;
  PathDict dict;
  Document one = testing::MakeDoc("P(D(M))", &names, &values, 0);
  Document two = testing::MakeDoc("P(D(M),D(M))", &names, &values, 1);
  ConcreteQuery q;
  q.tree = testing::MakeDoc("P(D(M),D(M))", &names, &values);
  q.paths = BindPaths(q.tree, &dict);
  EXPECT_FALSE(OracleContains(one, q));
  EXPECT_TRUE(OracleContains(two, q));
}

TEST(Oracle, PaperFigure4IsNotAnEmbedding) {
  NameTable names;
  ValueEncoder values;
  PathDict dict;
  Document data = testing::MakeDoc("P(L(S),L(B))", &names, &values);
  ConcreteQuery q;
  q.tree = testing::MakeDoc("P(L(S,B))", &names, &values);
  q.paths = BindPaths(q.tree, &dict);
  EXPECT_FALSE(OracleContains(data, q));
}

TEST(Oracle, CrossedAssignmentNeedsBacktracking) {
  // First candidate greedy assignment fails; a correct matcher backtracks.
  NameTable names;
  ValueEncoder values;
  PathDict dict;
  Document data = testing::MakeDoc("P(D(a,b),D(a))", &names, &values);
  ConcreteQuery q;
  q.tree = testing::MakeDoc("P(D(a),D(a,b))", &names, &values);
  q.paths = BindPaths(q.tree, &dict);
  EXPECT_TRUE(OracleContains(data, q));
}

// ------------------------------------------------------------- executor

TEST(Executor, EndToEndWithPaperQueries) {
  CollectionIndex idx = MakeIndex({
      "Project(Research(Loc('newyork')),Develop(Loc('boston')))",
      "Project(Research(Loc('boston')))",
      "Project(Develop(Loc('boston'),Unit(Manager('mary'))))",
  });
  auto r1 = idx.Query(
      "/Project[Research[Loc='newyork']]/Develop[Loc='boston']");
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1->docs, (std::vector<DocId>{0}));

  auto r2 = idx.Query("/Project//Loc[.='boston']");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->docs, (std::vector<DocId>{0, 1, 2}));

  auto r3 = idx.Query("/Project/*/Loc[.='boston']");
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->docs, (std::vector<DocId>{0, 1, 2}));

  auto r4 = idx.Query("//Unit/Manager");
  ASSERT_TRUE(r4.ok());
  EXPECT_EQ(r4->docs, (std::vector<DocId>{2}));

  auto r5 = idx.Query("/Project/Research/Loc[.='paris']");
  ASSERT_TRUE(r5.ok());
  EXPECT_TRUE(r5->docs.empty());
}

TEST(Executor, FalseDismissalFixedByExpansion) {
  // The executor must find doc 0 even though the raw sequence order
  // dismisses it (see MatcherTest.SiblingGroupOrderCausesDismissal...).
  CollectionIndex idx = MakeIndex({
      "P(D(L(S),L(B)),D(L(S)))",
      "P(D(L(S)),D(L(B)))",
      "P(D(L(S)))",
  });
  auto r = idx.Query("/P[D/L/S][D/L/B]");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->docs, (std::vector<DocId>{0, 1}));
}

TEST(Executor, FalseAlarmAvoided) {
  CollectionIndex idx = MakeIndex({"P(L(S),L(B))", "P(L(S,B))"});
  auto r = idx.Query("/P/L[S][B]");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->docs, (std::vector<DocId>{1}));
  // Naive mode over-reports — that is the ViST false alarm.
  ExecOptions naive;
  naive.mode = MatchMode::kNaive;
  auto rn = idx.Query("/P/L[S][B]", naive);
  ASSERT_TRUE(rn.ok());
  EXPECT_EQ(rn->docs, (std::vector<DocId>{0, 1}));
}

TEST(Executor, StatsPopulated) {
  CollectionIndex idx = MakeIndex({"P(R(L),D)", "P(R(M))"});
  auto r = idx.Query("/P//L");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.instantiations, 1u);
  EXPECT_EQ(r->stats.matched_sequences, 1u);
  EXPECT_GT(r->stats.match.link_binary_searches, 0u);
  EXPECT_EQ(r->stats.result_docs, 1u);
}

TEST(Executor, MalformedQueryPropagatesError) {
  CollectionIndex idx = MakeIndex({"P(R)"});
  EXPECT_FALSE(idx.Query("/P[").ok());
}

TEST(Executor, AgreesWithOracleOnHandData) {
  std::vector<std::string> specs = {
      "P(R(U(M('a')),L('b')),D(L('b')))",
      "P(R(L('b')),D(M('a')))",
      "P(D(L('c')),D(L('b')))",
      "P(R(U(M('z'))))",
  };
  CollectionIndex idx = MakeIndex(specs);
  for (const char* xpath :
       {"/P/R/L", "/P//L", "//L[.='b']", "/P/*/M", "/P[R/L][D]",
        "//M[.='a']", "/P/D/L[.='b']", "/P//M"}) {
    auto got = idx.Query(xpath);
    ASSERT_TRUE(got.ok()) << xpath;
    // Brute force: union of oracle scans over the same instantiations.
    auto pattern = ParseXPath(xpath);
    ASSERT_TRUE(pattern.ok());
    auto inst = InstantiatePattern(*pattern, idx.dict(), idx.names(),
                                   idx.values());
    ASSERT_TRUE(inst.ok());
    std::vector<DocId> expect;
    for (const ConcreteQuery& cq : inst->queries) {
      auto part = OracleScan(idx.documents(), cq);
      expect.insert(expect.end(), part.begin(), part.end());
    }
    std::sort(expect.begin(), expect.end());
    expect.erase(std::unique(expect.begin(), expect.end()), expect.end());
    EXPECT_EQ(got->docs, expect) << xpath;
  }
}

}  // namespace
}  // namespace xseq
