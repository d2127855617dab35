// Robustness and edge-case coverage across modules: parser fuzzing, the
// paper's Table 2 alternative orderings, generator round trips through the
// XML writer/parser, enumeration caps, and direct region-join units.

#include <gtest/gtest.h>

#include "src/baseline/region_join.h"
#include "src/gen/dblp.h"
#include "src/gen/xmark.h"
#include "src/query/executor.h"
#include "src/seq/constraint.h"
#include "src/seq/reconstruct.h"
#include "src/xml/parser.h"
#include "src/xml/writer.h"
#include "tests/test_util.h"

namespace xseq {
namespace {

// ------------------------------------------------------------- fuzzing

TEST(XPathFuzz, RandomInputsNeverCrash) {
  Rng rng(2024, 1);
  const char alphabet[] = "/ab*[]'\"=.@,()x1 -";
  for (int trial = 0; trial < 2000; ++trial) {
    std::string input;
    size_t len = rng.Uniform(24);
    for (size_t i = 0; i < len; ++i) {
      input.push_back(alphabet[rng.Uniform(sizeof(alphabet) - 1)]);
    }
    auto r = ParseXPath(input);  // must not crash or hang
    if (r.ok()) {
      EXPECT_GE(r->NodeCount(), 1u) << input;
    }
  }
}

TEST(XmlFuzz, RandomInputsNeverCrash) {
  Rng rng(7777, 1);
  const char alphabet[] = "<>/ab='\"&;! -x";
  NameTable names;
  ValueEncoder values;
  XmlParser parser(&names, &values);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string input;
    size_t len = rng.Uniform(40);
    for (size_t i = 0; i < len; ++i) {
      input.push_back(alphabet[rng.Uniform(sizeof(alphabet) - 1)]);
    }
    auto r = parser.Parse(input);  // must not crash
    (void)r;
  }
}

TEST(XmlFuzz, MutatedValidDocumentsNeverCrash) {
  const std::string base =
      "<a id=\"1\"><b>text &amp; more</b><!--c--><d x='y'/></a>";
  NameTable names;
  ValueEncoder values;
  XmlParser parser(&names, &values);
  Rng rng(31337, 1);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = base;
    size_t pos = rng.Uniform(static_cast<uint32_t>(mutated.size()));
    mutated[pos] = static_cast<char>(32 + rng.Uniform(95));
    auto r = parser.Parse(mutated);
    (void)r;
  }
}

// ------------------------------------------ Table 2 alternative orders

TEST(Table2, AlternativeConstraintOrdersReconstruct) {
  // Figure 3(c): P(v0, D, D(L(v1), M(v3))). The paper's Table 2 lists
  // several valid constraint sequences; all must reconstruct to the same
  // tree under the forward-prefix rule.
  NameTable names;
  ValueEncoder values;
  PathDict dict;
  Document doc = testing::MakeDoc("P('v0',D,D(L('v1'),M('v3')))", &names,
                                  &values);
  std::vector<PathId> paths = BindPaths(doc, &dict);
  const Node* root = doc.root();
  PathId P = paths[root->index];
  PathId Pv0 = paths[root->first_child->index];
  const Node* d1 = root->first_child->next_sibling;       // childless D
  const Node* d2 = d1->next_sibling;                      // D(L,M)
  PathId PD = paths[d1->index];
  PathId PDL = paths[d2->first_child->index];
  PathId PDLv1 = paths[d2->first_child->first_child->index];
  PathId PDM = paths[d2->first_child->next_sibling->index];
  PathId PDMv3 =
      paths[d2->first_child->next_sibling->first_child->index];

  // Rows of Table 2 (the childless sibling placed in different spots).
  const std::vector<Sequence> rows = {
      {P, Pv0, PD, PD, PDL, PDLv1, PDM, PDMv3},
      {P, PD, Pv0, PD, PDM, PDMv3, PDL, PDLv1},
      {P, PD, PDL, Pv0, PDLv1, PDM, PDMv3, PD},
      {P, PD, PDM, PDMv3, Pv0, PDL, PDLv1, PD},
      {P, PD, PDM, PDMv3, PDL, Pv0, PDLv1, PD},
  };
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(IsConstraintSequence(rows[i], dict)) << "row " << i;
    auto tree = ReconstructTree(rows[i], dict);
    ASSERT_TRUE(tree.ok()) << "row " << i;
    EXPECT_TRUE(UnorderedEqual(tree->root(), doc.root())) << "row " << i;
  }
}

// --------------------------------------- generator -> XML -> parser

TEST(GeneratorRoundTrip, XMarkSurvivesWriteParse) {
  NameTable names;
  ValueEncoder values;
  XMarkParams params;
  XMarkGenerator gen(params, &names, &values);
  XmlParser parser(&names, &values);
  for (DocId d = 0; d < 40; ++d) {
    Document doc = gen.Generate(d);
    std::string xml = WriteXml(doc, names);
    auto parsed = parser.Parse(xml, d);
    ASSERT_TRUE(parsed.ok()) << d << ": " << parsed.status().ToString();
    EXPECT_TRUE(UnorderedEqual(doc.root(), parsed->root())) << d;
  }
}

TEST(GeneratorRoundTrip, DblpSurvivesWriteParse) {
  NameTable names;
  ValueEncoder values;
  DblpParams params;
  DblpGenerator gen(params, &names, &values);
  XmlParser parser(&names, &values);
  for (DocId d = 0; d < 40; ++d) {
    Document doc = gen.Generate(d);
    // Indentation injects whitespace into text nodes (lossy for values),
    // so round-trip compactly.
    std::string xml = WriteXml(doc, names);
    auto parsed = parser.Parse(xml, d);
    ASSERT_TRUE(parsed.ok()) << d;
    EXPECT_TRUE(UnorderedEqual(doc.root(), parsed->root())) << d;
  }
}

// ------------------------------------------------------------ caps

TEST(ExecutorCaps, TruncationSurfacesInStats) {
  std::vector<std::string> specs;
  for (int i = 0; i < 12; ++i) {
    specs.push_back("P(a" + std::to_string(i) + "(L))");
  }
  CollectionIndex idx = testing::MakeIndex(specs);
  ExecOptions opts;
  opts.instantiate.max_instantiations = 3;
  ExecStats stats;
  auto r = idx.executor().Execute("/P/*/L", &stats, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(stats.instantiations, 3u);
  EXPECT_LE(r->size(), 3u);
}

TEST(ExecutorCaps, IsomorphismCapSurfaces) {
  CollectionIndex idx = testing::MakeIndex(
      {"P(D(a),D(b),D(c),D(e),D(f))"});
  ExecOptions opts;
  opts.isomorph.max_orderings = 4;
  ExecStats stats;
  auto r = idx.executor().Execute("/P[D/a][D/b][D/c][D/e][D/f]", &stats,
                                  opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(stats.truncated);
}

// ------------------------------------------------------- region join

TEST(RegionJoin, DirectUnit) {
  NameTable names;
  ValueEncoder values;
  PathDict dict;
  ConcreteQuery q;
  q.tree = testing::MakeDoc("P(L,M)", &names, &values);
  q.paths = BindPaths(q.tree, &dict);

  // Doc 1: P(L, M) at begins 0,1,2; doc 2: P(L) only; doc 3: nested wrong
  // level M.
  std::vector<RegionEntry> p_list = {
      {1, 0, 2, 0}, {2, 0, 1, 0}, {3, 0, 2, 0}};
  std::vector<RegionEntry> l_list = {{1, 1, 1, 1}, {2, 1, 1, 1},
                                     {3, 1, 2, 1}};
  std::vector<RegionEntry> m_list = {{1, 2, 2, 1}, {3, 2, 2, 2}};
  BaselineStats stats;
  std::vector<DocId> out = RegionJoin(
      q, {&p_list, &l_list, &m_list}, &stats);
  EXPECT_EQ(out, (std::vector<DocId>{1}));  // 2 lacks M; 3's M is level 2
  EXPECT_GT(stats.docs_joined, 0u);
}

TEST(RegionJoin, InjectiveSiblingAssignment) {
  NameTable names;
  ValueEncoder values;
  PathDict dict;
  ConcreteQuery q;
  q.tree = testing::MakeDoc("P(L,L)", &names, &values);
  q.paths = BindPaths(q.tree, &dict);

  std::vector<RegionEntry> p_list = {{1, 0, 1, 0}, {2, 0, 2, 0}};
  std::vector<RegionEntry> l_list = {{1, 1, 1, 1},            // one L
                                     {2, 1, 1, 1}, {2, 2, 2, 1}};  // two
  BaselineStats stats;
  std::vector<DocId> out = RegionJoin(q, {&p_list, &l_list, &l_list},
                                      &stats);
  EXPECT_EQ(out, (std::vector<DocId>{2}));
}

// -------------------------------------------------- misc edge cases

TEST(Executor, QueryLongerThanAnyDocument) {
  CollectionIndex idx = testing::MakeIndex({"P(R)", "P(D)"});
  auto r = idx.Query("/P/R[X][Y][Z]");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->docs.empty());
}

TEST(Executor, RepeatedIdenticalDocuments) {
  std::vector<std::string> specs(50, "P(R(L('x')))");
  CollectionIndex idx = testing::MakeIndex(specs);
  EXPECT_EQ(idx.Stats().trie_nodes, 4u);  // fully shared
  auto r = idx.Query("/P/R/L[.='x']");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->docs.size(), 50u);
}

TEST(Executor, DocIdsArbitrary) {
  // Document ids need not be dense or ordered.
  IndexOptions opts;
  CollectionBuilder builder(opts);
  for (DocId id : {900u, 5u, 77u}) {
    Document doc = testing::MakeDoc("P(R)", builder.names(),
                                    builder.values(), id);
    ASSERT_TRUE(builder.Add(std::move(doc)).ok());
  }
  auto idx = std::move(builder).Finish();
  ASSERT_TRUE(idx.ok());
  auto r = idx->Query("/P/R");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->docs, (std::vector<DocId>{5, 77, 900}));
}

TEST(Matcher, DeepChainDocuments) {
  // 200-deep unary chains must not overflow anything.
  std::string spec;
  for (int i = 0; i < 200; ++i) {
    spec += "n";
    spec += std::to_string(i);
    spec += "(";
  }
  spec += "'leaf'";
  for (int i = 0; i < 200; ++i) spec += ")";
  CollectionIndex idx = testing::MakeIndex({spec});
  auto r = idx.Query("/n0/n1/n2");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->docs.size(), 1u);
  auto r2 = idx.Query("//n199[.='leaf']");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->docs.size(), 1u);
}

}  // namespace
}  // namespace xseq
