#include <gtest/gtest.h>

#include "src/index/matcher.h"
#include "src/index/trie.h"
#include "src/schema/schema.h"
#include "src/seq/sequencer.h"
#include "tests/test_util.h"

namespace xseq {
namespace {

using testing::MakeDoc;

/// Builds a trie + model over documents given as tree specs, exposing the
/// pieces matcher tests need.
class MatcherTest : public ::testing::Test {
 protected:
  void BuildCollection(const std::vector<std::string>& specs,
                       SequencerKind kind = SequencerKind::kDepthFirst,
                       bool bulk = false) {
    Schema schema;
    DocId id = 0;
    for (const std::string& spec : specs) {
      docs_.push_back(MakeDoc(spec, &names_, &values_, id++));
      paths_.push_back(BindPaths(docs_.back(), &dict_));
      schema.Observe(docs_.back(), paths_.back());
    }
    model_ = schema.BuildModel(dict_);
    sequencer_ = MakeSequencer(kind, model_);
    TrieBuilder builder;
    if (bulk) {
      std::vector<std::pair<Sequence, DocId>> input;
      for (size_t i = 0; i < docs_.size(); ++i) {
        input.emplace_back(sequencer_->Encode(docs_[i], paths_[i]),
                           docs_[i].id());
      }
      ASSERT_TRUE(builder.BulkLoad(&input).ok());
    } else {
      for (size_t i = 0; i < docs_.size(); ++i) {
        ASSERT_TRUE(builder
                        .Insert(sequencer_->Encode(docs_[i], paths_[i]),
                                docs_[i].id())
                        .ok());
      }
    }
    index_ = std::move(builder).Freeze();
  }

  /// Compiles a query given as a tree spec (matched with the collection's
  /// sequencer).
  QuerySeq Query(const std::string& spec) {
    queries_.push_back(MakeDoc(spec, &names_, &values_, 9999));
    std::vector<PathId> paths = BindPaths(queries_.back(), &dict_);
    auto q = BuildQuerySeq(queries_.back(), paths, *sequencer_);
    EXPECT_TRUE(q.ok());
    return std::move(*q);
  }

  std::vector<DocId> Run(const QuerySeq& q, MatchMode mode,
                         MatchStats* stats = nullptr) {
    std::vector<DocId> out;
    Status st = MatchSequence(index_, q, mode, &out, stats);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return out;
  }

  NameTable names_;
  ValueEncoder values_;
  PathDict dict_;
  std::vector<Document> docs_;
  std::vector<std::vector<PathId>> paths_;
  std::shared_ptr<const SequencingModel> model_;
  std::unique_ptr<Sequencer> sequencer_;
  FrozenIndex index_;
  std::vector<Document> queries_;
};

TEST_F(MatcherTest, TrieLabelsNestCorrectly) {
  BuildCollection({"P(R(L))", "P(R(M))"});
  // Shared prefix P, PR; leaves PRL / PRM.
  EXPECT_EQ(index_.node_count(), 4u);
  // Serial 0 = P covering everything.
  EXPECT_EQ(index_.end(0), 3u);
  EXPECT_EQ(index_.end(1), 3u);  // PR
  EXPECT_EQ(index_.path(0), paths_[0][docs_[0].root()->index]);
}

TEST_F(MatcherTest, InsertAndBulkLoadProduceSameShape) {
  std::vector<std::string> specs = {"P(R(L),D)", "P(R(M))", "P(D(L))",
                                    "P(R(L),D)"};
  auto shape = [](const std::vector<std::string>& sp, bool bulk) {
    NameTable names;
    ValueEncoder values;
    PathDict dict;
    DepthFirstSequencer df;
    TrieBuilder builder;
    std::vector<std::pair<Sequence, DocId>> input;
    DocId id = 0;
    for (const std::string& s : sp) {
      Document doc = MakeDoc(s, &names, &values, id++);
      Sequence seq = df.Encode(doc, BindPaths(doc, &dict));
      if (bulk) {
        input.emplace_back(std::move(seq), doc.id());
      } else {
        EXPECT_TRUE(builder.Insert(seq, doc.id()).ok());
      }
    }
    if (bulk) {
      EXPECT_TRUE(builder.BulkLoad(&input).ok());
    }
    FrozenIndex idx = std::move(builder).Freeze();
    return std::make_pair(idx.node_count(), idx.total_docs());
  };
  EXPECT_EQ(shape(specs, false), shape(specs, true));

  // A bulk load fills a fresh builder only; Insert() adds to a built trie.
  NameTable names;
  ValueEncoder values;
  PathDict dict;
  Document doc = MakeDoc(specs[0], &names, &values, 0);
  Sequence seq = DepthFirstSequencer().Encode(doc, BindPaths(doc, &dict));
  TrieBuilder builder;
  std::vector<std::pair<Sequence, DocId>> input = {{seq, 0}};
  ASSERT_TRUE(builder.BulkLoad(&input).ok());
  input = {{seq, 1}};
  EXPECT_TRUE(builder.BulkLoad(&input).IsFailedPrecondition());
  EXPECT_TRUE(builder.Insert(seq, 1).ok());
  EXPECT_EQ(std::move(builder).Freeze().total_docs(), 2u);
}

TEST_F(MatcherTest, PathLinksAscendingAndComplete) {
  BuildCollection({"P(R(L),D(L))", "P(D(L))"});
  size_t total = 0;
  for (PathId p = 1; p < dict_.size(); ++p) {
    auto link = index_.Link(p);
    total += link.size();
    for (size_t i = 1; i < link.size(); ++i) {
      EXPECT_LT(link[i - 1].serial, link[i].serial);
    }
    for (const FrozenIndex::LinkEntry& e : link) {
      EXPECT_EQ(index_.path(e.serial), p);
      EXPECT_EQ(index_.end(e.serial), e.end);  // fused pair is consistent
    }
  }
  EXPECT_EQ(total, index_.node_count());
}

TEST_F(MatcherTest, NestedFlagOnlyForIdenticalSiblings) {
  BuildCollection({"P(L(S),L(B))"});
  PathId pl = paths_[0][docs_[0].root()->first_child->index];
  PathId p = paths_[0][docs_[0].root()->index];
  EXPECT_TRUE(index_.HasNested(pl));
  EXPECT_FALSE(index_.HasNested(p));
}

TEST_F(MatcherTest, DocsInSubtreeContiguous) {
  BuildCollection({"P(R)", "P(R(L))", "P(D)"});
  // Subtree of serial 0 (P) holds every document.
  auto all = index_.DocsInSubtree(0);
  EXPECT_EQ(all.size(), 3u);
  // Doc ids are sorted within the subtree span after Freeze's per-node sort
  // + serial-order concatenation; just check the set.
  std::set<DocId> got(all.begin(), all.end());
  EXPECT_EQ(got, (std::set<DocId>{0, 1, 2}));
}

TEST_F(MatcherTest, ExactSubsequenceMatch) {
  BuildCollection({"P(R(L),D(M))", "P(R(M))", "P(D(M))"});
  EXPECT_EQ(Run(Query("P(R(L))"), MatchMode::kConstraint),
            (std::vector<DocId>{0}));
  EXPECT_EQ(Run(Query("P(D(M))"), MatchMode::kConstraint),
            (std::vector<DocId>{0, 2}));
  EXPECT_EQ(Run(Query("P"), MatchMode::kConstraint),
            (std::vector<DocId>{0, 1, 2}));
  EXPECT_TRUE(Run(Query("P(R(X))"), MatchMode::kConstraint).empty());
}

TEST_F(MatcherTest, PaperFigure4FalseAlarm) {
  // D = P(L(S), L(B)); Q = P(L(S, B)). Naive subsequence matching reports a
  // match (the false alarm of Fig. 4/6); constraint matching must not.
  BuildCollection({"P(L(S),L(B))"});
  QuerySeq q = Query("P(L(S,B))");
  MatchStats naive_stats, cs_stats;
  EXPECT_EQ(Run(q, MatchMode::kNaive, &naive_stats),
            (std::vector<DocId>{0}));
  EXPECT_TRUE(Run(q, MatchMode::kConstraint, &cs_stats).empty());
  EXPECT_GT(cs_stats.sibling_checks, 0u);
  EXPECT_GT(cs_stats.sibling_rejections, 0u);
}

TEST_F(MatcherTest, PaperFigure10SiblingCover) {
  // Data <P, PL, PLS, PL, PLB>: query <P, PL, PLS> then PLB under the same
  // PL must be rejected, but matching PLB under the *second* PL (a distinct
  // query branch P(L(S),L(B))) must succeed.
  BuildCollection({"P(L(S),L(B))"});
  EXPECT_EQ(Run(Query("P(L(S),L(B))"), MatchMode::kConstraint),
            (std::vector<DocId>{0}));
  EXPECT_EQ(Run(Query("P(L(S))"), MatchMode::kConstraint),
            (std::vector<DocId>{0}));
  EXPECT_EQ(Run(Query("P(L(B))"), MatchMode::kConstraint),
            (std::vector<DocId>{0}));
  EXPECT_TRUE(Run(Query("P(L(S,B))"), MatchMode::kConstraint).empty());
}

TEST_F(MatcherTest, ConstraintEqualsNaiveWithoutIdenticalSiblings) {
  BuildCollection({"P(R(L),D(M))", "P(R(M),D(L))", "P(R(L,M))"});
  for (const char* qspec : {"P(R(L))", "P(D(M))", "P(R(L),D)", "P(R(L,M))"}) {
    QuerySeq q = Query(qspec);
    EXPECT_EQ(Run(q, MatchMode::kNaive), Run(q, MatchMode::kConstraint))
        << qspec;
  }
}

TEST_F(MatcherTest, IdenticalSiblingCountingRespectsInjectivity) {
  // Query with two D branches requires documents with two distinct D's.
  BuildCollection({"P(D(M),D(M))", "P(D(M))", "P(D(M),D(M),D(M))"});
  EXPECT_EQ(Run(Query("P(D(M),D(M))"), MatchMode::kConstraint),
            (std::vector<DocId>{0, 2}));
  EXPECT_EQ(Run(Query("P(D(M))"), MatchMode::kConstraint),
            (std::vector<DocId>{0, 1, 2}));
  EXPECT_EQ(Run(Query("P(D(M),D(M),D(M))"), MatchMode::kConstraint),
            (std::vector<DocId>{2}));
}

TEST_F(MatcherTest, DeepNestedIdenticalSiblings) {
  // Identical siblings at two levels.
  BuildCollection(
      {"P(D(L(S),L(B)),D(L(S)))", "P(D(L(S)),D(L(B)))"});
  EXPECT_EQ(Run(Query("P(D(L(S),L(B)))"), MatchMode::kConstraint),
            (std::vector<DocId>{0}));
  EXPECT_TRUE(Run(Query("P(D(L(S,B)))"), MatchMode::kConstraint).empty());
}

TEST_F(MatcherTest, SiblingGroupOrderCausesDismissalFixedByIsomorphism) {
  // Doc 0 embeds the query, but only with the query's identical-sibling
  // branches visited in the *other* order — the false-dismissal case of
  // Section 3.2. A single raw match dismisses it; the isomorphic ordering
  // finds it (the executor automates this union).
  BuildCollection({"P(D(L(S),L(B)),D(L(S)))", "P(D(L(S)),D(L(B)))"});
  EXPECT_EQ(Run(Query("P(D(L(S)),D(L(B)))"), MatchMode::kConstraint),
            (std::vector<DocId>{1}));
  EXPECT_EQ(Run(Query("P(D(L(B)),D(L(S)))"), MatchMode::kConstraint),
            (std::vector<DocId>{0}));
}

TEST_F(MatcherTest, ValuesParticipateInMatching) {
  BuildCollection({"P(L('boston'))", "P(L('newyork'))"});
  EXPECT_EQ(Run(Query("P(L('boston'))"), MatchMode::kConstraint),
            (std::vector<DocId>{0}));
  EXPECT_EQ(Run(Query("P(L('newyork'))"), MatchMode::kConstraint),
            (std::vector<DocId>{1}));
}

TEST_F(MatcherTest, ProbabilitySequencerEndToEnd) {
  BuildCollection({"P(R(U(M('a')),L('b')),'x')",
                   "P(R(U(M('c')),L('b')),'y')",
                   "P(R(L('b')))"},
                  SequencerKind::kProbability);
  EXPECT_EQ(Run(Query("P(R(L('b')))"), MatchMode::kConstraint),
            (std::vector<DocId>{0, 1, 2}));
  EXPECT_EQ(Run(Query("P(R(U(M('a'))))"), MatchMode::kConstraint),
            (std::vector<DocId>{0}));
  EXPECT_EQ(Run(Query("P(R(U,L('b')))"), MatchMode::kConstraint),
            (std::vector<DocId>{0, 1}));
}

TEST_F(MatcherTest, EmptyAndInvalidQueriesRejected) {
  BuildCollection({"P(R)"});
  QuerySeq empty;
  std::vector<DocId> out;
  EXPECT_TRUE(MatchSequence(index_, empty, MatchMode::kConstraint, &out)
                  .IsInvalidArgument());
  QuerySeq bad;
  bad.paths = {1, 2};
  bad.parent = {-1, 1};  // parent not before child
  EXPECT_TRUE(MatchSequence(index_, bad, MatchMode::kConstraint, &out)
                  .IsInvalidArgument());
}

TEST_F(MatcherTest, StatsAreAccountedFor) {
  BuildCollection({"P(R(L))", "P(R(M))", "P(D)"});
  MatchStats stats;
  Run(Query("P(R(L))"), MatchMode::kConstraint, &stats);
  EXPECT_GT(stats.link_binary_searches, 0u);
  EXPECT_GT(stats.link_entries_read, 0u);
  EXPECT_GT(stats.candidates, 0u);
  EXPECT_EQ(stats.terminals, 1u);
  EXPECT_EQ(stats.result_docs, 1u);
}

// --- Anchor steering -------------------------------------------------------
//
// A query rooted at the data's root puts a once-occurring path first, so
// its anchor is the last position whose path occurs at most once. The
// cases below that need a repeated or nested anchor path match sequences
// built by hand without the root: tree queries rooted lower down.

TEST_F(MatcherTest, AnchorAtPositionZeroScansEveryEntry) {
  // /P occurs once and /P/R twice, so position 0 anchors and nothing is
  // steered: P and both R entries are candidates.
  BuildCollection({"P(D,R)", "P(R)"});
  QuerySeq q = Query("P(R)");
  EXPECT_EQ(AnchorPosition(q, [&](PathId p) { return index_.LinkSize(p); }),
            0u);
  MatchStats stats;
  EXPECT_EQ(Run(q, MatchMode::kConstraint, &stats),
            (std::vector<DocId>{0, 1}));
  EXPECT_EQ(stats.candidates, 3u);
  EXPECT_EQ(stats.terminals, 2u);
}

TEST_F(MatcherTest, AnchorPathAlsoAtEarlierPosition) {
  // Two b branches (a[b][b] below its root): both positions carry /a/b,
  // the anchor is the second. A b entry is a candidate at position 0 only
  // when another b lies in its range — identical siblings nest in the trie.
  BuildCollection({"a(x,b(e))", "a(b(c),b(d))", "a(b(f),b(g),b(h))"});
  const PathId ab = Query("a(b)").paths.back();
  QuerySeq q;
  q.paths = {ab, ab};
  q.parent = {-1, -1};
  for (MatchMode mode : {MatchMode::kNaive, MatchMode::kConstraint}) {
    MatchStats stats;
    EXPECT_EQ(Run(q, mode, &stats), (std::vector<DocId>{1, 2}));
    EXPECT_EQ(stats.terminals, 4u);
    // Two of the five b entries hold another b; each spawns its frame.
    EXPECT_EQ(stats.candidates, 6u);
  }
}

TEST_F(MatcherTest, AnchorWithNestedOccurrences) {
  // D[L][L] below the root: /P/D/L is the anchor and occurs three times,
  // two of them nested (the L siblings of doc 2). The D entries of docs 0
  // and 1 hold no L and are jumped over in one search. (Children sequence
  // in path-id order, so doc 0 interns A, B, C before D: each D then gets
  // its own trie node behind a different sibling.)
  BuildCollection(
      {"P(A,B,C,D)", "P(B,D)", "P(D(L(S),L(B)))", "P(C,D(L(S)))"});
  QuerySeq chain = Query("P(D(L))");
  const PathId pd = chain.paths[1];
  const PathId pdl = chain.paths[2];
  QuerySeq q;
  q.paths = {pd, pdl, pdl};
  q.parent = {-1, 0, 0};
  for (MatchMode mode : {MatchMode::kNaive, MatchMode::kConstraint}) {
    MatchStats stats;
    EXPECT_EQ(Run(q, mode, &stats), (std::vector<DocId>{2}));
    EXPECT_EQ(stats.terminals, 1u);
    // The D of docs 2 and 3 (doc 3's L is an anchor occurrence) and both
    // L of doc 2: the first steered, the second as the anchor.
    EXPECT_EQ(stats.candidates, 4u);
  }
}

TEST_F(MatcherTest, NextAnchorPastFrameEndExitsEarly) {
  // The only x leaf sits under the first D entry. Past it the D frame ends
  // at the next entry instead of reading the remaining ones.
  BuildCollection({"P(A,B,C,E,D(L('x')))", "P(B,D(L))", "P(C,D(L))",
                   "P(E,D(L))"});
  QuerySeq q = Query("P(D(L('x')))");
  EXPECT_EQ(AnchorPosition(q, [&](PathId p) { return index_.LinkSize(p); }),
            3u);
  MatchStats stats;
  EXPECT_EQ(Run(q, MatchMode::kConstraint, &stats), (std::vector<DocId>{0}));
  EXPECT_EQ(stats.candidates, 4u);  // one per position, all on doc 0
  EXPECT_EQ(stats.terminals, 1u);
  // Four D entries: the frame reads the first two and stops, short of the
  // unsteered chain query.
  MatchStats unsteered;
  EXPECT_EQ(Run(Query("P(D(L))"), MatchMode::kConstraint, &unsteered),
            (std::vector<DocId>{0, 1, 2, 3}));
  EXPECT_LT(stats.link_entries_read, unsteered.link_entries_read);
}

TEST_F(MatcherTest, EmptyAnchorLinkScansNothing) {
  BuildCollection({"P(R(L('a')))", "P(R(L('b')))"});
  QuerySeq q = Query("P(R(L('absent')))");
  EXPECT_EQ(AnchorPosition(q, [&](PathId p) { return index_.LinkSize(p); }),
            3u);
  for (MatchMode mode : {MatchMode::kNaive, MatchMode::kConstraint}) {
    MatchStats stats;
    EXPECT_TRUE(Run(q, mode, &stats).empty());
    EXPECT_EQ(stats.link_entries_read, 0u);
    EXPECT_EQ(stats.link_binary_searches, 0u);
    EXPECT_EQ(stats.candidates, 0u);
  }
}

TEST_F(MatcherTest, JumpWalksCoverChainToOccurrenceHoldingAnchor) {
  // L entries in serial order: doc 0's (no B), then doc 1's outer L, its
  // inner L (no B), and doc 2's B under the outer L. Past doc 0's L the
  // last L before B does not cover it; its cover-chain ancestor does.
  BuildCollection({"P(D,L(S))", "P(L(M),L(T))", "P(L(M,B))"});
  QuerySeq q = Query("P(L(B))");
  for (MatchMode mode : {MatchMode::kNaive, MatchMode::kConstraint}) {
    MatchStats stats;
    EXPECT_EQ(Run(q, mode, &stats), (std::vector<DocId>{2}));
    EXPECT_EQ(stats.terminals, 1u);
  }
}

TEST_F(MatcherTest, JumpLandsOnOutermostOccurrenceHoldingAnchor) {
  // The Figure 4 false alarm behind a jump: the last L before B covers B,
  // and so does its enclosing L, which comes first in the scan. Naive
  // matching finds M and B through the outer L only; the constraint
  // test then rejects B as the inner L's child.
  BuildCollection({"P(D,L(S))", "P(L(M),L(B))"});
  QuerySeq q = Query("P(L(M,B))");
  EXPECT_EQ(Run(q, MatchMode::kNaive), (std::vector<DocId>{1}));
  EXPECT_TRUE(Run(q, MatchMode::kConstraint).empty());
}

TEST_F(MatcherTest, MatchSequenceOnEmptyIndex) {
  Schema schema;
  model_ = schema.BuildModel(dict_);
  sequencer_ = MakeSequencer(SequencerKind::kDepthFirst);
  TrieBuilder builder;
  index_ = std::move(builder).Freeze();
  Document q = MakeDoc("P", &names_, &values_);
  auto qs = BuildQuerySeq(q, BindPaths(q, &dict_), *sequencer_);
  ASSERT_TRUE(qs.ok());
  std::vector<DocId> out;
  EXPECT_TRUE(
      MatchSequence(index_, *qs, MatchMode::kConstraint, &out).ok());
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace xseq
