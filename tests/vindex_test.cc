// Value-index subsystem tests: typed ordering, postings construction and
// persistence, the XPath comparison grammar (including the malformed-input
// fuzz required of the parser), range queries end to end against a
// brute-force oracle in all three value modes, mutable documents
// (delete/update/compact) on DynamicIndex and ShardedCollection with
// randomized interleaved mutate/query schedules, and the wire ops that
// carry mutations (encode/decode, end-to-end server round trips).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/core/collection_index.h"
#include "src/core/dynamic_index.h"
#include "src/core/persist.h"
#include "src/query/instantiate.h"
#include "src/query/oracle.h"
#include "src/query/query_pattern.h"
#include "src/seq/path_dict.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/server/sharded_collection.h"
#include "src/server/socket.h"
#include "src/vindex/compare.h"
#include "src/vindex/value_index.h"
#include "src/xml/parser.h"
#include "src/xml/value_chain.h"
#include "tests/test_util.h"

namespace xseq {
namespace {

using testing::MakeDoc;
using testing::MakeIndex;

// ---------------------------------------------------------------------------
// Typed ordering primitives.

TEST(ParseWholeNumberTest, AcceptsWholeFiniteNumbers) {
  double v = 0.0;
  EXPECT_TRUE(ParseWholeNumber("30", &v));
  EXPECT_EQ(v, 30.0);
  EXPECT_TRUE(ParseWholeNumber(" 4.5 ", &v));
  EXPECT_EQ(v, 4.5);
  EXPECT_TRUE(ParseWholeNumber("1e3", &v));
  EXPECT_EQ(v, 1000.0);
  EXPECT_TRUE(ParseWholeNumber("-7", &v));
  EXPECT_EQ(v, -7.0);
}

TEST(ParseWholeNumberTest, RejectsPartialEmptyAndNonFinite) {
  double v = 0.0;
  EXPECT_FALSE(ParseWholeNumber("", &v));
  EXPECT_FALSE(ParseWholeNumber("   ", &v));
  EXPECT_FALSE(ParseWholeNumber("10x", &v));
  EXPECT_FALSE(ParseWholeNumber("x10", &v));
  EXPECT_FALSE(ParseWholeNumber("07/05/2000", &v));
  EXPECT_FALSE(ParseWholeNumber("inf", &v));
  EXPECT_FALSE(ParseWholeNumber("nan", &v));
}

TEST(ValueSatisfiesTest, NumericComparisons) {
  const TypedValue thirty = TypedValue::Of("30");
  ASSERT_TRUE(thirty.numeric);
  EXPECT_TRUE(ValueSatisfies("5", CompareOp::kLt, thirty));
  EXPECT_FALSE(ValueSatisfies("30", CompareOp::kLt, thirty));
  EXPECT_TRUE(ValueSatisfies("30", CompareOp::kLe, thirty));
  EXPECT_TRUE(ValueSatisfies("100", CompareOp::kGt, thirty));
  EXPECT_FALSE(ValueSatisfies("30", CompareOp::kGt, thirty));
  EXPECT_TRUE(ValueSatisfies("30", CompareOp::kGe, thirty));
  // Numeric comparison is by value, not by text: "1e2" and " 30 " parse.
  EXPECT_TRUE(ValueSatisfies("1e2", CompareOp::kGt, thirty));
  EXPECT_TRUE(ValueSatisfies(" 30 ", CompareOp::kLe, thirty));
}

TEST(ValueSatisfiesTest, OrderingNeverCrossesTypeClasses) {
  // "apple < 30" has no meaningful answer: ordering comparisons with a
  // numeric literal are invisible to string values, and vice versa.
  const TypedValue thirty = TypedValue::Of("30");
  const TypedValue apple = TypedValue::Of("apple");
  ASSERT_FALSE(apple.numeric);
  EXPECT_FALSE(ValueSatisfies("apple", CompareOp::kLt, thirty));
  EXPECT_FALSE(ValueSatisfies("apple", CompareOp::kGt, thirty));
  EXPECT_FALSE(ValueSatisfies("30", CompareOp::kLt, apple));
  EXPECT_FALSE(ValueSatisfies("30", CompareOp::kGt, apple));
  EXPECT_TRUE(ValueSatisfies("ant", CompareOp::kLt, apple));
  EXPECT_TRUE(ValueSatisfies("pear", CompareOp::kGe, apple));
}

TEST(ValueSatisfiesTest, NotEqualIsRawTextInequality) {
  const TypedValue thirty = TypedValue::Of("30");
  EXPECT_FALSE(ValueSatisfies("30", CompareOp::kNe, thirty));
  // "30.0" equals 30 numerically but differs as raw text.
  EXPECT_TRUE(ValueSatisfies("30.0", CompareOp::kNe, thirty));
  EXPECT_TRUE(ValueSatisfies("apple", CompareOp::kNe, thirty));
}

// ---------------------------------------------------------------------------
// ValueIndex construction, probing, persistence.

ValueIndex SmallIndex() {
  ValueIndexBuilder b;
  b.Add(/*parent=*/7, "30", /*doc=*/1);
  b.Add(7, "5", 2);
  b.Add(7, "apple", 3);
  b.Add(7, "pear", 4);
  b.Add(7, "100", 5);
  b.Add(7, "30", 6);
  b.Add(3, "zebra", 9);
  // An exact duplicate triple carries no information and is dropped.
  b.Add(7, "30", 1);
  return std::move(b).Build();
}

std::vector<DocId> CollectSorted(const ValueIndex& vi, PathId path,
                                 CompareOp op, std::string_view lit) {
  std::vector<DocId> out;
  vi.Collect(path, op, TypedValue::Of(lit), &out);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ValueIndexTest, CollectAnswersEveryOperator) {
  ValueIndex vi = SmallIndex();
  ASSERT_TRUE(vi.Validate().ok());
  EXPECT_EQ(vi.path_count(), 2u);
  EXPECT_EQ(vi.entry_count(), 7u);  // the duplicate triple was dropped

  EXPECT_EQ(CollectSorted(vi, 7, CompareOp::kLt, "30"),
            (std::vector<DocId>{2}));
  EXPECT_EQ(CollectSorted(vi, 7, CompareOp::kLe, "30"),
            (std::vector<DocId>{1, 2, 6}));
  EXPECT_EQ(CollectSorted(vi, 7, CompareOp::kGt, "30"),
            (std::vector<DocId>{5}));
  EXPECT_EQ(CollectSorted(vi, 7, CompareOp::kGe, "30"),
            (std::vector<DocId>{1, 5, 6}));
  // != sweeps the whole span, numbers and strings alike.
  EXPECT_EQ(CollectSorted(vi, 7, CompareOp::kNe, "30"),
            (std::vector<DocId>{2, 3, 4, 5}));
  // String literals bind to the string suffix only.
  EXPECT_EQ(CollectSorted(vi, 7, CompareOp::kGe, "apple"),
            (std::vector<DocId>{3, 4}));
  EXPECT_EQ(CollectSorted(vi, 7, CompareOp::kLt, "pear"),
            (std::vector<DocId>{3}));
  EXPECT_EQ(CollectSorted(vi, 3, CompareOp::kGe, "a"),
            (std::vector<DocId>{9}));
}

TEST(ValueIndexTest, CollectUnknownPathIsNoOp) {
  ValueIndex vi = SmallIndex();
  std::vector<DocId> out;
  vi.Collect(/*path=*/42, CompareOp::kNe, TypedValue::Of(""), &out);
  EXPECT_TRUE(out.empty());
}

TEST(ValueIndexTest, EncodeDecodeRoundTrip) {
  ValueIndex vi = SmallIndex();
  std::string bytes;
  vi.EncodeTo(&bytes);
  Decoder in(bytes);
  auto back = ValueIndex::DecodeFrom(&in);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_TRUE(back->Validate().ok());
  EXPECT_EQ(back->path_count(), vi.path_count());
  EXPECT_EQ(back->entry_count(), vi.entry_count());
  for (CompareOp op : {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                       CompareOp::kGe, CompareOp::kNe}) {
    for (const char* lit : {"30", "apple", "0", "zz"}) {
      EXPECT_EQ(CollectSorted(*back, 7, op, lit),
                CollectSorted(vi, 7, op, lit));
    }
  }
}

TEST(ValueIndexTest, DecodeRejectsEveryTruncation) {
  ValueIndex vi = SmallIndex();
  std::string bytes;
  vi.EncodeTo(&bytes);
  for (size_t len = 0; len < bytes.size(); ++len) {
    Decoder in(std::string_view(bytes).substr(0, len));
    auto r = ValueIndex::DecodeFrom(&in);
    EXPECT_FALSE(r.ok()) << "decoded from " << len << " of " << bytes.size()
                         << " bytes";
  }
}

TEST(ValueIndexTest, EmptyIndexRoundTrips) {
  ValueIndex vi = ValueIndexBuilder().Build();
  EXPECT_TRUE(vi.empty());
  ASSERT_TRUE(vi.Validate().ok());
  std::string bytes;
  vi.EncodeTo(&bytes);
  Decoder in(bytes);
  auto back = ValueIndex::DecodeFrom(&in);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
  EXPECT_TRUE(back->Validate().ok());
}

// ---------------------------------------------------------------------------
// Comparison grammar + malformed-input behavior (the parser fuzz).

CompareOp SoleComparisonOp(const QueryPattern& p) {
  std::vector<ValueComparison> cmps;
  StripComparisons(p, &cmps);
  EXPECT_EQ(cmps.size(), 1u);
  return cmps.empty() ? CompareOp::kLt : cmps[0].op;
}

TEST(ComparisonParseTest, AllFiveOperators) {
  struct Case {
    const char* xpath;
    CompareOp op;
  } cases[] = {
      {"/a[b < 30]", CompareOp::kLt},   {"/a[b <= 30]", CompareOp::kLe},
      {"/a[b > 30]", CompareOp::kGt},   {"/a[b >= 30]", CompareOp::kGe},
      {"/a[b != 30]", CompareOp::kNe},  {"/a/b[. < 'x']", CompareOp::kLt},
      {"/a/b[text() >= 7]", CompareOp::kGe},
  };
  for (const Case& c : cases) {
    auto p = ParseXPath(c.xpath);
    ASSERT_TRUE(p.ok()) << c.xpath << ": " << p.status().ToString();
    EXPECT_TRUE(HasComparisons(*p)) << c.xpath;
    EXPECT_EQ(SoleComparisonOp(*p), c.op) << c.xpath;
  }
}

TEST(ComparisonParseTest, EqualityStaysStructural) {
  auto p = ParseXPath("/a[b = 30]");
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(HasComparisons(*p));
}

TEST(ComparisonParseTest, StripKeepsHostElement) {
  auto p = ParseXPath("/a//b[c/d < 30]/e");
  ASSERT_TRUE(p.ok());
  std::vector<ValueComparison> cmps;
  QueryPattern skeleton = StripComparisons(*p, &cmps);
  ASSERT_EQ(cmps.size(), 1u);
  EXPECT_EQ(cmps[0].op, CompareOp::kLt);
  EXPECT_TRUE(cmps[0].literal.numeric);
  // Chain: a // b / c / d, the d being the comparison's host element.
  ASSERT_EQ(cmps[0].steps.size(), 4u);
  EXPECT_EQ(cmps[0].steps[0].name, "a");
  EXPECT_FALSE(cmps[0].steps[0].descendant);
  EXPECT_EQ(cmps[0].steps[1].name, "b");
  EXPECT_TRUE(cmps[0].steps[1].descendant);
  EXPECT_EQ(cmps[0].steps[3].name, "d");
  // The skeleton keeps /a//b[c/d]/e — only the value test is removed.
  EXPECT_FALSE(HasComparisons(skeleton));
  EXPECT_EQ(skeleton.NodeCount(), p->NodeCount() - 1);
}

TEST(ParseErrorTest, TrailingGarbageNamesTheOffset) {
  auto p = ParseXPath("/a/b]extra");
  ASSERT_FALSE(p.ok());
  EXPECT_TRUE(p.status().IsInvalidArgument());
  EXPECT_NE(p.status().message().find("offset 4"), std::string::npos)
      << p.status().ToString();
  EXPECT_NE(p.status().message().find("trailing characters"),
            std::string::npos);
}

TEST(ParseErrorTest, UnterminatedPredicateNamesTheOpenBracket) {
  auto p = ParseXPath("/a/b[c < 30");
  ASSERT_FALSE(p.ok());
  EXPECT_TRUE(p.status().IsInvalidArgument());
  EXPECT_NE(p.status().message().find("']' closing the '[' at offset 4"),
            std::string::npos)
      << p.status().ToString();
}

TEST(ParseErrorTest, ComparisonWithoutLeftHandPath) {
  auto p = ParseXPath("/a[< 30]");
  ASSERT_FALSE(p.ok());
  EXPECT_TRUE(p.status().IsInvalidArgument());
}

TEST(ParseErrorTest, UnterminatedLiteral) {
  auto p = ParseXPath("/a[b < 'unclosed]");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.status().message().find("unterminated literal"),
            std::string::npos);
}

TEST(ParseErrorTest, EveryErrorNamesAByteOffset) {
  for (const char* bad : {"", "   ", "/", "/a[", "/a[]", "/a[b <", "/a]b",
                          "/a[b < 30]]", "/a/b[c", "//[x<1]", "/a[!b]"}) {
    auto p = ParseXPath(bad);
    ASSERT_FALSE(p.ok()) << "'" << bad << "' parsed";
    EXPECT_TRUE(p.status().IsInvalidArgument()) << bad;
    EXPECT_NE(p.status().message().find("at offset"), std::string::npos)
        << "'" << bad << "': " << p.status().ToString();
  }
}

TEST(ParseFuzzTest, RandomGarbageNeverCrashesAndAlwaysAttributes) {
  // Random byte strings over the grammar's alphabet: the parser must
  // terminate, never crash, and classify every rejection as
  // kInvalidArgument with a byte offset.
  const std::string alphabet = "/[]<>=!.'\"ab3 *@()-";
  std::mt19937 rng(0xF022u);
  for (int i = 0; i < 3000; ++i) {
    std::string s;
    const size_t len = rng() % 24;
    for (size_t j = 0; j < len; ++j) {
      s.push_back(alphabet[rng() % alphabet.size()]);
    }
    auto p = ParseXPath(s);
    if (!p.ok()) {
      EXPECT_TRUE(p.status().IsInvalidArgument()) << "'" << s << "'";
      EXPECT_NE(p.status().message().find("XPath parse error at offset"),
                std::string::npos)
          << "'" << s << "': " << p.status().ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// Brute-force oracle for comparison queries (the unsealed-scan shape,
// independent of any frozen index or value-index probe).

std::vector<DocId> BruteAnswer(const std::vector<Document>& docs,
                               const NameTable& names,
                               const ValueEncoder& values,
                               const std::string& xpath) {
  auto pattern = ParseXPath(xpath);
  EXPECT_TRUE(pattern.ok()) << xpath;
  if (!pattern.ok() || docs.empty()) return {};
  std::vector<ValueComparison> cmps;
  QueryPattern skeleton;
  const QueryPattern* effective = &*pattern;
  if (HasComparisons(*pattern)) {
    skeleton = StripComparisons(*pattern, &cmps);
    effective = &skeleton;
  }
  const bool chain_mode = values.mode() == ValueMode::kCharSequence;
  std::vector<Document> expanded;
  if (chain_mode) {
    expanded.reserve(docs.size());
    for (const Document& doc : docs) {
      expanded.push_back(ExpandValueChains(doc));
    }
  }
  const std::vector<Document>& scan = chain_mode ? expanded : docs;
  PathDict dict;
  for (const Document& doc : scan) BindPaths(doc, &dict);
  auto inst = InstantiatePattern(*effective, dict, names, values);
  EXPECT_TRUE(inst.ok()) << xpath;
  if (!inst.ok()) return {};
  std::vector<DocId> out;
  for (const ConcreteQuery& cq : inst->queries) {
    std::vector<DocId> part = OracleScan(scan, cq);
    out.insert(out.end(), part.begin(), part.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  if (!cmps.empty()) {
    std::vector<DocId> kept;
    for (DocId d : out) {
      for (const Document& doc : docs) {
        if (doc.id() == d && DocMatchesComparisons(doc, names, cmps)) {
          kept.push_back(d);
          break;
        }
      }
    }
    out = std::move(kept);
  }
  return out;
}

const std::vector<std::string>& CorpusSpecs() {
  static const std::vector<std::string> specs = {
      "a(b('5'),c('apple'))",
      "a(b('17'),c('pear'))",
      "a(b('30'),c('zebra'))",
      "a(b('42'),c('apple'))",
      "a(b('100'),b(c('7')))",
      "a(b('3.5'),c('07/05/2000'))",
      "a(b('1e2'),c('x9'))",
      "a(b('zzz'),c('5'))",
      "a(c('30'))",
      "a(b('30'),b('apple'))",
      "a(b(c('42')),c('pear'))",
      "a(b(' 30 '))",
  };
  return specs;
}

const std::vector<std::string>& RangeQueries() {
  static const std::vector<std::string> queries = {
      "/a/b[. < 30]",
      "/a/b[. <= 30]",
      "/a/b[. > 30]",
      "/a/b[. >= 30]",
      "/a/b[. != 30]",
      "/a[b < 30]",
      "/a[b >= 'apple']",
      "/a//c[. < 'pear']",
      "/a/b[c > 5]",
      "//c[. != 'apple']",
      "/a[b <= 30][c >= 'apple']",
      "/a/b[. < 'zzz']",
      "/a[b > 1000]",
      "/a/b[. >= 3][. <= 40]",
  };
  return queries;
}

const std::vector<std::string>& ExactQueries() {
  static const std::vector<std::string> queries = {
      "/a/b", "/a/b[c='7']", "//c", "/a[b='30']/c", "/a/b[c='42']",
  };
  return queries;
}

// ---------------------------------------------------------------------------
// End-to-end range queries over the frozen index, all three value modes.

class VindexModeTest : public ::testing::TestWithParam<ValueMode> {};

TEST_P(VindexModeTest, RangeQueriesMatchBruteOracle) {
  IndexOptions opts;
  opts.value_mode = GetParam();
  CollectionIndex idx = MakeIndex(CorpusSpecs(), opts);
  ASSERT_TRUE(idx.vindex().Validate().ok());
  EXPECT_GT(idx.vindex().entry_count(), 0u);
  for (const std::string& q : RangeQueries()) {
    auto got = idx.Query(q);
    ASSERT_TRUE(got.ok()) << q << ": " << got.status().ToString();
    EXPECT_EQ(got->docs,
              BruteAnswer(idx.documents(), idx.names(), idx.values(), q))
        << q;
    // Every comparison query consults the value index.
    EXPECT_GT(got->stats.vindex_probes, 0u) << q;
  }
}

TEST_P(VindexModeTest, ExactQueriesNeverTouchTheValueIndex) {
  IndexOptions opts;
  opts.value_mode = GetParam();
  CollectionIndex idx = MakeIndex(CorpusSpecs(), opts);
  for (const std::string& q : ExactQueries()) {
    auto got = idx.Query(q);
    ASSERT_TRUE(got.ok()) << q << ": " << got.status().ToString();
    EXPECT_EQ(got->stats.vindex_probes, 0u) << q;
    EXPECT_EQ(got->stats.vindex_candidates, 0u) << q;
    EXPECT_EQ(got->docs,
              BruteAnswer(idx.documents(), idx.names(), idx.values(), q))
        << q;
  }
}

TEST_P(VindexModeTest, LinearChainsSkipTheStructuralScan) {
  IndexOptions opts;
  opts.value_mode = GetParam();
  CollectionIndex idx = MakeIndex(CorpusSpecs(), opts);
  // A single-chain skeleton covered by its comparison is answered from the
  // candidate postings alone (ComparisonImpliesSkeleton): the scan is
  // skipped and the answer still matches the brute oracle.
  for (const char* q : {"/a/b[. < 30]", "//c[. != 'apple']", "/a[b < 30]",
                        "/a/b[c > 5]", "/a/b[. >= 3][. <= 40]"}) {
    auto got = idx.Query(q);
    ASSERT_TRUE(got.ok()) << q << ": " << got.status().ToString();
    EXPECT_EQ(got->stats.vindex_short_circuits, 1u) << q;
    EXPECT_EQ(got->docs,
              BruteAnswer(idx.documents(), idx.names(), idx.values(), q))
        << q;
  }
  // A branching skeleton is NOT implied by any one comparison chain — the
  // structural match must still run.
  for (const char* q : {"/a[b <= 30][c >= 'apple']", "/a[b < 30]/c"}) {
    auto got = idx.Query(q);
    ASSERT_TRUE(got.ok()) << q << ": " << got.status().ToString();
    EXPECT_EQ(got->stats.vindex_short_circuits, 0u) << q;
    EXPECT_EQ(got->docs,
              BruteAnswer(idx.documents(), idx.names(), idx.values(), q))
        << q;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, VindexModeTest,
                         ::testing::Values(ValueMode::kExact,
                                           ValueMode::kHashed,
                                           ValueMode::kCharSequence));

// ---------------------------------------------------------------------------
// Persistence: the image carries the vindex.

TEST(VindexPersistTest, V4ImageRoundTripsValueIndex) {
  CollectionIndex idx = MakeIndex(CorpusSpecs());
  const std::string bytes = EncodeCollectionIndex(idx);
  auto back = DecodeCollectionIndex(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_TRUE(back->vindex().Validate().ok());
  EXPECT_EQ(back->vindex().entry_count(), idx.vindex().entry_count());
  for (const std::string& q : RangeQueries()) {
    auto got = back->Query(q);
    ASSERT_TRUE(got.ok()) << q;
    auto want = idx.Query(q);
    ASSERT_TRUE(want.ok()) << q;
    EXPECT_EQ(got->docs, want->docs) << q;
  }
}

TEST(VindexPersistTest, InspectReportsVindexSection) {
  CollectionIndex idx = MakeIndex(CorpusSpecs());
  IndexFileReport report = InspectEncodedIndex(EncodeCollectionIndex(idx));
  ASSERT_TRUE(report.magic_ok);
  bool has_section = false;
  for (const IndexSectionInfo& s : report.sections) {
    if (s.name == "vindex") {
      has_section = true;
      EXPECT_TRUE(s.checksum_ok);
      EXPECT_GT(s.length, 0u);
    }
  }
  EXPECT_TRUE(has_section);
  EXPECT_EQ(report.vindex_entries, idx.vindex().entry_count());
  EXPECT_EQ(report.vindex_paths, idx.vindex().path_count());
}

// ---------------------------------------------------------------------------
// DynamicIndex mutation semantics.

DynamicOptions SerialDynamicOptions(size_t flush_threshold,
                                    ValueMode mode = ValueMode::kExact) {
  DynamicOptions opts;
  opts.index.value_mode = mode;
  opts.flush_threshold = flush_threshold;
  return opts;
}

TEST(DynamicMutationTest, DeleteErasesBufferedDocuments) {
  DynamicIndex dyn(SerialDynamicOptions(/*flush_threshold=*/100));
  for (DocId id = 0; id < 3; ++id) {
    ASSERT_TRUE(
        dyn.Add(MakeDoc("a(b('5'))", dyn.names(), dyn.values(), id)).ok());
  }
  const uint64_t gen = dyn.generation();
  ASSERT_TRUE(dyn.Delete(1).ok());
  EXPECT_GT(dyn.generation(), gen);
  EXPECT_EQ(dyn.buffered_documents(), 2u);
  EXPECT_EQ(dyn.total_documents(), 2u);
  EXPECT_EQ(dyn.tombstoned_documents(), 0u);  // erased outright, no stone
  auto got = dyn.Query("/a/b");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, (std::vector<DocId>{0, 2}));
}

TEST(DynamicMutationTest, DeleteTombstonesSealedDocuments) {
  DynamicIndex dyn(SerialDynamicOptions(/*flush_threshold=*/2));
  for (DocId id = 0; id < 4; ++id) {
    ASSERT_TRUE(
        dyn.Add(MakeDoc("a(b('5'))", dyn.names(), dyn.values(), id)).ok());
  }
  ASSERT_GE(dyn.segment_count(), 1u);
  ASSERT_TRUE(dyn.Delete(0).ok());
  EXPECT_EQ(dyn.tombstoned_documents(), 1u);
  EXPECT_EQ(dyn.total_documents(), 3u);
  auto got = dyn.Query("/a/b");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, (std::vector<DocId>{1, 2, 3}));
  // Range queries honor tombstones too (sealed segments probe the vindex).
  auto range = dyn.Query("/a/b[. < 10]");
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(*range, (std::vector<DocId>{1, 2, 3}));
  // Compaction purges the tombstones without changing any answer.
  ASSERT_TRUE(dyn.Compact().ok());
  EXPECT_EQ(dyn.tombstoned_documents(), 0u);
  got = dyn.Query("/a/b");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, (std::vector<DocId>{1, 2, 3}));
}

TEST(DynamicMutationTest, UpdateReplacesAtomicallyUnderOneGeneration) {
  DynamicIndex dyn(SerialDynamicOptions(/*flush_threshold=*/2));
  for (DocId id = 0; id < 4; ++id) {
    ASSERT_TRUE(
        dyn.Add(MakeDoc("a(b('5'))", dyn.names(), dyn.values(), id)).ok());
  }
  const uint64_t gen = dyn.generation();
  ASSERT_TRUE(
      dyn.Update(MakeDoc("a(b('99'))", dyn.names(), dyn.values(), 2), 2)
          .ok());
  EXPECT_EQ(dyn.generation(), gen + 1);  // one bump, not delete + add
  EXPECT_EQ(dyn.total_documents(), 4u);
  auto low = dyn.Query("/a/b[. < 10]");
  ASSERT_TRUE(low.ok());
  EXPECT_EQ(*low, (std::vector<DocId>{0, 1, 3}));
  auto high = dyn.Query("/a/b[. > 50]");
  ASSERT_TRUE(high.ok());
  EXPECT_EQ(*high, (std::vector<DocId>{2}));
}

TEST(DynamicMutationTest, DeletingAMissingIdStillBumpsTheGeneration) {
  DynamicIndex dyn(SerialDynamicOptions(/*flush_threshold=*/100));
  const uint64_t gen = dyn.generation();
  ASSERT_TRUE(dyn.Delete(12345).ok());
  EXPECT_EQ(dyn.generation(), gen + 1);
  EXPECT_EQ(dyn.total_documents(), 0u);
}

// ---------------------------------------------------------------------------
// Randomized interleaved mutate/query differential against the oracle.

std::string RandomSpec(std::mt19937* rng) {
  static const char* kValues[] = {"5",   "17",    "30",   "42",  "100",
                                  "3.5", "1e2",   "apple", "pear", "zebra",
                                  "x9",  "07/05/2000"};
  auto v = [&] {
    return std::string("'") +
           kValues[(*rng)() % (sizeof(kValues) / sizeof(kValues[0]))] + "'";
  };
  switch ((*rng)() % 4) {
    case 0:
      return "a(b(" + v() + "),c(" + v() + "))";
    case 1:
      return "a(b(" + v() + "),b(c(" + v() + ")))";
    case 2:
      return "a(c(" + v() + "))";
    default:
      return "a(b(c(" + v() + ")),c(" + v() + "),b(" + v() + "))";
  }
}

/// Runs one randomized add/delete/update/flush/compact schedule against a
/// backend, checking every query in RangeQueries() + ExactQueries() against
/// the brute-force oracle at periodic checkpoints. The backend is driven
/// through the three std::functions so DynamicIndex and ShardedCollection
/// share one schedule.
struct MutableBackend {
  std::function<Status(const std::string& spec, DocId id)> add;
  std::function<Status(DocId id)> del;
  std::function<Status(const std::string& spec, DocId id)> update;
  std::function<Status()> flush;    ///< may be null
  std::function<Status()> compact;  ///< may be null
  std::function<StatusOr<std::vector<DocId>>(const std::string&)> query;
};

void RunMutationDifferential(const MutableBackend& backend, ValueMode mode,
                             uint32_t seed, int steps) {
  std::mt19937 rng(seed);
  std::map<DocId, std::string> live;
  NameTable oracle_names;
  ValueEncoder oracle_values(mode);
  DocId next_id = 0;

  auto check = [&](const char* when) {
    std::vector<Document> docs;
    docs.reserve(live.size());
    for (const auto& [id, spec] : live) {
      docs.push_back(MakeDoc(spec, &oracle_names, &oracle_values, id));
    }
    for (const std::string& q : RangeQueries()) {
      auto got = backend.query(q);
      ASSERT_TRUE(got.ok()) << when << " " << q << ": "
                            << got.status().ToString();
      EXPECT_EQ(*got, BruteAnswer(docs, oracle_names, oracle_values, q))
          << when << " " << q;
    }
    for (const std::string& q : ExactQueries()) {
      auto got = backend.query(q);
      ASSERT_TRUE(got.ok()) << when << " " << q;
      EXPECT_EQ(*got, BruteAnswer(docs, oracle_names, oracle_values, q))
          << when << " " << q;
    }
  };

  for (int step = 0; step < steps; ++step) {
    const uint32_t roll = rng() % 10;
    if (roll < 5 || next_id == 0) {
      const DocId id = next_id++;
      const std::string spec = RandomSpec(&rng);
      ASSERT_TRUE(backend.add(spec, id).ok()) << "add " << id;
      live[id] = spec;
    } else if (roll < 7) {
      const DocId id = rng() % next_id;  // may or may not be live
      ASSERT_TRUE(backend.del(id).ok()) << "delete " << id;
      live.erase(id);
    } else if (roll == 7) {
      const DocId id = rng() % next_id;  // update revives deleted ids too
      const std::string spec = RandomSpec(&rng);
      ASSERT_TRUE(backend.update(spec, id).ok()) << "update " << id;
      live[id] = spec;
    } else if (roll == 8 && backend.flush != nullptr) {
      ASSERT_TRUE(backend.flush().ok());
    } else if (roll == 9 && backend.compact != nullptr && step % 3 == 0) {
      ASSERT_TRUE(backend.compact().ok());
    }
    if (step % 15 == 14) {
      ASSERT_NO_FATAL_FAILURE(check("mid-schedule"));
    }
  }
  ASSERT_NO_FATAL_FAILURE(check("final"));
  if (backend.compact != nullptr) {
    ASSERT_TRUE(backend.compact().ok());
    ASSERT_NO_FATAL_FAILURE(check("post-compact"));
  }
}

MutableBackend WrapDynamic(DynamicIndex* dyn) {
  MutableBackend b;
  b.add = [dyn](const std::string& spec, DocId id) {
    return dyn->Add(MakeDoc(spec, dyn->names(), dyn->values(), id));
  };
  b.del = [dyn](DocId id) { return dyn->Delete(id); };
  b.update = [dyn](const std::string& spec, DocId id) {
    return dyn->Update(MakeDoc(spec, dyn->names(), dyn->values(), id), id);
  };
  b.flush = [dyn] { return dyn->Flush(); };
  b.compact = [dyn] { return dyn->Compact(); };
  b.query = [dyn](const std::string& q) { return dyn->Query(q); };
  return b;
}

class MutationDifferentialTest : public ::testing::TestWithParam<ValueMode> {
};

TEST_P(MutationDifferentialTest, DynamicIndexTinySegments) {
  // flush_threshold 1: every document seals into its own segment, so the
  // schedule exercises tombstones and vindex probes maximally.
  DynamicIndex dyn(SerialDynamicOptions(1, GetParam()));
  RunMutationDifferential(WrapDynamic(&dyn), GetParam(), /*seed=*/0xA11CE,
                          /*steps=*/60);
}

TEST_P(MutationDifferentialTest, DynamicIndexMixedSegmentsAndBuffer) {
  // flush_threshold 4: mutations land in buffered and sealed documents
  // alike.
  DynamicIndex dyn(SerialDynamicOptions(4, GetParam()));
  RunMutationDifferential(WrapDynamic(&dyn), GetParam(), /*seed=*/0xB0B,
                          /*steps=*/90);
}

TEST_P(MutationDifferentialTest, DynamicIndexBufferOnly) {
  // Threshold above the schedule length: deletes always hit the buffer
  // unless an explicit Flush seals it mid-run.
  DynamicIndex dyn(SerialDynamicOptions(1024, GetParam()));
  RunMutationDifferential(WrapDynamic(&dyn), GetParam(), /*seed=*/0xCAFE,
                          /*steps=*/60);
}

TEST_P(MutationDifferentialTest, ShardedDynamicCollection) {
  ShardedOptions opts;
  opts.shards = 3;
  opts.dynamic = true;
  opts.flush_threshold = 4;
  opts.index.value_mode = GetParam();
  ShardedCollection coll(opts);
  MutableBackend b;
  b.add = [&coll](const std::string& spec, DocId id) {
    const size_t shard = coll.ShardOf(id);
    return coll.Add(
        MakeDoc(spec, coll.names(shard), coll.values(shard), id));
  };
  b.del = [&coll](DocId id) { return coll.Delete(id); };
  b.update = [&coll](const std::string& spec, DocId id) {
    const size_t shard = coll.ShardOf(id);
    return coll.Update(
        MakeDoc(spec, coll.names(shard), coll.values(shard), id), id);
  };
  b.compact = [&coll] { return coll.Compact(); };
  b.query = [&coll](const std::string& q) -> StatusOr<std::vector<DocId>> {
    auto r = coll.Query(q);
    if (!r.ok()) return r.status();
    return std::move(r->docs);
  };
  RunMutationDifferential(b, GetParam(), /*seed=*/0xD00D, /*steps=*/90);
}

INSTANTIATE_TEST_SUITE_P(AllModes, MutationDifferentialTest,
                         ::testing::Values(ValueMode::kExact,
                                           ValueMode::kHashed,
                                           ValueMode::kCharSequence));

TEST(ShardedMutationTest, StaticBackendRefusesMutations) {
  ShardedOptions opts;
  opts.shards = 2;
  ShardedCollection coll(opts);
  for (DocId id = 0; id < 4; ++id) {
    const size_t shard = coll.ShardOf(id);
    ASSERT_TRUE(
        coll.Add(MakeDoc("a(b('5'))", coll.names(shard), coll.values(shard),
                         id))
            .ok());
  }
  ASSERT_TRUE(coll.Seal().ok());
  EXPECT_TRUE(coll.Delete(1).IsFailedPrecondition());
  NameTable names;
  ValueEncoder values;
  EXPECT_TRUE(coll.Update(MakeDoc("a(b('9'))", &names, &values, 1), 1)
                  .IsFailedPrecondition());
  EXPECT_TRUE(coll.Compact().IsFailedPrecondition());
}

// ---------------------------------------------------------------------------
// Wire mutation ops: encode/decode, end-to-end mutations.

TEST(WireV5Test, MutationRequestsRoundTrip) {
  WireRequest del;
  del.op = WireOp::kDelete;
  del.id = 9;
  del.doc_id = 0xDEADBEEFull;
  WireRequest upd;
  upd.op = WireOp::kUpdate;
  upd.id = 10;
  upd.doc_id = 7;
  upd.update_xml = "<a><b>30</b></a>";
  WireRequest cmp;
  cmp.op = WireOp::kCompact;
  cmp.id = 11;
  for (const WireRequest* req : {&del, &upd, &cmp}) {
    std::string body;
    EncodeRequestBody(*req, &body);
    WireRequest back;
    ASSERT_TRUE(DecodeRequestBody(body, &back).ok());
    EXPECT_EQ(static_cast<uint8_t>(body[0]), kWireVersion);
    EXPECT_EQ(back.op, req->op);
    EXPECT_EQ(back.id, req->id);
    EXPECT_EQ(back.doc_id, req->doc_id);
    EXPECT_EQ(back.update_xml, req->update_xml);
    // Every strict prefix is rejected, never misread.
    for (size_t len = 0; len < body.size(); ++len) {
      WireRequest trunc;
      EXPECT_FALSE(
          DecodeRequestBody(std::string_view(body).substr(0, len), &trunc)
              .ok())
          << "op " << static_cast<int>(req->op) << " len " << len;
    }
  }
}

TEST(WireV5Test, MutationAcksCarryTheGeneration) {
  for (WireOp op : {WireOp::kDelete, WireOp::kUpdate, WireOp::kCompact}) {
    WireResponse resp;
    resp.op = op;
    resp.id = 3;
    resp.generation = 0x1234567890ull;
    std::string body;
    EncodeResponseBody(resp, &body);
    WireResponse back;
    ASSERT_TRUE(DecodeResponseBody(body, &back).ok());
    EXPECT_EQ(back.op, op);
    EXPECT_EQ(back.generation, resp.generation);
  }
}

/// End-to-end fixture mirroring server_test.cc's, plus mutation handlers.
class VindexServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options, QueryService::Backend backend) {
    options.host = "mem";
    options.socket_env = &env_;
    server_ = std::make_unique<XseqServer>(std::move(backend),
                                           std::move(options));
    ASSERT_TRUE(server_->Start().ok());
  }

  XseqClient Connect() {
    auto client = XseqClient::Connect("mem", server_->port(), &env_);
    EXPECT_TRUE(client.ok());
    return std::move(*client);
  }

  MemorySocketEnv env_;
  std::unique_ptr<XseqServer> server_;
};

TEST_F(VindexServerTest, DeleteUpdateCompactOverTheWire) {
  auto dyn = std::make_shared<DynamicIndex>(
      SerialDynamicOptions(/*flush_threshold=*/2));
  for (DocId id = 0; id < 4; ++id) {
    const std::string value = std::to_string(5 + 10 * id);  // 5,15,25,35
    ASSERT_TRUE(dyn->Add(MakeDoc("a(b('" + value + "'))", dyn->names(),
                                 dyn->values(), id))
                    .ok());
  }
  ServerOptions options;
  options.delete_handler = [dyn](uint64_t id) -> StatusOr<uint64_t> {
    XSEQ_RETURN_IF_ERROR(dyn->Delete(static_cast<DocId>(id)));
    return dyn->generation();
  };
  options.update_handler =
      [dyn](uint64_t id, const std::string& xml) -> StatusOr<uint64_t> {
    XmlParser parser(dyn->names(), dyn->values());
    auto doc = parser.Parse(xml, static_cast<DocId>(id));
    if (!doc.ok()) return doc.status();
    XSEQ_RETURN_IF_ERROR(
        dyn->Update(std::move(*doc), static_cast<DocId>(id)));
    return dyn->generation();
  };
  options.compact_handler = [dyn]() -> StatusOr<uint64_t> {
    XSEQ_RETURN_IF_ERROR(dyn->Compact());
    return dyn->generation();
  };
  StartServer(std::move(options),
              [dyn](std::string_view xpath,
                    const ExecOptions& opts) -> StatusOr<QueryResult> {
                auto docs = dyn->Query(xpath, opts);
                if (!docs.ok()) return docs.status();
                QueryResult out;
                out.docs = std::move(*docs);
                return out;
              });
  XseqClient client = Connect();

  auto initial = client.Query("/a/b[. < 30]");
  ASSERT_TRUE(initial.ok()) << initial.status().ToString();
  EXPECT_EQ(initial->docs, (std::vector<DocId>{0, 1, 2}));

  // Delete a sealed document; the range answer loses it immediately.
  auto gen1 = client.Delete(1);
  ASSERT_TRUE(gen1.ok()) << gen1.status().ToString();
  auto after_delete = client.Query("/a/b[. < 30]");
  ASSERT_TRUE(after_delete.ok());
  EXPECT_EQ(after_delete->docs, (std::vector<DocId>{0, 2}));

  // Update doc 3 (35 -> 7): parsed server-side, visible in the next query.
  auto gen2 = client.Update(3, "<a><b>7</b></a>");
  ASSERT_TRUE(gen2.ok()) << gen2.status().ToString();
  EXPECT_GT(*gen2, *gen1);
  auto after_update = client.Query("/a/b[. < 30]");
  ASSERT_TRUE(after_update.ok());
  EXPECT_EQ(after_update->docs, (std::vector<DocId>{0, 2, 3}));

  // A malformed update surfaces the parse error; nothing changes.
  auto bad = client.Update(3, "<a><b>oops");
  ASSERT_FALSE(bad.ok());
  auto unchanged = client.Query("/a/b[. < 30]");
  ASSERT_TRUE(unchanged.ok());
  EXPECT_EQ(unchanged->docs, (std::vector<DocId>{0, 2, 3}));

  // Compaction purges the tombstones and keeps the answers identical.
  auto gen3 = client.Compact();
  ASSERT_TRUE(gen3.ok()) << gen3.status().ToString();
  EXPECT_GT(*gen3, *gen2);
  EXPECT_EQ(dyn->tombstoned_documents(), 0u);
  auto after_compact = client.Query("/a/b[. < 30]");
  ASSERT_TRUE(after_compact.ok());
  EXPECT_EQ(after_compact->docs, (std::vector<DocId>{0, 2, 3}));

  client.Close();
  server_->Stop();
}

TEST_F(VindexServerTest, ImmutableBackendAnswersUnimplemented) {
  CollectionIndex idx = MakeIndex(CorpusSpecs());
  StartServer(ServerOptions{},
              [&idx](std::string_view xpath, const ExecOptions& opts) {
                return idx.Query(xpath, opts);
              });
  XseqClient client = Connect();
  for (auto call : {+[](XseqClient* c) { return c->Delete(1).status(); },
                    +[](XseqClient* c) {
                      return c->Update(1, "<a/>").status();
                    },
                    +[](XseqClient* c) { return c->Compact().status(); }}) {
    Status st = call(&client);
    ASSERT_FALSE(st.ok());
    EXPECT_TRUE(st.IsUnimplemented()) << st.ToString();
    EXPECT_NE(st.message().find("immutable"), std::string::npos)
        << st.ToString();
  }
  // Range queries still work against the static backend over the wire.
  auto range = client.Query("/a[b < 30]");
  ASSERT_TRUE(range.ok());
  auto want = idx.Query("/a[b < 30]");
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(range->docs, want->docs);
  client.Close();
  server_->Stop();
}

}  // namespace
}  // namespace xseq
