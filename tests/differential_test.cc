// Randomized differential suite for the query hot-path engine.
//
// The optimized matcher (fused link entries, galloping cursor search,
// cover-forest sibling test, anchor steering, reusable contexts) must
// answer *bit-identically* to the straightforward reference implementation
// of Algorithm 1 — a fresh binary search per probe, a
// binary-search-plus-backward-scan TightestContaining and no steering,
// exactly the shape the engine shipped with — and, in constraint mode, to
// the brute-force oracle. Runs on synthetic corpora
// with heavy identical-sibling nesting and on XMark records, in both
// kNaive and kConstraint modes, through both the in-memory and the paged
// accessor, with one shared MatchContext reused across every call.

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

#include "src/core/collection_index.h"
#include "src/gen/querygen.h"
#include "src/gen/synthetic.h"
#include "src/gen/xmark.h"
#include "src/query/oracle.h"
#include "src/query/plan_cache.h"
#include "src/storage/paged_index.h"

namespace xseq {
namespace {

// --- Reference implementation (the pre-optimization engine) --------------

uint32_t RefUpperBound(std::span<const FrozenIndex::LinkEntry> link,
                       int64_t after) {
  uint32_t lo = 0, hi = static_cast<uint32_t>(link.size());
  while (lo < hi) {
    uint32_t mid = lo + (hi - lo) / 2;
    if (static_cast<int64_t>(link[mid].serial) <= after) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

uint32_t RefTightestContaining(std::span<const FrozenIndex::LinkEntry> link,
                               uint32_t serial) {
  uint32_t idx = RefUpperBound(link, serial);
  while (idx > 0) {
    --idx;
    if (link[idx].end >= serial) return link[idx].serial;
  }
  return 0xFFFFFFFFu;
}

/// Memoized FrozenIndex::Link: links are block-compressed, so Link()
/// decodes the whole link per call — the recursive reference matcher would
/// otherwise re-decode the same link at every level and every cover check.
class RefLinks {
 public:
  explicit RefLinks(const FrozenIndex& fi) : fi_(fi) {}

  std::span<const FrozenIndex::LinkEntry> Get(PathId p) {
    auto it = cache_.find(p);
    if (it == cache_.end()) {
      it = cache_.emplace(p, fi_.Link(p)).first;
    }
    return it->second;
  }

 private:
  const FrozenIndex& fi_;
  std::unordered_map<PathId, std::vector<FrozenIndex::LinkEntry>> cache_;
};

void RefSearch(const FrozenIndex& fi, RefLinks* links, const QuerySeq& q,
               MatchMode mode, size_t i, int64_t v_serial, int64_t v_end,
               std::vector<uint32_t>* matched, std::vector<DocId>* out,
               uint64_t* candidates) {
  if (i == q.size()) {
    auto [lo, hi] =
        fi.DocOffsetsInSubtree(static_cast<uint32_t>(v_serial));
    (void)v_end;
    for (uint32_t off = lo; off < hi; ++off) out->push_back(fi.doc_at(off));
    return;
  }
  PathId p = q.paths[i];
  auto link = links->Get(p);
  for (uint32_t idx = RefUpperBound(link, v_serial); idx < link.size();
       ++idx) {
    uint32_t r = link[idx].serial;
    if (static_cast<int64_t>(r) > v_end) break;
    ++*candidates;
    if (mode == MatchMode::kConstraint && q.parent[i] >= 0) {
      PathId parent_path = q.paths[static_cast<size_t>(q.parent[i])];
      if (fi.HasNested(parent_path)) {
        uint32_t tight =
            RefTightestContaining(links->Get(parent_path), r);
        if (tight != (*matched)[static_cast<size_t>(q.parent[i])]) continue;
      }
    }
    (*matched)[i] = r;
    RefSearch(fi, links, q, mode, i + 1, r, link[idx].end, matched, out,
              candidates);
  }
}

/// Unsteered Algorithm 1 over `seqs`. `candidates`, when given, is
/// increased by the in-range entries it expanded — what the engine would
/// count without anchor steering.
std::vector<DocId> RefMatch(const FrozenIndex& fi,
                            const std::vector<QuerySeq>& seqs,
                            MatchMode mode, uint64_t* candidates = nullptr) {
  std::vector<DocId> out;
  RefLinks links(fi);
  uint64_t expanded = 0;
  for (const QuerySeq& q : seqs) {
    std::vector<uint32_t> matched(q.size());
    if (fi.node_count() > 0) {
      RefSearch(fi, &links, q, mode, 0, -1,
                static_cast<int64_t>(fi.node_count()) - 1, &matched, &out,
                &expanded);
    }
  }
  if (candidates != nullptr) *candidates += expanded;
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// --- Harness -------------------------------------------------------------

void ExpectStatsEqual(const MatchStats& a, const MatchStats& b,
                      const std::string& what) {
  EXPECT_EQ(a.link_binary_searches, b.link_binary_searches) << what;
  EXPECT_EQ(a.link_entries_read, b.link_entries_read) << what;
  EXPECT_EQ(a.link_gallop_probes, b.link_gallop_probes) << what;
  EXPECT_EQ(a.candidates, b.candidates) << what;
  EXPECT_EQ(a.sibling_checks, b.sibling_checks) << what;
  EXPECT_EQ(a.sibling_rejections, b.sibling_rejections) << what;
  EXPECT_EQ(a.terminals, b.terminals) << what;
  EXPECT_EQ(a.result_docs, b.result_docs) << what;
}

/// `queries` random connected sub-patterns of documents drawn from
/// `gen_doc` over ids [0, doc_space).
std::vector<QueryPattern> SampledPatterns(
    const CollectionIndex& idx, const std::function<Document(DocId)>& gen_doc,
    DocId doc_space, int queries, uint64_t seed) {
  Rng rng(seed, 17);
  std::vector<QueryPattern> out;
  for (int qi = 0; qi < queries; ++qi) {
    Document sample = gen_doc(rng.Uniform(doc_space));
    size_t len = 2 + rng.Uniform(6);
    out.push_back(SampleQueryPattern(sample, idx.names(), len, &rng,
                                     /*value_bias=*/0.3));
  }
  return out;
}

/// Candidates expanded over one RunDifferential call (memory accessor,
/// both modes) by the engine and by the unsteered reference.
struct CandidateTotals {
  uint64_t engine = 0;
  uint64_t reference = 0;
};

/// Runs `patterns` against `idx` and cross-checks, per pattern and mode:
/// new engine (memory) == new engine (paged) == reference matcher;
/// constraint mode additionally equals the oracle. One MatchContext is
/// shared across every call to exercise reuse. Adds to `totals` if given.
void RunDifferential(const CollectionIndex& idx,
                     const std::vector<QueryPattern>& patterns,
                     CandidateTotals* totals = nullptr) {
  PagedIndex paged = PagedIndex::Build(idx.index());
  BufferPool pool(&paged.file(), 256);
  MatchContext ctx;  // reused everywhere, including across modes/accessors
  PlanCache plan_cache;  // dedicated, so hit/miss behavior is deterministic
  CandidateTotals local;
  if (totals == nullptr) totals = &local;
  size_t nonempty = 0;

  for (const QueryPattern& pattern : patterns) {
    // The reference set is compiled with the planner off: no pruning, no
    // selectivity reordering, no cache. Everything below must equal what
    // matching this raw set produces.
    ExecOptions raw;
    raw.plan.selectivity = false;
    auto compiled = idx.executor().Compile(pattern, nullptr, raw);
    ASSERT_TRUE(compiled.ok()) << pattern.source;

    for (MatchMode mode : {MatchMode::kNaive, MatchMode::kConstraint}) {
      const char* mode_name =
          mode == MatchMode::kConstraint ? "constraint" : "naive";
      std::string what = pattern.source + " [" + mode_name + "]";

      MatchStats mem_stats, paged_stats;
      std::vector<DocId> mem_out, paged_out;
      for (const QuerySeq& qs : *compiled) {
        ASSERT_TRUE(MatchSequence(idx.index(), qs, mode, &mem_out,
                                  &mem_stats, &ctx)
                        .ok());
        ASSERT_TRUE(
            paged.Match(qs, mode, &pool, &paged_out, &paged_stats, &ctx)
                .ok());
      }
      std::sort(mem_out.begin(), mem_out.end());
      mem_out.erase(std::unique(mem_out.begin(), mem_out.end()),
                    mem_out.end());
      std::sort(paged_out.begin(), paged_out.end());
      paged_out.erase(std::unique(paged_out.begin(), paged_out.end()),
                      paged_out.end());

      std::vector<DocId> ref_out =
          RefMatch(idx.index(), *compiled, mode, &totals->reference);
      totals->engine += mem_stats.candidates;

      EXPECT_EQ(mem_out, ref_out) << what;
      EXPECT_EQ(paged_out, ref_out) << what;

      // Planned execution — zero-cardinality pruning, cost-capped
      // expansion, selectivity ordering and the compiled-query cache —
      // must be bit-identical to the unplanned reference answer, cold
      // (cache miss) and warm (cache hit) alike, with identical compile
      // counters replayed on the hit.
      ExecOptions planned;
      planned.mode = mode;
      planned.plan.cache = &plan_cache;
      planned.plan.cache_key = pattern.source;
      ExecStats cold_stats, warm_stats;
      auto cold = idx.executor().ExecutePattern(pattern, &cold_stats,
                                                planned, &ctx);
      ASSERT_TRUE(cold.ok()) << what;
      auto warm = idx.executor().ExecutePattern(pattern, &warm_stats,
                                                planned, &ctx);
      ASSERT_TRUE(warm.ok()) << what;
      EXPECT_EQ(*cold, ref_out) << what;
      EXPECT_EQ(*warm, ref_out) << what;
      EXPECT_EQ(warm_stats.plan_cache_hits, 1u) << what;
      EXPECT_EQ(warm_stats.instantiations, cold_stats.instantiations)
          << what;
      EXPECT_EQ(warm_stats.orderings, cold_stats.orderings) << what;
      EXPECT_EQ(warm_stats.matched_sequences, cold_stats.matched_sequences)
          << what;
      EXPECT_EQ(warm_stats.pruned_instantiations,
                cold_stats.pruned_instantiations)
          << what;
      // The two accessors run the identical algorithm: every counter must
      // agree, not just the results.
      ExpectStatsEqual(mem_stats, paged_stats, what);
      EXPECT_GE(mem_stats.candidates, mem_stats.terminals) << what;
      if (mode == MatchMode::kNaive) {
        EXPECT_EQ(mem_stats.sibling_checks, 0u) << what;
        EXPECT_EQ(mem_stats.sibling_rejections, 0u) << what;
      }

      if (mode == MatchMode::kConstraint) {
        auto inst = InstantiatePattern(pattern, idx.dict(), idx.names(),
                                       idx.values());
        ASSERT_TRUE(inst.ok());
        std::vector<DocId> expect;
        for (const ConcreteQuery& cq : inst->queries) {
          auto part = OracleScan(idx.documents(), cq);
          expect.insert(expect.end(), part.begin(), part.end());
        }
        std::sort(expect.begin(), expect.end());
        expect.erase(std::unique(expect.begin(), expect.end()),
                     expect.end());
        EXPECT_EQ(mem_out, expect) << what;
        if (!expect.empty()) ++nonempty;
      }
    }
  }
  // The workload must exercise hits, not just misses.
  EXPECT_GT(nonempty, patterns.size() / 6);
}

TEST(DifferentialMatch, HeavyIdenticalSiblingSynthetic) {
  SyntheticParams params;
  params.identical_percent = 85;
  params.value_percent = 25;
  params.value_vocab = 6;  // few distinct values -> dense nested links
  IndexOptions opts;
  opts.keep_documents = true;
  CollectionBuilder builder(opts);
  SyntheticDataset gen(params, builder.names(), builder.values());
  constexpr DocId kDocs = 250;
  for (DocId d = 0; d < kDocs; ++d) {
    ASSERT_TRUE(builder.Add(gen.Generate(d)).ok());
  }
  auto idx = std::move(builder).Finish();
  ASSERT_TRUE(idx.ok());
  ASSERT_TRUE(idx->index().Validate().ok());
  RunDifferential(*idx, SampledPatterns(
                            *idx, [&gen](DocId d) { return gen.Generate(d); },
                            kDocs + 30, /*queries=*/50, /*seed=*/0xD1FF));
}

TEST(DifferentialMatch, DepthFirstSequencerNesting) {
  // Depth-first sequencing produces different (often deeper) nesting in the
  // links than the probability sequencer.
  SyntheticParams params;
  params.identical_percent = 100;
  params.value_percent = 0;
  IndexOptions opts;
  opts.sequencer = SequencerKind::kDepthFirst;
  opts.keep_documents = true;
  CollectionBuilder builder(opts);
  SyntheticDataset gen(params, builder.names(), builder.values());
  constexpr DocId kDocs = 200;
  for (DocId d = 0; d < kDocs; ++d) {
    ASSERT_TRUE(builder.Add(gen.Generate(d)).ok());
  }
  auto idx = std::move(builder).Finish();
  ASSERT_TRUE(idx.ok());
  ASSERT_TRUE(idx->index().Validate().ok());
  RunDifferential(*idx, SampledPatterns(
                            *idx, [&gen](DocId d) { return gen.Generate(d); },
                            kDocs + 20, /*queries=*/40, /*seed=*/0xBEE5));
}

TEST(DifferentialMatch, XMarkRecords) {
  XMarkParams params;
  params.persons = 300;  // small value spaces -> predicates actually hit
  params.categories = 40;
  params.days = 30;
  IndexOptions opts;
  opts.keep_documents = true;
  CollectionBuilder builder(opts);
  XMarkGenerator gen(params, builder.names(), builder.values());
  constexpr DocId kDocs = 220;
  for (DocId d = 0; d < kDocs; ++d) {
    ASSERT_TRUE(builder.Add(gen.Generate(d)).ok());
  }
  auto idx = std::move(builder).Finish();
  ASSERT_TRUE(idx.ok());
  ASSERT_TRUE(idx->index().Validate().ok());
  RunDifferential(*idx, SampledPatterns(
                            *idx, [&gen](DocId d) { return gen.Generate(d); },
                            kDocs, /*queries=*/40, /*seed=*/0x7A6C));
}

// --- At a size where anchor steering jumps ------------------------------
//
// The corpora above hold at most 250 documents, so few nested links span
// more than one 128-entry block. The cases below are large enough for the
// steered scan's jumps to cross blocks and walk cover chains.

/// Blocks in the longest link whose path has nested occurrences.
uint32_t WidestNestedLinkBlocks(const FrozenIndex& fi) {
  uint32_t widest = 0;
  for (PathId p = 0; p < fi.distinct_paths(); ++p) {
    if (fi.HasNested(p)) widest = std::max(widest, fi.LinkBlocks(p));
  }
  return widest;
}

TEST(DifferentialMatch, HeavyIdenticalSiblingSyntheticAtScale) {
  // A wide value vocabulary makes most value leaves occur about once, so
  // sampled patterns that include one anchor on it late in the sequence.
  SyntheticParams params;
  params.identical_percent = 85;
  params.value_percent = 25;
  params.value_vocab = 5000;
  IndexOptions opts;
  opts.keep_documents = true;
  CollectionBuilder builder(opts);
  SyntheticDataset gen(params, builder.names(), builder.values());
  constexpr DocId kDocs = 2000;
  for (DocId d = 0; d < kDocs; ++d) {
    ASSERT_TRUE(builder.Add(gen.Generate(d)).ok());
  }
  auto idx = std::move(builder).Finish();
  ASSERT_TRUE(idx.ok());
  EXPECT_GT(WidestNestedLinkBlocks(idx->index()), 1u);
  CandidateTotals totals;
  RunDifferential(
      *idx,
      SampledPatterns(*idx, [&gen](DocId d) { return gen.Generate(d); },
                      kDocs, /*queries=*/40, /*seed=*/0x5CA1E),
      &totals);
  EXPECT_LT(totals.engine, totals.reference);
}

TEST(DifferentialMatch, XMarkTable7ShapesAtScale) {
  // Q1 texts narrowed by one mail's sender: the sender's value path occurs
  // about once, so the anchor sits late in each sequence, after the
  // nested item/mail positions.
  XMarkParams params;
  IndexOptions opts;
  opts.keep_documents = true;
  CollectionBuilder builder(opts);
  XMarkGenerator gen(params, builder.names(), builder.values());
  constexpr DocId kDocs = 4000;
  for (DocId d = 0; d < kDocs; ++d) {
    ASSERT_TRUE(builder.Add(gen.Generate(d)).ok());
  }
  auto idx = std::move(builder).Finish();
  ASSERT_TRUE(idx.ok());
  EXPECT_GT(WidestNestedLinkBlocks(idx->index()), 1u);
  Rng rng(0x7AB7, 5);
  std::vector<QueryPattern> patterns;
  for (const std::string& text :
       XMarkQ1Texts(gen, idx->names(), kDocs, /*count=*/24, &rng)) {
    auto pattern = ParseXPath(text);
    ASSERT_TRUE(pattern.ok()) << text;
    patterns.push_back(std::move(*pattern));
  }
  ASSERT_EQ(patterns.size(), 24u);
  CandidateTotals totals;
  RunDifferential(*idx, patterns, &totals);
  // Steering skips most of the nested mail occurrences.
  EXPECT_LT(totals.engine * 4, totals.reference);
}

TEST(DifferentialMatch, PersistedImageStaysByteStableAndLoads) {
  // The fused entries and cover forest are derived arrays: the encoded
  // image must be unchanged by a decode/re-encode round trip, and a decoded
  // index must carry valid derived arrays (Validate checks them exactly).
  SyntheticParams params;
  params.identical_percent = 70;
  IndexOptions opts;
  CollectionBuilder builder(opts);
  SyntheticDataset gen(params, builder.names(), builder.values());
  for (DocId d = 0; d < 120; ++d) {
    ASSERT_TRUE(builder.Add(gen.Generate(d)).ok());
  }
  auto idx = std::move(builder).Finish();
  ASSERT_TRUE(idx.ok());

  std::string image;
  idx->index().EncodeTo(&image);
  Decoder in(image);
  auto back = FrozenIndex::DecodeFrom(&in, idx->dict().size());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_TRUE(back->Validate().ok()) << back->Validate().ToString();
  std::string image2;
  back->EncodeTo(&image2);
  EXPECT_EQ(image, image2);

  // The decoded index answers queries identically.
  MatchContext ctx;
  Rng rng(99, 5);
  for (int q = 0; q < 15; ++q) {
    Document sample = gen.Generate(rng.Uniform(120));
    QueryPattern pattern =
        SampleQueryPattern(sample, idx->names(), 4, &rng);
    auto compiled = idx->executor().Compile(pattern);
    ASSERT_TRUE(compiled.ok());
    std::vector<DocId> a, b;
    for (const QuerySeq& qs : *compiled) {
      ASSERT_TRUE(MatchSequence(idx->index(), qs, MatchMode::kConstraint,
                                &a, nullptr, &ctx)
                      .ok());
      ASSERT_TRUE(MatchSequence(*back, qs, MatchMode::kConstraint, &b,
                                nullptr, &ctx)
                      .ok());
    }
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << pattern.source;
  }
}

}  // namespace
}  // namespace xseq
