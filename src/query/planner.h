// Query planner: selectivity-aware compilation of query patterns.
//
// The schema layer computes occurrence statistics at build time — counts
// behind p(C|parent) / p(C|root), repeatability, weights w(C) — but until
// this layer they were consulted only when *sequencing data*. The planner
// reuses them (plus the index's own horizontal links, whose lengths are the
// exact per-path occurrence cardinalities: |Link(C)| = count(C), the
// empirical numerator of p(C|root)) at *query* time:
//
//   * instantiation pruning: a '//' or '*' resolution whose path has zero
//     occurrences in the target index cannot contribute a match, so the
//     candidate is dropped before the ordering expansion fans out. Exact —
//     an empty link means zero terminals, so results are bit-identical.
//   * selectivity ordering: each compiled sequence's most selective
//     position (minimum link cardinality, the last such position — the
//     anchor Algorithm 1 steers by, see AnchorPosition) is computed;
//     sequences whose anchor has zero occurrences are skipped outright,
//     the rest are matched most-selective-first so short-circuiting work
//     (deadlines, shared match contexts) sees cheap sequences early. The
//     result union is sorted and deduplicated, so ordering is unobservable
//     in output.
//
// CompiledQuery is the unit the plan cache (src/query/plan_cache.h) stores.

#ifndef XSEQ_SRC_QUERY_PLANNER_H_
#define XSEQ_SRC_QUERY_PLANNER_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/index/matcher.h"
#include "src/index/trie.h"
#include "src/query/instantiate.h"
#include "src/schema/schema.h"

namespace xseq {

class PlanCache;
class ValueIndex;

/// One part of a collection as the planner and executor read it: a trie
/// (links and doc lists) and the value index over the same documents,
/// both keyed by the PathIds of the dictionary every part shares.
struct IndexPart {
  const FrozenIndex* index = nullptr;
  const ValueIndex* vindex = nullptr;
};

/// The process-wide compiled-query cache (see src/query/plan_cache.h);
/// declared here so PlanOptions can default to it without the full type.
PlanCache* DefaultPlanCache();

/// Planner knobs, carried inside ExecOptions.
struct PlanOptions {
  /// Master switch for the exact selectivity optimizations (instantiation
  /// pruning + zero-anchor skipping + most-selective-first ordering).
  /// These never change results; off reproduces the pre-planner pipeline.
  bool selectivity = true;
  /// Compiled-query cache; null disables plan caching. Only consulted when
  /// `cache_key` is set (Execute() keys by query text; pattern-level entry
  /// points opt in by supplying a key whose text identifies the query).
  PlanCache* cache = DefaultPlanCache();
  /// Cache identity of the query within one index/options context. Must
  /// outlive the Execute/ExecutePattern call that carries it.
  std::string_view cache_key{};
};

/// A planned, deduplicated, selectivity-ordered compilation of one query
/// against the parts of one collection — everything match-time needs, plus
/// the compile-side counters so a cache hit replays identical ExecStats.
/// Pruning and ordering use the link cardinalities summed over the parts,
/// so a one-part plan is filtered and ordered for exactly that part; each
/// part of a larger collection drops and orders the sequences again by its
/// own links before matching (QueryPlanner::PartOrder).
struct CompiledQuery {
  std::vector<QuerySeq> sequences;
  size_t instantiations = 0;  ///< concrete trees after wildcard resolution
  size_t orderings = 0;       ///< trees after isomorphism expansion
  size_t pruned = 0;          ///< zero-cardinality candidates/sequences cut
  bool truncated = false;     ///< an enumeration cap was hit
  /// Planner-predicted match work (sum over concrete trees of orderings ×
  /// estimated per-ordering entries, saturating), reported by explain.
  /// Stored so a plan-cache hit replays the same explain output as a fresh
  /// compile.
  uint64_t predicted_cost = 0;

  /// Approximate heap footprint, used for cache byte accounting.
  size_t MemoryBytes() const;
};

/// A structured account of what the planner and executor did for one query
/// — the "explain" record surfaced by `xseq_client query --explain`,
/// `xseq_tool explain`, and the serving-plane access log. Every catalog a
/// query compiles against adds its counters and appends its rows, so one
/// explain covers every shard and dynamic segment of the query.
struct QueryExplain {
  size_t instantiations = 0;   ///< concrete trees after wildcard resolution
  size_t orderings = 0;        ///< trees after isomorphism expansion
  size_t pruned = 0;           ///< planner-cut candidates and sequences
  size_t sequences = 0;        ///< deduplicated sequences actually matched
  bool plan_cache_hit = false; ///< compilation served from the plan cache
  bool result_cache_hit = false;  ///< whole answer served from result cache
  bool truncated = false;
  uint64_t predicted_cost = 0; ///< planner estimate (link entries)
  uint64_t actual_cost = 0;    ///< link entries actually read matching
  int64_t compile_micros = 0;
  int64_t match_micros = 0;
  size_t result_docs = 0;

  /// One matched sequence, in the selectivity order the planner chose.
  struct SeqEntry {
    uint32_t positions = 0;           ///< sequence length
    uint64_t anchor_cardinality = 0;  ///< min link cardinality
    uint32_t anchor = 0;              ///< position the matcher steers by
    int32_t shard = -1;               ///< owning shard, -1 = unsharded
  };
  std::vector<SeqEntry> seq;

  /// Scatter-gather fan-out: one row per probed shard.
  struct ShardBreakdown {
    int32_t shard = 0;
    uint64_t docs = 0;
    uint64_t entries_read = 0;
    int64_t micros = 0;
  };
  std::vector<ShardBreakdown> shards;

  /// One-line-per-field JSON object (no trailing newline), embeddable in
  /// the access log and stable for tests.
  std::string ToJson() const;

  /// Human-readable rendering for the CLIs.
  std::string ToString() const;
};

/// Stateless planning helpers over one index, or over the parts of one
/// collection (and optionally their shared schema). The referenced objects
/// must outlive the planner.
class QueryPlanner {
 public:
  explicit QueryPlanner(const FrozenIndex* index,
                        const Schema* schema = nullptr)
      : index_(index), schema_(schema) {}
  /// Over several parts: cardinalities are sums over the parts.
  QueryPlanner(std::span<const IndexPart> parts, const Schema* schema)
      : index_(nullptr), parts_(parts), schema_(schema) {}

  /// Exact occurrence count of `path` (its link length, summed over the
  /// parts).
  uint64_t Cardinality(PathId path) const {
    if (index_ != nullptr) return index_->LinkSize(path);
    uint64_t n = 0;
    for (const IndexPart& part : parts_) n += part.index->LinkSize(path);
    return n;
  }

  /// True when `path` occurs at all — the instantiation pruning predicate.
  bool Viable(PathId path) const {
    if (index_ != nullptr) return index_->LinkSize(path) != 0;
    for (const IndexPart& part : parts_) {
      if (part.index->LinkSize(path) != 0) return true;
    }
    return false;
  }

  /// Number of orderings ExpandIsomorphisms would emit for `query`:
  /// the product of factorials of its identical-path sibling group sizes,
  /// saturated at `cap` (so callers can compare against a budget without
  /// overflow).
  static uint64_t PredictedOrderings(const ConcreteQuery& query, uint64_t cap);

  /// Estimated link entries Algorithm 1 touches matching one ordering of
  /// `query`: the sum of its paths' cardinalities, doubled for paths the
  /// schema marks repeatable (nested occurrences trigger the sibling-cover
  /// machinery). Saturating.
  uint64_t EstimatedMatchCost(const ConcreteQuery& query) const;

  /// Per-sequence selectivity: the minimum link cardinality over its
  /// positions and the last position attaining it — the anchor the matcher
  /// steers by (AnchorPosition).
  struct SeqSelectivity {
    uint64_t min_cardinality = 0;
    size_t anchor = 0;
  };
  SeqSelectivity Selectivity(const QuerySeq& seq) const;

  /// Drops sequences whose anchor cardinality is zero (they cannot match)
  /// and stably orders the rest most-selective-first. Returns the number
  /// dropped.
  size_t OrderBySelectivity(std::vector<QuerySeq>* seqs) const;

  /// The same selection and order as positions into `seqs`, which stay
  /// untouched: how one part matches a plan shared by several parts.
  std::vector<uint32_t> PartOrder(const std::vector<QuerySeq>& seqs) const;

 private:
  const FrozenIndex* index_;
  std::span<const IndexPart> parts_;
  const Schema* schema_;
};

}  // namespace xseq

#endif  // XSEQ_SRC_QUERY_PLANNER_H_
