// Query executor: XPath text -> document ids, via the sequence index.
//
// Pipeline (Sections 3-5):
//   parse -> instantiate '//'/'*' against the path dictionary ->
//   expand identical-sibling orderings (false-dismissal fix) ->
//   compile each concrete tree to a QuerySeq with the *data* sequencer ->
//   constraint subsequence matching (Algorithm 1) -> union of doc ids.
//
// Compiled sequences are deduplicated, so the isomorphism expansion of
// structurally equal branches costs nothing extra at match time.
//
// An executor runs over the parts of one collection: every part is a trie
// and a value index keyed by the one path dictionary, vocabulary,
// sequencer and schema they share. A CollectionIndex or a DynamicIndex
// segment is a one-part executor; the shards of a static ShardedCollection
// are the parts of one.
//
// A query's work splits in two. Once per query (QueryRun), at every public
// entry point on every backend: own the trace, check the deadline, sort and
// deduplicate the answer, and record one xseq.query.* sample. Once per
// catalog (CatalogRun: a static collection, or one DynamicIndex segment):
// compile through the plan cache, then drop, per part, the sequences with
// an empty link in it, order the rest by the part's own link sizes, and
// match.
//
// A query runs start to finish on its calling thread: its parts and
// sequences are matched one after another. Parallelism lives above the
// executor, across queries (execution slots in the server,
// CollectionIndex::QueryBatch) and in index builds.

#ifndef XSEQ_SRC_QUERY_EXECUTOR_H_
#define XSEQ_SRC_QUERY_EXECUTOR_H_

#include <chrono>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "src/index/matcher.h"
#include "src/obs/trace.h"
#include "src/query/instantiate.h"
#include "src/query/isomorph.h"
#include "src/query/planner.h"
#include "src/query/query_pattern.h"
#include "src/schema/schema.h"
#include "src/util/timer.h"
#include "src/vindex/compare.h"

namespace xseq {

/// Steady-clock "now" in microseconds, the time base for
/// ExecOptions::deadline_micros (absolute, not a duration).
inline int64_t DeadlineNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Executor knobs.
struct ExecOptions {
  MatchMode mode = MatchMode::kConstraint;
  InstantiateOptions instantiate;
  IsomorphOptions isomorph;
  /// Planner knobs (selectivity pruning and ordering, plan cache —
  /// see src/query/planner.h). The compiled-query cache engages only when
  /// `plan.cache_key` is set; Execute() keys by the query text, so callers
  /// going through it get caching for free, while direct ExecutePattern
  /// calls stay uncached unless they opt in.
  PlanOptions plan;
  /// Tracing knob: when non-null, every query run with these options
  /// records one span tree (query -> compile -> instantiate -> per-sequence
  /// match; shard and segment probes in between) into the tracer's ring
  /// buffer. Null (the default) costs one pointer compare per stage.
  obs::Tracer* tracer = nullptr;
  /// A trace the caller already owns (the serving layer's request trace):
  /// the query's spans attach under `trace_parent` in `trace`, and
  /// `tracer` is ignored.
  obs::TraceBuilder* trace = nullptr;
  uint32_t trace_parent = obs::kNoSpan;
  /// Explain sink: when non-null, the query adds a structured account of
  /// the plan it ran (instantiations, chosen sequence order with anchors,
  /// predicted vs. actual cost, cache hits) into it: counters add, rows
  /// append. Costs a few planner probes per sequence when set; nothing when
  /// null.
  QueryExplain* explain = nullptr;
  /// Absolute deadline in DeadlineNowMicros() units; 0 = no deadline. The
  /// query checks it when it starts and between matched sequences (not
  /// inside one MatchSequence call) and fails with kDeadlineExceeded once
  /// passed.
  int64_t deadline_micros = 0;

  /// True once the deadline, if any, has passed.
  bool DeadlineExpired() const {
    return deadline_micros > 0 && DeadlineNowMicros() >= deadline_micros;
  }
};

/// Per-query cost breakdown.
struct ExecStats {
  size_t instantiations = 0;   ///< concrete trees after wildcard resolution
  size_t orderings = 0;        ///< trees after isomorphism expansion
  size_t matched_sequences = 0;///< deduplicated sequences actually matched
  bool truncated = false;      ///< an enumeration cap was hit
  MatchStats match;            ///< aggregated Algorithm 1 counters
  int64_t compile_micros = 0;
  int64_t match_micros = 0;
  size_t result_docs = 0;
  size_t plan_cache_hits = 0;  ///< compilations served from the plan cache
  size_t result_cache_hits = 0;///< whole answers served from the result cache
  /// Zero-cardinality wildcard/'//' candidates and compiled sequences the
  /// planner cut before (or instead of) matching. Exact pruning: none of
  /// them could have contributed a result.
  size_t pruned_instantiations = 0;
  /// Comparison-predicate counters (zero for queries without comparisons):
  /// dictionary paths probed in the value index, and postings collected
  /// before intersection.
  uint64_t vindex_probes = 0;
  uint64_t vindex_candidates = 0;
  /// Comparison queries answered from candidate postings alone (the
  /// skeleton was one linear chain a comparison already covers, see
  /// ComparisonImpliesSkeleton) — the structural scan was skipped.
  uint64_t vindex_short_circuits = 0;

  /// Accumulates `o` (mirrors MatchStats::Add).
  void Add(const ExecStats& o) {
    instantiations += o.instantiations;
    orderings += o.orderings;
    matched_sequences += o.matched_sequences;
    truncated = truncated || o.truncated;
    match.Add(o.match);
    compile_micros += o.compile_micros;
    match_micros += o.match_micros;
    result_docs += o.result_docs;
    plan_cache_hits += o.plan_cache_hits;
    result_cache_hits += o.result_cache_hits;
    pruned_instantiations += o.pruned_instantiations;
    vindex_probes += o.vindex_probes;
    vindex_candidates += o.vindex_candidates;
    vindex_short_circuits += o.vindex_short_circuits;
  }
};

/// The vocabulary, path dictionary, sequencer and schema a compile reads;
/// every part of one collection shares them.
struct CatalogView {
  const PathDict* dict = nullptr;
  const NameTable* names = nullptr;
  const ValueEncoder* values = nullptr;
  const Sequencer* sequencer = nullptr;
  /// Build-time statistics for the planner (repeatability); may be null,
  /// planning then uses the parts' exact link cardinalities alone.
  const Schema* schema = nullptr;
};

/// Stateless facade over the pieces a query needs. All referenced objects
/// must outlive the executor.
class QueryExecutor {
 public:
  /// An executor over one part. `plan_cache_id` keys its compiled queries
  /// (0 = never cached); calls that pass no MatchContext lease one from
  /// `contexts` (null = a fresh context per call).
  QueryExecutor(const CatalogView& catalog, IndexPart part,
                uint64_t plan_cache_id, MatchContextPool* contexts)
      : catalog_(catalog),
        one_(part),
        plan_cache_id_(plan_cache_id),
        contexts_(contexts) {}
  /// An executor over several parts sharing `catalog`; `parts` must
  /// outlive it.
  QueryExecutor(const CatalogView& catalog, std::span<const IndexPart> parts,
                uint64_t plan_cache_id, MatchContextPool* contexts)
      : catalog_(catalog),
        parts_(parts),
        plan_cache_id_(plan_cache_id),
        contexts_(contexts) {}

  /// Parses and runs `xpath`; returns sorted, deduplicated document ids.
  /// `ctx`, when given, supplies reusable match scratch (see MatchContext);
  /// it is reused across the query's parts and sequences and across calls.
  StatusOr<std::vector<DocId>> Execute(std::string_view xpath,
                                       ExecStats* stats = nullptr,
                                       const ExecOptions& options = {},
                                       MatchContext* ctx = nullptr) const;

  /// Runs an already-parsed pattern on every part: one QueryRun over one
  /// CatalogRun, matched part by part. The query's counters add to
  /// `stats`.
  StatusOr<std::vector<DocId>> ExecutePattern(
      const QueryPattern& pattern, ExecStats* stats = nullptr,
      const ExecOptions& options = {}, MatchContext* ctx = nullptr) const;

  /// Compiles `pattern` into the deduplicated query sequences that would be
  /// matched (exposed for tests, baselines and benchmarks). Applies the
  /// planner (pruning, selectivity ordering) but never the plan
  /// cache — callers wanting cached compilation go through ExecutePattern
  /// with `options.plan.cache_key` set.
  StatusOr<std::vector<QuerySeq>> Compile(const QueryPattern& pattern,
                                          ExecStats* stats = nullptr,
                                          const ExecOptions& options = {})
      const;

 private:
  friend class CatalogRun;

  /// The full compile pipeline: instantiate (with pruning) -> ordering
  /// expansion -> sequence build -> dedup -> selectivity order. Its spans
  /// hang under `trace_parent`.
  StatusOr<CompiledQuery> CompileInternal(const QueryPattern& pattern,
                                          const ExecOptions& options,
                                          uint32_t trace_parent) const;

  size_t part_count() const { return parts_.empty() ? 1 : parts_.size(); }
  const IndexPart& part(size_t p) const {
    return parts_.empty() ? one_ : parts_[p];
  }

  /// Plans over every part (cardinalities summed over them).
  QueryPlanner Planner() const {
    return parts_.empty() ? QueryPlanner(one_.index, catalog_.schema)
                          : QueryPlanner(parts_, catalog_.schema);
  }

  CatalogView catalog_;
  IndexPart one_;                      ///< the part, when parts_ is empty
  std::span<const IndexPart> parts_;
  uint64_t plan_cache_id_ = 0;
  MatchContextPool* contexts_ = nullptr;
};

/// One query, from a public entry point to its answer, on the calling
/// thread: the work done once per query on every backend. Start() opens a
/// trace the run owns when the options carry only a tracer, and checks the
/// deadline; the query's catalogs then write into stats(), the explain
/// and the trace; Finish() sorts and deduplicates the union of their
/// answers and sets result_docs. On every exit path the destructor records
/// the query's one xseq.query.* sample from stats() and commits the owned
/// trace. QueryExecutor::ExecutePattern, DynamicIndex::ExecutePattern and
/// ShardedCollection::Query each run one.
class QueryRun {
 public:
  /// `root` names the root span of a trace the run owns.
  explicit QueryRun(const ExecOptions& options, const char* root = "query");
  ~QueryRun();

  QueryRun(const QueryRun&) = delete;
  QueryRun& operator=(const QueryRun&) = delete;

  Status Start();

  /// The options the query's catalogs run with: the trace wired to the
  /// root span, never a tracer.
  const ExecOptions& options() const { return options_; }
  /// This query's own counters.
  ExecStats* stats() { return &stats_; }
  /// The trace this query records into (null when untraced) and its root.
  obs::TraceBuilder* trace() const { return options_.trace; }
  uint32_t root_span() const { return options_.trace_parent; }

  /// Closes a successful query: sorts and deduplicates `docs` and records
  /// their number.
  std::vector<DocId> Finish(std::vector<DocId> docs);

 private:
  Timer timer_;
  ExecOptions options_;
  const char* root_;
  obs::Tracer* commit_to_ = nullptr;
  obs::TraceBuilder owned_trace_;
  ExecStats stats_;
  bool ok_ = false;
};

/// One query's work on the parts of one catalog (a static collection or
/// one DynamicIndex segment): the plan is resolved at most once, through
/// the plan cache, and matched part by part. Counters add to `stats`,
/// explain rows go to `options.explain`, and spans hang under
/// `trace_parent` in `options.trace`: those of the caller's QueryRun.
/// `pattern`, `stats`, `options` and the executor must outlive the run.
class CatalogRun {
 public:
  CatalogRun(const QueryExecutor& executor, const QueryPattern& pattern,
             ExecStats* stats, const ExecOptions& options,
             uint32_t trace_parent);

  CatalogRun(const CatalogRun&) = delete;
  CatalogRun& operator=(const CatalogRun&) = delete;

  /// Splits off comparison predicates and compiles — unless the query has
  /// comparisons, whose parts compile only when their value postings leave
  /// a structural match to do.
  Status Start();

  /// Answers the query on part `p`: its sorted, deduplicated ids. The
  /// part's spans hang under `trace_parent` (kNoSpan = the run's), and
  /// explain gets one row per matched sequence.
  StatusOr<std::vector<DocId>> MatchPart(size_t p, MatchContext* ctx,
                                         uint32_t trace_parent = obs::kNoSpan);

 private:
  /// Resolves the plan: a plan-cache hit or one compile (then published).
  Status EnsurePlan();
  /// Matches the plan's sequences on part `p`, in that part's order.
  StatusOr<std::vector<DocId>> MatchPlan(size_t p, MatchContext* ctx,
                                         uint32_t trace_parent);

  const QueryExecutor& executor_;
  const QueryPattern* pattern_;   ///< the structural pattern to compile
  ExecStats* stats_;
  const ExecOptions& options_;
  uint32_t trace_parent_;
  QueryPattern skeleton_;                  ///< `pattern` minus comparisons
  std::vector<ValueComparison> comparisons_;
  bool comparisons_imply_skeleton_ = false;
  std::shared_ptr<const CompiledQuery> plan_;
};

}  // namespace xseq

#endif  // XSEQ_SRC_QUERY_EXECUTOR_H_
