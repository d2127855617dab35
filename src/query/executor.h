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
// A query runs start to finish on its calling thread: its sequences are
// matched one after another. Parallelism lives above the executor, across
// queries (execution slots in the server, CollectionIndex::QueryBatch) and
// in index builds.

#ifndef XSEQ_SRC_QUERY_EXECUTOR_H_
#define XSEQ_SRC_QUERY_EXECUTOR_H_

#include <chrono>
#include <string_view>
#include <vector>

#include "src/index/matcher.h"
#include "src/obs/trace.h"
#include "src/query/instantiate.h"
#include "src/query/isomorph.h"
#include "src/query/planner.h"
#include "src/query/query_pattern.h"
#include "src/schema/schema.h"

namespace xseq {

class ValueIndex;

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
  /// records a span tree (query -> compile -> instantiate -> per-sequence
  /// match; DynamicIndex adds per-segment probe spans) into the tracer's
  /// ring buffer. Null (the default) costs one pointer compare per stage.
  obs::Tracer* tracer = nullptr;
  /// Internal tracing plumbing: when a surrounding execution (a
  /// DynamicIndex query probing its segments) already owns a trace, it
  /// points `trace` at its builder and `trace_parent` at the span the
  /// nested call should attach under; `tracer` is then ignored. End users
  /// set `tracer` only.
  obs::TraceBuilder* trace = nullptr;
  uint32_t trace_parent = obs::kNoSpan;
  /// Explain sink: when non-null, ExecutePattern *accumulates* a structured
  /// account of the plan it ran (instantiations, chosen sequence order with
  /// anchors, predicted vs. actual cost, cache hits) into it. Accumulation
  /// (not assignment) lets one explain aggregate the nested executions of a
  /// DynamicIndex query or a sharded query. Costs a few planner
  /// probes per sequence when set; nothing when null.
  QueryExplain* explain = nullptr;
  /// Absolute deadline in DeadlineNowMicros() units; 0 = no deadline. The
  /// executor checks it between pipeline stages and between matched
  /// sequences (not inside one MatchSequence call) and fails the query
  /// with kDeadlineExceeded once passed. Propagates into nested executions
  /// (DynamicIndex segment probes) because it rides in the options.
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

  /// Accumulates `o` (mirrors MatchStats::Add); used wherever per-segment
  /// or per-batch stats are aggregated.
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

/// Stateless facade over the pieces a query needs. All referenced objects
/// must outlive the executor.
class QueryExecutor {
 public:
  /// `schema`, when non-null, supplies the planner's build-time statistics
  /// (repeatability, weights); planning still works without it using the
  /// index's exact link cardinalities alone. `vindex` answers comparison
  /// predicates ([price < 30]).
  QueryExecutor(const FrozenIndex* index, const PathDict* dict,
                const NameTable* names, const ValueEncoder* values,
                const Sequencer* sequencer, const Schema* schema,
                const ValueIndex& vindex)
      : index_(index),
        dict_(dict),
        names_(names),
        values_(values),
        sequencer_(sequencer),
        schema_(schema),
        vindex_(&vindex) {}

  /// Parses and runs `xpath`; returns sorted, deduplicated document ids.
  /// `ctx`, when given, supplies reusable match scratch (see MatchContext);
  /// it is reused across the query's compiled sequences and across calls.
  StatusOr<std::vector<DocId>> Execute(std::string_view xpath,
                                       ExecStats* stats = nullptr,
                                       const ExecOptions& options = {},
                                       MatchContext* ctx = nullptr) const;

  /// Runs an already-parsed pattern.
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
  /// The full compile pipeline: instantiate (with pruning) -> cost-capped
  /// ordering expansion -> sequence build -> dedup -> selectivity order.
  StatusOr<CompiledQuery> CompileInternal(const QueryPattern& pattern,
                                          const ExecOptions& options) const;

  const FrozenIndex* index_;
  const PathDict* dict_;
  const NameTable* names_;
  const ValueEncoder* values_;
  const Sequencer* sequencer_;
  const Schema* schema_;
  const ValueIndex* vindex_;
  /// Leased to calls that pass no MatchContext, so matching stays
  /// allocation-free across queries (the decoded-block cache in
  /// particular is too big to rebuild per call).
  mutable MatchContextPool ctx_pool_;
};

}  // namespace xseq

#endif  // XSEQ_SRC_QUERY_EXECUTOR_H_
