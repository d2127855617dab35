#include "src/query/executor.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>

#include "src/obs/metrics.h"
#include "src/query/plan_cache.h"
#include "src/util/timer.h"
#include "src/vindex/compare.h"

namespace xseq {

namespace {

Status DeadlineError() {
  return Status::DeadlineExceeded("query deadline exceeded");
}

std::string SeqKey(const QuerySeq& q) {
  std::string key;
  key.reserve(q.paths.size() * 8);
  for (size_t i = 0; i < q.paths.size(); ++i) {
    key.append(reinterpret_cast<const char*>(&q.paths[i]), sizeof(PathId));
    key.append(reinterpret_cast<const char*>(&q.parent[i]), sizeof(int32_t));
  }
  return key;
}

/// Full cache identity of a compiled query: the caller's key (the query
/// text) plus every knob that changes compile output. The index identity is
/// prepended by the cache itself.
std::string BuildPlanCacheKey(const ExecOptions& o) {
  std::string key(o.plan.cache_key);
  key.push_back('\0');
  auto put = [&key](uint64_t v) {
    key.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(o.instantiate.max_instantiations);
  put(o.isomorph.max_orderings);
  put(o.plan.selectivity ? 1 : 0);
  return key;
}

/// Registry handles for the executor-level query metrics, resolved once.
struct QueryMetricSet {
  obs::Counter* queries;
  obs::Counter* errors;
  obs::Counter* truncated;
  obs::Counter* pruned;
  obs::Histogram* latency_us;
  obs::Histogram* compile_us;
  obs::Histogram* match_us;
  obs::Histogram* result_docs;
};

const QueryMetricSet& QueryMetrics() {
  static const QueryMetricSet s = [] {
    obs::MetricsRegistry* r = obs::MetricsRegistry::Default();
    return QueryMetricSet{r->GetCounter("xseq.query.count"),
                          r->GetCounter("xseq.query.errors"),
                          r->GetCounter("xseq.query.truncated"),
                          r->GetCounter("xseq.plan.pruned"),
                          r->GetHistogram("xseq.query.latency_us"),
                          r->GetHistogram("xseq.query.compile_us"),
                          r->GetHistogram("xseq.query.match_us"),
                          r->GetHistogram("xseq.query.result_docs")};
  }();
  return s;
}

/// Runs on every exit path of ExecutePattern: commits an owned trace to its
/// tracer and feeds the query metrics (latency measured here, compile /
/// match micros supplied as this call's deltas by the caller).
struct QueryReporter {
  Timer timer;
  obs::TraceBuilder* owned_trace = nullptr;
  obs::Tracer* commit_to = nullptr;
  bool ok = false;
  bool truncated = false;
  uint64_t compile_us = 0;
  uint64_t match_us = 0;
  uint64_t result_docs = 0;
  uint64_t pruned = 0;

  ~QueryReporter() {
    if (owned_trace != nullptr && commit_to != nullptr) {
      owned_trace->Commit(commit_to);
    }
    if (!obs::MetricsEnabled()) return;
    const QueryMetricSet& m = QueryMetrics();
    m.queries->Increment();
    if (!ok) m.errors->Increment();
    if (truncated) m.truncated->Increment();
    if (pruned > 0) m.pruned->Add(pruned);
    m.latency_us->Record(static_cast<uint64_t>(timer.ElapsedMicros()));
    m.compile_us->Record(compile_us);
    m.match_us->Record(match_us);
    m.result_docs->Record(result_docs);
  }
};

}  // namespace

StatusOr<CompiledQuery> QueryExecutor::CompileInternal(
    const QueryPattern& pattern, const ExecOptions& options) const {
  CompiledQuery out;
  QueryPlanner planner(index_, schema_);

  obs::SpanScope compile_span(options.trace, "compile",
                              options.trace_parent);
  InstantiateOptions inst_opts = options.instantiate;
  if (options.plan.selectivity) {
    // Compose the planner's exact zero-cardinality predicate with any
    // caller-supplied one.
    auto caller = inst_opts.viable;
    inst_opts.viable = [&planner, caller](PathId p) {
      return planner.Viable(p) && (!caller || caller(p));
    };
  }
  auto inst = [&] {
    obs::SpanScope inst_span(options.trace, "instantiate",
                             compile_span.id());
    auto result =
        InstantiatePattern(pattern, *dict_, *names_, *values_, inst_opts);
    if (result.ok()) {
      inst_span.Annotate("concrete_trees", result->queries.size());
      if (result->pruned > 0) inst_span.Annotate("pruned", result->pruned);
    }
    return result;
  }();
  if (!inst.ok()) return inst.status();
  out.instantiations = inst->queries.size();
  out.truncated = inst->truncated;
  out.pruned = inst->pruned;

  std::unordered_set<std::string> seen;
  {
    obs::SpanScope expand_span(options.trace, "expand_orderings",
                               compile_span.id());
    for (const ConcreteQuery& cq : inst->queries) {
      {
        // Predicted match work for the explain record: orderings × estimated
        // per-ordering entries.
        const uint64_t per = planner.EstimatedMatchCost(cq);
        const uint64_t n = QueryPlanner::PredictedOrderings(cq, UINT64_MAX);
        const uint64_t tree_cost =
            (per != 0 && n > UINT64_MAX / per) ? UINT64_MAX : n * per;
        out.predicted_cost = out.predicted_cost + tree_cost < out.predicted_cost
                                 ? UINT64_MAX
                                 : out.predicted_cost + tree_cost;
      }
      IsomorphResult iso = ExpandIsomorphisms(cq, options.isomorph);
      out.orderings += iso.queries.size();
      out.truncated = out.truncated || iso.truncated;
      for (const ConcreteQuery& ordered : iso.queries) {
        auto qs = BuildQuerySeq(ordered.tree, ordered.paths, *sequencer_);
        if (!qs.ok()) return qs.status();
        if (seen.insert(SeqKey(*qs)).second) {
          out.sequences.push_back(std::move(*qs));
        }
      }
    }
    if (options.plan.selectivity) {
      out.pruned += planner.OrderBySelectivity(&out.sequences);
    }
    expand_span.Annotate("orderings", out.orderings);
    expand_span.Annotate("deduped_sequences", out.sequences.size());
  }
  return out;
}

StatusOr<std::vector<QuerySeq>> QueryExecutor::Compile(
    const QueryPattern& pattern, ExecStats* stats,
    const ExecOptions& options) const {
  ExecStats local;
  ExecStats* st = stats != nullptr ? stats : &local;
  Timer timer;
  auto cq = CompileInternal(pattern, options);
  if (!cq.ok()) return cq.status();
  st->instantiations += cq->instantiations;
  st->orderings += cq->orderings;
  st->pruned_instantiations += cq->pruned;
  st->truncated = st->truncated || cq->truncated;
  st->matched_sequences += cq->sequences.size();
  st->compile_micros += timer.ElapsedMicros();
  return std::move(cq->sequences);
}

StatusOr<std::vector<DocId>> QueryExecutor::ExecutePattern(
    const QueryPattern& pattern, ExecStats* stats,
    const ExecOptions& options, MatchContext* ctx) const {
  ExecStats local;
  ExecStats* st = stats != nullptr ? stats : &local;

  // Comparison predicates ([price < 30]) are a document-level filter over
  // the structural match: probe the value index for each comparison's
  // candidate docs, run the comparison-free skeleton through the unchanged
  // pipeline below, and intersect. Queries without comparisons never enter
  // this block.
  if (HasComparisons(pattern)) {
    std::vector<ValueComparison> cmps;
    QueryPattern skeleton = StripComparisons(pattern, &cmps);
    std::vector<std::vector<DocId>> cands;
    cands.reserve(cmps.size());
    for (const ValueComparison& c : cmps) {
      cands.push_back(CandidateDocs(*vindex_, *dict_, *names_, c,
                                    &st->vindex_probes,
                                    &st->vindex_candidates));
    }
    // Intersect smallest-first so the running set only ever shrinks.
    std::sort(cands.begin(), cands.end(),
              [](const std::vector<DocId>& a, const std::vector<DocId>& b) {
                return a.size() < b.size();
              });
    std::vector<DocId> docs = std::move(cands.front());
    for (size_t i = 1; i < cands.size() && !docs.empty(); ++i) {
      std::vector<DocId> merged;
      std::set_intersection(docs.begin(), docs.end(), cands[i].begin(),
                            cands[i].end(), std::back_inserter(merged));
      docs = std::move(merged);
    }
    if (docs.empty()) {
      st->result_docs = 0;
      return std::vector<DocId>();
    }
    // A candidate posting exists only because its document realizes the
    // comparison's root-to-host chain. When the skeleton IS that single
    // chain, every candidate is already a structural match and the scan
    // below could only re-derive a superset — return the candidates.
    if (ComparisonImpliesSkeleton(skeleton, cmps)) {
      st->vindex_short_circuits += 1;
      st->result_docs = docs.size();
      return docs;
    }
    auto structural = ExecutePattern(skeleton, st, options, ctx);
    if (!structural.ok()) return structural.status();
    std::vector<DocId> out;
    std::set_intersection(structural->begin(), structural->end(),
                          docs.begin(), docs.end(),
                          std::back_inserter(out));
    st->result_docs = out.size();
    return out;
  }

  // Tracing: attach to the caller's builder (nested execution, e.g. a
  // DynamicIndex segment probe) or open a fresh trace bound for
  // options.tracer's ring buffer.
  obs::TraceBuilder owned_trace;
  ExecOptions opts = options;
  QueryReporter report;
  if (opts.trace == nullptr && opts.tracer != nullptr) {
    opts.trace_parent = owned_trace.StartTrace("query");
    opts.trace = &owned_trace;
    report.owned_trace = &owned_trace;
    report.commit_to = opts.tracer;
    opts.tracer = nullptr;
  }
  const uint32_t root_span = opts.trace_parent;

  if (opts.DeadlineExpired()) return DeadlineError();

  // Compiled-plan resolution: cache hit -> replay; miss -> full compile,
  // then publish. Either way `plan` points at an immutable CompiledQuery
  // kept alive for the whole match phase (plan_holder pins cached entries
  // even if they are evicted mid-query).
  Timer compile_timer;
  PlanCache* cache = opts.plan.cache;
  if (opts.plan.cache_key.empty() || index_->plan_cache_id() == 0 ||
      opts.instantiate.viable != nullptr) {
    // No identity to key on — or a caller predicate the key cannot encode.
    cache = nullptr;
  }
  std::shared_ptr<const CompiledQuery> plan_holder;
  CompiledQuery owned_plan;
  const CompiledQuery* plan = nullptr;
  bool plan_cache_hit = false;
  std::string cache_key;
  if (cache != nullptr) {
    cache_key = BuildPlanCacheKey(opts);
    plan_holder = cache->Lookup(index_->plan_cache_id(), cache_key);
    if (plan_holder != nullptr) {
      plan = plan_holder.get();
      st->plan_cache_hits += 1;
      plan_cache_hit = true;
      obs::SpanScope compile_span(opts.trace, "compile", root_span);
      compile_span.Annotate("plan_cache_hit", 1);
      compile_span.Annotate("sequences", plan->sequences.size());
    }
  }
  if (plan == nullptr) {
    auto cq = CompileInternal(pattern, opts);
    if (!cq.ok()) return cq.status();
    if (cache != nullptr) {
      auto sp = std::make_shared<CompiledQuery>(std::move(*cq));
      cache->Insert(index_->plan_cache_id(), cache_key, sp);
      plan_holder = std::move(sp);
      plan = plan_holder.get();
    } else {
      owned_plan = std::move(*cq);
      plan = &owned_plan;
    }
  }
  // Compile-side counters are a pure function of (index, query, knobs), so
  // replaying them from a cached plan matches a fresh compile exactly.
  const int64_t compile_before = st->compile_micros;
  st->instantiations += plan->instantiations;
  st->orderings += plan->orderings;
  st->pruned_instantiations += plan->pruned;
  st->truncated = st->truncated || plan->truncated;
  st->matched_sequences += plan->sequences.size();
  st->compile_micros += compile_timer.ElapsedMicros();
  report.compile_us =
      static_cast<uint64_t>(st->compile_micros - compile_before);
  report.truncated = st->truncated;
  report.pruned = plan->pruned;

  const uint64_t entries_before = st->match.link_entries_read;
  if (opts.explain != nullptr) {
    QueryExplain& ex = *opts.explain;
    ex.instantiations += plan->instantiations;
    ex.orderings += plan->orderings;
    ex.pruned += plan->pruned;
    ex.sequences += plan->sequences.size();
    ex.plan_cache_hit = ex.plan_cache_hit || plan_cache_hit;
    ex.truncated = ex.truncated || plan->truncated;
    ex.predicted_cost =
        ex.predicted_cost + plan->predicted_cost < ex.predicted_cost
            ? UINT64_MAX
            : ex.predicted_cost + plan->predicted_cost;
    ex.compile_micros += st->compile_micros - compile_before;
    QueryPlanner planner(index_, schema_);
    for (const QuerySeq& qs : plan->sequences) {
      QueryPlanner::SeqSelectivity sel = planner.Selectivity(qs);
      QueryExplain::SeqEntry entry;
      entry.positions = static_cast<uint32_t>(qs.size());
      entry.anchor_cardinality = sel.min_cardinality;
      entry.anchor = static_cast<uint32_t>(sel.anchor);
      ex.seq.push_back(entry);
    }
  }

  Timer timer;
  std::vector<DocId> out;

  // Callers that pass no context get a pooled one for the duration of the
  // call: the loop below then reuses one decoded-block cache across every
  // compiled sequence instead of rebuilding scratch per sequence.
  std::optional<MatchContextLease> ctx_lease;
  if (ctx == nullptr) {
    ctx_lease.emplace(&ctx_pool_);
    ctx = ctx_lease->get();
  }

  obs::SpanScope match_span(opts.trace, "match", root_span);
  // Per-sequence stats go through a local delta so each span (a no-op when
  // untraced) can carry its own counters.
  for (const QuerySeq& qs : plan->sequences) {
    if (opts.DeadlineExpired()) return DeadlineError();
    obs::SpanScope seq_span(opts.trace, "match_seq", match_span.id());
    MatchStats seq_stats;
    size_t docs_before = out.size();
    XSEQ_RETURN_IF_ERROR(
        MatchSequence(*index_, qs, opts.mode, &out, &seq_stats, ctx));
    seq_span.Annotate("positions", qs.size());
    seq_span.Annotate("entries_read", seq_stats.link_entries_read);
    seq_span.Annotate("docs", out.size() - docs_before);
    st->match.Add(seq_stats);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  match_span.End();
  st->match_micros += timer.ElapsedMicros();
  st->result_docs = out.size();
  report.ok = true;
  report.truncated = st->truncated;
  report.match_us = static_cast<uint64_t>(timer.ElapsedMicros());
  report.result_docs = out.size();
  if (opts.trace != nullptr) {
    opts.trace->Annotate(root_span, "sequences", plan->sequences.size());
    opts.trace->Annotate(root_span, "result_docs", out.size());
  }
  if (opts.explain != nullptr) {
    opts.explain->match_micros += static_cast<int64_t>(report.match_us);
    opts.explain->actual_cost += st->match.link_entries_read - entries_before;
    opts.explain->result_docs += out.size();
  }
  return out;
}

StatusOr<std::vector<DocId>> QueryExecutor::Execute(
    std::string_view xpath, ExecStats* stats, const ExecOptions& options,
    MatchContext* ctx) const {
  auto pattern = ParseXPath(xpath);
  if (!pattern.ok()) return pattern.status();
  // The query text is the natural plan-cache identity; callers that key on
  // something else (or nothing) keep their own setting.
  ExecOptions opts = options;
  if (opts.plan.cache_key.empty()) opts.plan.cache_key = xpath;
  return ExecutePattern(*pattern, stats, opts, ctx);
}

}  // namespace xseq
