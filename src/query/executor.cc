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

}  // namespace

StatusOr<CompiledQuery> QueryExecutor::CompileInternal(
    const QueryPattern& pattern, const ExecOptions& options) const {
  CompiledQuery out;
  const QueryPlanner planner = Planner();

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
    auto result = InstantiatePattern(pattern, *catalog_.dict, *catalog_.names,
                                     *catalog_.values, inst_opts);
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
        auto qs =
            BuildQuerySeq(ordered.tree, ordered.paths, *catalog_.sequencer);
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
  QueryRun run(*this, pattern, stats != nullptr ? stats : &local, options);
  XSEQ_RETURN_IF_ERROR(run.Start());
  std::vector<DocId> out;
  for (size_t p = 0; p < part_count(); ++p) {
    auto docs = run.MatchPart(p, ctx);
    if (!docs.ok()) return docs.status();
    if (out.empty()) {
      out = std::move(*docs);
    } else {
      out.insert(out.end(), docs->begin(), docs->end());
    }
  }
  return run.Finish(std::move(out));
}

QueryRun::Report::~Report() {
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

QueryRun::QueryRun(const QueryExecutor& executor, const QueryPattern& pattern,
                   ExecStats* stats, const ExecOptions& options)
    : executor_(executor),
      pattern_(&pattern),
      stats_(stats),
      options_(options) {}

QueryRun::~QueryRun() = default;

Status QueryRun::Start() {
  // Tracing: attach to the caller's builder (nested execution, e.g. a
  // DynamicIndex segment probe) or open a fresh trace bound for
  // options.tracer's ring buffer.
  if (options_.trace == nullptr && options_.tracer != nullptr) {
    options_.trace_parent = owned_trace_.StartTrace("query");
    options_.trace = &owned_trace_;
    report_.owned_trace = &owned_trace_;
    report_.commit_to = options_.tracer;
    options_.tracer = nullptr;
  }
  if (options_.DeadlineExpired()) return DeadlineError();

  // Comparison predicates ([price < 30]) are a document-level filter over
  // the structural match: each part probes its value index for each
  // comparison's candidate docs, runs the comparison-free skeleton through
  // the plan, and intersects.
  if (HasComparisons(*pattern_)) {
    skeleton_ = StripComparisons(*pattern_, &comparisons_);
    pattern_ = &skeleton_;
    // A candidate posting exists only because its document realizes the
    // comparison's root-to-host chain. When the skeleton IS that single
    // chain, every candidate is already a structural match, and no part
    // ever needs the plan.
    comparisons_imply_skeleton_ =
        ComparisonImpliesSkeleton(skeleton_, comparisons_);
    return Status::OK();
  }
  return EnsurePlan();
}

Status QueryRun::EnsurePlan() {
  if (plan_ != nullptr) return Status::OK();
  // Compiled-plan resolution: cache hit -> replay; miss -> full compile,
  // then publish. Either way plan_ holds an immutable CompiledQuery for
  // the rest of the run, even if the cache evicts it meanwhile.
  Timer compile_timer;
  const uint64_t cache_id = executor_.plan_cache_id_;
  PlanCache* cache = options_.plan.cache;
  if (options_.plan.cache_key.empty() || cache_id == 0 ||
      options_.instantiate.viable != nullptr) {
    // No identity to key on — or a caller predicate the key cannot encode.
    cache = nullptr;
  }
  bool plan_cache_hit = false;
  std::string cache_key;
  if (cache != nullptr) {
    cache_key = BuildPlanCacheKey(options_);
    plan_ = cache->Lookup(cache_id, cache_key);
    if (plan_ != nullptr) {
      stats_->plan_cache_hits += 1;
      plan_cache_hit = true;
      obs::SpanScope compile_span(options_.trace, "compile",
                                  options_.trace_parent);
      compile_span.Annotate("plan_cache_hit", 1);
      compile_span.Annotate("sequences", plan_->sequences.size());
    }
  }
  if (plan_ == nullptr) {
    auto cq = executor_.CompileInternal(*pattern_, options_);
    if (!cq.ok()) return cq.status();
    auto compiled = std::make_shared<const CompiledQuery>(std::move(*cq));
    if (cache != nullptr) cache->Insert(cache_id, cache_key, compiled);
    plan_ = std::move(compiled);
  }
  // Compile-side counters are a pure function of (catalog, parts, query,
  // knobs), so replaying them from a cached plan matches a fresh compile
  // exactly. They describe the one compile, however many parts match it.
  const int64_t compile_us = compile_timer.ElapsedMicros();
  stats_->instantiations += plan_->instantiations;
  stats_->orderings += plan_->orderings;
  stats_->pruned_instantiations += plan_->pruned;
  stats_->truncated = stats_->truncated || plan_->truncated;
  stats_->compile_micros += compile_us;
  report_.compile_us += static_cast<uint64_t>(compile_us);
  report_.pruned += plan_->pruned;
  report_.truncated = report_.truncated || plan_->truncated;
  if (options_.explain != nullptr) {
    QueryExplain& ex = *options_.explain;
    ex.instantiations += plan_->instantiations;
    ex.orderings += plan_->orderings;
    ex.pruned += plan_->pruned;
    ex.plan_cache_hit = ex.plan_cache_hit || plan_cache_hit;
    ex.truncated = ex.truncated || plan_->truncated;
    ex.predicted_cost =
        ex.predicted_cost + plan_->predicted_cost < ex.predicted_cost
            ? UINT64_MAX
            : ex.predicted_cost + plan_->predicted_cost;
    ex.compile_micros += compile_us;
  }
  return Status::OK();
}

StatusOr<std::vector<DocId>> QueryRun::MatchPart(size_t p, MatchContext* ctx,
                                                 uint32_t trace_parent) {
  if (trace_parent == obs::kNoSpan) trace_parent = options_.trace_parent;
  if (comparisons_.empty()) return MatchPlan(p, ctx, trace_parent);

  const IndexPart& part = executor_.part(p);
  const CatalogView& cat = executor_.catalog_;
  std::vector<std::vector<DocId>> cands;
  cands.reserve(comparisons_.size());
  for (const ValueComparison& c : comparisons_) {
    cands.push_back(CandidateDocs(*part.vindex, *cat.dict, *cat.names, c,
                                  &stats_->vindex_probes,
                                  &stats_->vindex_candidates));
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
  if (docs.empty()) return docs;
  if (comparisons_imply_skeleton_) {
    stats_->vindex_short_circuits += 1;
    return docs;
  }
  XSEQ_RETURN_IF_ERROR(EnsurePlan());
  auto structural = MatchPlan(p, ctx, trace_parent);
  if (!structural.ok()) return structural.status();
  std::vector<DocId> out;
  std::set_intersection(structural->begin(), structural->end(), docs.begin(),
                        docs.end(), std::back_inserter(out));
  return out;
}

StatusOr<std::vector<DocId>> QueryRun::MatchPlan(size_t p, MatchContext* ctx,
                                                 uint32_t trace_parent) {
  const FrozenIndex& index = *executor_.part(p).index;
  const QueryPlanner part_planner(&index, executor_.catalog_.schema);
  // A one-part plan was filtered and ordered for its part at compile time;
  // a plan shared by several parts is filtered and ordered again by this
  // part's own links.
  const std::vector<QuerySeq>& seqs = plan_->sequences;
  std::vector<uint32_t> order;
  const bool reorder =
      executor_.part_count() > 1 && options_.plan.selectivity;
  if (reorder) order = part_planner.PartOrder(seqs);
  const size_t n = reorder ? order.size() : seqs.size();
  auto seq_at = [&](size_t i) -> const QuerySeq& {
    return reorder ? seqs[order[i]] : seqs[i];
  };
  stats_->matched_sequences += n;

  const uint64_t entries_before = stats_->match.link_entries_read;
  if (options_.explain != nullptr) {
    QueryExplain& ex = *options_.explain;
    ex.sequences += n;
    const int32_t shard =
        executor_.part_count() > 1 ? static_cast<int32_t>(p) : -1;
    for (size_t i = 0; i < n; ++i) {
      const QuerySeq& qs = seq_at(i);
      QueryPlanner::SeqSelectivity sel = part_planner.Selectivity(qs);
      QueryExplain::SeqEntry entry;
      entry.positions = static_cast<uint32_t>(qs.size());
      entry.anchor_cardinality = sel.min_cardinality;
      entry.anchor = static_cast<uint32_t>(sel.anchor);
      entry.shard = shard;
      ex.seq.push_back(entry);
    }
  }

  Timer timer;
  std::vector<DocId> out;
  // Callers that pass no context get a pooled one for the duration of the
  // call: the loop below then reuses one decoded-block cache across every
  // compiled sequence instead of rebuilding scratch per sequence.
  std::unique_ptr<MatchContext> fresh;
  std::optional<MatchContextLease> ctx_lease;
  if (ctx == nullptr) {
    if (executor_.contexts_ != nullptr) {
      ctx_lease.emplace(executor_.contexts_);
      ctx = ctx_lease->get();
    } else {
      fresh = std::make_unique<MatchContext>();
      ctx = fresh.get();
    }
  }

  obs::SpanScope match_span(options_.trace, "match", trace_parent);
  // Per-sequence stats go through a local delta so each span (a no-op when
  // untraced) can carry its own counters.
  for (size_t i = 0; i < n; ++i) {
    if (options_.DeadlineExpired()) return DeadlineError();
    const QuerySeq& qs = seq_at(i);
    obs::SpanScope seq_span(options_.trace, "match_seq", match_span.id());
    MatchStats seq_stats;
    const size_t docs_before = out.size();
    XSEQ_RETURN_IF_ERROR(
        MatchSequence(index, qs, options_.mode, &out, &seq_stats, ctx));
    seq_span.Annotate("positions", qs.size());
    seq_span.Annotate("entries_read", seq_stats.link_entries_read);
    seq_span.Annotate("docs", out.size() - docs_before);
    stats_->match.Add(seq_stats);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  match_span.End();
  const int64_t match_us = timer.ElapsedMicros();
  stats_->match_micros += match_us;
  report_.match_us += static_cast<uint64_t>(match_us);
  if (options_.explain != nullptr) {
    options_.explain->match_micros += match_us;
    options_.explain->actual_cost +=
        stats_->match.link_entries_read - entries_before;
  }
  return out;
}

std::vector<DocId> QueryRun::Finish(std::vector<DocId> docs) {
  std::sort(docs.begin(), docs.end());
  docs.erase(std::unique(docs.begin(), docs.end()), docs.end());
  stats_->result_docs = docs.size();
  report_.ok = true;
  report_.result_docs = docs.size();
  if (options_.trace != nullptr) {
    options_.trace->Annotate(options_.trace_parent, "sequences",
                             plan_ != nullptr ? plan_->sequences.size() : 0);
    options_.trace->Annotate(options_.trace_parent, "result_docs",
                             docs.size());
  }
  if (options_.explain != nullptr) options_.explain->result_docs += docs.size();
  return docs;
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
