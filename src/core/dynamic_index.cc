#include "src/core/dynamic_index.h"

#include <algorithm>
#include <utility>

#include "src/obs/metrics.h"
#include "src/util/timer.h"
#include "src/vindex/compare.h"
#include "src/xml/value_chain.h"

namespace xseq {

namespace {

/// Registry handles for the LSM-side metrics, resolved once. Gauges mirror
/// the live buffer depth and in-flight background seals.
struct DynMetricSet {
  obs::Counter* adds;
  obs::Counter* deletes;
  obs::Counter* updates;
  obs::Counter* seals;
  obs::Counter* seal_failures;
  obs::Counter* compactions;
  obs::Histogram* seal_us;
  obs::Histogram* compact_us;
  obs::Gauge* pending_seals;
  obs::Gauge* buffered_docs;
  obs::Gauge* tombstoned_docs;
};

const DynMetricSet& DynMetrics() {
  static const DynMetricSet s = [] {
    obs::MetricsRegistry* r = obs::MetricsRegistry::Default();
    return DynMetricSet{r->GetCounter("xseq.dynamic.adds"),
                        r->GetCounter("xseq.dynamic.deletes"),
                        r->GetCounter("xseq.dynamic.updates"),
                        r->GetCounter("xseq.dynamic.seals"),
                        r->GetCounter("xseq.dynamic.seal_failures"),
                        r->GetCounter("xseq.dynamic.compactions"),
                        r->GetHistogram("xseq.dynamic.seal_us"),
                        r->GetHistogram("xseq.dynamic.compact_us"),
                        r->GetGauge("xseq.dynamic.pending_seals"),
                        r->GetGauge("xseq.dynamic.buffered_docs"),
                        r->GetGauge("xseq.dynamic.tombstoned_docs")};
  }();
  return s;
}

/// Strips tombstoned ids from one source's result ids in place.
void RemoveDeadIds(const std::unordered_set<DocId>* dead,
                   std::vector<DocId>* ids) {
  if (dead == nullptr || dead->empty() || ids->empty()) return;
  ids->erase(std::remove_if(ids->begin(), ids->end(),
                            [dead](DocId d) { return dead->count(d) != 0; }),
             ids->end());
}

/// Id histogram of a document batch, fixed at slot-reservation time.
std::shared_ptr<const std::unordered_map<DocId, uint32_t>> CountIds(
    const std::vector<Document>& docs) {
  auto ids = std::make_shared<std::unordered_map<DocId, uint32_t>>();
  for (const Document& doc : docs) ++(*ids)[doc.id()];
  return ids;
}

}  // namespace

void DynamicIndex::UnsealedDocs::Sync(ValueMode mode) {
  if (stale) {
    dict = PathDict();
    bound = 0;
    stale = false;
  }
  if (mode == ValueMode::kCharSequence) {
    for (size_t i = expanded.size(); i < docs.size(); ++i) {
      expanded.push_back(ExpandValueChains(docs[i]));
    }
  }
  const std::vector<Document>& scan = scanned();
  for (; bound < scan.size(); ++bound) BindPaths(scan[bound], &dict);
}

size_t DynamicIndex::UnsealedDocs::Erase(DocId id) {
  const size_t had_expanded = expanded.size();
  size_t first_dropped = docs.size();
  size_t kept = 0;
  size_t kept_expanded = 0;
  for (size_t i = 0; i < docs.size(); ++i) {
    if (docs[i].id() == id) {
      first_dropped = std::min(first_dropped, i);
      continue;
    }
    if (kept != i) {
      docs[kept] = std::move(docs[i]);
      if (i < had_expanded) expanded[kept] = std::move(expanded[i]);
    }
    ++kept;
    if (i < had_expanded) kept_expanded = kept;
  }
  const size_t dropped = docs.size() - kept;
  if (dropped == 0) return 0;
  docs.resize(kept);
  expanded.resize(kept_expanded);
  // A dictionary cannot forget a path: once an interned document is gone,
  // the next Sync interns the rest afresh.
  if (first_dropped < bound) stale = true;
  return dropped;
}

DynamicIndex::DynamicIndex(DynamicOptions options)
    : options_(options),
      names_(std::make_shared<NameTable>()),
      values_(std::make_shared<ValueEncoder>(options.index.value_mode,
                                             options.index.hash_range)),
      pool_(std::make_unique<ThreadPool>(options.index.threads)) {
  // Segments must retain their documents so Compact() can re-sequence them
  // under fresher statistics.
  options_.index.keep_documents = true;
}

DynamicIndex::~DynamicIndex() {
  std::unique_lock<std::mutex> lock(mu_);
  WaitForSealsLocked(&lock);
}

Status DynamicIndex::Add(Document&& doc) {
  if (doc.root() == nullptr) {
    return Status::InvalidArgument("document has no root");
  }
  std::unique_lock<std::mutex> lock(mu_);
  XSEQ_RETURN_IF_ERROR(TakeSealErrorLocked());
  buffer_.docs.push_back(std::move(doc));
  ++total_docs_;
  ++generation_;
  if (obs::MetricsEnabled()) {
    const DynMetricSet& m = DynMetrics();
    m.adds->Increment();
    m.buffered_docs->Set(buffer_.docs.size());
  }
  if (buffer_.docs.size() >= options_.flush_threshold) {
    return SealBufferLocked();
  }
  return Status::OK();
}

uint64_t DynamicIndex::RemoveLocked(DocId id) {
  uint64_t removed = buffer_.Erase(id);
  for (SlotState& slot : slot_state_) {
    if (slot.ids == nullptr) continue;
    auto hit = slot.ids->find(id);
    if (hit == slot.ids->end()) continue;
    if (slot.dead != nullptr && slot.dead->count(id) != 0) continue;
    // Copy-on-write: queries holding the old set keep filtering with it.
    auto next = slot.dead != nullptr
                    ? std::make_shared<std::unordered_set<DocId>>(*slot.dead)
                    : std::make_shared<std::unordered_set<DocId>>();
    next->insert(id);
    slot.dead = std::move(next);
    removed += hit->second;
    tombstoned_docs_ += hit->second;
  }
  if (obs::MetricsEnabled()) {
    DynMetrics().tombstoned_docs->Set(tombstoned_docs_);
  }
  total_docs_ -= std::min<uint64_t>(removed, total_docs_);
  return removed;
}

Status DynamicIndex::Delete(DocId id) {
  std::unique_lock<std::mutex> lock(mu_);
  XSEQ_RETURN_IF_ERROR(TakeSealErrorLocked());
  RemoveLocked(id);
  ++generation_;
  if (obs::MetricsEnabled()) {
    const DynMetricSet& m = DynMetrics();
    m.deletes->Increment();
    m.buffered_docs->Set(buffer_.docs.size());
  }
  return Status::OK();
}

Status DynamicIndex::Update(Document&& doc, DocId id) {
  if (doc.root() == nullptr) {
    return Status::InvalidArgument("document has no root");
  }
  if (doc.id() != id) {
    return Status::InvalidArgument(
        "replacement document carries id " + std::to_string(doc.id()) +
        ", expected " + std::to_string(id));
  }
  std::unique_lock<std::mutex> lock(mu_);
  XSEQ_RETURN_IF_ERROR(TakeSealErrorLocked());
  RemoveLocked(id);
  buffer_.docs.push_back(std::move(doc));
  ++total_docs_;
  ++generation_;
  if (obs::MetricsEnabled()) {
    const DynMetricSet& m = DynMetrics();
    m.updates->Increment();
    m.buffered_docs->Set(buffer_.docs.size());
  }
  if (buffer_.docs.size() >= options_.flush_threshold) {
    return SealBufferLocked();
  }
  return Status::OK();
}

Status DynamicIndex::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  XSEQ_RETURN_IF_ERROR(TakeSealErrorLocked());
  // Sealing re-sequences the batch under the segment's own model, so be
  // conservative and retire cached results even though the document set is
  // unchanged.
  ++generation_;
  return SealBufferLocked();
}

Status DynamicIndex::SealBufferLocked() {
  if (buffer_.docs.empty()) return Status::OK();
  const bool metrics = obs::MetricsEnabled();
  if (pool_->width() <= 1) {
    // Serial pool: build inline under the lock (the legacy path).
    Timer seal_timer;
    auto slot_ids = CountIds(buffer_.docs);
    CollectionBuilder builder(options_.index, names_, values_);
    for (Document& doc : buffer_.docs) {
      XSEQ_RETURN_IF_ERROR(builder.Add(std::move(doc)));
    }
    buffer_ = UnsealedDocs();
    auto segment = std::move(builder).Finish();
    if (metrics) {
      const DynMetricSet& m = DynMetrics();
      m.buffered_docs->Set(0);
      if (segment.ok()) {
        m.seals->Increment();
        m.seal_us->Record(
            static_cast<uint64_t>(seal_timer.ElapsedMicros()));
      } else {
        m.seal_failures->Increment();
      }
    }
    if (!segment.ok()) return segment.status();
    segments_.push_back(
        std::make_shared<const CollectionIndex>(std::move(*segment)));
    slot_state_.push_back({std::move(slot_ids), nullptr});
    return Status::OK();
  }

  // Move the buffer, dictionary included, into an in-flight batch, reserve
  // its slot in segments_ (so ordering and segment_count are fixed now),
  // and build off this thread. The task takes no lock until it publishes:
  // it reads only the batch's documents, and its builder holds the shared
  // vocabulary tables without reading them.
  auto batch =
      std::make_shared<SealBatch>(std::move(buffer_), segments_.size());
  buffer_ = UnsealedDocs();
  segments_.push_back(nullptr);
  slot_state_.push_back({CountIds(batch->docs()), nullptr});
  sealing_.push_back(batch);
  ++pending_seals_;
  if (metrics) {
    const DynMetricSet& m = DynMetrics();
    m.buffered_docs->Set(0);
    m.pending_seals->Set(pending_seals_);
  }
  pool_->Submit([this, batch] {
    Timer seal_timer;
    CollectionBuilder builder(options_.index, names_, values_);
    Status st;
    for (const Document& doc : batch->docs()) {
      st = builder.Add(CloneDocument(doc));
      if (!st.ok()) break;
    }
    std::shared_ptr<const CollectionIndex> built;
    if (st.ok()) {
      auto segment = std::move(builder).Finish();
      if (segment.ok()) {
        built =
            std::make_shared<const CollectionIndex>(std::move(*segment));
      } else {
        st = segment.status();
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (built != nullptr) {
        segments_[batch->slot()] = std::move(built);
        sealing_.erase(std::find(sealing_.begin(), sealing_.end(), batch));
      } else {
        // Keep the batch in sealing_ so its documents stay queryable (and
        // reachable by a later Compact()); surface the error on the next
        // mutating call.
        if (seal_error_.ok()) seal_error_ = st;
      }
      --pending_seals_;
      if (obs::MetricsEnabled()) {
        const DynMetricSet& m = DynMetrics();
        m.pending_seals->Set(pending_seals_);
        if (built != nullptr) {
          m.seals->Increment();
          m.seal_us->Record(
              static_cast<uint64_t>(seal_timer.ElapsedMicros()));
        } else {
          m.seal_failures->Increment();
        }
      }
      // Notify under the lock: a drained waiter (e.g. the destructor) may
      // destroy the condition variable the moment it re-acquires mu_.
      seal_cv_.notify_all();
    }
  });
  return Status::OK();
}

void DynamicIndex::WaitForSealsLocked(std::unique_lock<std::mutex>* lock)
    const {
  seal_cv_.wait(*lock, [this] { return pending_seals_ == 0; });
}

Status DynamicIndex::TakeSealErrorLocked() {
  Status st = seal_error_;
  seal_error_ = Status::OK();
  return st;
}

Status DynamicIndex::Compact() {
  Timer compact_timer;
  std::unique_lock<std::mutex> lock(mu_);
  WaitForSealsLocked(&lock);
  XSEQ_RETURN_IF_ERROR(TakeSealErrorLocked());
  ++generation_;
  CollectionBuilder builder(options_.index, names_, values_);
  auto merged_ids = std::make_shared<std::unordered_map<DocId, uint32_t>>();
  // Tombstoned documents are purged here: they are simply not fed to the
  // rebuild, so the merged segment starts with an empty tombstone set.
  auto alive = [this](size_t slot, const Document& doc) {
    const auto& dead = slot_state_[slot].dead;
    return dead == nullptr || dead->count(doc.id()) == 0;
  };
  for (size_t i = 0; i < segments_.size(); ++i) {
    if (segments_[i] == nullptr) continue;
    for (const Document& doc : segments_[i]->documents()) {
      if (!alive(i, doc)) continue;
      ++(*merged_ids)[doc.id()];
      XSEQ_RETURN_IF_ERROR(builder.Add(CloneDocument(doc)));
    }
  }
  // Batches whose background build failed (they are the only entries left
  // once pending_seals_ == 0) still hold their documents; fold them in.
  for (const auto& batch : sealing_) {
    for (const Document& doc : batch->docs()) {
      if (!alive(batch->slot(), doc)) continue;
      ++(*merged_ids)[doc.id()];
      XSEQ_RETURN_IF_ERROR(builder.Add(CloneDocument(doc)));
    }
  }
  for (Document& doc : buffer_.docs) {
    ++(*merged_ids)[doc.id()];
    XSEQ_RETURN_IF_ERROR(builder.Add(std::move(doc)));
  }
  buffer_ = UnsealedDocs();
  auto merged = std::move(builder).Finish();
  if (!merged.ok()) return merged.status();
  segments_.clear();
  slot_state_.clear();
  sealing_.clear();
  tombstoned_docs_ = 0;
  segments_.push_back(
      std::make_shared<const CollectionIndex>(std::move(*merged)));
  slot_state_.push_back({std::move(merged_ids), nullptr});
  if (obs::MetricsEnabled()) {
    const DynMetricSet& m = DynMetrics();
    m.compactions->Increment();
    m.compact_us->Record(
        static_cast<uint64_t>(compact_timer.ElapsedMicros()));
    m.buffered_docs->Set(0);
    m.tombstoned_docs->Set(0);
  }
  return Status::OK();
}

Status DynamicIndex::SaveCompacted(const std::string& path,
                                   const PersistOptions& persist) {
  XSEQ_RETURN_IF_ERROR(Compact());
  // Compact() leaves exactly one sealed segment (even for an empty index).
  // Snapshot the shared_ptr under the lock and write outside it, so
  // queries and further mutations proceed while the file lands; the
  // snapshot is immutable, so a concurrent Add simply isn't in this image.
  // Its vocabulary is the shared tables, which the save reads like a query.
  std::shared_ptr<const CollectionIndex> merged;
  {
    std::unique_lock<std::mutex> lock(mu_);
    WaitForSealsLocked(&lock);
    if (!segments_.empty() && segments_.front() != nullptr) {
      merged = segments_.front();
    }
  }
  if (merged == nullptr) {
    return Status::Internal("compaction left no segment to save");
  }
  return SaveCollectionIndex(*merged, path, persist);
}

StatusOr<std::vector<DocId>> DynamicIndex::Query(
    std::string_view xpath, const ExecOptions& options) const {
  auto pattern = ParseXPath(xpath);
  if (!pattern.ok()) return pattern.status();
  // Key the per-segment plan caches on the query text (each segment index
  // carries its own plan_cache_id, so entries never cross segments).
  ExecOptions opts = options;
  if (opts.plan.cache_key.empty()) opts.plan.cache_key = xpath;
  return ExecutePattern(*pattern, opts);
}

StatusOr<std::vector<DocId>> DynamicIndex::ExecutePattern(
    const xseq::QueryPattern& pattern, const ExecOptions& options,
    ExecStats* stats) const {
  return ExecutePatternImpl(pattern, options, stats,
                            /*parallel_segments=*/true);
}

Status DynamicIndex::ScanDocs(const UnsealedDocs& unsealed,
                              const xseq::QueryPattern& pattern,
                              const ExecOptions& options,
                              const std::unordered_set<DocId>* dead,
                              std::vector<DocId>* out, uint64_t* trees) const {
  if (unsealed.docs.empty()) return Status::OK();
  // Comparison predicates: scan the skeleton, then keep only ids whose
  // document satisfies every comparison — the unsealed-data twin of the
  // value-index probe the sealed segments run.
  std::vector<ValueComparison> cmps;
  QueryPattern skeleton;
  const QueryPattern* effective = &pattern;
  if (HasComparisons(pattern)) {
    skeleton = StripComparisons(pattern, &cmps);
    effective = &skeleton;
  }
  // Brute-force scan via the oracle, instantiating the pattern against the
  // documents' own dictionary, which the caller has synced: it interns
  // exactly the scanned documents (chain-expanded copies in char-sequence
  // mode).
  auto inst = InstantiatePattern(*effective, unsealed.dict, *names_,
                                 *values_, options.instantiate);
  if (!inst.ok()) return inst.status();
  *trees += inst->queries.size();
  std::vector<DocId> part;
  for (const ConcreteQuery& cq : inst->queries) {
    std::vector<DocId> one = OracleScan(unsealed.scanned(), cq);
    part.insert(part.end(), one.begin(), one.end());
  }
  if (!cmps.empty() && !part.empty()) {
    // Comparisons check the ORIGINAL documents: value nodes retain their
    // raw text in every value mode, so ordering stays exact even when the
    // index hashes or chain-encodes values.
    std::unordered_set<DocId> satisfying;
    for (const Document& doc : unsealed.docs) {
      if (DocMatchesComparisons(doc, *names_, cmps)) {
        satisfying.insert(doc.id());
      }
    }
    part.erase(std::remove_if(part.begin(), part.end(),
                              [&satisfying](DocId d) {
                                return satisfying.count(d) == 0;
                              }),
               part.end());
  }
  RemoveDeadIds(dead, &part);
  out->insert(out->end(), part.begin(), part.end());
  return Status::OK();
}

StatusOr<std::vector<DocId>> DynamicIndex::ExecutePatternImpl(
    const xseq::QueryPattern& pattern, const ExecOptions& options,
    ExecStats* stats, bool parallel_segments) const {
  // Tracing: a dynamic query owns the trace so the per-segment probes (and
  // the unsealed-data scans) appear as siblings under one root. The options
  // copy handed to segment executors carries the builder, never the tracer,
  // so the nested executors attach instead of committing traces of their
  // own.
  obs::TraceBuilder owned_trace;
  ExecOptions opts = options;
  obs::Tracer* commit_to = nullptr;
  if (opts.trace == nullptr && opts.tracer != nullptr) {
    opts.trace_parent = owned_trace.StartTrace("dynamic_query");
    opts.trace = &owned_trace;
    commit_to = opts.tracer;
    opts.tracer = nullptr;
  }
  const uint32_t root_span = opts.trace_parent;
  struct CommitOnExit {
    obs::TraceBuilder* builder;
    obs::Tracer* tracer;
    ~CommitOnExit() {
      if (tracer != nullptr) builder->Commit(tracer);
    }
  } commit{&owned_trace, commit_to};

  std::vector<DocId> out;
  std::vector<std::shared_ptr<const CollectionIndex>> segments;
  std::vector<std::shared_ptr<const std::unordered_set<DocId>>> seg_dead;
  std::vector<std::shared_ptr<const SealBatch>> batches;
  std::vector<std::shared_ptr<const std::unordered_set<DocId>>> batch_dead;
  {
    obs::SpanScope scan_span(opts.trace, "scan_unsealed", root_span);
    uint64_t scanned_docs = 0;
    uint64_t trees = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      segments.reserve(segments_.size());
      for (size_t i = 0; i < segments_.size(); ++i) {
        if (segments_[i] != nullptr) {
          segments.push_back(segments_[i]);
          seg_dead.push_back(slot_state_[i].dead);
        }
      }
      batches = sealing_;
      for (const auto& batch : batches) {
        batch_dead.push_back(slot_state_[batch->slot()].dead);
      }
      // The live buffer mutates under Add(), so it is scanned while the lock
      // is held. Everything snapshotted above is immutable (tombstone sets
      // are copy-on-write, and a batch syncs its dictionary once, under its
      // own flag); a batch that lands as a segment mid-query was
      // excluded from `segments`, so no document is counted twice. Deletes
      // erase from the buffer outright, so its scan needs no filter. The
      // scan first catches the buffer's dictionary up with the mutations
      // since the last query.
      buffer_.Sync(values_->mode());
      XSEQ_RETURN_IF_ERROR(
          ScanDocs(buffer_, pattern, opts, nullptr, &out, &trees));
      scanned_docs = buffer_.docs.size();
    }
    for (size_t i = 0; i < batches.size(); ++i) {
      XSEQ_RETURN_IF_ERROR(ScanDocs(batches[i]->Synced(values_->mode()),
                                    pattern, opts, batch_dead[i].get(), &out,
                                    &trees));
      scanned_docs += batches[i]->docs().size();
    }
    scan_span.Annotate("sealing_batches", batches.size());
    scan_span.Annotate("scanned_docs", scanned_docs);
    scan_span.Annotate("trees", trees);
    scan_span.Annotate("docs", out.size());
  }

  if (parallel_segments && pool_->width() > 1 && segments.size() > 1) {
    const size_t k = segments.size();
    std::vector<std::vector<DocId>> parts(k);
    std::vector<ExecStats> part_stats(k);
    std::vector<Status> results(k, Status::OK());
    pool_->ParallelFor(k, [&](size_t i) {
      MatchContextLease lease(&match_contexts_);
      obs::SpanScope seg_span(opts.trace, "segment_probe", root_span);
      ExecOptions seg_opts = opts;
      seg_opts.trace_parent = seg_span.id();
      auto part = segments[i]->executor().ExecutePattern(
          pattern, &part_stats[i], seg_opts, lease.get());
      if (part.ok()) {
        RemoveDeadIds(seg_dead[i].get(), &*part);
        seg_span.Annotate("docs", part->size());
        parts[i] = std::move(*part);
      } else {
        results[i] = part.status();
      }
    });
    for (size_t i = 0; i < k; ++i) {
      XSEQ_RETURN_IF_ERROR(results[i]);
      if (stats != nullptr) stats->Add(part_stats[i]);
      out.insert(out.end(), parts[i].begin(), parts[i].end());
    }
  } else {
    // One leased context serves every segment probe of this query.
    MatchContextLease lease(&match_contexts_);
    for (size_t i = 0; i < segments.size(); ++i) {
      const auto& segment = segments[i];
      ExecStats part_stats;
      obs::SpanScope seg_span(opts.trace, "segment_probe", root_span);
      ExecOptions seg_opts = opts;
      seg_opts.trace_parent = seg_span.id();
      auto part = segment->executor().ExecutePattern(pattern, &part_stats,
                                                     seg_opts, lease.get());
      if (!part.ok()) return part.status();
      RemoveDeadIds(seg_dead[i].get(), &*part);
      seg_span.Annotate("docs", part->size());
      if (stats != nullptr) stats->Add(part_stats);
      out.insert(out.end(), part->begin(), part->end());
    }
  }

  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  if (opts.trace != nullptr) {
    opts.trace->Annotate(root_span, "segments", segments.size());
    opts.trace->Annotate(root_span, "result_docs", out.size());
  }
  return out;
}

std::vector<StatusOr<std::vector<DocId>>> DynamicIndex::QueryBatch(
    const std::vector<std::string>& xpaths,
    const ExecOptions& options) const {
  std::vector<StatusOr<std::vector<DocId>>> out(
      xpaths.size(), Status::Internal("query was not executed"));
  ExecOptions per_query = options;
  per_query.threads = 1;  // batch parallelism replaces match parallelism
  auto run_one = [&](size_t i) -> StatusOr<std::vector<DocId>> {
    auto pattern = ParseXPath(xpaths[i]);
    if (!pattern.ok()) return pattern.status();
    ExecOptions opts = per_query;
    if (opts.plan.cache_key.empty()) opts.plan.cache_key = xpaths[i];
    // Inner segment probing is serial: the batch saturates the pool.
    return ExecutePatternImpl(*pattern, opts, nullptr,
                              /*parallel_segments=*/false);
  };
  if (pool_->width() <= 1 || xpaths.size() <= 1) {
    for (size_t i = 0; i < xpaths.size(); ++i) out[i] = run_one(i);
    return out;
  }
  pool_->ParallelFor(xpaths.size(), [&](size_t i) { out[i] = run_one(i); });
  return out;
}

uint64_t DynamicIndex::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

size_t DynamicIndex::segment_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_.size();
}

size_t DynamicIndex::buffered_documents() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buffer_.docs.size();
}

uint64_t DynamicIndex::total_documents() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_docs_;
}

uint64_t DynamicIndex::tombstoned_documents() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tombstoned_docs_;
}

uint64_t DynamicIndex::TotalIndexNodes() const {
  std::unique_lock<std::mutex> lock(mu_);
  WaitForSealsLocked(&lock);
  uint64_t total = 0;
  for (const auto& segment : segments_) {
    if (segment != nullptr) total += segment->Stats().trie_nodes;
  }
  return total;
}

}  // namespace xseq
