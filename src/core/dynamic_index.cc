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
/// the live buffer depth and the tombstones awaiting purge.
struct DynMetricSet {
  obs::Counter* adds;
  obs::Counter* deletes;
  obs::Counter* updates;
  obs::Counter* seals;
  obs::Counter* seal_failures;
  obs::Counter* compactions;
  obs::Histogram* seal_us;
  obs::Histogram* compact_us;
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
                        r->GetGauge("xseq.dynamic.buffered_docs"),
                        r->GetGauge("xseq.dynamic.tombstoned_docs")};
  }();
  return s;
}

/// Strips tombstoned ids from one segment's result ids in place.
void RemoveDeadIds(const std::unordered_set<DocId>* dead,
                   std::vector<DocId>* ids) {
  if (dead == nullptr || dead->empty() || ids->empty()) return;
  ids->erase(std::remove_if(ids->begin(), ids->end(),
                            [dead](DocId d) { return dead->count(d) != 0; }),
             ids->end());
}

/// Id histogram of the documents sealed into one slot.
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
                                             options.index.hash_range)) {
  // Segments must retain their documents so Compact() can re-sequence them
  // under fresher statistics.
  options_.index.keep_documents = true;
}

Status DynamicIndex::Add(Document&& doc) {
  if (doc.root() == nullptr) {
    return Status::InvalidArgument("document has no root");
  }
  std::lock_guard<std::mutex> lock(mu_);
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
  std::lock_guard<std::mutex> lock(mu_);
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
  std::lock_guard<std::mutex> lock(mu_);
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
  std::lock_guard<std::mutex> lock(mu_);
  // Sealing re-sequences the buffer under the segment's own model, so be
  // conservative and retire cached results even though the document set is
  // unchanged.
  ++generation_;
  return SealBufferLocked();
}

Status DynamicIndex::SealBufferLocked() {
  if (buffer_.docs.empty()) return Status::OK();
  Timer seal_timer;
  auto slot_ids = CountIds(buffer_.docs);
  CollectionBuilder builder(options_.index, names_, values_);
  for (Document& doc : buffer_.docs) {
    XSEQ_RETURN_IF_ERROR(builder.Add(std::move(doc)));
  }
  buffer_ = UnsealedDocs();
  auto segment = std::move(builder).Finish();
  if (obs::MetricsEnabled()) {
    const DynMetricSet& m = DynMetrics();
    m.buffered_docs->Set(0);
    if (segment.ok()) {
      m.seals->Increment();
      m.seal_us->Record(static_cast<uint64_t>(seal_timer.ElapsedMicros()));
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

Status DynamicIndex::Compact() {
  Timer compact_timer;
  std::lock_guard<std::mutex> lock(mu_);
  ++generation_;
  CollectionBuilder builder(options_.index, names_, values_);
  auto merged_ids = std::make_shared<std::unordered_map<DocId, uint32_t>>();
  // Tombstoned documents are purged here: they are simply not fed to the
  // rebuild, so the merged segment starts with an empty tombstone set.
  for (size_t i = 0; i < segments_.size(); ++i) {
    const auto& dead = slot_state_[i].dead;
    for (const Document& doc : segments_[i]->documents()) {
      if (dead != nullptr && dead->count(doc.id()) != 0) continue;
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

Status DynamicIndex::ForEachLiveDocument(
    const std::function<Status(const Document&)>& fn) const {
  // Segments and tombstone sets are immutable once published, so pointers
  // to them suffice; the buffer mutates, so it is copied.
  std::vector<std::shared_ptr<const CollectionIndex>> segments;
  std::vector<std::shared_ptr<const std::unordered_set<DocId>>> dead;
  std::vector<Document> buffered;
  {
    std::lock_guard<std::mutex> lock(mu_);
    segments = segments_;
    for (const SlotState& slot : slot_state_) dead.push_back(slot.dead);
    buffered.reserve(buffer_.docs.size());
    for (const Document& doc : buffer_.docs) {
      buffered.push_back(CloneDocument(doc));
    }
  }
  for (size_t i = 0; i < segments.size(); ++i) {
    for (const Document& doc : segments[i]->documents()) {
      if (dead[i] != nullptr && dead[i]->count(doc.id()) != 0) continue;
      XSEQ_RETURN_IF_ERROR(fn(doc));
    }
  }
  for (const Document& doc : buffered) XSEQ_RETURN_IF_ERROR(fn(doc));
  return Status::OK();
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

Status DynamicIndex::ScanBufferLocked(const xseq::QueryPattern& pattern,
                                      const ExecOptions& options,
                                      std::vector<DocId>* out,
                                      uint64_t* trees) const {
  if (buffer_.docs.empty()) return Status::OK();
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
  // buffer's own dictionary, which the caller has synced: it interns
  // exactly the scanned documents (chain-expanded copies in char-sequence
  // mode).
  auto inst = InstantiatePattern(*effective, buffer_.dict, *names_,
                                 *values_, options.instantiate);
  if (!inst.ok()) return inst.status();
  *trees += inst->queries.size();
  std::vector<DocId> part;
  for (const ConcreteQuery& cq : inst->queries) {
    std::vector<DocId> one = OracleScan(buffer_.scanned(), cq);
    part.insert(part.end(), one.begin(), one.end());
  }
  if (!cmps.empty() && !part.empty()) {
    // Comparisons check the ORIGINAL documents: value nodes retain their
    // raw text in every value mode, so ordering stays exact even when the
    // index hashes or chain-encodes values.
    std::unordered_set<DocId> satisfying;
    for (const Document& doc : buffer_.docs) {
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
  out->insert(out->end(), part.begin(), part.end());
  return Status::OK();
}

StatusOr<std::vector<DocId>> DynamicIndex::ExecutePattern(
    const xseq::QueryPattern& pattern, const ExecOptions& options,
    ExecStats* stats) const {
  QueryRun run(options, "dynamic_query");
  XSEQ_RETURN_IF_ERROR(run.Start());
  auto docs = Probe(pattern, run.options(), run.stats(), run.root_span());
  if (!docs.ok()) return docs.status();
  std::vector<DocId> out = run.Finish(std::move(*docs));
  if (stats != nullptr) stats->Add(*run.stats());
  return out;
}

StatusOr<std::vector<DocId>> DynamicIndex::Probe(
    const xseq::QueryPattern& pattern, const ExecOptions& options,
    ExecStats* stats, uint32_t trace_parent) const {
  std::vector<DocId> out;
  std::vector<std::shared_ptr<const CollectionIndex>> segments;
  std::vector<std::shared_ptr<const std::unordered_set<DocId>>> seg_dead;
  {
    obs::SpanScope scan_span(options.trace, "scan_unsealed", trace_parent);
    uint64_t trees = 0;
    // The buffer mutates under Add(), so it is scanned while the lock is
    // held. The segments and tombstone sets snapshotted with it are
    // immutable (tombstone sets are copy-on-write), so they are probed
    // outside it. Deletes erase from the buffer outright, so its scan needs
    // no filter. The scan first catches the buffer's dictionary up with the
    // mutations since the last query.
    std::lock_guard<std::mutex> lock(mu_);
    segments = segments_;
    seg_dead.reserve(slot_state_.size());
    for (const SlotState& slot : slot_state_) seg_dead.push_back(slot.dead);
    buffer_.Sync(values_->mode());
    XSEQ_RETURN_IF_ERROR(ScanBufferLocked(pattern, options, &out, &trees));
    scan_span.Annotate("scanned_docs", buffer_.docs.size());
    scan_span.Annotate("trees", trees);
    scan_span.Annotate("docs", out.size());
  }

  // One leased context serves every segment of this probe.
  MatchContextLease lease(&match_contexts_);
  for (size_t i = 0; i < segments.size(); ++i) {
    obs::SpanScope seg_span(options.trace, "segment_probe", trace_parent);
    const QueryExecutor executor = segments[i]->executor();
    CatalogRun segment(executor, pattern, stats, options, seg_span.id());
    XSEQ_RETURN_IF_ERROR(segment.Start());
    auto part = segment.MatchPart(0, lease.get());
    if (!part.ok()) return part.status();
    RemoveDeadIds(seg_dead[i].get(), &*part);
    seg_span.Annotate("docs", part->size());
    out.insert(out.end(), part->begin(), part->end());
  }
  if (options.trace != nullptr) {
    options.trace->Annotate(trace_parent, "segments", segments.size());
  }
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
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& segment : segments_) total += segment->Stats().trie_nodes;
  return total;
}

}  // namespace xseq
