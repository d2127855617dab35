#include "src/core/collection_index.h"

#include <algorithm>
#include <optional>

#include "src/obs/metrics.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"
#include "src/xml/value_chain.h"

namespace xseq {

namespace {

/// Feeds every (parent element path, value text, doc) triple of the
/// ORIGINAL document into the value-index builder. Runs after BindPaths,
/// so every element-chain prefix already exists in the dictionary (in
/// char-sequence mode the chains replace only the value leaves) and the
/// read-only Find keeps the dictionary layout byte-identical to a build
/// without a value index.
void CollectValueEntries(const Node* n, PathId path, const Document& doc,
                         const PathDict& dict, ValueIndexBuilder* out) {
  for (const Node* c = n->first_child; c != nullptr; c = c->next_sibling) {
    if (c->is_value()) {
      if (c->text != nullptr) out->Add(path, c->text, doc.id());
      continue;
    }
    PathId child = dict.Find(path, c->sym);
    if (child == kInvalidPath) continue;  // never bound; nothing indexed
    CollectValueEntries(c, child, doc, dict, out);
  }
}

}  // namespace

Status CollectionCatalog::BuildSequencer() {
  model = schema.BuildModel(dict);
  sequencer = MakeSequencer(options.sequencer, model, options.random_seed);
  if (sequencer == nullptr) {
    return Status::InvalidArgument("unknown sequencer kind");
  }
  return Status::OK();
}

CollectionBuilder::CollectionBuilder(IndexOptions options)
    : CollectionBuilder(options, std::make_shared<NameTable>(),
                        std::make_shared<ValueEncoder>(options.value_mode,
                                                       options.hash_range)) {}

CollectionBuilder::CollectionBuilder(IndexOptions options,
                                     std::shared_ptr<NameTable> names,
                                     std::shared_ptr<ValueEncoder> values)
    : catalog_(std::make_shared<CollectionCatalog>()), parts_(1) {
  catalog_->options = options;
  catalog_->names = std::move(names);
  catalog_->values = std::move(values);
}

CollectionBuilder::CollectionBuilder(IndexOptions options, size_t parts)
    : CollectionBuilder(options) {
  parts_.resize(std::max<size_t>(parts, 1));
}

Status CollectionBuilder::ObserveInto(const Document& doc, Part* part) {
  if (indexing_) {
    return Status::FailedPrecondition(
        "Observe() after BeginIndexing(); stream documents in two passes");
  }
  if (doc.root() == nullptr) {
    return Status::InvalidArgument("document has no root");
  }
  PathDict* dict = &catalog_->dict;
  if (catalog_->options.value_mode == ValueMode::kCharSequence) {
    Document expanded = ExpandValueChains(doc);
    std::vector<PathId> paths = BindPaths(expanded, dict);
    catalog_->schema.Observe(expanded, paths);
  } else {
    std::vector<PathId> paths = BindPaths(doc, dict);
    catalog_->schema.Observe(doc, paths);
  }
  if (doc.root()->sym.is_name()) {
    PathId root_path = dict->Find(kEpsilonPath, doc.root()->sym);
    if (root_path != kInvalidPath) {
      CollectValueEntries(doc.root(), root_path, doc, *dict, &part->vindex);
    }
  }
  ++part->observed_docs;
  return Status::OK();
}

Status CollectionBuilder::Observe(const Document& doc) {
  return ObserveInto(doc, &parts_[0]);
}

Status CollectionBuilder::Add(Document&& doc, size_t part) {
  if (part >= parts_.size()) {
    return Status::InvalidArgument("no such part: " + std::to_string(part));
  }
  XSEQ_RETURN_IF_ERROR(ObserveInto(doc, &parts_[part]));
  parts_[part].retained.push_back(std::move(doc));
  return Status::OK();
}

Status CollectionBuilder::BoostPath(std::string_view slash_path,
                                    double weight) {
  if (indexing_) {
    return Status::FailedPrecondition(
        "BoostPath() must be called before BeginIndexing()");
  }
  PathId p = catalog_->dict.Resolve(slash_path, *catalog_->names);
  if (p == kInvalidPath) {
    return Status::NotFound("path not observed in the data: " +
                            std::string(slash_path));
  }
  catalog_->schema.SetWeight(p, weight);
  return Status::OK();
}

Status CollectionBuilder::BoostValuesUnder(std::string_view slash_path,
                                           double weight) {
  if (indexing_) {
    return Status::FailedPrecondition(
        "BoostValuesUnder() must be called before BeginIndexing()");
  }
  const PathDict& dict = catalog_->dict;
  PathId p = dict.Resolve(slash_path, *catalog_->names);
  if (p == kInvalidPath) {
    return Status::NotFound("path not observed in the data: " +
                            std::string(slash_path));
  }
  catalog_->schema.SetWeight(p, weight);
  for (PathId c = dict.FirstChild(p); c != kInvalidPath;
       c = dict.NextSibling(c)) {
    if (dict.sym(c).is_value()) catalog_->schema.SetWeight(c, weight);
  }
  return Status::OK();
}

Status CollectionBuilder::BeginIndexing() {
  if (indexing_) {
    return Status::FailedPrecondition("BeginIndexing() called twice");
  }
  indexing_ = true;
  return catalog_->BuildSequencer();
}

Status CollectionBuilder::SequenceInto(const Document& doc,
                                       Part* part) const {
  const Document* src = &doc;
  Document expanded(0);
  if (catalog_->options.value_mode == ValueMode::kCharSequence) {
    expanded = ExpandValueChains(doc);
    src = &expanded;
  }
  // Paths were interned during Observe; Find is enough here, but documents
  // in streaming mode are re-generated, so re-bind defensively (a path that
  // was never observed indicates the two passes diverged).
  std::vector<PathId> paths = FindPaths(*src, catalog_->dict);
  for (PathId p : paths) {
    if (p == kInvalidPath) {
      return Status::InvalidArgument(
          "document contains a path never observed in phase 1; the two "
          "streaming passes must supply identical documents");
    }
  }
  part->buffered.emplace_back(catalog_->sequencer->Encode(*src, paths),
                              src->id());
  return Status::OK();
}

Status CollectionBuilder::Index(const Document& doc) {
  if (!indexing_) {
    return Status::FailedPrecondition("call BeginIndexing() before Index()");
  }
  return SequenceInto(doc, &parts_[0]);
}

StatusOr<CollectionIndex> CollectionIndex::FromSequences(
    std::shared_ptr<const CollectionCatalog> catalog, uint64_t documents,
    std::vector<std::pair<Sequence, DocId>> sequenced,
    ValueIndexBuilder postings) {
  CollectionIndex out;
  for (const auto& entry : sequenced) {
    out.total_seq_elements_ += entry.first.size();
  }
  TrieBuilder trie;
  if (catalog->options.bulk_load) {
    XSEQ_RETURN_IF_ERROR(trie.BulkLoad(&sequenced));
  } else {
    for (const auto& [seq, doc] : sequenced) {
      XSEQ_RETURN_IF_ERROR(trie.Insert(seq, doc));
    }
  }
  out.catalog_ = std::move(catalog);
  out.index_ = std::move(trie).Freeze();
  out.vindex_ = std::move(postings).Build();
  out.documents_count_ = documents;
  return out;
}

StatusOr<CollectionIndex> CollectionBuilder::BuildPart(Part* part) const {
  Timer finish_timer;
  part->buffered.reserve(part->buffered.size() + part->retained.size());
  for (const Document& doc : part->retained) {
    XSEQ_RETURN_IF_ERROR(SequenceInto(doc, part));
  }
  auto out = CollectionIndex::FromSequences(catalog_, part->observed_docs,
                                            std::move(part->buffered),
                                            std::move(part->vindex));
  if (!out.ok()) return out.status();
  if (catalog_->options.keep_documents) {
    out->documents_ = std::move(part->retained);
  }
  if (obs::MetricsEnabled()) {
    struct Set {
      obs::Counter* finishes;
      obs::Counter* documents;
      obs::Counter* seq_elements;
      obs::Histogram* finish_us;
    };
    static const Set s = [] {
      obs::MetricsRegistry* r = obs::MetricsRegistry::Default();
      return Set{r->GetCounter("xseq.build.finishes"),
                 r->GetCounter("xseq.build.documents"),
                 r->GetCounter("xseq.build.seq_elements"),
                 r->GetHistogram("xseq.build.finish_us")};
    }();
    s.finishes->Increment();
    s.documents->Add(out->documents_count_);
    s.seq_elements->Add(out->total_seq_elements_);
    s.finish_us->Record(static_cast<uint64_t>(finish_timer.ElapsedMicros()));
  }
  return out;
}

StatusOr<CollectionIndex> CollectionBuilder::Finish() && {
  if (parts_.size() != 1) {
    return Status::FailedPrecondition(
        "a builder of several parts finishes with FinishParts()");
  }
  if (!indexing_) XSEQ_RETURN_IF_ERROR(BeginIndexing());
  return BuildPart(&parts_[0]);
}

StatusOr<std::vector<CollectionIndex>> CollectionBuilder::FinishParts(
    ThreadPool* pool) && {
  if (!indexing_) XSEQ_RETURN_IF_ERROR(BeginIndexing());
  const size_t n = parts_.size();
  std::vector<std::optional<CollectionIndex>> built(n);
  std::vector<Status> results(n);
  // The catalog is frozen: every task only reads it.
  pool->ParallelFor(n, [&](size_t p) {
    auto part = BuildPart(&parts_[p]);
    if (part.ok()) {
      built[p].emplace(std::move(*part));
    } else {
      results[p] = part.status();
    }
  });
  for (const Status& st : results) XSEQ_RETURN_IF_ERROR(st);
  std::vector<CollectionIndex> out;
  out.reserve(n);
  for (auto& part : built) out.push_back(std::move(*part));
  return out;
}

StatusOr<QueryResult> CollectionIndex::Query(std::string_view xpath,
                                             const ExecOptions& options,
                                             MatchContext* ctx) const {
  QueryResult result;
  auto docs = executor().Execute(xpath, &result.stats, options, ctx);
  if (!docs.ok()) return docs.status();
  result.docs = std::move(*docs);
  return result;
}

std::vector<StatusOr<QueryResult>> CollectionIndex::QueryBatch(
    const std::vector<std::string>& xpaths, const ExecOptions& options,
    int threads) const {
  std::vector<StatusOr<QueryResult>> out(
      xpaths.size(), Status::Internal("query was not executed"));
  std::unique_ptr<ThreadPool> owned;
  ThreadPool* pool = PoolFor(threads, &owned);
  // Query() is const and touches only the frozen index; every worker writes
  // its own slot and leases scratch per query from the index's pool, which
  // keeps its contexts (and their decoded blocks) across batches.
  pool->ParallelFor(xpaths.size(), [&](size_t i) {
    MatchContextLease lease(contexts_.get());
    out[i] = Query(xpaths[i], options, lease.get());
  });
  return out;
}

CollectionIndex::SizeStats CollectionIndex::Stats() const {
  SizeStats s;
  s.documents = documents_count_;
  s.trie_nodes = index_.node_count();
  s.distinct_paths = catalog_->dict.size() - 1;  // exclude ε
  s.sequence_elements = total_seq_elements_;
  s.memory_bytes = index_.MemoryBytes();
  s.packed_link_bytes = index_.PackedLinkBytes();
  s.logical_link_bytes = index_.LogicalLinkBytes();
  s.decode_scratch_bytes =
      static_cast<uint64_t>(LinkBlockCache::kSlots) *
      sizeof(LinkBlockScratch);
  s.vindex_paths = vindex_.path_count();
  s.vindex_entries = vindex_.entry_count();
  s.vindex_bytes = vindex_.MemoryBytes();
  s.link_compression_ratio =
      s.logical_link_bytes == 0
          ? 0.0
          : static_cast<double>(s.packed_link_bytes) /
                static_cast<double>(s.logical_link_bytes);
  s.avg_sequence_length =
      s.documents == 0 ? 0.0
                       : static_cast<double>(s.sequence_elements) /
                             static_cast<double>(s.documents);
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry* r = obs::MetricsRegistry::Default();
    r->GetGauge("xseq.index.packed_link_bytes")
        ->Set(static_cast<int64_t>(s.packed_link_bytes));
    r->GetGauge("xseq.index.logical_link_bytes")
        ->Set(static_cast<int64_t>(s.logical_link_bytes));
    r->GetGauge("xseq.index.decode_scratch_bytes")
        ->Set(static_cast<int64_t>(s.decode_scratch_bytes));
    r->GetGauge("xseq.index.link_compression_ratio_pct")
        ->Set(static_cast<int64_t>(s.link_compression_ratio * 100.0));
  }
  return s;
}

}  // namespace xseq
