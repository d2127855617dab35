#include "src/core/collection_index.h"

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

CollectionBuilder::CollectionBuilder(IndexOptions options)
    : CollectionBuilder(options, std::make_shared<NameTable>(),
                        std::make_shared<ValueEncoder>(options.value_mode,
                                                       options.hash_range)) {}

CollectionBuilder::CollectionBuilder(IndexOptions options,
                                     std::shared_ptr<NameTable> names,
                                     std::shared_ptr<ValueEncoder> values)
    : options_(options),
      names_(std::move(names)),
      values_(std::move(values)),
      dict_(std::make_unique<PathDict>()),
      schema_(std::make_unique<Schema>()) {}

Status CollectionBuilder::Observe(const Document& doc) {
  if (indexing_) {
    return Status::FailedPrecondition(
        "Observe() after BeginIndexing(); stream documents in two passes");
  }
  if (doc.root() == nullptr) {
    return Status::InvalidArgument("document has no root");
  }
  if (options_.value_mode == ValueMode::kCharSequence) {
    Document expanded = ExpandValueChains(doc);
    std::vector<PathId> paths = BindPaths(expanded, dict_.get());
    schema_->Observe(expanded, paths);
  } else {
    std::vector<PathId> paths = BindPaths(doc, dict_.get());
    schema_->Observe(doc, paths);
  }
  if (doc.root()->sym.is_name()) {
    PathId root_path = dict_->Find(kEpsilonPath, doc.root()->sym);
    if (root_path != kInvalidPath) {
      CollectValueEntries(doc.root(), root_path, doc, *dict_, &vindex_);
    }
  }
  ++observed_docs_;
  return Status::OK();
}

Status CollectionBuilder::Add(Document&& doc) {
  XSEQ_RETURN_IF_ERROR(Observe(doc));
  retained_.push_back(std::move(doc));
  return Status::OK();
}

Status CollectionBuilder::BoostPath(std::string_view slash_path,
                                    double weight) {
  if (indexing_) {
    return Status::FailedPrecondition(
        "BoostPath() must be called before BeginIndexing()");
  }
  PathId p = dict_->Resolve(slash_path, *names_);
  if (p == kInvalidPath) {
    return Status::NotFound("path not observed in the data: " +
                            std::string(slash_path));
  }
  schema_->SetWeight(p, weight);
  return Status::OK();
}

Status CollectionBuilder::BoostValuesUnder(std::string_view slash_path,
                                           double weight) {
  if (indexing_) {
    return Status::FailedPrecondition(
        "BoostValuesUnder() must be called before BeginIndexing()");
  }
  PathId p = dict_->Resolve(slash_path, *names_);
  if (p == kInvalidPath) {
    return Status::NotFound("path not observed in the data: " +
                            std::string(slash_path));
  }
  schema_->SetWeight(p, weight);
  for (PathId c = dict_->FirstChild(p); c != kInvalidPath;
       c = dict_->NextSibling(c)) {
    if (dict_->sym(c).is_value()) schema_->SetWeight(c, weight);
  }
  return Status::OK();
}

Status CollectionBuilder::BeginIndexing() {
  if (indexing_) {
    return Status::FailedPrecondition("BeginIndexing() called twice");
  }
  indexing_ = true;
  model_ = schema_->BuildModel(*dict_);
  sequencer_ =
      MakeSequencer(options_.sequencer, model_, options_.random_seed);
  if (sequencer_ == nullptr) {
    return Status::InvalidArgument("unknown sequencer kind");
  }
  return Status::OK();
}

Status CollectionBuilder::SequenceInto(const Document& doc) {
  const Document* src = &doc;
  Document expanded(0);
  if (options_.value_mode == ValueMode::kCharSequence) {
    expanded = ExpandValueChains(doc);
    src = &expanded;
  }
  // Paths were interned during Observe; Find is enough here, but documents
  // in streaming mode are re-generated, so re-bind defensively (a path that
  // was never observed indicates the two passes diverged).
  std::vector<PathId> paths = FindPaths(*src, *dict_);
  for (PathId p : paths) {
    if (p == kInvalidPath) {
      return Status::InvalidArgument(
          "document contains a path never observed in phase 1; the two "
          "streaming passes must supply identical documents");
    }
  }
  Sequence seq = sequencer_->Encode(*src, paths);
  total_seq_elements_ += seq.size();
  buffered_.emplace_back(std::move(seq), src->id());
  return Status::OK();
}

Status CollectionBuilder::Index(const Document& doc) {
  if (!indexing_) {
    return Status::FailedPrecondition("call BeginIndexing() before Index()");
  }
  return SequenceInto(doc);
}

StatusOr<CollectionIndex> CollectionBuilder::Finish() && {
  Timer finish_timer;
  if (!indexing_) {
    XSEQ_RETURN_IF_ERROR(BeginIndexing());
  }
  buffered_.reserve(buffered_.size() + retained_.size());
  for (const Document& doc : retained_) {
    XSEQ_RETURN_IF_ERROR(SequenceInto(doc));
  }

  TrieBuilder trie;
  if (options_.bulk_load) {
    XSEQ_RETURN_IF_ERROR(trie.BulkLoad(&buffered_));
  } else {
    for (const auto& [seq, doc] : buffered_) {
      XSEQ_RETURN_IF_ERROR(trie.Insert(seq, doc));
    }
    buffered_.clear();
  }

  CollectionIndex out;
  out.options_ = options_;
  out.index_ = std::move(trie).Freeze();
  out.names_ = std::move(names_);
  out.values_ = std::move(values_);
  out.dict_ = std::move(dict_);
  out.schema_ = std::move(schema_);
  out.model_ = std::move(model_);
  out.sequencer_ = std::move(sequencer_);
  out.vindex_ = std::move(vindex_).Build();
  out.documents_count_ = observed_docs_;
  out.total_seq_elements_ = total_seq_elements_;
  if (options_.keep_documents) {
    out.documents_ = std::move(retained_);
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
    s.documents->Add(out.documents_count_);
    s.seq_elements->Add(out.total_seq_elements_);
    s.finish_us->Record(static_cast<uint64_t>(finish_timer.ElapsedMicros()));
  }
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
  // One context pool for the batch: workers lease scratch per query, so a
  // batch allocates a handful of contexts total instead of per query.
  MatchContextPool contexts;
  // Query() is const and touches only the frozen index; every worker writes
  // its own slot.
  pool->ParallelFor(xpaths.size(), [&](size_t i) {
    MatchContextLease lease(&contexts);
    out[i] = Query(xpaths[i], options, lease.get());
  });
  return out;
}

CollectionIndex::SizeStats CollectionIndex::Stats() const {
  SizeStats s;
  s.documents = documents_count_;
  s.trie_nodes = index_.node_count();
  s.distinct_paths = dict_->size() - 1;  // exclude ε
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
