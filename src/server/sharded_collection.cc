#include "src/server/sharded_collection.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <utility>

#include "src/obs/metrics.h"
#include "src/query/query_pattern.h"
#include "src/seq/reconstruct.h"
#include "src/util/hash.h"
#include "src/util/timer.h"

namespace xseq {

namespace {

/// Registry handles for the shard-layer metrics, resolved once.
struct ShardMetricSet {
  obs::Counter* queries;
  obs::Counter* probes;
  obs::Counter* probe_errors;
  obs::Histogram* probe_us;
  obs::Histogram* probe_docs;
  obs::Gauge* shard_count;
};

const ShardMetricSet& ShardMetrics() {
  static const ShardMetricSet s = [] {
    obs::MetricsRegistry* r = obs::MetricsRegistry::Default();
    return ShardMetricSet{r->GetCounter("xseq.shard.queries"),
                          r->GetCounter("xseq.shard.probes"),
                          r->GetCounter("xseq.shard.probe_errors"),
                          r->GetHistogram("xseq.shard.probe_us"),
                          r->GetHistogram("xseq.shard.probe_docs"),
                          r->GetGauge("xseq.shard.count")};
  }();
  return s;
}

}  // namespace

std::string ShardImagePath(const std::string& prefix, size_t shard) {
  return prefix + ".shard" + std::to_string(shard);
}

StatusOr<ShardedManifest> ReadShardedManifest(const std::string& prefix,
                                              const PersistOptions& persist) {
  std::string manifest;
  XSEQ_RETURN_IF_ERROR(ReadImageFile(prefix, persist, &manifest));
  return DecodeShardedManifest(manifest, /*with_catalog=*/false);
}

Status VerifyShardImages(const std::string& prefix,
                         const ShardedManifest& manifest,
                         const PersistOptions& persist) {
  uint64_t documents = 0;
  for (uint32_t s = 0; s < manifest.shard_count; ++s) {
    const std::string path = ShardImagePath(prefix, s);
    const std::string where = "shard " + std::to_string(s) + " (" + path + ")";
    std::string data;
    Status read = ReadImageFile(path, persist, &data);
    if (!read.ok()) return AnnotateStatus(read, where);
    IndexFileReport report = InspectEncodedIndex(data);
    if (!report.status.ok()) return AnnotateStatus(report.status, where);
    if (report.kind != "part") {
      return Status::Corruption(where + ": not a shard part file");
    }
    if (report.catalog_id != manifest.catalog_id) {
      return Status::Corruption(
          where + ": part belongs to another save (its manifest identity "
                  "differs)");
    }
    documents += report.documents;
  }
  if (documents != manifest.total_documents) {
    return Status::Corruption(
        "manifest counts " + std::to_string(manifest.total_documents) +
        " documents but its parts hold " + std::to_string(documents));
  }
  return Status::OK();
}

size_t ShardOfDoc(DocId id, size_t shards) {
  if (shards <= 1) return 0;
  char bytes[sizeof(DocId)];
  std::memcpy(bytes, &id, sizeof(id));
  return Fnv1a64(std::string_view(bytes, sizeof(bytes))) % shards;
}

ShardedCollection::ShardedCollection(ShardedOptions options)
    : options_(std::move(options)),
      match_contexts_(std::make_unique<MatchContextPool>()) {
  if (options_.shards < 1) options_.shards = 1;
  if (options_.dynamic) {
    DynamicOptions dyn;
    dyn.index = options_.index;
    dyn.flush_threshold = options_.flush_threshold;
    dynamic_shards_.reserve(shard_count());
    for (size_t s = 0; s < shard_count(); ++s) {
      dynamic_shards_.push_back(std::make_unique<DynamicIndex>(dyn));
    }
  } else {
    builder_ =
        std::make_unique<CollectionBuilder>(options_.index, shard_count());
  }
  if (obs::MetricsEnabled()) {
    ShardMetrics().shard_count->Set(static_cast<int64_t>(shard_count()));
  }
}

ShardedCollection::~ShardedCollection() = default;

NameTable* ShardedCollection::names(size_t shard) {
  if (options_.dynamic) return dynamic_shards_[shard]->names();
  return builder_ != nullptr ? builder_->names() : nullptr;
}

ValueEncoder* ShardedCollection::values(size_t shard) {
  if (options_.dynamic) return dynamic_shards_[shard]->values();
  return builder_ != nullptr ? builder_->values() : nullptr;
}

Status ShardedCollection::Add(Document&& doc) {
  size_t shard = ShardOf(doc.id());
  if (options_.dynamic) {
    Status st = dynamic_shards_[shard]->Add(std::move(doc));
    if (st.ok()) ++added_docs_;
    return st;
  }
  if (builder_ == nullptr) {
    return Status::FailedPrecondition(
        "static ShardedCollection is sealed; use the dynamic backend for "
        "insertion-after-build");
  }
  Status st = builder_->Add(std::move(doc), shard);
  if (st.ok()) ++added_docs_;
  return st;
}

Status ShardedCollection::Delete(DocId id) {
  if (!options_.dynamic) {
    return Status::FailedPrecondition(
        "static ShardedCollection is immutable; use the dynamic backend "
        "for delete/update");
  }
  return dynamic_shards_[ShardOf(id)]->Delete(id);
}

Status ShardedCollection::Update(Document&& doc, DocId id) {
  if (!options_.dynamic) {
    return Status::FailedPrecondition(
        "static ShardedCollection is immutable; use the dynamic backend "
        "for delete/update");
  }
  return dynamic_shards_[ShardOf(id)]->Update(std::move(doc), id);
}

Status ShardedCollection::Compact() {
  if (!options_.dynamic) {
    return Status::FailedPrecondition(
        "static ShardedCollection has nothing to compact");
  }
  for (auto& shard : dynamic_shards_) {
    XSEQ_RETURN_IF_ERROR(shard->Compact());
  }
  return Status::OK();
}

Status ShardedCollection::Seal() {
  if (options_.dynamic) {
    for (auto& shard : dynamic_shards_) {
      XSEQ_RETURN_IF_ERROR(shard->Flush());
    }
    return Status::OK();
  }
  if (sealed_) return Status::OK();
  if (builder_ == nullptr) {
    return Status::FailedPrecondition("an earlier Seal() failed");
  }
  std::unique_ptr<ThreadPool> owned;
  auto built =
      std::move(*builder_).FinishParts(PoolFor(options_.threads, &owned));
  builder_.reset();
  if (!built.ok()) return built.status();
  shards_.reserve(built->size());
  for (CollectionIndex& shard : *built) {
    shards_.push_back(std::make_unique<CollectionIndex>(std::move(shard)));
  }
  BindParts();
  sealed_ = true;
  return Status::OK();
}

void ShardedCollection::BindParts() {
  parts_.clear();
  for (const auto& shard : shards_) parts_.push_back(shard->part());
  plan_cache_id_ = FrozenIndex::NextIndexCacheId();
}

QueryExecutor ShardedCollection::executor() const {
  return QueryExecutor(shards_.front()->catalog()->view(), parts_,
                       plan_cache_id_, match_contexts_.get());
}

bool ShardedCollection::sealed() const {
  return options_.dynamic || sealed_;
}

StatusOr<QueryResult> ShardedCollection::Query(
    std::string_view xpath, const ExecOptions& options) const {
  if (!sealed()) {
    return Status::FailedPrecondition("ShardedCollection not sealed");
  }
  const bool metrics = obs::MetricsEnabled();
  if (metrics) ShardMetrics().queries->Increment();

  // The query text keys the plan cache: the collection's one entry on the
  // static backend, each segment's on the dynamic one.
  ExecOptions opts = options;
  if (opts.plan.cache_key.empty()) opts.plan.cache_key = xpath;
  auto pattern = ParseXPath(xpath);
  if (!pattern.ok()) return pattern.status();

  QueryResult out;
  // Static backend: one run compiles once against the shared catalog and
  // matches shard by shard.
  std::optional<QueryExecutor> static_executor;
  std::optional<QueryRun> run;
  std::optional<MatchContextLease> lease;
  if (!options_.dynamic) {
    static_executor.emplace(executor());
    run.emplace(*static_executor, *pattern, &out.stats, opts);
    XSEQ_RETURN_IF_ERROR(run->Start());
    lease.emplace(match_contexts_.get());
  }
  obs::TraceBuilder* tb = run ? run->trace() : opts.trace;
  const uint32_t root = run ? run->root_span() : opts.trace_parent;

  std::vector<DocId> docs;
  Status first_error;
  // Shards are probed one after another on the calling thread, which holds
  // the query's execution slot; parallelism comes from concurrent queries.
  // Every shard is probed even after one fails; the first failure is
  // returned and nothing after it is merged.
  for (size_t s = 0; s < shard_count(); ++s) {
    Timer timer;
    obs::SpanScope probe_span(tb, "shard_probe", root);
    probe_span.Annotate("shard", static_cast<uint64_t>(s));
    const uint64_t entries_before = out.stats.match.link_entries_read;
    StatusOr<std::vector<DocId>> part = std::vector<DocId>();
    if (options_.dynamic) {
      // Each dynamic shard compiles against its own vocabulary; its probe
      // gets its own explain, merged below.
      ExecOptions popts = opts;
      popts.trace = tb;
      popts.trace_parent = probe_span.id();
      QueryExplain part_explain;
      if (opts.explain != nullptr) popts.explain = &part_explain;
      ExecStats part_stats;
      part = dynamic_shards_[s]->ExecutePattern(*pattern, popts, &part_stats);
      if (part.ok() && first_error.ok()) {
        out.stats.Add(part_stats);
        if (opts.explain != nullptr) {
          for (QueryExplain::SeqEntry& e : part_explain.seq) {
            e.shard = static_cast<int32_t>(s);
          }
          opts.explain->Add(part_explain);
        }
      }
    } else {
      part = run->MatchPart(s, lease->get(), probe_span.id());
    }
    const int64_t probe_us = timer.ElapsedMicros();
    const size_t part_docs = part.ok() ? part->size() : 0;
    const uint64_t entries_read =
        out.stats.match.link_entries_read - entries_before;
    if (tb != nullptr) {
      probe_span.Annotate("docs", part_docs);
      probe_span.Annotate("entries_read", entries_read);
      if (!part.ok()) probe_span.Annotate("error", 1);
    }
    if (metrics) {
      const ShardMetricSet& m = ShardMetrics();
      m.probes->Increment();
      if (!part.ok()) m.probe_errors->Increment();
      m.probe_us->Record(static_cast<uint64_t>(probe_us));
      m.probe_docs->Record(part_docs);
    }
    probe_span.End();
    if (first_error.ok()) first_error = part.status();
    if (!first_error.ok()) continue;
    docs.insert(docs.end(), part->begin(), part->end());
    if (opts.explain != nullptr) {
      // One fan-out breakdown row per shard shows where the work went.
      QueryExplain::ShardBreakdown row;
      row.shard = static_cast<int32_t>(s);
      row.docs = part_docs;
      row.entries_read = entries_read;
      row.micros = probe_us;
      opts.explain->shards.push_back(row);
    }
  }
  XSEQ_RETURN_IF_ERROR(first_error);
  if (run) {
    out.docs = run->Finish(std::move(docs));
  } else {
    // Shards partition the id space, so this is a disjoint union: sort for
    // the public "sorted, deduplicated" contract.
    std::sort(docs.begin(), docs.end());
    docs.erase(std::unique(docs.begin(), docs.end()), docs.end());
    out.docs = std::move(docs);
    out.stats.result_docs = out.docs.size();
  }
  return out;
}

uint64_t ShardedCollection::total_documents() const {
  if (options_.dynamic) {
    uint64_t total = 0;
    for (const auto& shard : dynamic_shards_) {
      total += shard->total_documents();
    }
    return total;
  }
  if (sealed_) {
    uint64_t total = 0;
    for (const auto& shard : shards_) total += shard->Stats().documents;
    return total;
  }
  return added_docs_;
}

uint64_t ShardedCollection::generation() const {
  if (options_.dynamic) {
    uint64_t total = 0;
    for (const auto& shard : dynamic_shards_) total += shard->generation();
    return total;
  }
  return sealed_ ? 1 : 0;
}

CollectionIndex::SizeStats ShardedCollection::MergedStats() const {
  CollectionIndex::SizeStats merged;
  if (options_.dynamic || !sealed_) {
    merged.documents = total_documents();
    return merged;
  }
  for (const auto& shard : shards_) {
    CollectionIndex::SizeStats s = shard->Stats();
    merged.documents += s.documents;
    merged.trie_nodes += s.trie_nodes;
    merged.sequence_elements += s.sequence_elements;
    merged.memory_bytes += s.memory_bytes;
  }
  // Every shard reports the one dictionary they share.
  merged.distinct_paths = shards_.front()->Stats().distinct_paths;
  merged.avg_sequence_length =
      merged.documents == 0
          ? 0.0
          : static_cast<double>(merged.sequence_elements) /
                static_cast<double>(merged.documents);
  return merged;
}

namespace {

/// Deep-copies `doc`, parsed against `names`/`values`, into `out`'s
/// vocabulary and adds it to its owning shard: the one path by which
/// documents move into a new vocabulary (the dynamic Save and the
/// reshard). Names translate by string. A value node carrying its text is
/// encoded afresh from it; one without text (reconstructed from a trie)
/// translates by string in exact mode and passes through otherwise: hashed
/// ids are a pure function of the text, and char-sequence tries index the
/// expanded document, so reconstructed value nodes already carry
/// vocabulary-independent character codes (plus the terminator), which
/// ride through the destination's ExpandValueChains untouched.
Status AddTranslated(const Document& doc, const NameTable& names,
                     const ValueEncoder& values, ShardedCollection* out) {
  const size_t shard = out->ShardOf(doc.id());
  NameTable* dst_names = out->names(shard);
  ValueEncoder* dst_values = out->values(shard);
  const bool exact = values.mode() == ValueMode::kExact;
  Document copy(doc.id());
  auto translate = [&](const Node* n) -> Node* {
    if (n->is_value()) {
      if (n->text != nullptr) {
        return copy.CreateValue(dst_values->Encode(n->text), n->text);
      }
      if (!exact) return copy.CreateValue(ValueId(n->sym.id()));
      const std::string& text = values.Lookup(ValueId(n->sym.id()));
      return copy.CreateValue(dst_values->Encode(text), text);
    }
    NameId nid = dst_names->Intern(names.Lookup(NameId(n->sym.id())));
    return n->kind == NodeKind::kAttribute ? copy.CreateAttribute(nid)
                                           : copy.CreateElement(nid);
  };
  const Node* src_root = doc.root();
  Node* new_root = translate(src_root);
  copy.SetRoot(new_root);
  std::vector<std::pair<const Node*, Node*>> stack = {{src_root, new_root}};
  while (!stack.empty()) {
    auto [src_node, dst_node] = stack.back();
    stack.pop_back();
    // Children append in document order as they are walked; the stack only
    // changes which subtree is expanded next, not sibling order.
    for (const Node* c = src_node->first_child; c != nullptr;
         c = c->next_sibling) {
      Node* translated = translate(c);
      copy.AppendChild(dst_node, translated);
      stack.emplace_back(c, translated);
    }
  }
  return out->Add(std::move(copy));
}

}  // namespace

StatusOr<ShardedCollection> ShardedCollection::StaticSnapshot() const {
  ShardedOptions opts = options_;
  opts.dynamic = false;
  ShardedCollection out(opts);
  for (const auto& shard : dynamic_shards_) {
    XSEQ_RETURN_IF_ERROR(
        shard->ForEachLiveDocument([&](const Document& doc) {
          return AddTranslated(doc, *shard->names(), *shard->values(), &out);
        }));
  }
  XSEQ_RETURN_IF_ERROR(out.Seal());
  return out;
}

Status ShardedCollection::Save(const std::string& prefix,
                               const PersistOptions& persist) const {
  if (options_.dynamic) {
    auto snapshot = StaticSnapshot();
    if (!snapshot.ok()) return snapshot.status();
    return snapshot->Save(prefix, persist);
  }
  if (!sealed_) {
    return Status::FailedPrecondition("Seal() before Save()");
  }
  uint64_t catalog_id = 0;
  const std::string manifest = EncodeShardedManifest(
      *shards_.front()->catalog(), static_cast<uint32_t>(shards_.size()),
      total_documents(), &catalog_id);
  // Parts first, the manifest last: its presence certifies that every part
  // it names landed.
  for (size_t s = 0; s < shards_.size(); ++s) {
    XSEQ_RETURN_IF_ERROR(WriteImageFile(
        ShardImagePath(prefix, s), EncodeIndexPart(*shards_[s], catalog_id),
        persist));
  }
  return WriteImageFile(prefix, manifest, persist);
}

StatusOr<ShardedCollection> ShardedCollection::Load(
    const std::string& prefix, int threads, const PersistOptions& persist) {
  std::string manifest_bytes;
  XSEQ_RETURN_IF_ERROR(ReadImageFile(prefix, persist, &manifest_bytes));
  auto manifest = DecodeShardedManifest(manifest_bytes, /*with_catalog=*/true);
  if (!manifest.ok()) return manifest.status();
  const uint32_t shard_count = manifest->shard_count;

  ShardedOptions options;
  options.shards = static_cast<int>(shard_count);
  options.threads = threads;
  options.index = manifest->catalog->options;
  ShardedCollection out(options);
  out.builder_.reset();
  std::vector<std::unique_ptr<CollectionIndex>> shards(shard_count);
  std::vector<Status> statuses(shard_count);
  std::unique_ptr<ThreadPool> owned;
  PoolFor(threads, &owned)->ParallelFor(shard_count, [&](size_t s) {
    const std::string path = ShardImagePath(prefix, s);
    std::string data;
    Status read = ReadImageFile(path, persist, &data);
    if (!read.ok()) {
      statuses[s] = AnnotateStatus(read, "shard " + std::to_string(s));
      return;
    }
    auto loaded = DecodeIndexPart(data, *manifest);
    if (!loaded.ok()) {
      statuses[s] = AnnotateStatus(
          loaded.status(), "shard " + std::to_string(s) + " (" + path + ")");
      return;
    }
    shards[s] = std::make_unique<CollectionIndex>(std::move(*loaded));
  });
  for (const Status& st : statuses) XSEQ_RETURN_IF_ERROR(st);
  uint64_t documents = 0;
  for (const auto& shard : shards) documents += shard->Stats().documents;
  if (documents != manifest->total_documents) {
    return Status::Corruption(
        "manifest counts " + std::to_string(manifest->total_documents) +
        " documents but its parts hold " + std::to_string(documents));
  }
  out.shards_ = std::move(shards);
  out.BindParts();
  out.sealed_ = true;
  return out;
}

StatusOr<ShardedCollection> ReshardCollection(const ShardedCollection& source,
                                              int new_shards, int threads) {
  if (source.options().dynamic) {
    return Status::FailedPrecondition(
        "reshard requires a static collection (save a dynamic one first)");
  }
  if (!source.sealed()) {
    return Status::FailedPrecondition("Seal() before resharding");
  }
  if (new_shards < 1) {
    return Status::InvalidArgument("new_shards must be >= 1");
  }
  ShardedOptions opts;
  opts.shards = new_shards;
  opts.threads = threads;
  opts.index = source.options().index;
  ShardedCollection out(opts);
  for (size_t s = 0; s < source.shard_count(); ++s) {
    const CollectionIndex* shard = source.shard(s);
    if (shard == nullptr) {
      return Status::Internal("missing shard in sealed static collection");
    }
    const FrozenIndex& idx = shard->index();
    // Pre-order walk maintaining the root-to-here label chain: a node's
    // ancestors are exactly the open intervals [serial, end] containing it,
    // so the chain *is* the document's constraint sequence (Theorem 1
    // recovers the tree from it).
    std::vector<uint32_t> ends;
    std::vector<PathId> chain;
    for (uint32_t serial = 0; serial < idx.node_count(); ++serial) {
      while (!ends.empty() && ends.back() < serial) {
        ends.pop_back();
        chain.pop_back();
      }
      ends.push_back(idx.end(serial));
      chain.push_back(idx.path(serial));
      auto docs = idx.DocsAtNode(serial);
      if (docs.empty()) continue;
      Sequence seq(chain.begin(), chain.end());
      for (DocId d : docs) {
        auto tree = ReconstructTree(seq, shard->dict(), d);
        if (!tree.ok()) return tree.status();
        XSEQ_RETURN_IF_ERROR(
            AddTranslated(*tree, shard->names(), shard->values(), &out));
      }
    }
  }
  XSEQ_RETURN_IF_ERROR(out.Seal());
  return out;
}

}  // namespace xseq
