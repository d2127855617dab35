#include "src/server/sharded_collection.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/obs/metrics.h"
#include "src/query/query_pattern.h"
#include "src/seq/reconstruct.h"
#include "src/util/coding.h"
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

constexpr char kManifestMagic[8] = {'X', 'S', 'E', 'Q', 'S', 'H', 'R', 'D'};
constexpr uint8_t kManifestVersion = 1;

/// Encodes and atomically writes the manifest. It goes last in every save:
/// its presence certifies that every shard file landed. Torn multi-file
/// saves leave the old manifest (or none).
Status WriteShardedManifest(const std::string& prefix, size_t shard_count,
                            uint64_t total_docs,
                            const PersistOptions& persist) {
  std::string manifest(kManifestMagic, sizeof(kManifestMagic));
  manifest.push_back(static_cast<char>(kManifestVersion));
  PutFixed32(&manifest, static_cast<uint32_t>(shard_count));
  PutFixed64(&manifest, total_docs);
  PutFixed64(&manifest, Fnv1a64(manifest));
  Env* env = persist.env != nullptr ? persist.env : Env::Default();
  return AtomicWriteFile(env, prefix, manifest);
}

}  // namespace

std::string ShardImagePath(const std::string& prefix, size_t shard) {
  return prefix + ".shard" + std::to_string(shard);
}

StatusOr<ShardedManifest> ReadShardedManifest(const std::string& prefix,
                                              const PersistOptions& persist) {
  Env* env = persist.env != nullptr ? persist.env : Env::Default();
  std::string manifest;
  XSEQ_RETURN_IF_ERROR(env->ReadFileToString(prefix, &manifest));
  if (manifest.size() < sizeof(kManifestMagic) + 1 + 4 + 8 + 8 ||
      std::memcmp(manifest.data(), kManifestMagic, sizeof(kManifestMagic)) !=
          0) {
    return Status::Corruption("not a sharded-collection manifest: " + prefix);
  }
  if (Fnv1a64(std::string_view(manifest.data(), manifest.size() - 8)) !=
      [&] {
        Decoder tail(std::string_view(manifest).substr(manifest.size() - 8));
        uint64_t sum = 0;
        (void)tail.GetFixed64(&sum);
        return sum;
      }()) {
    return Status::Corruption("sharded manifest checksum mismatch");
  }
  Decoder in(std::string_view(manifest).substr(sizeof(kManifestMagic)));
  std::string_view version_raw;
  XSEQ_RETURN_IF_ERROR(in.GetRaw(1, &version_raw));
  if (static_cast<uint8_t>(version_raw[0]) != kManifestVersion) {
    return Status::Unimplemented("unsupported sharded manifest version");
  }
  ShardedManifest out;
  XSEQ_RETURN_IF_ERROR(in.GetFixed32(&out.shard_count));
  if (out.shard_count == 0 || out.shard_count > 4096) {
    return Status::Corruption("implausible shard count in manifest");
  }
  XSEQ_RETURN_IF_ERROR(in.GetFixed64(&out.total_documents));
  return out;
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
    builders_.reserve(shard_count());
    for (size_t s = 0; s < shard_count(); ++s) {
      builders_.push_back(std::make_unique<CollectionBuilder>(options_.index));
    }
  }
  if (obs::MetricsEnabled()) {
    ShardMetrics().shard_count->Set(static_cast<int64_t>(shard_count()));
  }
}

ShardedCollection::~ShardedCollection() = default;

NameTable* ShardedCollection::names(size_t shard) {
  if (options_.dynamic) return dynamic_shards_[shard]->names();
  return shard < builders_.size() && builders_[shard] != nullptr
             ? builders_[shard]->names()
             : nullptr;
}

ValueEncoder* ShardedCollection::values(size_t shard) {
  if (options_.dynamic) return dynamic_shards_[shard]->values();
  return shard < builders_.size() && builders_[shard] != nullptr
             ? builders_[shard]->values()
             : nullptr;
}

Status ShardedCollection::Add(Document&& doc) {
  size_t shard = ShardOf(doc.id());
  if (options_.dynamic) {
    Status st = dynamic_shards_[shard]->Add(std::move(doc));
    if (st.ok()) ++added_docs_;
    return st;
  }
  if (sealed_) {
    return Status::FailedPrecondition(
        "static ShardedCollection is sealed; use the dynamic backend for "
        "insertion-after-build");
  }
  Status st = builders_[shard]->Add(std::move(doc));
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
  const size_t n = builders_.size();
  shards_.resize(n);
  std::vector<Status> results(n);
  std::unique_ptr<ThreadPool> owned;
  PoolFor(options_.threads, &owned)->ParallelFor(n, [&](size_t s) {
    auto built = std::move(*builders_[s]).Finish();
    if (!built.ok()) {
      results[s] = built.status();
      return;
    }
    shards_[s] = std::make_unique<CollectionIndex>(std::move(*built));
  });
  builders_.clear();
  sealed_ = true;
  for (const Status& st : results) XSEQ_RETURN_IF_ERROR(st);
  return Status::OK();
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

  // Per-shard options: everything (mode, deadline, tracing) rides along.
  // The query text keys the per-shard plan caches (static shards set it
  // inside Query(); dynamic probes skip the parse, so set it here).
  ExecOptions shard_opts = options;
  if (shard_opts.plan.cache_key.empty()) shard_opts.plan.cache_key = xpath;

  // The dynamic backend compiles from a pattern so the XPath parse happens
  // once, not once per shard.
  QueryPattern pattern;
  if (options_.dynamic) {
    auto parsed = ParseXPath(xpath);
    if (!parsed.ok()) return parsed.status();
    pattern = std::move(*parsed);
  }

  obs::TraceBuilder* tb = options.trace;
  QueryResult out;
  Status first_error;
  // Shards are probed one after another on the calling thread, which holds
  // the query's execution slot; parallelism comes from concurrent queries.
  // Every shard is probed even after one fails; the first failure is
  // returned and nothing after it is merged.
  for (size_t s = 0; s < shard_count(); ++s) {
    Timer timer;
    // Per-probe options: each shard gets its own trace span to attach
    // under and its own explain, merged into the caller's sink below.
    ExecOptions opts = shard_opts;
    QueryExplain part_explain;
    obs::SpanScope probe_span(tb, "shard_probe", options.trace_parent);
    if (tb != nullptr) {
      probe_span.Annotate("shard", static_cast<uint64_t>(s));
      opts.trace = tb;
      opts.trace_parent = probe_span.id();
    }
    if (options.explain != nullptr) opts.explain = &part_explain;
    Status status;
    std::vector<DocId> part;
    ExecStats part_stats;
    if (options_.dynamic) {
      auto r = dynamic_shards_[s]->ExecutePattern(pattern, opts, &part_stats);
      if (r.ok()) {
        part = std::move(*r);
        // Dynamic probes report docs via the union; mirror the static
        // shard accounting so merged totals mean the same thing.
        part_stats.result_docs = part.size();
      } else {
        status = r.status();
      }
    } else {
      MatchContextLease lease(match_contexts_.get());
      auto r = shards_[s]->Query(xpath, opts, lease.get());
      if (r.ok()) {
        part = std::move(r->docs);
        part_stats = r->stats;
      } else {
        status = r.status();
      }
    }
    const int64_t probe_us = timer.ElapsedMicros();
    if (tb != nullptr) {
      probe_span.Annotate("docs", part.size());
      probe_span.Annotate("entries_read", part_stats.match.link_entries_read);
      if (!status.ok()) probe_span.Annotate("error", 1);
    }
    if (metrics) {
      const ShardMetricSet& m = ShardMetrics();
      m.probes->Increment();
      if (!status.ok()) m.probe_errors->Increment();
      m.probe_us->Record(static_cast<uint64_t>(probe_us));
      m.probe_docs->Record(part.size());
    }
    probe_span.End();
    if (first_error.ok()) first_error = status;
    if (!first_error.ok()) continue;
    out.stats.Add(part_stats);
    out.docs.insert(out.docs.end(), part.begin(), part.end());
    if (options.explain != nullptr) {
      // Attribute this shard's plan rows before merging, and add one
      // fan-out breakdown row so the explain shows where the work went.
      for (QueryExplain::SeqEntry& e : part_explain.seq) {
        if (e.shard < 0) e.shard = static_cast<int32_t>(s);
      }
      QueryExplain::ShardBreakdown row;
      row.shard = static_cast<int32_t>(s);
      row.docs = part.size();
      row.entries_read = part_stats.match.link_entries_read;
      row.micros = probe_us;
      part_explain.shards.push_back(row);
      options.explain->Add(part_explain);
    }
  }
  XSEQ_RETURN_IF_ERROR(first_error);
  // Shards partition the id space, so this is a disjoint union: sort for
  // the public "sorted, deduplicated" contract; unique is a no-op guard.
  std::sort(out.docs.begin(), out.docs.end());
  out.docs.erase(std::unique(out.docs.begin(), out.docs.end()),
                 out.docs.end());
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
    merged.distinct_paths += s.distinct_paths;
    merged.sequence_elements += s.sequence_elements;
    merged.memory_bytes += s.memory_bytes;
  }
  merged.avg_sequence_length =
      merged.documents == 0
          ? 0.0
          : static_cast<double>(merged.sequence_elements) /
                static_cast<double>(merged.documents);
  return merged;
}

Status ShardedCollection::Save(const std::string& prefix,
                               const PersistOptions& persist) const {
  if (options_.dynamic) {
    // Compact-and-save: each DynamicIndex flattens into one static segment
    // and writes it through the single-index crash-safe path. The method
    // stays const — the answer set is untouched — but the compaction is a
    // physical mutation (and a generation bump); DynamicIndex is
    // internally synchronized, so concurrent queries are fine.
    for (size_t s = 0; s < dynamic_shards_.size(); ++s) {
      XSEQ_RETURN_IF_ERROR(dynamic_shards_[s]->SaveCompacted(
          ShardImagePath(prefix, s), persist));
    }
    return WriteShardedManifest(prefix, dynamic_shards_.size(),
                                total_documents(), persist);
  }
  if (!sealed_) {
    return Status::FailedPrecondition("Seal() before Save()");
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    XSEQ_RETURN_IF_ERROR(
        SaveCollectionIndex(*shards_[s], ShardImagePath(prefix, s), persist));
  }
  return WriteShardedManifest(prefix, shards_.size(), total_documents(),
                              persist);
}

StatusOr<ShardedCollection> ShardedCollection::Load(
    const std::string& prefix, int threads, const PersistOptions& persist) {
  auto manifest = ReadShardedManifest(prefix, persist);
  if (!manifest.ok()) return manifest.status();
  const uint32_t shard_count = manifest->shard_count;

  ShardedOptions options;
  options.shards = static_cast<int>(shard_count);
  options.threads = threads;
  ShardedCollection out(options);
  out.builders_.clear();
  out.shards_.resize(shard_count);
  std::vector<Status> statuses(shard_count);
  std::unique_ptr<ThreadPool> owned;
  PoolFor(threads, &owned)->ParallelFor(shard_count, [&](size_t s) {
    auto loaded = LoadCollectionIndex(ShardImagePath(prefix, s), persist);
    if (!loaded.ok()) {
      statuses[s] = loaded.status();
      return;
    }
    out.shards_[s] = std::make_unique<CollectionIndex>(std::move(*loaded));
  });
  for (const Status& st : statuses) XSEQ_RETURN_IF_ERROR(st);
  out.sealed_ = true;
  // The loaded shards carry the options they were built with.
  out.options_.index = out.shards_[0]->options();
  return out;
}

namespace {

/// Deep-copies `doc` while re-interning every designator against the
/// destination shard's vocabulary. Names and exact-mode values translate
/// by string. Hashed value ids pass through unchanged (the hash is a pure
/// function of the text, identical across shards), and so do
/// char-sequence ids: the trie indexed the *expanded* document, so the
/// reconstructed value nodes already carry character codes (plus the
/// terminator), which are vocabulary-independent — and, carrying no
/// retained text, they ride through the destination's ExpandValueChains
/// untouched.
Document TranslateDocument(const Document& doc, const CollectionIndex& src,
                           NameTable* dst_names, ValueEncoder* dst_values) {
  const bool pass_through = src.values().mode() != ValueMode::kExact;
  Document out(doc.id());
  auto translate = [&](const Node* n) -> Node* {
    if (n->is_value()) {
      if (pass_through) return out.CreateValue(ValueId(n->sym.id()));
      const std::string& text = src.values().Lookup(ValueId(n->sym.id()));
      return out.CreateValue(dst_values->Encode(text), text);
    }
    NameId nid = dst_names->Intern(src.names().Lookup(NameId(n->sym.id())));
    return n->kind == NodeKind::kAttribute ? out.CreateAttribute(nid)
                                           : out.CreateElement(nid);
  };
  const Node* src_root = doc.root();
  Node* new_root = translate(src_root);
  out.SetRoot(new_root);
  std::vector<std::pair<const Node*, Node*>> stack = {{src_root, new_root}};
  while (!stack.empty()) {
    auto [src_node, dst_node] = stack.back();
    stack.pop_back();
    // Children append in document order as they are walked; the stack only
    // changes which subtree is expanded next, not sibling order.
    for (const Node* c = src_node->first_child; c != nullptr;
         c = c->next_sibling) {
      Node* translated = translate(c);
      out.AppendChild(dst_node, translated);
      stack.emplace_back(c, translated);
    }
  }
  return out;
}

}  // namespace

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
        size_t dest = out.ShardOf(d);
        Document translated =
            TranslateDocument(*tree, *shard, out.names(dest), out.values(dest));
        XSEQ_RETURN_IF_ERROR(out.Add(std::move(translated)));
      }
    }
  }
  XSEQ_RETURN_IF_ERROR(out.Seal());
  return out;
}

}  // namespace xseq
