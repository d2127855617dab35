// ShardedCollection: hash-partition a document collection across N index
// shards and scatter-gather queries over them.
//
// Partitioning is by document id: shard(d) = FNV-1a64(d) mod N. The static
// backend indexes the collection under one catalog, as the paper indexes a
// collection under one schema: every shard shares one vocabulary, path
// dictionary, schema and sequencing model (CollectionCatalog), built from
// every document before any shard sequences. Each shard holds only its
// trie, links, doc lists and value index. So a query parses and compiles
// once for the whole collection (one plan-cache entry); each shard then
// drops the compiled sequences with an empty link in it, orders the rest
// by its own link sizes, and matches. Result *sets* equal a single
// unsharded index over the same corpus: matching is exact per document
// (the paper's Theorems 2-3), and every shard's trie holds the sequences
// the shared model gives its documents. Match counters (entries read,
// candidates) differ per shard and are summed in the ExecStats.
//
// Two backends, chosen at construction:
//  * static  — documents observe into the shared catalog and buffer per
//              shard; Seal() builds the model once, then sequences and
//              bulk-loads every shard (one shard per task of the `threads`
//              pool, each on one thread) and the collection becomes
//              immutable and persistable.
//  * dynamic — each shard is a DynamicIndex with its own vocabulary; Add()
//              works forever, Seal() just flushes buffers into segments,
//              and each shard compiles its own queries.
//
// Parse or generate a document against the tables of the shard that will
// own it: call ShardOf(id) first, then names(shard)/values(shard), then
// Add() (every static shard hands out the same shared tables).
//
// Persistence: Save(prefix) writes one part file per shard
// (`<prefix>.shard<K>`: trie, links, doc lists, value index), then the
// manifest at `<prefix>`, which holds the shared catalog sections once, the
// shard count and the total document count. Every part records the
// manifest's identity (a checksum over the shared sections, the shard
// count and the document count), and Load() refuses a part of a save
// whose identity differs and a manifest whose document count is not the
// sum over its parts. The manifest is written last, so a crash mid-save
// leaves the complete new collection, the complete old one (when no part
// had landed), or a prefix Load() refuses; a mix loads only if both saves
// had byte-identical shared sections and counts. The dynamic
// backend saves the same layout: its live documents move into one
// vocabulary and build a static collection, which is what Load() returns.
//
// Thread-safety: Add/Seal are exclusive to one preparing thread; after
// Seal (or at any time on the dynamic backend) Query may race freely from
// many threads. A dynamic shard seals inline, so the mutation that fills
// its buffer builds the segment under the shard's lock while that shard's
// queries wait.

#ifndef XSEQ_SRC_SERVER_SHARDED_COLLECTION_H_
#define XSEQ_SRC_SERVER_SHARDED_COLLECTION_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/collection_index.h"
#include "src/core/dynamic_index.h"
#include "src/core/persist.h"
#include "src/util/thread_pool.h"

namespace xseq {

/// Sharded-collection knobs.
struct ShardedOptions {
  int shards = 1;                 ///< number of hash partitions (>= 1)
  bool dynamic = false;           ///< DynamicIndex shards instead of static
  IndexOptions index;             ///< build options of every shard
  size_t flush_threshold = 1024;  ///< dynamic backend: docs per segment
  /// Set-up parallelism: once the shared model is built, Seal() builds
  /// and Load() reads shards across this pool, one shard per task (0 = the
  /// process default pool, 1 = serial, n > 1 = a dedicated pool; see
  /// PoolFor). Each shard's build runs on the task's thread, so images do
  /// not depend on the width. Queries never use it: each one probes its
  /// shards in turn on the calling thread.
  int threads = 0;
};

/// The shard owning document `id` among `shards` partitions.
size_t ShardOfDoc(DocId id, size_t shards);

/// Per-shard image path of a saved sharded collection: "<prefix>.shard<K>".
/// Shared by Save/Load and topology validation.
std::string ShardImagePath(const std::string& prefix, size_t shard);

/// Reads and validates the manifest at `prefix`: magic, version, section
/// and footer checksums, plausible shard count; its catalog sections are
/// checked but not decoded. This is the cheap first step of both Load()
/// and the hot-swap's offline image validation.
StatusOr<ShardedManifest> ReadShardedManifest(
    const std::string& prefix, const PersistOptions& persist = {});

/// Checks every part named by `manifest` without decoding it: section and
/// footer checksums, the manifest identity it records, and that the parts'
/// document counts sum to the manifest's. Errors name the shard.
Status VerifyShardImages(const std::string& prefix,
                         const ShardedManifest& manifest,
                         const PersistOptions& persist = {});

class ShardedCollection {
 public:
  explicit ShardedCollection(ShardedOptions options);
  ~ShardedCollection();

  ShardedCollection(ShardedCollection&&) = default;
  ShardedCollection& operator=(ShardedCollection&&) = default;

  size_t shard_count() const { return static_cast<size_t>(options_.shards); }
  size_t ShardOf(DocId id) const { return ShardOfDoc(id, shard_count()); }

  /// Vocabulary tables of one shard; parse/generate a document against the
  /// tables of ShardOf(its id) before Add(). Every static shard returns the
  /// collection's shared tables; null after a static Seal().
  NameTable* names(size_t shard);
  ValueEncoder* values(size_t shard);

  /// Routes `doc` to its shard by id. Static backend: only before Seal().
  Status Add(Document&& doc);

  /// Deletes every live document with `id` in its owning shard (dynamic
  /// backend only; see DynamicIndex::Delete for tombstone semantics).
  Status Delete(DocId id);

  /// Replaces the documents carrying `id` with `doc` atomically within the
  /// owning shard. `doc` must be parsed/generated against that shard's
  /// tables with the same id. Dynamic backend only.
  Status Update(Document&& doc, DocId id);

  /// Compacts every dynamic shard, purging tombstones and merging segments
  /// (no-op ordering guarantees per shard; see DynamicIndex::Compact).
  /// Dynamic backend only.
  Status Compact();

  /// Static: builds the shared sequencing model from every added document,
  /// then every shard index with it (one shard per task of the `threads`
  /// pool), and freezes the collection. Dynamic: flushes every shard's
  /// buffer.
  Status Seal();

  /// True once queries are allowed (always, for the dynamic backend).
  bool sealed() const;

  /// Scatter-gather query on the calling thread. Static: parsed and
  /// compiled once, then every shard is matched in turn; the compile-side
  /// ExecStats describe the one compile and the match-side ones sum over
  /// shards. Dynamic: every shard runs the parsed pattern in turn and the
  /// per-shard ExecStats are summed. Per-shard answers are unioned (shards
  /// are disjoint by construction).
  StatusOr<QueryResult> Query(std::string_view xpath,
                              const ExecOptions& options = {}) const;

  uint64_t total_documents() const;

  /// One built static shard (after Seal() or Load()); null for the dynamic
  /// backend or before sealing. The reshard path walks these directly.
  const CollectionIndex* shard(size_t s) const {
    return s < shards_.size() ? shards_[s].get() : nullptr;
  }

  /// Monotone mutation counter for result-cache invalidation. Dynamic
  /// backend: the sum of the shards' DynamicIndex generations (sums of
  /// per-shard monotone counters are monotone, and equality of two reads
  /// implies equality per shard). Static backend: 0 while accepting
  /// documents, 1 once sealed (queries only run sealed, so cached answers
  /// never outlive a state change).
  uint64_t generation() const;

  /// Sum of per-shard index sizes, with the shared dictionary's paths
  /// counted once (static backend after Seal; zeros otherwise except
  /// `documents`).
  CollectionIndex::SizeStats MergedStats() const;

  const ShardedOptions& options() const { return options_; }

  /// Persistence; see the file comment for the on-disk layout. Static
  /// backend: requires Seal(). Dynamic backend: snapshots every shard's
  /// live documents, moves them into one vocabulary, builds a static
  /// collection with the same shard count and writes that; queries may
  /// race with the save, interning may not (the shards' tables are read).
  Status Save(const std::string& prefix,
              const PersistOptions& persist = {}) const;
  static StatusOr<ShardedCollection> Load(const std::string& prefix,
                                          int threads = 0,
                                          const PersistOptions& persist = {});

 private:
  /// A static collection over the shards' live documents, moved into one
  /// vocabulary (dynamic backend).
  StatusOr<ShardedCollection> StaticSnapshot() const;
  /// Points the executor's parts at the built shards and draws the
  /// collection's plan-cache identity.
  void BindParts();
  QueryExecutor executor() const;

  ShardedOptions options_;
  bool sealed_ = false;
  /// Static backend: one builder of shard_count() parts over the shared
  /// catalog before Seal, the built shards after.
  std::unique_ptr<CollectionBuilder> builder_;
  std::vector<std::unique_ptr<CollectionIndex>> shards_;
  std::vector<IndexPart> parts_;  ///< shards_ as executor parts
  uint64_t plan_cache_id_ = 0;    ///< keys the collection's compiled plans
  /// Dynamic backend.
  std::vector<std::unique_ptr<DynamicIndex>> dynamic_shards_;
  /// Reusable match scratch for static-shard probes (indirect so the
  /// collection stays movable; the pool itself holds a mutex).
  std::unique_ptr<MatchContextPool> match_contexts_;
  uint64_t added_docs_ = 0;
};

/// Offline N→M reshard of a static, sealed collection. Every indexed
/// document is recovered from its shard's trie (the root-to-node label
/// chain is the constraint sequence; Theorem 1 rebuilds the tree), moved
/// into the new collection's vocabulary by the same path the dynamic Save
/// takes, and re-routed through the same FNV-1a64 partitioner — so the
/// result is what a fresh M-shard build over the same corpus would answer,
/// for every query (Theorems 2–3: membership depends only on the
/// document's own tree). Value designators move by string in exact mode
/// and ride through unchanged otherwise: hashed ids depend only on the
/// text, and char-sequence tries index the expanded document, so
/// reconstructed value nodes already carry vocabulary-independent
/// character codes. Works on loaded images: no retained documents are
/// needed.
StatusOr<ShardedCollection> ReshardCollection(const ShardedCollection& source,
                                              int new_shards,
                                              int threads = 0);

}  // namespace xseq

#endif  // XSEQ_SRC_SERVER_SHARDED_COLLECTION_H_
