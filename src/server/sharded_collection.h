// ShardedCollection: hash-partition a document collection across N
// independent index shards and scatter-gather queries over them.
//
// Partitioning is by document id: shard(d) = FNV-1a64(d) mod N. Each shard
// is a fully self-contained index — its own vocabulary tables, path
// dictionary, sequencing model and trie — built only from the documents
// routed to it. Result *sets* are nevertheless identical to a single
// unsharded index over the same corpus: constraint-sequence matching is
// exact per document (the paper's Theorems 2-3), and a document's membership
// in the answer depends only on its own tree, never on which other
// documents share its index. Cost counters (entries read, candidates)
// legitimately differ per shard — each shard sequences under its own
// statistics — and are surfaced as the ExecStats sum over shards.
//
// Two backends, chosen at construction:
//  * static  — documents buffer in per-shard CollectionBuilders; Seal()
//              builds every shard (one shard per task of the `threads`
//              pool, each on one thread) and the collection becomes
//              immutable and persistable.
//  * dynamic — each shard is a DynamicIndex; Add() works forever, Seal()
//              just flushes buffers into segments.
//
// Because every shard owns its vocabulary, a document must be parsed or
// generated against the tables of the shard that will own it: call
// ShardOf(id) first, then names(shard)/values(shard), then Add().
//
// Persistence: Save(prefix) writes one index file per shard via the
// existing atomic save path (`<prefix>.shard<K>`), then a small
// checksummed manifest at `<prefix>` — written last, so a crash mid-save
// leaves either the complete old collection or the complete new one
// discoverable, never a half-set. The dynamic backend saves by compacting
// each shard into a single static segment first (DynamicIndex::
// SaveCompacted); what Load() reads back is always a static collection.
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
  IndexOptions index;             ///< per-shard build options
  size_t flush_threshold = 1024;  ///< dynamic backend: docs per segment
  /// Set-up parallelism: Seal() builds and Load() reads shards across this
  /// pool, one shard per task (0 = the process default pool, 1 = serial,
  /// n > 1 = a dedicated pool; see PoolFor). Each shard's build runs on the
  /// task's thread, so images do not depend on the width. Queries never
  /// use it: each one probes its shards in turn on the calling thread.
  int threads = 0;
};

/// The shard owning document `id` among `shards` partitions.
size_t ShardOfDoc(DocId id, size_t shards);

/// Per-shard image path of a saved sharded collection: "<prefix>.shard<K>".
/// Shared by Save/Load and topology validation.
std::string ShardImagePath(const std::string& prefix, size_t shard);

/// The decoded manifest of a saved sharded collection.
struct ShardedManifest {
  uint32_t shard_count = 0;
  uint64_t total_documents = 0;
};

/// Reads and validates the manifest at `prefix`: magic, whole-manifest
/// checksum, version, plausible shard count. This is the cheap first step
/// of both Load() and the hot-swap's offline image validation.
StatusOr<ShardedManifest> ReadShardedManifest(
    const std::string& prefix, const PersistOptions& persist = {});

class ShardedCollection {
 public:
  explicit ShardedCollection(ShardedOptions options);
  ~ShardedCollection();

  ShardedCollection(ShardedCollection&&) = default;
  ShardedCollection& operator=(ShardedCollection&&) = default;

  size_t shard_count() const { return static_cast<size_t>(options_.shards); }
  size_t ShardOf(DocId id) const { return ShardOfDoc(id, shard_count()); }

  /// Vocabulary tables of one shard; parse/generate a document against the
  /// tables of ShardOf(its id) before Add(). Null after a static Seal().
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

  /// Static: builds every shard index (one shard per task of the `threads`
  /// pool) and freezes the collection. Dynamic: flushes every shard's buffer.
  Status Seal();

  /// True once queries are allowed (always, for the dynamic backend).
  bool sealed() const;

  /// Scatter-gather query: every shard is probed in turn on the calling
  /// thread, per-shard answers are unioned (shards are disjoint by
  /// construction) and per-shard ExecStats are summed.
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

  /// Sum of per-shard index sizes (static backend after Seal; zeros
  /// otherwise except `documents`).
  CollectionIndex::SizeStats MergedStats() const;

  const ShardedOptions& options() const { return options_; }

  /// Per-shard persistence; see the file comment for the on-disk layout.
  /// Static backend: requires Seal(). Dynamic backend: compacts every
  /// shard into one static segment and writes that (logically const — the
  /// answer set is unchanged — but the compaction bumps the generation,
  /// retiring cached results; DynamicIndex is internally synchronized, so
  /// queries may race with the save).
  Status Save(const std::string& prefix,
              const PersistOptions& persist = {}) const;
  static StatusOr<ShardedCollection> Load(const std::string& prefix,
                                          int threads = 0,
                                          const PersistOptions& persist = {});

 private:
  ShardedOptions options_;
  bool sealed_ = false;
  /// Static backend: builders before Seal, indexes after.
  std::vector<std::unique_ptr<CollectionBuilder>> builders_;
  std::vector<std::unique_ptr<CollectionIndex>> shards_;
  /// Dynamic backend.
  std::vector<std::unique_ptr<DynamicIndex>> dynamic_shards_;
  /// Reusable match scratch for static-shard probes (indirect so the
  /// collection stays movable; the pool itself holds a mutex).
  std::unique_ptr<MatchContextPool> match_contexts_;
  uint64_t added_docs_ = 0;
};

/// Offline N→M reshard of a static, sealed collection. Every indexed
/// document is recovered from its shard's trie (the root-to-node label
/// chain is the constraint sequence; Theorem 1 rebuilds the tree),
/// translated into the destination shard's vocabulary, and re-routed
/// through the same FNV-1a64 partitioner — so the result is what a fresh
/// M-shard build over the same corpus would answer, for every query
/// (Theorems 2–3: membership depends only on the document's own tree).
/// Value designators translate by string in exact mode and ride through
/// unchanged otherwise: hashed ids depend only on the text, and
/// char-sequence tries index the expanded document, so reconstructed
/// value nodes already carry vocabulary-independent character codes.
/// Works on loaded images: no retained documents are needed.
StatusOr<ShardedCollection> ReshardCollection(const ShardedCollection& source,
                                              int new_shards,
                                              int threads = 0);

}  // namespace xseq

#endif  // XSEQ_SRC_SERVER_SHARDED_COLLECTION_H_
