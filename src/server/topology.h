// TopologyManager: zero-downtime generation hot-swap for a serving process.
//
// A serving process holds exactly one *live* ShardedCollection image — the
// generation. Reload(prefix) brings up a successor without dropping a
// request:
//
//  1. Validate the on-disk image offline: manifest magic/checksums/version,
//     then every part file's per-section checksums, the manifest identity
//     it records and the document count the parts sum to
//     (VerifyShardImages) — a corrupt byte or a foreign part anywhere names
//     the shard and aborts before any memory is committed.
//  2. Load the candidate collection into memory, next to the live one.
//  3. Canary it: a configurable query set runs against the *candidate*
//     only. A canary that errors — or returns a doc count different from
//     its pinned expectation — rejects the image.
//  4. Swap: a shared_ptr assignment under a mutex. Queries that already
//     hold the old generation finish on it (RCU-style — the shared_ptr
//     keeps the old image alive until the last in-flight query drops it);
//     queries that start after the swap see the new one.
//
// Any failure in steps 1-3 is an automatic rollback: the live pointer is
// never touched, serving continues on the old generation, and the error
// (naming the failing shard / canary) travels back to the reload caller.
//
// generation() folds a swap *epoch* into the collection's own mutation
// counter: (epoch << 32) | collection-generation. The result-cache layer
// keys entries by this value, so a swap retires every cached answer even
// when the new image reports the same internal counter as the old.
//
// Thread-safety: Current()/Query()/generation() may race freely with each
// other and with Reload(). Reloads serialize among themselves.

#ifndef XSEQ_SRC_SERVER_TOPOLOGY_H_
#define XSEQ_SRC_SERVER_TOPOLOGY_H_

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/server/sharded_collection.h"

namespace xseq {

/// One validation query run against a candidate image before it goes live.
struct CanaryQuery {
  std::string xpath;
  /// Expected answer size; -1 = any size is fine (the query just has to
  /// execute without error).
  int64_t expect_docs = -1;
};

/// Hot-swap knobs.
struct TopologyOptions {
  /// Shard-load parallelism handed to ShardedCollection::Load (0 = the
  /// default pool, 1 = serial); queries on the loaded image never fan out.
  int threads = 0;
  PersistOptions persist;
  std::vector<CanaryQuery> canaries;
};

class TopologyManager {
 public:
  explicit TopologyManager(TopologyOptions options = {});

  /// Installs an already-built collection as the live generation (initial
  /// startup, or tests). `prefix` is remembered as the default reload
  /// source; empty means the generation has no on-disk home.
  void Install(std::shared_ptr<const ShardedCollection> collection,
               std::string prefix = "");

  /// Validate → load → canary → swap; see the file comment. Returns the
  /// new generation() on success. On any failure the live generation is
  /// untouched (automatic rollback) and the error names the culprit.
  /// Reloads serialize; queries never block on a reload.
  StatusOr<uint64_t> Reload(const std::string& prefix);

  /// The live generation (null before the first Install/Reload). Holding
  /// the returned pointer pins the image: a concurrent swap retires it
  /// only after the last holder lets go.
  std::shared_ptr<const ShardedCollection> Current() const;

  /// Queries the live generation; kFailedPrecondition when none is
  /// installed yet.
  StatusOr<QueryResult> Query(std::string_view xpath,
                              const ExecOptions& options = {}) const;

  /// Cache-invalidation token: (swap epoch << 32) | (live collection's own
  /// generation & 0xffffffff); 0 while no generation is installed.
  uint64_t generation() const;

  /// Number of successful Install/Reload swaps so far.
  uint64_t epoch() const;

  /// On-disk prefix of the live generation ("" when none/unknown). The
  /// default source for an argument-less reload (SIGHUP).
  std::string prefix() const;

  const TopologyOptions& options() const { return options_; }

 private:
  /// Runs the canary set against `candidate`.
  Status RunCanaries(const ShardedCollection& candidate) const;

  TopologyOptions options_;

  mutable std::mutex mu_;  ///< guards current_/epoch_/prefix_
  std::shared_ptr<const ShardedCollection> current_;
  uint64_t epoch_ = 0;
  std::string prefix_;

  std::mutex reload_mu_;  ///< serializes Reload() pipelines
};

}  // namespace xseq

#endif  // XSEQ_SRC_SERVER_TOPOLOGY_H_
