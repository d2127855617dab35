// Dynamic (insert-friendly) sequence index.
//
// The ViST lineage stresses dynamic maintenance; our CollectionIndex is a
// frozen snapshot. DynamicIndex makes insertion-after-build practical with
// a segmented, LSM-like design:
//
//  * Incoming documents buffer in memory (their statistics feed the shared
//    schema immediately).
//  * When the buffer reaches `flush_threshold`, it is sealed into a
//    *segment* — a CollectionIndex built with the sequencing model as of
//    that moment. Sequences inside a segment are self-consistent: queries
//    against it are compiled with the segment's own sequencer.
//  * A query runs against every sealed segment plus a brute-force scan of
//    the unsealed buffer, and unions the ids. The buffer keeps its own path
//    dictionary: a scan interns only the documents added since the last
//    one (all of them after a removal), so it instantiates '//' and '*'
//    steps without re-interning the whole buffer on every query.
//  * Compact() rebuilds everything into one segment under the current
//    global statistics (better sharing, one probe per query).
//
// The index owns one NameTable and one ValueEncoder, and every segment
// holds those same tables, not a copy, so name and value ids are
// consistent across segments and a seal or Compact() allocates no
// vocabulary. A segment's table may therefore resolve names and values
// interned after it sealed; its trie has no path for them, so they match
// nothing there. Each segment interns its own path dictionary (PathIds are
// segment-local, consistent with the segment's own trie).
//
// Threading: the index is internally synchronized — Add/Flush/Query may
// race freely from many threads. Sealing is inline: the mutation that fills
// the buffer (or Flush()) builds the segment under the index lock and
// returns once it is published, so queries wait for the build and never see
// a half-sealed buffer. A seal or a compaction builds on the thread that
// runs it, and a query probes its segments one after another on the
// calling thread: the index owns no thread pool. The one rule callers keep:
// nothing interns into names()/values() while the index is read. Queries
// (buffer scans and sealed segments alike) and ForEachLiveDocument()
// callers read the shared tables, which are not internally synchronized,
// so parse or generate documents under a lock that excludes them, or
// before they start. Seals and Compact() never read the tables, so they may run while
// a writer interns.

#ifndef XSEQ_SRC_CORE_DYNAMIC_INDEX_H_
#define XSEQ_SRC_CORE_DYNAMIC_INDEX_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/collection_index.h"
#include "src/query/oracle.h"

namespace xseq {

/// Dynamic-index knobs.
struct DynamicOptions {
  IndexOptions index;          ///< per-segment build options
  size_t flush_threshold = 1024;  ///< buffered docs before sealing
};

/// An appendable, internally synchronized index over a growing document
/// collection.
class DynamicIndex {
 public:
  explicit DynamicIndex(DynamicOptions options = DynamicOptions());

  /// Vocabulary to parse/generate against (held by every segment too).
  NameTable* names() { return names_.get(); }
  ValueEncoder* values() { return values_.get(); }

  /// Adds a document. The Add that fills the buffer seals it into a
  /// segment before returning, under the index lock.
  Status Add(Document&& doc);

  /// Deletes every live document with `id`. Buffered documents are removed
  /// outright; documents already sealed are tombstoned in their segment
  /// slot and filtered from every query until Compact() purges them. Always bumps the generation; deleting an id that does
  /// not exist is a no-op that still invalidates cached results.
  Status Delete(DocId id);

  /// Atomically replaces the documents carrying `id` with `doc` (which
  /// must have been parsed/generated with that id): a Delete plus an Add
  /// under one lock acquisition and one generation bump, so no query ever
  /// observes both versions or neither.
  Status Update(Document&& doc, DocId id);

  /// Seals the current buffer into a segment (no-op when empty); returns
  /// once the segment is built.
  Status Flush();

  /// Rebuilds all segments + buffer into a single segment using the
  /// current global statistics, on the calling thread.
  Status Compact();

  /// Calls `fn` on every live document, parsed against names()/values():
  /// the sealed ones not tombstoned, then the buffered ones. It snapshots
  /// under the index lock and calls outside it, so queries and mutations
  /// proceed meanwhile and the walk sees the state of one moment; the
  /// first error stops it. Interning must not race with it (the caller
  /// reads the tables).
  Status ForEachLiveDocument(
      const std::function<Status(const Document&)>& fn) const;

  /// Runs an XPath query across segments and buffer; sorted unique ids.
  StatusOr<std::vector<DocId>> Query(std::string_view xpath,
                                     const ExecOptions& options = {}) const;

  /// Runs an already-parsed pattern. Sealed segments are probed one after
  /// another on the calling thread; `stats`, when given, aggregates
  /// per-segment ExecStats via ExecStats::Add.
  StatusOr<std::vector<DocId>> ExecutePattern(
      const xseq::QueryPattern& pattern, const ExecOptions& options = {},
      ExecStats* stats = nullptr) const;

  /// Monotone mutation counter for result-cache invalidation: starts at 1
  /// and is bumped under the index lock by every mutation
  /// (Add/Delete/Update/Flush/Compact). A
  /// cached answer tagged with generation g is valid exactly while
  /// generation() == g — mutations commit their state change and the bump
  /// under the same lock acquisition, so a query that starts and finishes
  /// at the same generation observed precisely that state.
  uint64_t generation() const;

  /// Sealed segments.
  size_t segment_count() const;
  size_t buffered_documents() const;
  /// Live documents: adds minus documents removed by Delete/Update.
  uint64_t total_documents() const;
  /// Tombstoned documents awaiting purge (sealed occurrences of deleted
  /// ids); drops to zero after Compact().
  uint64_t tombstoned_documents() const;

  /// Sum of segment index nodes (the size metric of the paper).
  uint64_t TotalIndexNodes() const;

 private:
  /// Documents not yet in a segment, with the path dictionary their scan
  /// instantiates queries against. Mutations only append to or erase from
  /// `docs`; Sync() brings the rest up to date, so write-only traffic pays
  /// no interning. After a Sync, `dict` interns the scanned documents in
  /// order, exactly as a fresh dictionary over them would, so PathIds,
  /// instantiation order and answers never depend on which documents came
  /// and went before. The scanned documents are `docs`, or in
  /// char-sequence mode `expanded`: their chain-expanded copies, parallel
  /// to `docs` once synced (empty in the other modes).
  struct UnsealedDocs {
    std::vector<Document> docs;
    std::vector<Document> expanded;
    PathDict dict;
    size_t bound = 0;    ///< scanned documents interned into `dict`
    bool stale = false;  ///< an interned document was erased

    /// The documents the oracle scans; complete after Sync().
    const std::vector<Document>& scanned() const {
      return expanded.empty() ? docs : expanded;
    }
    /// Expands (char-sequence mode) and interns the documents added since
    /// the last Sync, or, when `stale`, rebuilds `dict` from all of them.
    void Sync(ValueMode mode);
    /// Drops every document carrying `id` (and its expanded copy), and
    /// marks `dict` stale when an interned one was dropped. Returns the
    /// number dropped.
    size_t Erase(DocId id);
  };

  /// Per-slot mutation state, parallel to segments_. `ids` counts the
  /// documents sealed into the slot; `dead` is the copy-on-write tombstone
  /// set (null = none), so queries snapshot it with the segment pointer and
  /// filter lock-free.
  struct SlotState {
    std::shared_ptr<const std::unordered_map<DocId, uint32_t>> ids;
    std::shared_ptr<const std::unordered_set<DocId>> dead;
  };

  /// Builds the buffer into a new segment and publishes it (no-op when
  /// empty).
  Status SealBufferLocked();
  /// Removes `id` everywhere it is live: erased from the buffer,
  /// tombstoned in every slot whose id set contains it. Returns the number
  /// of documents removed and deducts it from total_docs_.
  uint64_t RemoveLocked(DocId id);
  /// Brute-force scan of the buffer, whose dictionary the caller has
  /// synced. Comparison predicates are answered by checking each document
  /// directly. Adds the number of concrete trees instantiated to `*trees`.
  Status ScanBufferLocked(const xseq::QueryPattern& pattern,
                          const ExecOptions& options, std::vector<DocId>* out,
                          uint64_t* trees) const;

  DynamicOptions options_;
  /// Shared with every segment's CollectionIndex; never reassigned.
  std::shared_ptr<NameTable> names_;
  std::shared_ptr<ValueEncoder> values_;

  /// Reusable match scratch shared by all queries (one lease per query;
  /// the pool is internally synchronized).
  mutable MatchContextPool match_contexts_;

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<const CollectionIndex>> segments_;
  /// Ids and tombstones per slot, parallel to segments_.
  std::vector<SlotState> slot_state_;
  /// The live buffer. Mutations append and erase, and queries Sync() it
  /// before they scan; all of it is read and written under mu_ only.
  mutable UnsealedDocs buffer_;
  uint64_t total_docs_ = 0;
  uint64_t tombstoned_docs_ = 0;  ///< sealed occurrences awaiting purge
  uint64_t generation_ = 1;  ///< see generation()
};

}  // namespace xseq

#endif  // XSEQ_SRC_CORE_DYNAMIC_INDEX_H_
