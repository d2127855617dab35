// Constraint subsequence matching (Section 4.2, Algorithm 1).
//
// A query is a sequence of path-encoded elements plus, for each element, the
// position of its query-tree parent. Matching walks the index tree top-down
// through the horizontal path links: each element is matched to a trie node
// strictly inside the range of the previously matched node, so a successful
// match always lies on one root-to-leaf trie path.
//
// Two modes:
//  * kNaive      — plain subsequence matching (criterion 1 of Definition 3
//                  only). This is what ViST does before its join-based
//                  cleanup; with identical siblings it produces false alarms.
//  * kConstraint — additionally enforces criterion 2 through the
//                  sibling-cover test (Definition 4, generalized to tries):
//                  a candidate for element y with query parent x matched to
//                  node v is valid iff the tightest occurrence of path(x)
//                  containing the candidate is v itself. When path(x) has no
//                  nested occurrences the test is vacuous (Theorem 3).

#ifndef XSEQ_SRC_INDEX_MATCHER_H_
#define XSEQ_SRC_INDEX_MATCHER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/index/trie.h"
#include "src/seq/sequencer.h"
#include "src/util/status.h"

namespace xseq {

/// A compiled query sequence: element paths in match order and the query
/// tree's parent relation expressed in sequence positions.
struct QuerySeq {
  Sequence paths;
  std::vector<int32_t> parent;  ///< position of the parent element; -1 = root

  size_t size() const { return paths.size(); }
};

/// Builds the QuerySeq of a query tree `doc` under `sequencer` (which must
/// be the same strategy used for the data). Fails if the strategy emits a
/// child before its parent (never the case for the built-in sequencers).
StatusOr<QuerySeq> BuildQuerySeq(const Document& doc,
                                 const std::vector<PathId>& paths,
                                 const Sequencer& sequencer);

/// The position Algorithm 1 steers by: the last position whose path link is
/// shortest — the deepest of the rarest paths. A match is one root-to-leaf
/// trie path, so the anchor's node lies inside every node matched before
/// it; the matcher skips earlier candidates whose range holds no anchor
/// occurrence, and explain reports this position. `link_size(PathId)`
/// returns a path's occurrence count. An empty sequence anchors at 0.
template <typename LinkSizeFn>
size_t AnchorPosition(const QuerySeq& q, const LinkSizeFn& link_size) {
  size_t anchor = 0;
  uint64_t best = UINT64_MAX;
  for (size_t i = 0; i < q.size(); ++i) {
    const uint64_t c = link_size(q.paths[i]);
    if (c <= best) {
      best = c;
      anchor = i;
    }
  }
  return anchor;
}

/// Matching mode (see file comment).
enum class MatchMode { kNaive, kConstraint };

/// Cost counters of one match run. See DESIGN.md "Query engine cost model"
/// for what each counter measures and how the fast paths are accounted.
struct MatchStats {
  uint64_t link_binary_searches = 0; ///< cold (unhinted) full binary searches
  uint64_t link_entries_read = 0;    ///< path-link entry accesses
  uint64_t link_gallop_probes = 0;   ///< hinted gallop / windowed probes
  uint64_t candidates = 0;           ///< candidate trie nodes expanded
  uint64_t sibling_checks = 0;       ///< sibling-cover tests performed
  uint64_t sibling_rejections = 0;   ///< candidates killed by the test
  uint64_t terminals = 0;            ///< complete query embeddings found
  uint64_t result_docs = 0;

  void Add(const MatchStats& o) {
    link_binary_searches += o.link_binary_searches;
    link_entries_read += o.link_entries_read;
    link_gallop_probes += o.link_gallop_probes;
    candidates += o.candidates;
    sibling_checks += o.sibling_checks;
    sibling_rejections += o.sibling_rejections;
    terminals += o.terminals;
    result_docs += o.result_docs;
  }
};

/// Borrowed view of one decoded link block's columns. Accessors hand these
/// out pointing either into a LinkBlockCache slot (compressed indexes) or
/// straight into flat arrays (uncompressed baselines). Only the columns
/// named in the `streams` mask of the call that produced the view are
/// meaningful; cache-backed views die on the next decode — watch the
/// accessor's DecodeStamp() to know when to re-fetch.
struct LinkColumns {
  const uint32_t* serials = nullptr;
  const uint32_t* ends = nullptr;
  const uint32_t* covers = nullptr;
};

/// A LinkColumns view plus what it takes to know it is still current:
/// which block it shows, which streams were requested, and the accessor's
/// DecodeStamp() when fetched. Match frames keep one per query position
/// (see MatchContext), so the frame spawned for the next candidate at the
/// same position — usually landing in the same block — revalidates with
/// two compares instead of refetching.
struct LinkBlockView {
  LinkColumns cols;
  uint32_t blk = 0xFFFFFFFFu;  ///< block shown; ~0 = empty
  uint32_t streams = 0;        ///< kStream* mask the view was fetched with
  uint64_t stamp = 0;          ///< accessor DecodeStamp() at fetch time
};

/// Set-associative cache of decoded link blocks, owned by a MatchContext.
/// Links are stored block-compressed; a query touches a modest set of hot
/// blocks (each element's scan window plus its parent's cover chain), and
/// batch workloads revisit the same blocks query after query, so the cache
/// is sized to hold the hot set of a medium index outright — decoding each
/// block once per context instead of once per touch. Four ways per set
/// absorb the hash collisions that made the old direct-mapped layout
/// re-decode two hot blocks against each other in lockstep. Slots are
/// allocated lazily on the first Get (one arena, ~1.5 MB) and recycled
/// with the context, so steady-state matching through a MatchContextPool
/// never allocates.
class LinkBlockCache {
 public:
  static constexpr uint32_t kWays = 4;
  static constexpr uint32_t kSets = 256;
  static constexpr uint32_t kSlots = kWays * kSets;

  LinkBlockCache() { keys_.fill(kEmptyKey); }

  /// Forgets all cached blocks.
  void Reset() { keys_.fill(kEmptyKey); }

  /// Rebinds the cache to the index identified by `id` (a process-unique
  /// FrozenIndex::plan_cache_id()-space value; called at the top of every
  /// match). Decoded blocks are immutable for a given index, so a context
  /// rebound to the SAME index keeps its contents — batch workloads
  /// decode each hot block once, not once per query. Any other id — or 0,
  /// the unfrozen/cache-less sentinel — drops everything.
  void BindIndex(uint64_t id) {
    if (id == bound_index_ && id != 0) return;
    bound_index_ = id;
    Reset();
  }

  /// Returns the decoded form of `block` of `path`'s link with at least
  /// the scratch columns in `streams` (kStream* mask) filled, invoking
  /// `decode(path, block, missing_mask, LinkBlockScratch*) -> filled_mask`
  /// for whatever is absent. Ends imply serials (they are stored
  /// serial-relative), so requesting kStreamEnds fetches both.
  template <typename DecodeFn>
  const LinkBlockScratch& Get(PathId path, uint32_t block, uint32_t streams,
                              DecodeFn&& decode) {
    if (streams & kStreamEnds) streams |= kStreamSerials;
    const uint64_t key =
        (static_cast<uint64_t>(path) << 32) | static_cast<uint64_t>(block);
    // Multiplicative mix of both halves: a query frame scans consecutive
    // blocks of its path while deeper frames scan other paths', so the
    // naive (path + block) % kSets degenerates into lockstep collisions
    // — each one a full block re-decode.
    const uint32_t base =
        (((path * 0x9E3779B1u) ^ (block * 0x85EBCA77u)) >> 16 &
         (kSets - 1)) *
        kWays;
    uint32_t slot = kSlots;
    for (uint32_t w = 0; w < kWays; ++w) {
      if (keys_[base + w] == key) {
        slot = base + w;
        break;
      }
    }
    if (slots_ == nullptr) {
      // Default-init: the POD scratch is guarded by keys_/have_, so a
      // fresh cache must not pay the multi-MB zero-fill.
      slots_.reset(new std::array<LinkBlockScratch, kSlots>);
    }
    if (slot == kSlots) {
      // Miss: evict the least-recently-used way of the set.
      slot = base;
      for (uint32_t w = 1; w < kWays; ++w) {
        if (ticks_[base + w] < ticks_[slot]) slot = base + w;
      }
      keys_[slot] = key;
      have_[slot] = decode(path, block, streams, &(*slots_)[slot]);
      ++decode_stamp_;
    } else if ((have_[slot] & streams) != streams) {
      have_[slot] |=
          decode(path, block, streams & ~have_[slot], &(*slots_)[slot]);
      ++decode_stamp_;
    }
    ticks_[slot] = ++tick_;
    return (*slots_)[slot];
  }

  /// Bumped on every decode into a slot — i.e. whenever a borrowed view
  /// into the cache may have been overwritten. A view fetched at stamp S
  /// is intact as long as decode_stamp() == S: slots are only rewritten
  /// by decodes, and a decode that merely adds a stream to a slot
  /// rewrites the existing columns with identical values.
  uint64_t decode_stamp() const { return decode_stamp_; }

 private:
  /// PathId is 31-bit and block directories are dense, so no valid
  /// (path, block) key packs to all-ones; ~0 is a safe empty marker.
  static constexpr uint64_t kEmptyKey = ~0ull;

  std::array<uint64_t, kSlots> keys_;
  std::array<uint32_t, kSlots> have_{};   // kStream* mask per slot
  std::array<uint32_t, kSlots> ticks_{};  // LRU stamps (see tick_)
  uint64_t bound_index_ = 0;
  uint64_t decode_stamp_ = 0;
  uint32_t tick_ = 0;  // monotone use counter feeding ticks_
  std::unique_ptr<std::array<LinkBlockScratch, kSlots>> slots_;
};

/// Reusable per-match scratch space. A match run needs a handful of small
/// arrays (matched serials, link cursors, terminal ranges) plus the decoded
/// block cache; batch workloads that allocate them per call churn the
/// allocator, so callers running many matches pass one context and the
/// buffers keep their capacity across calls. Contents carry no information
/// between calls — every MatchSequence resets them — so any context can
/// serve any query against any index, but a context must not be used by two
/// concurrent matches.
struct MatchContext {
  /// Link-local entry index of the matched node, per query position.
  std::vector<uint32_t> matched_link_idx;
  /// Last link cursor per query position (gallop-search seed).
  std::vector<uint32_t> link_hint;
  /// Doc-offset intervals of terminal subtrees.
  std::vector<std::pair<uint32_t, uint32_t>> ranges;
  /// Per query position: the borrowed view of the block the scan loop is
  /// reading (scan_view) and of the parent block the sibling-cover test
  /// is walking (sib_view). See LinkBlockView.
  std::vector<LinkBlockView> scan_view;
  std::vector<LinkBlockView> sib_view;
  /// Anchor-link cursor of the last anchor search (its gallop seed) and a
  /// view of the block that search read. See AnchorPosition.
  uint32_t anchor_hint = 0;
  LinkBlockView anchor_view;
  /// Decoded link blocks, keyed (path, block); see LinkBlockCache.
  LinkBlockCache block_cache;
};

/// A mutex-guarded free list of MatchContexts for concurrent batch callers.
/// Acquire/Release cost one lock each — negligible next to a match — and
/// contexts created once are recycled for the pool's lifetime.
class MatchContextPool {
 public:
  MatchContextPool() = default;
  MatchContextPool(const MatchContextPool&) = delete;
  MatchContextPool& operator=(const MatchContextPool&) = delete;

  /// Returns a free context, creating one when the pool is empty.
  std::unique_ptr<MatchContext> Acquire();
  /// Returns `ctx` to the free list.
  void Release(std::unique_ptr<MatchContext> ctx);

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<MatchContext>> free_;
};

/// RAII lease: acquires on construction, releases on destruction.
class MatchContextLease {
 public:
  explicit MatchContextLease(MatchContextPool* pool)
      : pool_(pool), ctx_(pool->Acquire()) {}
  ~MatchContextLease() { pool_->Release(std::move(ctx_)); }
  MatchContextLease(const MatchContextLease&) = delete;
  MatchContextLease& operator=(const MatchContextLease&) = delete;

  MatchContext* get() const { return ctx_.get(); }

 private:
  MatchContextPool* pool_;
  std::unique_ptr<MatchContext> ctx_;
};

/// Runs subsequence matching of `query` against `index`, appending matching
/// document ids (sorted, deduplicated) to `out`. `ctx`, when given, supplies
/// reusable scratch space (see MatchContext); results are identical with or
/// without it.
Status MatchSequence(const FrozenIndex& index, const QuerySeq& query,
                     MatchMode mode, std::vector<DocId>* out,
                     MatchStats* stats = nullptr,
                     MatchContext* ctx = nullptr);

}  // namespace xseq

#endif  // XSEQ_SRC_INDEX_MATCHER_H_
