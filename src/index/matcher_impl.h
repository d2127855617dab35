// Shared template core of Algorithm 1.
//
// The matcher is parameterized over an Accessor so the in-memory index and
// the paged (simulated-disk) index run the identical search while counting
// their own access costs. Links are block-compressed (link_codec.h): entry
// reads decode whole blocks into the MatchContext's LinkBlockCache, and the
// block headers' base serials give the cursor a decode-free skip test. An
// Accessor is a cheap value type (copied into MatchCore) providing:
//
//   void     BindCache(LinkBlockCache* c);            // decode scratch; set
//                                                     //   by MatchCore before
//                                                     //   any link read
//   uint32_t node_count() const;                      // O(1)
//   uint32_t LinkSize(PathId p) const;                // O(1)
//   uint32_t LinkBlockBaseSerial(PathId p, uint32_t b) const;
//                                                     // header read only —
//                                                     //   never decodes;
//                                                     //   equals
//                                                     //   LinkSerial(p, b*B)
//   uint32_t LinkSerial(PathId p, uint32_t i) const;  // ascending in i;
//                                                     //   decodes i's block
//                                                     //   through the cache
//   uint32_t LinkEnd(PathId p, uint32_t i) const;     // n⊣ of the same entry
//   uint32_t LinkCover(PathId p, uint32_t i) const;   // link-local index of
//                                                     //   the tightest
//                                                     //   enclosing
//                                                     //   occurrence of p,
//                                                     //   or kNoLinkCover
//   LinkColumns LinkBlockColumns(PathId p, uint32_t b,
//                                uint32_t streams) const;
//                                                     // borrowed pointers to
//                                                     //   the decoded columns
//                                                     //   of block b; only
//                                                     //   the columns in
//                                                     //   `streams` are
//                                                     //   meaningful, and a
//                                                     //   cache-backed view
//                                                     //   dies on the next
//                                                     //   decode (watch
//                                                     //   DecodeStamp)
//   uint64_t DecodeStamp() const;                     // bumped whenever a
//                                                     //   borrowed view may
//                                                     //   have been
//                                                     //   overwritten; a
//                                                     //   constant for flat
//                                                     //   (decode-free)
//                                                     //   accessors
//   uint64_t CacheIdentity() const;                   // process-unique id of
//                                                     //   the index behind
//                                                     //   this accessor
//                                                     //   (plan_cache_id
//                                                     //   space); binds the
//                                                     //   context's block
//                                                     //   cache so repeat
//                                                     //   matches against one
//                                                     //   index keep decoded
//                                                     //   blocks; 0 = never
//                                                     //   retain
//   bool     HasNested(PathId p) const;               // O(1)
//   std::pair<uint32_t,uint32_t> DocOffsets(uint32_t serial,
//                                           uint32_t end) const;
//   DocId    DocAt(uint32_t offset) const;
//
// Cost model (counters in MatchStats):
//  * A cold link probe — no cursor hint for this query position yet — runs a
//    branchless binary search over the block headers' base serials and then
//    within the one candidate block: one link_binary_searches plus one
//    link_entries_read per probe (header or entry alike).
//  * A warm probe gallops out over block headers from the hint's block and
//    binary-searches down to one block, then within it; every probe counts
//    as link_gallop_probes. Hints are per query position and reset every
//    call, so counters are deterministic and independent of scheduling.
//    Either way at most ONE block decodes per upper-bound search.
//  * The scan loop peeks the next block's header at each block boundary —
//    the base serial IS that entry's serial — so a tail of blocks past the
//    candidate range is skipped without decoding. Within a block it reads
//    through a borrowed LinkColumns view, re-validated by a DecodeStamp
//    compare, so the steady-state per-entry cost is a plain array load and
//    the view survives the recursive calls the scan makes between entries
//    unless a decode actually recycled its cache slot.
//  * The sibling-cover test keeps a per-frame cursor into the parent's link
//    (advanced monotonically; advances count as link_gallop_probes) and
//    resolves TightestContaining by walking the precomputed nesting forest —
//    one link_entries_read per cover step, almost always exactly one. The
//    cursor walk reads a borrowed view of the parent block's columns; only
//    cover-chain hops that leave that block fall back to per-entry
//    accessor reads.
//  * Anchor steering (positions before the sequence's AnchorPosition)
//    counts only entries whose range holds an anchor occurrence as
//    candidates. Anchor searches and the scan's jumps are hinted upper-bound
//    searches (link_gallop_probes); a jump's cover-chain hops count as
//    link_entries_read, and the first anchor occurrence costs one header
//    read.

#ifndef XSEQ_SRC_INDEX_MATCHER_IMPL_H_
#define XSEQ_SRC_INDEX_MATCHER_IMPL_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/index/matcher.h"
#include "src/obs/metrics.h"

namespace xseq {
namespace internal {

/// Adds one match call's counter deltas to the process MetricsRegistry
/// (xseq.match.*). Defined in matcher.cc; called from MatchCore — the one
/// choke point both the in-memory and the paged accessor run through — only
/// when obs::MetricsEnabled().
void RecordMatchMetrics(const MatchStats& delta);

/// "No previous cursor" marker for per-position link hints.
inline constexpr uint32_t kNoCursorHint = 0xFFFFFFFFu;

/// Branchless binary search over a decoded serial column: first offset in
/// [0, count) whose serial is > `after` (count when none). The compare
/// folds into conditional moves, so the loop has one unpredictable branch
/// less than the textbook form on hot links. Operating on the raw column —
/// LinkUpperBound's tier 2 is always confined to one block — keeps each
/// probe a plain array load instead of a block-cache lookup.
inline uint32_t WindowSearch(const uint32_t* serials, int64_t after,
                             uint32_t count, uint64_t* probes) {
  uint32_t lo = 0;
  while (count > 0) {
    uint32_t half = count >> 1;
    uint32_t mid = lo + half;
    ++*probes;
    bool le = static_cast<int64_t>(serials[mid]) <= after;
    lo = le ? mid + 1 : lo;
    count = le ? count - half - 1 : half;
  }
  return lo;
}

/// Branchless binary search over block headers: first block in
/// [lo, lo+count) whose base serial is > `after` (lo+count when none).
/// Header reads never decode a block.
template <typename Accessor>
uint32_t BlockWindowSearch(const Accessor& acc, PathId path, int64_t after,
                           uint32_t lo, uint32_t count, uint64_t* probes) {
  while (count > 0) {
    uint32_t half = count >> 1;
    uint32_t mid = lo + half;
    ++*probes;
    bool le =
        static_cast<int64_t>(acc.LinkBlockBaseSerial(path, mid)) <= after;
    lo = le ? mid + 1 : lo;
    count = le ? count - half - 1 : half;
  }
  return lo;
}

/// Result of the header tier of an upper-bound search: the block upper
/// bound (first block whose base serial is > the target; 0 = even block 0
/// starts past it) and the probe counter the in-block tier must keep
/// feeding (cold searches count entries_read, warm ones gallop_probes).
struct BlockBound {
  uint32_t ub;
  uint64_t* probes;
};

/// Header tier of the two-tier upper-bound search over `path`'s link
/// (`n` = link size, > 0): finds the one block that can contain the first
/// entry serial > `after`, from base serials alone — no decoding. With a
/// hint (the cursor position of the previous search at this query
/// position) it gallops out bidirectionally from the hint's block —
/// successive targets are usually close, but move *backwards* when nested
/// occurrences unwind, so one-directional galloping would be wrong — and
/// binary-searches the bracketed window. Without a hint it falls back to
/// a full binary search. The caller (SearchRec) finishes tier 2 with
/// WindowSearch over the surviving block's decoded serial column, which
/// seeds the frame's scan view — so an upper-bound search decodes at most
/// one block regardless of link size.
template <typename Accessor>
BlockBound LinkBlockUpperBound(const Accessor& acc, PathId path,
                               int64_t after, uint32_t n, uint32_t hint,
                               MatchStats* stats) {
  const uint32_t nb = (n + kLinkBlockSize - 1) / kLinkBlockSize;
  // Tier 1: first block whose base serial is > after, in [0, nb].
  uint32_t ub;
  uint64_t* probes;
  if (hint == kNoCursorHint) {
    ++stats->link_binary_searches;
    probes = &stats->link_entries_read;
    ub = BlockWindowSearch(acc, path, after, 0, nb, probes);
  } else {
    probes = &stats->link_gallop_probes;
    const uint32_t pos = (hint < n ? hint : n - 1) / kLinkBlockSize;
    ++*probes;
    uint32_t lo, hi;
    if (static_cast<int64_t>(acc.LinkBlockBaseSerial(path, pos)) <= after) {
      // Answer is right of pos: probe pos+1, pos+2, pos+4, ...
      lo = pos + 1;
      hi = nb;
      uint64_t step = 1;
      while (static_cast<uint64_t>(pos) + step < nb) {
        uint32_t probe = pos + static_cast<uint32_t>(step);
        ++*probes;
        if (static_cast<int64_t>(acc.LinkBlockBaseSerial(path, probe)) <=
            after) {
          lo = probe + 1;
          step <<= 1;
        } else {
          hi = probe;
          break;
        }
      }
    } else {
      // Answer is at or left of pos: probe pos-1, pos-2, pos-4, ...
      lo = 0;
      hi = pos;
      uint64_t step = 1;
      while (step <= pos) {
        uint32_t probe = pos - static_cast<uint32_t>(step);
        ++*probes;
        if (static_cast<int64_t>(acc.LinkBlockBaseSerial(path, probe)) >
            after) {
          hi = probe;
          step <<= 1;
        } else {
          lo = probe + 1;
          break;
        }
      }
    }
    ub = BlockWindowSearch(acc, path, after, lo, hi - lo, probes);
  }
  return {ub, probes};
}

/// "No anchor occurrence left": sorts after every serial.
inline constexpr int64_t kNoAnchor = INT64_MAX;

/// First serial > `after` in the anchor link `path`, found by the hinted
/// two-tier search seeded with ctx->anchor_hint; `after` is at or past the
/// link's first serial, so the search lands in some block. The serial
/// comes from that block's decoded column or, when every entry there is
/// <= after, from the next block's header; the block is read through
/// ctx->anchor_view, so successive searches in one block decode nothing.
/// kNoAnchor when the link holds no later occurrence.
template <typename Accessor>
int64_t AnchorAfter(const Accessor& acc, PathId path, int64_t after,
                    MatchContext* ctx, MatchStats* stats) {
  const uint32_t n = acc.LinkSize(path);
  BlockBound t1 =
      LinkBlockUpperBound(acc, path, after, n, ctx->anchor_hint, stats);
  const uint32_t fb = t1.ub - 1;
  const uint32_t base = fb * kLinkBlockSize;
  LinkBlockView& v = ctx->anchor_view;
  if (v.blk != fb || v.stamp != acc.DecodeStamp()) {
    v.cols = acc.LinkBlockColumns(path, fb, kStreamSerials);
    v.blk = fb;
    v.streams = kStreamSerials;
    v.stamp = acc.DecodeStamp();
  }
  const uint32_t cnt = std::min(n - base, kLinkBlockSize);
  const uint32_t off = WindowSearch(v.cols.serials, after, cnt, t1.probes);
  ctx->anchor_hint = base + off;
  if (off < cnt) return v.cols.serials[off];
  if (base + cnt < n) return acc.LinkBlockBaseSerial(path, t1.ub);
  return kNoAnchor;
}

/// Recursive chain search. Scratch lives in `ctx`; `ctx->ranges` collects
/// doc-offset intervals of terminal subtrees. `anchor` is the sequence's
/// AnchorPosition; frames before it get `anchor_after`, the first anchor
/// serial > v_serial, which lies within v_end.
template <typename Accessor>
void SearchRec(const Accessor& acc, const QuerySeq& q, MatchMode mode,
               size_t anchor, size_t i, int64_t v_serial, int64_t v_end,
               int64_t anchor_after, MatchContext* ctx, MatchStats* stats) {
  if (i == q.size()) {
    ++stats->terminals;
    ctx->ranges.push_back(acc.DocOffsets(static_cast<uint32_t>(v_serial),
                                         static_cast<uint32_t>(v_end)));
    return;
  }
  // Anchor steering. A match is one root-to-leaf trie path, so before the
  // anchor a candidate leads somewhere only if its range holds an anchor
  // occurrence.
  const bool steer = i < anchor;
  PathId p = q.paths[i];
  uint32_t link_size = acc.LinkSize(p);
  // A steered scan reads every entry's end, not only the candidates'.
  const uint32_t scan_streams =
      steer ? kStreamSerials | kStreamEnds : kStreamSerials;

  // Borrowed views of the decoded columns the frame is reading — per
  // query position, persisted in the context across the many frames a
  // search spawns at this depth. The scan and the sibling test each touch
  // one block at a time, so per-entry reads go through these views —
  // plain array loads — instead of a block-cache lookup per read. A view
  // dies when a later decode recycles its cache slot; DecodeStamp
  // compares at the few places that can follow a decode (view fetches,
  // cover-chain fallbacks, the recursive call) notice exactly that and
  // re-fetch — a cache hit unless the slot really was stolen. In steady
  // state — hints keep successive frames in the same blocks, the bound
  // cache retains them — a frame runs entirely on revalidation compares,
  // no cache lookups at all. Flat accessors return a constant stamp and
  // permanent views, so every compare is an always-false predicted
  // branch.
  constexpr uint32_t kNoBlock = 0xFFFFFFFFu;
  LinkBlockView& own = ctx->scan_view[i];
  LinkBlockView& par = ctx->sib_view[i];
  // The accessor's decode stamp, mirrored into a register. Within this
  // frame only view fetches, the cover chain's per-entry fallback reads,
  // and the recursive call can decode; each reloads the mirror, so every
  // other staleness check is a register compare instead of a load through
  // the cache pointer — per candidate, that is the difference between the
  // compressed and flat hot loops.
  uint64_t stamp = acc.DecodeStamp();
  auto own_fetch = [&](uint32_t blk, uint32_t streams) {
    own.cols = acc.LinkBlockColumns(p, blk, streams);
    own.blk = blk;
    own.streams = streams;
    own.stamp = stamp = acc.DecodeStamp();
  };
  // Full revalidation (block + streams + stamp) — frame entry and the
  // scan's block transitions; within the frame the targeted checks below
  // suffice.
  auto own_ensure = [&](uint32_t blk, uint32_t streams) {
    if (own.blk != blk || (own.streams & streams) != streams ||
        own.stamp != stamp) {
      own_fetch(blk, own.blk == blk ? (own.streams | streams) : streams);
    }
  };

  // Upper bound for the scan start: header tier, then WindowSearch within
  // the surviving block — whose decoded serial column becomes the scan
  // view, so the search and the scan share one block fetch.
  uint32_t idx = 0;
  if (link_size > 0) {
    BlockBound t1 = LinkBlockUpperBound(acc, p, v_serial, link_size,
                                        ctx->link_hint[i], stats);
    if (t1.ub > 0) {
      const uint32_t fb = t1.ub - 1;
      const uint32_t base = fb * kLinkBlockSize;
      const uint32_t cnt = std::min(link_size - base, kLinkBlockSize);
      own_ensure(fb, scan_streams);
      idx = base + WindowSearch(own.cols.serials, v_serial, cnt, t1.probes);
    }
  }
  ctx->link_hint[i] = idx;

  // Sibling-cover test state (Definition 4). The test is needed only when
  // the query parent's path has nested occurrences (Theorem 3). Candidates
  // r grow monotonically within this frame, so `sib_cur` — the last entry
  // of the parent's link with serial <= r — only moves forward; it starts
  // at the matched parent itself and its advances are amortized O(1) per
  // candidate. TightestContaining(r) is then sib_cur or one of its nesting-
  // forest ancestors: walk cover pointers until the range covers r.
  const int32_t parent_pos = q.parent[i];
  const bool need_cover = mode == MatchMode::kConstraint &&
                          parent_pos >= 0 &&
                          acc.HasNested(q.paths[parent_pos]);
  const PathId parent_path =
      parent_pos >= 0 ? q.paths[parent_pos] : kInvalidPath;
  const uint32_t parent_idx =
      parent_pos >= 0
          ? ctx->matched_link_idx[static_cast<size_t>(parent_pos)]
          : 0;
  uint32_t sib_cur = parent_idx;
  uint32_t sib_size = 0;
  int64_t sib_next = 0;
  bool sib_init = false, sib_have_next = false;
  auto par_fetch = [&](uint32_t blk) {
    // The sibling test reads all three parent columns per candidate, so
    // fetch them together.
    par.cols = acc.LinkBlockColumns(parent_path, blk, kStreamAll);
    par.blk = blk;
    par.streams = kStreamAll;
    par.stamp = stamp = acc.DecodeStamp();
  };

  // The scan below revalidates with a block compare alone, which is only
  // sound while the view is known current. Tier 2 just ensured that —
  // unless it was skipped (empty link, or the upper bound landed before
  // block 0), in which case a view inherited from an earlier frame at
  // this position may be stale: drop it and let the scan re-fetch.
  if (own.blk != kNoBlock && own.stamp != stamp) {
    own.blk = kNoBlock;
  }

  // First anchor serial > the current entry's serial.
  int64_t next_anchor = anchor_after;
  const PathId anchor_path = q.paths[anchor];
  for (; idx < link_size; ++idx) {
    ++stats->link_entries_read;
    const uint32_t blk = idx / kLinkBlockSize;
    const uint32_t off = idx & (kLinkBlockSize - 1);
    uint32_t r;
    if (off == 0) {
      // Block boundary: the header's base serial IS this entry's serial,
      // so a tail of blocks past v_end breaks out without decoding.
      // (Header reads never decode, so the views survive them.)
      r = acc.LinkBlockBaseSerial(p, blk);
      if (static_cast<int64_t>(r) > v_end) break;
    }
    if (blk != own.blk) own_fetch(blk, scan_streams);
    r = own.cols.serials[off];
    if (static_cast<int64_t>(r) > v_end) break;
    if (steer) {
      if (static_cast<int64_t>(r) >= next_anchor) {
        next_anchor = AnchorAfter(acc, anchor_path, r, ctx, stats);
        if (next_anchor > v_end) break;  // no later entry can hold one
        stamp = acc.DecodeStamp();  // the search may have decoded
        if (stamp != own.stamp) own_fetch(blk, own.streams);
      }
      if (static_cast<int64_t>(own.cols.ends[off]) < next_anchor) {
        // No match runs through this entry. An entry before next_anchor
        // leads somewhere only if it covers next_anchor, and all that do
        // lie on the nesting-forest chain of the last entry before it
        // (laminarity). So land on the outermost chain entry past the
        // cursor if it covers next_anchor, else on the first entry at or
        // past next_anchor. One hinted search finds the last entry and
        // fetches its block with every column the chain walk reads.
        const int64_t before = next_anchor - 1;
        BlockBound jb =
            LinkBlockUpperBound(acc, p, before, link_size, idx, stats);
        const uint32_t jbase = (jb.ub - 1) * kLinkBlockSize;
        own_ensure(jb.ub - 1, kStreamAll);
        const uint32_t last =
            jbase - 1 +
            WindowSearch(own.cols.serials, before,
                         std::min(link_size - jbase, kLinkBlockSize),
                         jb.probes);
        uint32_t land = last + 1;
        if (last > idx) {
          uint32_t t = last;
          uint32_t t_end = own.cols.ends[t & (kLinkBlockSize - 1)];
          uint32_t t_cover = own.cols.covers[t & (kLinkBlockSize - 1)];
          ++stats->link_entries_read;
          while (t_cover != kNoLinkCover && t_cover > idx) {
            t = t_cover;
            ++stats->link_entries_read;
            if (t / kLinkBlockSize == own.blk && stamp == own.stamp) {
              t_end = own.cols.ends[t & (kLinkBlockSize - 1)];
              t_cover = own.cols.covers[t & (kLinkBlockSize - 1)];
            } else {
              t_end = acc.LinkEnd(p, t);
              t_cover = acc.LinkCover(p, t);
              stamp = acc.DecodeStamp();  // the fallback reads may decode
            }
          }
          if (static_cast<int64_t>(t_end) >= next_anchor) land = t;
        }
        // Let the scan re-fetch if the walk's fallback reads decoded.
        if (stamp != own.stamp) own.blk = kNoBlock;
        idx = land - 1;  // the loop increment lands on `land`
        continue;
      }
    }
    ++stats->candidates;
    if (need_cover) {
      ++stats->sibling_checks;
      if (!sib_init) {
        sib_init = true;
        sib_size = acc.LinkSize(parent_path);
        if (sib_cur + 1 < sib_size) {
          ++stats->link_gallop_probes;
          const uint32_t jb = (sib_cur + 1) / kLinkBlockSize;
          if (par.blk != jb || par.stamp != stamp) {
            par_fetch(jb);
          }
          sib_next = par.cols.serials[(sib_cur + 1) & (kLinkBlockSize - 1)];
          sib_have_next = true;
        }
      } else if (par.blk != kNoBlock && stamp != par.stamp) {
        // Decodes since the previous candidate (its recursion, or a
        // cover-chain fallback) may have recycled the parent view.
        par_fetch(par.blk);
      }
      // Within the gallop only par_fetch itself decodes, and it refreshes
      // the view in place — so block-crossing is the only check needed.
      while (sib_have_next && sib_next <= static_cast<int64_t>(r)) {
        ++sib_cur;
        if (sib_cur + 1 < sib_size) {
          ++stats->link_gallop_probes;
          const uint32_t j = sib_cur + 1;
          if (j / kLinkBlockSize != par.blk) par_fetch(j / kLinkBlockSize);
          sib_next = par.cols.serials[j & (kLinkBlockSize - 1)];
        } else {
          sib_have_next = false;
        }
      }
      // sib_cur is the last parent-link entry with serial <= r; every
      // occurrence containing r encloses it (laminarity), so the tightest
      // is the first cover-chain ancestor-or-self whose range covers r.
      // The chain's first node is usually in the cursor's block; hops
      // that leave it fall back to per-entry accessor reads, whose
      // decodes the stamp compare detects.
      uint32_t tight = sib_cur;
      ++stats->link_entries_read;
      for (;;) {
        uint32_t t_end, t_cover;
        if (tight / kLinkBlockSize == par.blk && stamp == par.stamp) {
          t_end = par.cols.ends[tight & (kLinkBlockSize - 1)];
          t_cover = par.cols.covers[tight & (kLinkBlockSize - 1)];
        } else {
          t_end = acc.LinkEnd(parent_path, tight);
          t_cover = acc.LinkCover(parent_path, tight);
          stamp = acc.DecodeStamp();  // the fallback reads may decode
        }
        if (t_end >= r) break;
        tight = t_cover;
        if (tight == kNoLinkCover) break;  // corrupt index; reject below
        ++stats->link_entries_read;
      }
      if (tight != parent_idx) {
        ++stats->sibling_rejections;
        // A cover-chain fallback may have displaced the scan view.
        if (stamp != own.stamp) own_fetch(blk, own.streams);
        continue;  // sibling-covered: wrong identical sibling
      }
    }
    ctx->matched_link_idx[i] = idx;
    // One combined check: the end column may not be decoded yet, and the
    // sibling test above may have displaced the view.
    if (!(own.streams & kStreamEnds) || stamp != own.stamp) {
      own_fetch(blk, own.streams | kStreamEnds);
    }
    const uint32_t child_end = own.cols.ends[off];
    SearchRec(acc, q, mode, anchor, i + 1, r, child_end, next_anchor, ctx,
              stats);
    // The recursion's decodes may have recycled the scan view's slot.
    stamp = acc.DecodeStamp();
    if (stamp != own.stamp) own_fetch(blk, own.streams);
  }
  ctx->link_hint[i] = idx;
}

/// Full match: search, then merge the terminal doc-offset intervals and
/// materialize sorted, deduplicated document ids. Takes the accessor by
/// value: it is rebound to the resolved context's block cache, and copying
/// keeps the caller's accessor untouched.
template <typename Accessor>
Status MatchCore(Accessor acc, const QuerySeq& q, MatchMode mode,
                 std::vector<DocId>* out, MatchStats* stats,
                 MatchContext* ctx) {
  if (q.paths.empty()) {
    return Status::InvalidArgument("empty query sequence");
  }
  if (q.parent.size() != q.paths.size()) {
    return Status::InvalidArgument("query parent array size mismatch");
  }
  for (size_t i = 0; i < q.parent.size(); ++i) {
    if (q.parent[i] >= static_cast<int32_t>(i)) {
      return Status::InvalidArgument(
          "query parent must precede its child in the sequence");
    }
  }

  MatchStats local;
  MatchStats* st = stats != nullptr ? stats : &local;
  // `st` may accumulate across calls (batch aggregation), so registry
  // metrics are fed this call's delta. One relaxed load when disabled.
  const bool metrics = obs::MetricsEnabled();
  MatchStats before;
  if (metrics) before = *st;
  MatchContext local_ctx;
  if (ctx == nullptr) ctx = &local_ctx;
  // assign() keeps the capacity a reused context accumulated.
  ctx->matched_link_idx.assign(q.size(), 0);
  ctx->link_hint.assign(q.size(), kNoCursorHint);
  ctx->ranges.clear();
  // Views cache (path, block) pairs of THIS query's positions; they never
  // outlive the call.
  ctx->scan_view.assign(q.size(), LinkBlockView{});
  ctx->sib_view.assign(q.size(), LinkBlockView{});
  ctx->anchor_view = LinkBlockView{};
  // Rebind, don't reset: a context matching repeatedly against one index
  // keeps its decoded blocks (see LinkBlockCache::BindIndex).
  ctx->block_cache.BindIndex(acc.CacheIdentity());
  acc.BindCache(&ctx->block_cache);
  const size_t anchor =
      AnchorPosition(q, [&acc](PathId p) { return acc.LinkSize(p); });
  // An empty anchor link matches nothing, so nothing is scanned.
  if (acc.node_count() > 0 && acc.LinkSize(q.paths[anchor]) > 0) {
    // The first anchor occurrence is block 0's base serial: a header read.
    int64_t first_anchor = kNoAnchor;
    if (anchor > 0) {
      ++st->link_entries_read;
      first_anchor = acc.LinkBlockBaseSerial(q.paths[anchor], 0);
      ctx->anchor_hint = 0;
    }
    SearchRec(acc, q, mode, anchor, 0, /*v_serial=*/-1,
              /*v_end=*/static_cast<int64_t>(acc.node_count()) - 1,
              first_anchor, ctx, st);
  }

  // Doc lists are disjoint per offset, so merging intervals deduplicates.
  std::sort(ctx->ranges.begin(), ctx->ranges.end());
  size_t out_before = out->size();
  uint32_t cur_lo = 0, cur_hi = 0;
  bool open = false;
  auto flush = [&]() {
    for (uint32_t off = cur_lo; off < cur_hi; ++off) {
      out->push_back(acc.DocAt(off));
    }
  };
  for (const auto& [lo, hi] : ctx->ranges) {
    if (lo >= hi) continue;
    if (!open) {
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    } else if (lo <= cur_hi) {
      cur_hi = std::max(cur_hi, hi);
    } else {
      flush();
      cur_lo = lo;
      cur_hi = hi;
    }
  }
  if (open) flush();
  std::sort(out->begin() + static_cast<ptrdiff_t>(out_before), out->end());
  st->result_docs += out->size() - out_before;
  if (metrics) {
    MatchStats delta = *st;
    delta.link_binary_searches -= before.link_binary_searches;
    delta.link_entries_read -= before.link_entries_read;
    delta.link_gallop_probes -= before.link_gallop_probes;
    delta.candidates -= before.candidates;
    delta.sibling_checks -= before.sibling_checks;
    delta.sibling_rejections -= before.sibling_rejections;
    delta.terminals -= before.terminals;
    delta.result_docs -= before.result_docs;
    RecordMatchMetrics(delta);
  }
  return Status::OK();
}

}  // namespace internal
}  // namespace xseq

#endif  // XSEQ_SRC_INDEX_MATCHER_IMPL_H_
