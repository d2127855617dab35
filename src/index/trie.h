// The index tree (Section 4.1): a trie over constraint sequences.
//
// Construction follows the paper's three steps:
//   1. SEQUENCE INSERTION — every document's constraint sequence is inserted
//      into a trie; the document id is appended to the id list of the node
//      where the insertion ends. Static data can be bulk loaded by sorting
//      the sequences first.
//   2. TREE LABELING — each trie node n gets (n⊢, n⊣): its pre-order serial
//      and the largest serial in its subtree, so x is a descendant of y iff
//      x⊢ ∈ (y⊢, y⊣].
//   3. PATH LINKING — for every distinct path, the sorted list of trie-node
//      labels carrying that path ("horizontal links", binary searchable).
//
// TrieBuilder is the mutable construction stage; Freeze() produces the
// immutable FrozenIndex the matchers and the paged serializer consume.
// Horizontal links are stored block-compressed (src/index/link_codec.h):
// delta-encoded serials, serial-relative ends and backward cover distances,
// bit-packed in blocks of kLinkBlockSize entries behind 16-byte headers.
// The matcher skips and decodes blocks through a per-cursor scratch cache;
// cold callers materialize whole links with Link()/LinkCover().

#ifndef XSEQ_SRC_INDEX_TRIE_H_
#define XSEQ_SRC_INDEX_TRIE_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/index/link_codec.h"
#include "src/seq/sequence.h"
#include "src/util/coding.h"
#include "src/util/status.h"
#include "src/xml/symbols.h"

namespace xseq {

/// Immutable flattened index tree. Node serials are pre-order positions;
/// nodes() is indexed by serial.
class FrozenIndex {
 public:
  /// One trie node: the path it carries and the largest serial in its
  /// subtree (the serial itself is the array position).
  struct NodeRec {
    PathId path;
    uint32_t end;
  };

  /// One horizontal-link entry: the (n⊢, n⊣) label pair of Fig. 8. The
  /// resident representation is block-compressed; this is the materialized
  /// form Link() hands to cold callers (serializers, tests, tools).
  struct LinkEntry {
    uint32_t serial;
    uint32_t end;
  };

  size_t node_count() const { return nodes_.size(); }
  PathId path(uint32_t serial) const { return nodes_[serial].path; }
  uint32_t end(uint32_t serial) const { return nodes_[serial].end; }

  /// Entries in the horizontal link of `path`. O(1).
  uint32_t LinkSize(PathId path) const {
    if (path + 1 >= link_off_.size()) return 0;
    return link_off_[path + 1] - link_off_[path];
  }

  /// Compressed blocks in the horizontal link of `path`. O(1).
  uint32_t LinkBlocks(PathId path) const {
    return (LinkSize(path) + kLinkBlockSize - 1) / kLinkBlockSize;
  }

  /// Header of block `b` of `path`'s link — base serial, max end, widths —
  /// readable without decoding the block (the cursor's skip test).
  const LinkBlockHeader& LinkBlock(PathId path, uint32_t b) const {
    return link_blocks_[link_block_off_[path] + b];
  }

  /// Decodes block `b` of `path`'s link into `*out` (serials, ends, and
  /// link-local cover indices). The hot path caches these per cursor
  /// (LinkBlockCache); cold paths may decode straight to the stack.
  void DecodeLinkBlock(PathId path, uint32_t b, LinkBlockScratch* out) const;

  /// Decodes only the scratch columns in `streams` (kStream* mask) of
  /// block `b`. Requesting ends implies serials (ends are stored
  /// serial-relative). Returns the mask actually decoded — what a
  /// LinkBlockCache records per slot.
  uint32_t DecodeLinkBlockStreams(PathId path, uint32_t b, uint32_t streams,
                                  LinkBlockScratch* out) const;

  /// Materializes the horizontal link of `path`: (serial, end) pairs,
  /// serials ascending. O(link size) decode — for serializers, reference
  /// implementations, and tests, not for the match loop.
  std::vector<LinkEntry> Link(PathId path) const;

  /// Materializes the link's static nesting forest: element i is the
  /// link-local index of the tightest occurrence of `path` strictly
  /// enclosing entry i, or kNoLinkCover when none encloses it. O(link
  /// size); the match loop reads covers from decoded blocks instead.
  std::vector<uint32_t> LinkCover(PathId path) const;

  /// True when `path`'s link contains nested occurrences (identical sibling
  /// nodes, Eq. 5) — the only case where the sibling-cover test is needed.
  bool HasNested(PathId path) const {
    return path < nested_.size() && nested_[path] != 0;
  }

  /// Document ids attached exactly at node `serial` (the documents whose
  /// constraint sequence ends there). Together with the pre-order node walk
  /// this recovers every indexed document's sequence: the chain of path()
  /// labels from the root to `serial` *is* the sequence (the trie stores
  /// sequences; Theorem 1 then rebuilds the tree). Used by the offline
  /// reshard path.
  std::span<const DocId> DocsAtNode(uint32_t serial) const {
    uint32_t lo = node_docs_off_[serial];
    uint32_t hi = node_docs_off_[serial + 1];
    return std::span<const DocId>(docs_).subspan(lo, hi - lo);
  }

  /// Document ids attached in the subtree of `serial` (contiguous because
  /// doc lists are laid out in serial order).
  std::span<const DocId> DocsInSubtree(uint32_t serial) const {
    uint32_t lo = node_docs_off_[serial];
    uint32_t hi = node_docs_off_[nodes_[serial].end + 1];
    return std::span<const DocId>(docs_).subspan(lo, hi - lo);
  }

  /// Offset range into the global doc array for the subtree of `serial`.
  std::pair<uint32_t, uint32_t> DocOffsetsInSubtree(uint32_t serial) const {
    return {node_docs_off_[serial], node_docs_off_[nodes_[serial].end + 1]};
  }

  DocId doc_at(uint32_t offset) const { return docs_[offset]; }
  uint32_t total_docs() const { return static_cast<uint32_t>(docs_.size()); }

  /// Process-unique identity for compiled-query caching: assigned from a
  /// monotone counter at Freeze()/DecodeFrom() time, never reused within a
  /// process, never persisted. Two indexes share an id only if they are the
  /// same object, so a cache keyed on it can never serve a plan compiled
  /// against different vocabulary/link state. 0 = default-constructed
  /// (unfrozen) index; such indexes are never cached against.
  uint64_t plan_cache_id() const { return plan_cache_id_; }

  /// Draws a fresh id from the same never-reused process-wide space as
  /// plan_cache_id(). For alternative index representations (the paged
  /// index) whose caches key on index identity.
  static uint64_t NextIndexCacheId();
  size_t distinct_paths() const {
    return link_off_.empty() ? 0 : link_off_.size() - 1;
  }

  /// The packed link region verbatim (global block order / packed words),
  /// for serializers that ship the compressed form unchanged.
  std::span<const LinkBlockHeader> link_blocks() const { return link_blocks_; }
  std::span<const uint64_t> link_words() const { return link_words_; }

  /// Bytes of the resident arrays (the in-memory index footprint; links
  /// counted packed).
  uint64_t MemoryBytes() const;
  /// Bytes of the packed link region proper: block headers + packed
  /// words. Matches what InspectEncodedIndex reports for the on-disk
  /// link section; the per-path block directory is small bookkeeping
  /// that exists in both layouts and is counted by MemoryBytes only.
  uint64_t PackedLinkBytes() const;
  /// Bytes the links would occupy flat: 12 per entry (fused serial+end
  /// pair plus cover word) — the pre-compression representation.
  uint64_t LogicalLinkBytes() const;

  /// Deep integrity check of every structural invariant: laminar ranges,
  /// links partitioning the nodes in ascending order, block headers
  /// (counts, word offsets, bit widths, base serials, max ends) agreeing
  /// with their decoded contents, nested flags matching actual containment,
  /// and monotone doc offsets. O(index size). Used after deserialization
  /// and available to callers that load index files from untrusted media.
  Status Validate() const;

  /// Appends a binary encoding of the index to `dst`: nodes, doc lists and
  /// the resident block-compressed links written verbatim (see
  /// src/core/persist.h for the file format around it). The dense per-path
  /// arrays are not written; DecodeFrom derives them from the nodes.
  void EncodeTo(std::string* dst) const;
  /// Decodes an index previously written by EncodeTo. Every node's path
  /// must lie in [1, path_limit) — the size of the dictionary it was built
  /// over — which bounds the derived per-path arrays. Older link layouts
  /// never reach it: the image loader refuses their format versions.
  static StatusOr<FrozenIndex> DecodeFrom(Decoder* in, size_t path_limit);

 private:
  friend class TrieBuilder;

  /// Sizes link_off_ and nested_ by the largest path the nodes carry and
  /// fills them from the nodes: link offsets by counting sort, nested flags
  /// by one ascending pass.
  void DeriveLinkArrays();

  /// Builds the packed link region (block directory, headers, words) from
  /// flat fused entries partitioned by link_off_; computes each link's
  /// nesting forest in one stack pass as it packs.
  void CompressLinks(const std::vector<LinkEntry>& entries);

  std::vector<NodeRec> nodes_;
  std::vector<uint32_t> node_docs_off_;  // size node_count()+1
  std::vector<DocId> docs_;              // grouped by owning node, serial order
  std::vector<uint32_t> link_off_;       // entry offsets; size max_path+2
  std::vector<uint32_t> link_block_off_; // block offsets; size max_path+2
  std::vector<LinkBlockHeader> link_blocks_;
  std::vector<uint64_t> link_words_;     // packed block payloads
  std::vector<uint8_t> nested_;          // per path
  uint64_t plan_cache_id_ = 0;           // derived: see plan_cache_id()
};

/// Mutable trie under construction.
class TrieBuilder {
 public:
  TrieBuilder() { pool_.push_back(BuildNode{kInvalidPath, -1, -1, {}}); }

  /// Inserts one sequence, attaching `doc` at the final node. Empty
  /// sequences are rejected.
  Status Insert(const Sequence& seq, DocId doc);

  /// Bulk load into a fresh builder, on the calling thread: sorts
  /// (sequence, doc) pairs and inserts them with longest-common-prefix
  /// reuse — no hash probing, better locality. Clears `input`. Fails with
  /// FailedPrecondition when the builder already holds nodes; Insert() adds
  /// to a built trie.
  Status BulkLoad(std::vector<std::pair<Sequence, DocId>>* input);

  /// Number of trie nodes excluding the virtual root.
  size_t node_count() const { return pool_.size() - 1; }

  /// Flattens into the immutable index. The builder is consumed.
  FrozenIndex Freeze() &&;

 private:
  struct BuildNode {
    PathId path;
    int32_t first_child;
    int32_t last_child;  // for append-order child chaining
    std::vector<DocId> docs;
    int32_t next_sibling = -1;
  };

  int32_t FindOrAddChild(int32_t parent, PathId path);

  /// Recomputes child_index_ from the pool (bulk loads skip hash
  /// maintenance; the first Insert afterwards pays for the rebuild).
  void RebuildChildIndex();

  std::vector<BuildNode> pool_;
  // (parent node id, path) -> child node id; used by incremental Insert.
  std::unordered_map<uint64_t, int32_t> child_index_;
  bool child_index_stale_ = false;
};

}  // namespace xseq

#endif  // XSEQ_SRC_INDEX_TRIE_H_
