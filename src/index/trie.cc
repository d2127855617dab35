#include "src/index/trie.h"

#include <algorithm>
#include <atomic>

namespace xseq {

namespace {

/// Plan-cache identities start at 1 so 0 stays the "unfrozen" sentinel.
uint64_t NextPlanCacheId() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

uint64_t FrozenIndex::NextIndexCacheId() { return NextPlanCacheId(); }

uint64_t FrozenIndex::MemoryBytes() const {
  return nodes_.size() * sizeof(NodeRec) +
         node_docs_off_.size() * sizeof(uint32_t) +
         docs_.size() * sizeof(DocId) +
         link_off_.size() * sizeof(uint32_t) +
         link_block_off_.size() * sizeof(uint32_t) + nested_.size() +
         PackedLinkBytes();
}

uint64_t FrozenIndex::PackedLinkBytes() const {
  return link_blocks_.size() * sizeof(LinkBlockHeader) +
         link_words_.size() * sizeof(uint64_t);
}

uint64_t FrozenIndex::LogicalLinkBytes() const {
  const uint64_t entries = link_off_.empty() ? 0 : link_off_.back();
  return entries * (sizeof(LinkEntry) + sizeof(uint32_t));
}

void FrozenIndex::CompressLinks(const std::vector<LinkEntry>& entries) {
  link_blocks_.clear();
  link_words_.clear();
  link_block_off_.assign(link_off_.size(), 0);
  if (link_off_.empty()) return;

  std::vector<uint32_t> serials, ends, covers, stack;
  for (PathId p = 0; p + 1 < link_off_.size(); ++p) {
    link_block_off_[p] = static_cast<uint32_t>(link_blocks_.size());
    const uint32_t base = link_off_[p];
    const uint32_t size = link_off_[p + 1] - base;
    if (size == 0) continue;
    serials.resize(size);
    ends.resize(size);
    covers.resize(size);
    stack.clear();
    // One stack pass computes the nesting forest (tightest still-open
    // occurrence) alongside the column split the packer wants.
    for (uint32_t i = 0; i < size; ++i) {
      const LinkEntry& e = entries[base + i];
      serials[i] = e.serial;
      ends[i] = e.end;
      while (!stack.empty() && ends[stack.back()] < e.serial) {
        stack.pop_back();
      }
      covers[i] = stack.empty() ? kNoLinkCover : stack.back();
      stack.push_back(i);
    }
    for (uint32_t off = 0; off < size; off += kLinkBlockSize) {
      const uint32_t cnt = std::min(size - off, kLinkBlockSize);
      link_blocks_.push_back(PackLinkBlock(serials.data() + off,
                                           ends.data() + off,
                                           covers.data() + off, cnt, off,
                                           &link_words_));
    }
  }
  link_block_off_.back() = static_cast<uint32_t>(link_blocks_.size());
}

void FrozenIndex::DecodeLinkBlock(PathId path, uint32_t b,
                                  LinkBlockScratch* out) const {
  const LinkBlockHeader& h = link_blocks_[link_block_off_[path] + b];
  UnpackLinkBlock(h, link_words_.data() + h.word_off, b * kLinkBlockSize,
                  out);
}

uint32_t FrozenIndex::DecodeLinkBlockStreams(PathId path, uint32_t b,
                                             uint32_t streams,
                                             LinkBlockScratch* out) const {
  if (streams & kStreamEnds) streams |= kStreamSerials;
  const LinkBlockHeader& h = link_blocks_[link_block_off_[path] + b];
  const uint64_t* words = link_words_.data() + h.word_off;
  if (streams & kStreamSerials) UnpackLinkSerials(h, words, out);
  if (streams & kStreamEnds) UnpackLinkEnds(h, words, out);
  if (streams & kStreamCovers) {
    UnpackLinkCovers(h, words, b * kLinkBlockSize, out);
  }
  return streams;
}

std::vector<FrozenIndex::LinkEntry> FrozenIndex::Link(PathId path) const {
  std::vector<LinkEntry> out;
  const uint32_t size = LinkSize(path);
  out.reserve(size);
  LinkBlockScratch scratch;
  for (uint32_t b = 0; b * kLinkBlockSize < size; ++b) {
    DecodeLinkBlock(path, b, &scratch);
    const uint32_t cnt =
        std::min(size - b * kLinkBlockSize, kLinkBlockSize);
    for (uint32_t i = 0; i < cnt; ++i) {
      out.push_back(LinkEntry{scratch.serials[i], scratch.ends[i]});
    }
  }
  return out;
}

std::vector<uint32_t> FrozenIndex::LinkCover(PathId path) const {
  std::vector<uint32_t> out;
  const uint32_t size = LinkSize(path);
  out.reserve(size);
  LinkBlockScratch scratch;
  for (uint32_t b = 0; b * kLinkBlockSize < size; ++b) {
    DecodeLinkBlock(path, b, &scratch);
    const uint32_t cnt =
        std::min(size - b * kLinkBlockSize, kLinkBlockSize);
    for (uint32_t i = 0; i < cnt; ++i) out.push_back(scratch.covers[i]);
  }
  return out;
}

Status FrozenIndex::Validate() const {
  uint32_t n = static_cast<uint32_t>(nodes_.size());
  if (node_docs_off_.size() != n + 1 && !(n == 0 && node_docs_off_.empty())) {
    return Status::Corruption("doc offset array size mismatch");
  }
  // Ranges laminar and in-bounds.
  std::vector<uint32_t> stack;
  for (uint32_t s = 0; s < n; ++s) {
    if (nodes_[s].end < s || nodes_[s].end >= n) {
      return Status::Corruption("node range out of bounds at serial " +
                                std::to_string(s));
    }
    while (!stack.empty() && nodes_[stack.back()].end < s) stack.pop_back();
    if (!stack.empty() && nodes_[s].end > nodes_[stack.back()].end) {
      return Status::Corruption("node ranges are not laminar at serial " +
                                std::to_string(s));
    }
    stack.push_back(s);
  }
  // Doc offsets monotone and bounded.
  for (size_t i = 0; i + 1 < node_docs_off_.size(); ++i) {
    if (node_docs_off_[i] > node_docs_off_[i + 1]) {
      return Status::Corruption("doc offsets not monotone");
    }
  }
  if (!node_docs_off_.empty() && node_docs_off_.back() != docs_.size()) {
    return Status::Corruption("doc offsets do not cover the doc array");
  }
  // Links: ascending serials, fused ends matching the nodes, correct
  // paths, full partition, exact nested flags, exact cover forest, and
  // block headers (counts, widths, word offsets, max ends) agreeing with
  // their decoded contents.
  if (link_off_.empty() ? n != 0 : link_off_.back() != n) {
    return Status::Corruption("link array size mismatch");
  }
  if (link_block_off_.size() != link_off_.size()) {
    return Status::Corruption("link block directory size mismatch");
  }
  if (!link_block_off_.empty() &&
      link_block_off_.back() != link_blocks_.size()) {
    return Status::Corruption("link block directory does not cover blocks");
  }
  uint64_t word_cursor = 0;
  for (const LinkBlockHeader& h : link_blocks_) {
    if (LinkBlockCount(h) > kLinkBlockSize) {
      return Status::Corruption("link block entry count out of range");
    }
    if (h.delta_bits > 32 || h.end_bits > 32 || h.cover_bits > 32) {
      return Status::Corruption("link block bit width out of range");
    }
    if (h.word_off != word_cursor) {
      return Status::Corruption("link block word offset wrong");
    }
    word_cursor += LinkBlockWords(h);
  }
  if (word_cursor != link_words_.size()) {
    return Status::Corruption("link words do not cover the word array");
  }
  size_t paths = distinct_paths();
  std::vector<uint32_t> cover_stack;
  std::vector<uint32_t> s_all, e_all, c_all;
  LinkBlockScratch scratch;
  for (PathId p = 0; p < paths; ++p) {
    if (link_off_[p] > link_off_[p + 1] || link_off_[p + 1] > n) {
      return Status::Corruption("link offsets invalid for path " +
                                std::to_string(p));
    }
    const uint32_t size = link_off_[p + 1] - link_off_[p];
    const uint32_t blocks = (size + kLinkBlockSize - 1) / kLinkBlockSize;
    if (link_block_off_[p] > link_block_off_[p + 1] ||
        link_block_off_[p + 1] - link_block_off_[p] != blocks) {
      return Status::Corruption("link block count wrong for path " +
                                std::to_string(p));
    }
    s_all.resize(size);
    e_all.resize(size);
    c_all.resize(size);
    for (uint32_t b = 0; b < blocks; ++b) {
      const LinkBlockHeader& h = LinkBlock(p, b);
      const uint32_t off = b * kLinkBlockSize;
      const uint32_t cnt = std::min(size - off, kLinkBlockSize);
      if (LinkBlockCount(h) != cnt) {
        return Status::Corruption("link block entry count wrong for path " +
                                  std::to_string(p));
      }
      DecodeLinkBlock(p, b, &scratch);
      uint32_t block_max_end = 0;
      for (uint32_t i = 0; i < cnt; ++i) {
        s_all[off + i] = scratch.serials[i];
        e_all[off + i] = scratch.ends[i];
        c_all[off + i] = scratch.covers[i];
        block_max_end = std::max(block_max_end, scratch.ends[i]);
      }
      if (h.max_end != block_max_end) {
        return Status::Corruption("link block max end wrong for path " +
                                  std::to_string(p));
      }
    }
    bool contained = false, seen = false;
    uint32_t prev = 0, max_end = 0;
    cover_stack.clear();
    for (uint32_t i = 0; i < size; ++i) {
      uint32_t s = s_all[i];
      if (s >= n || nodes_[s].path != p) {
        return Status::Corruption("link entry points at a foreign node");
      }
      if (e_all[i] != nodes_[s].end) {
        return Status::Corruption("fused link end disagrees with node " +
                                  std::to_string(s));
      }
      if (seen && s <= prev) {
        return Status::Corruption("link not strictly ascending");
      }
      if (seen && s <= max_end) contained = true;
      max_end = seen ? std::max(max_end, e_all[i]) : e_all[i];
      prev = s;
      seen = true;
      // The cover entry must name the tightest still-open occurrence.
      while (!cover_stack.empty() && e_all[cover_stack.back()] < s) {
        cover_stack.pop_back();
      }
      uint32_t expect =
          cover_stack.empty() ? kNoLinkCover : cover_stack.back();
      if (c_all[i] != expect) {
        return Status::Corruption("link cover wrong for path " +
                                  std::to_string(p));
      }
      cover_stack.push_back(i);
    }
    bool flagged = p < nested_.size() && nested_[p] != 0;
    if (flagged != contained) {
      return Status::Corruption("nested flag wrong for path " +
                                std::to_string(p));
    }
  }
  return Status::OK();
}

void FrozenIndex::EncodeTo(std::string* dst) const {
  PutPodVector(dst, nodes_);
  PutPodVector(dst, node_docs_off_);
  PutPodVector(dst, docs_);
  // The packed blocks ship verbatim: re-encoding a decoded image is
  // byte-identical, and loading needs no recompression. The per-path
  // arrays (link offsets, block directory, nested flags) are derived from
  // the nodes on load, so an image does not grow with the dictionary.
  PutPodVector(dst, link_blocks_);
  PutPodVector(dst, link_words_);
}

void FrozenIndex::DeriveLinkArrays() {
  PathId max_path = 0;
  for (const NodeRec& rec : nodes_) max_path = std::max(max_path, rec.path);
  // Counting sort of serials by path: link p's entries are the serials
  // carrying p, ascending.
  link_off_.assign(static_cast<size_t>(max_path) + 2, 0);
  for (const NodeRec& rec : nodes_) ++link_off_[rec.path + 1];
  for (size_t i = 1; i < link_off_.size(); ++i) {
    link_off_[i] += link_off_[i - 1];
  }
  // A running max subtree end per path detects nested occurrences
  // (identical sibling nodes, Eq. 5) in one ascending pass.
  nested_.assign(static_cast<size_t>(max_path) + 1, 0);
  std::vector<uint32_t> max_end(static_cast<size_t>(max_path) + 1, 0);
  std::vector<uint8_t> seen(static_cast<size_t>(max_path) + 1, 0);
  for (uint32_t serial = 0; serial < static_cast<uint32_t>(nodes_.size());
       ++serial) {
    const PathId p = nodes_[serial].path;
    if (seen[p] && serial <= max_end[p]) nested_[p] = 1;
    max_end[p] = std::max(seen[p] ? max_end[p] : 0u, nodes_[serial].end);
    seen[p] = 1;
  }
}

StatusOr<FrozenIndex> FrozenIndex::DecodeFrom(Decoder* in,
                                              size_t path_limit) {
  FrozenIndex out;
  XSEQ_RETURN_IF_ERROR(in->GetPodVector(&out.nodes_));
  XSEQ_RETURN_IF_ERROR(in->GetPodVector(&out.node_docs_off_));
  XSEQ_RETURN_IF_ERROR(in->GetPodVector(&out.docs_));
  // Paths and ranges must be in bounds before the per-path arrays are
  // sized from them (Validate runs later and assumes in-bounds access).
  for (const NodeRec& rec : out.nodes_) {
    if (rec.path == kEpsilonPath || rec.path >= path_limit) {
      return Status::Corruption("index references unknown paths");
    }
    if (rec.end >= out.nodes_.size()) {
      return Status::Corruption("node range out of bounds");
    }
  }
  out.DeriveLinkArrays();
  XSEQ_RETURN_IF_ERROR(in->GetPodVector(&out.link_blocks_));
  XSEQ_RETURN_IF_ERROR(in->GetPodVector(&out.link_words_));
  // Rebuild the per-path block directory from link_off_ and verify the
  // headers are structurally safe (entry counts within the scratch, widths
  // within the reader, word offsets exactly cumulative) BEFORE anything
  // decodes a block. Content checks live in Validate().
  out.link_block_off_.assign(out.link_off_.size(), 0);
  uint64_t block_cursor = 0;
  for (size_t p = 0; p + 1 < out.link_off_.size(); ++p) {
    out.link_block_off_[p] = static_cast<uint32_t>(block_cursor);
    const uint32_t size = out.link_off_[p + 1] - out.link_off_[p];
    block_cursor += (size + kLinkBlockSize - 1) / kLinkBlockSize;
  }
  if (!out.link_block_off_.empty()) {
    out.link_block_off_.back() = static_cast<uint32_t>(block_cursor);
  }
  if (block_cursor != out.link_blocks_.size()) {
    return Status::Corruption("link block count disagrees with offsets");
  }
  uint64_t word_cursor = 0;
  for (const LinkBlockHeader& h : out.link_blocks_) {
    if (LinkBlockCount(h) > kLinkBlockSize) {
      return Status::Corruption("link block entry count out of range");
    }
    if (h.delta_bits > 32 || h.end_bits > 32 || h.cover_bits > 32) {
      return Status::Corruption("link block bit width out of range");
    }
    if (h.word_off != word_cursor) {
      return Status::Corruption("link block word offset wrong");
    }
    word_cursor += LinkBlockWords(h);
  }
  if (word_cursor != out.link_words_.size()) {
    return Status::Corruption("link words do not cover the word array");
  }
  if (out.node_docs_off_.size() != out.nodes_.size() + 1 &&
      !(out.nodes_.empty() && out.node_docs_off_.empty())) {
    return Status::Corruption("index arrays are inconsistent");
  }
  out.plan_cache_id_ = NextPlanCacheId();
  return out;
}

void TrieBuilder::RebuildChildIndex() {
  child_index_.clear();
  child_index_.reserve(pool_.size());
  for (int32_t id = 0; id < static_cast<int32_t>(pool_.size()); ++id) {
    for (int32_t c = pool_[id].first_child; c != -1;
         c = pool_[c].next_sibling) {
      child_index_.emplace(
          (static_cast<uint64_t>(id) << 32) | pool_[c].path, c);
    }
  }
  child_index_stale_ = false;
}

int32_t TrieBuilder::FindOrAddChild(int32_t parent, PathId path) {
  uint64_t key = (static_cast<uint64_t>(parent) << 32) | path;
  auto it = child_index_.find(key);
  if (it != child_index_.end()) return it->second;
  int32_t id = static_cast<int32_t>(pool_.size());
  pool_.push_back(BuildNode{path, -1, -1, {}, -1});
  BuildNode& p = pool_[parent];
  if (p.last_child == -1) {
    p.first_child = id;
  } else {
    pool_[p.last_child].next_sibling = id;
  }
  p.last_child = id;
  child_index_.emplace(key, id);
  return id;
}

Status TrieBuilder::Insert(const Sequence& seq, DocId doc) {
  if (seq.empty()) {
    return Status::InvalidArgument("cannot index an empty sequence");
  }
  if (child_index_stale_) RebuildChildIndex();
  int32_t cur = 0;
  for (PathId p : seq) {
    if (p == kInvalidPath || p == kEpsilonPath) {
      return Status::InvalidArgument("sequence contains an invalid path id");
    }
    cur = FindOrAddChild(cur, p);
  }
  pool_[cur].docs.push_back(doc);
  return Status::OK();
}

Status TrieBuilder::BulkLoad(std::vector<std::pair<Sequence, DocId>>* input) {
  if (pool_.size() > 1) {
    return Status::FailedPrecondition(
        "BulkLoad() needs an empty trie; use Insert() to add to a built one");
  }
  std::sort(input->begin(), input->end(),
            [](const std::pair<Sequence, DocId>& a,
               const std::pair<Sequence, DocId>& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;
            });
  std::vector<int32_t> stack;  // node ids along the previous sequence
  const Sequence* prev = nullptr;
  for (const auto& [seq, doc] : *input) {
    if (seq.empty()) {
      return Status::InvalidArgument("cannot index an empty sequence");
    }
    size_t lcp = 0;
    if (prev != nullptr) {
      size_t n = std::min(prev->size(), seq.size());
      while (lcp < n && (*prev)[lcp] == seq[lcp]) ++lcp;
    }
    stack.resize(lcp);
    for (size_t i = lcp; i < seq.size(); ++i) {
      PathId p = seq[i];
      if (p == kInvalidPath || p == kEpsilonPath) {
        return Status::InvalidArgument(
            "sequence contains an invalid path id");
      }
      int32_t parent = stack.empty() ? 0 : stack.back();
      // In sorted order a reusable child is always covered by the LCP with
      // the previous sequence, so a fresh node is always correct here — no
      // hash probing needed.
      int32_t id = static_cast<int32_t>(pool_.size());
      pool_.push_back(BuildNode{p, -1, -1, {}, -1});
      BuildNode& par = pool_[parent];
      if (par.last_child == -1) {
        par.first_child = id;
      } else {
        pool_[par.last_child].next_sibling = id;
      }
      par.last_child = id;
      stack.push_back(id);
    }
    pool_[stack.back()].docs.push_back(doc);
    prev = &seq;
  }
  child_index_stale_ = pool_.size() > 1;
  input->clear();
  return Status::OK();
}

FrozenIndex TrieBuilder::Freeze() && {
  FrozenIndex out;
  size_t n = pool_.size() - 1;
  out.nodes_.reserve(n);
  out.node_docs_off_.reserve(n + 1);

  uint32_t doc_cursor = 0;

  // Iterative pre-order DFS. An entry with enter=true assigns the serial;
  // the matching enter=false entry patches the subtree end once all
  // descendants are numbered. Children are pushed in reverse so they pop in
  // insertion order.
  struct Work {
    int32_t node;
    uint32_t serial;  // meaningful when !enter
    bool enter;
  };
  std::vector<Work> work;

  auto push_children = [&](int32_t node) {
    size_t first = work.size();
    for (int32_t c = pool_[node].first_child; c != -1;
         c = pool_[c].next_sibling) {
      work.push_back(Work{c, 0, true});
    }
    std::reverse(work.begin() + static_cast<ptrdiff_t>(first), work.end());
  };

  push_children(0);
  while (!work.empty()) {
    Work w = work.back();
    work.pop_back();
    if (!w.enter) {
      out.nodes_[w.serial].end =
          static_cast<uint32_t>(out.nodes_.size()) - 1;
      continue;
    }
    BuildNode& bn = pool_[w.node];
    uint32_t serial = static_cast<uint32_t>(out.nodes_.size());
    out.nodes_.push_back(FrozenIndex::NodeRec{bn.path, serial});

    out.node_docs_off_.push_back(doc_cursor);
    std::sort(bn.docs.begin(), bn.docs.end());
    for (DocId d : bn.docs) {
      out.docs_.push_back(d);
      ++doc_cursor;
    }

    work.push_back(Work{w.node, serial, false});
    push_children(w.node);
  }
  out.node_docs_off_.push_back(doc_cursor);

  out.DeriveLinkArrays();
  std::vector<FrozenIndex::LinkEntry> entries(out.nodes_.size());
  {
    std::vector<uint32_t> cursor(out.link_off_.begin(),
                                 out.link_off_.end() - 1);
    for (uint32_t serial = 0;
         serial < static_cast<uint32_t>(out.nodes_.size()); ++serial) {
      const PathId p = out.nodes_[serial].path;
      entries[cursor[p]++] =
          FrozenIndex::LinkEntry{serial, out.nodes_[serial].end};
    }
  }
  out.CompressLinks(entries);
  out.plan_cache_id_ = NextPlanCacheId();

  pool_.clear();
  child_index_.clear();
  return out;
}

}  // namespace xseq
