// Path dictionary: interning of root paths.
//
// The paper encodes each tree node by the path leading from the root to it
// ("P", "PR", "PRL", "PRLv1", ...). The dictionary is a trie over path
// steps (Syms); every distinct root path observed anywhere in a collection
// gets a dense PathId. Sequences, the index tree, path links and the schema
// all speak PathIds, making node encodings O(1) to compare and hash.
//
// Descendant steps ('//') are answered from a derived *element order*: a
// pre-order numbering of the element paths (children in ascending id),
// the subtree end of each rank, and per-name postings in rank order. The
// element paths strictly below P are then one rank interval, and those
// named N are a binary-searched slice of N's postings. The order is built
// in O(size()) on the first descendant lookup, dropped by Intern(), and
// never persisted.

#ifndef XSEQ_SRC_SEQ_PATH_DICT_H_
#define XSEQ_SRC_SEQ_PATH_DICT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/util/coding.h"
#include "src/xml/name_table.h"
#include "src/xml/symbols.h"
#include "src/xml/tree.h"

namespace xseq {

/// Dense id of an interned root path.
using PathId = uint32_t;

/// The empty path ε (virtual parent of every document root).
inline constexpr PathId kEpsilonPath = 0;

/// Sentinel for "no such path".
inline constexpr PathId kInvalidPath = 0xFFFFFFFFu;

/// Trie of root paths with dense ids.
class PathDict {
 public:
  PathDict() {
    // Entry 0 is ε.
    entries_.push_back(Entry{kInvalidPath, Sym(), 0, kInvalidPath,
                             kInvalidPath});
  }

  /// Returns the id for `parent`'s extension by `sym`, interning on first
  /// sight.
  PathId Intern(PathId parent, Sym sym) {
    uint64_t key = Key(parent, sym);
    auto it = index_.find(key);
    if (it != index_.end()) return it->second;
    PathId id = static_cast<PathId>(entries_.size());
    entries_.push_back(Entry{parent, sym, entries_[parent].depth + 1,
                             kInvalidPath, entries_[parent].first_child});
    entries_[parent].first_child = id;
    index_.emplace(key, id);
    order_.Reset();
    return id;
  }

  /// Returns the existing id, or kInvalidPath when never interned.
  PathId Find(PathId parent, Sym sym) const {
    auto it = index_.find(Key(parent, sym));
    return it == index_.end() ? kInvalidPath : it->second;
  }

  PathId parent(PathId p) const { return entries_[p].parent; }
  Sym sym(PathId p) const { return entries_[p].sym; }
  uint32_t depth(PathId p) const { return entries_[p].depth; }

  /// First interned extension of `p` (iteration order: most recent first).
  PathId FirstChild(PathId p) const { return entries_[p].first_child; }
  /// Next sibling in the child list of parent(p).
  PathId NextSibling(PathId p) const { return entries_[p].next_sibling; }

  /// True iff `a` is a (non-strict) prefix of `b`.
  bool IsPrefixOf(PathId a, PathId b) const {
    while (b != kInvalidPath) {
      if (a == b) return true;
      b = entries_[b].parent;
    }
    return false;
  }

  /// Number of interned paths, including ε.
  size_t size() const { return entries_.size(); }

  /// Element paths strictly below `p` whose last step is the name `name`,
  /// in pre-order with children in ascending id. An element path is one
  /// whose every step is a name; value paths and `p` itself are never
  /// returned, and a value path `p` has none. Builds the element order on
  /// first use; safe to call from several threads at once. The span stays
  /// valid until the next Intern().
  std::span<const PathId> DescendantsNamed(PathId p, NameId name) const;

  /// Every element path strictly below `p`, in the same order and with the
  /// same lifetime as DescendantsNamed.
  std::span<const PathId> DescendantElements(PathId p) const;

  /// Steps of `p` from the root downwards (excluding ε).
  std::vector<Sym> Steps(PathId p) const;

  /// Human-readable rendering, e.g. "/Project/Research/Loc=v3".
  std::string ToString(PathId p, const NameTable& names) const;

  /// Appends a binary encoding (parent, sym) per interned path, in id
  /// order, so decoding re-interns them with identical ids.
  void EncodeTo(std::string* dst) const;
  /// Decodes a dictionary previously written by EncodeTo.
  static StatusOr<PathDict> DecodeFrom(Decoder* in);

  /// Resolves a slash-separated element path ("/Project/Research/Loc" or
  /// "Project/Research/Loc") to its PathId, or kInvalidPath when any step
  /// is unknown. Element steps only (no values, no wildcards).
  PathId Resolve(std::string_view slash_path, const NameTable& names) const;

 private:
  struct Entry {
    PathId parent;
    Sym sym;
    uint32_t depth;
    PathId first_child;
    PathId next_sibling;
  };

  /// The element order (see the file comment). Ranks count from ε = 0.
  struct ElementOrder {
    static constexpr uint32_t kNoRank = 0xFFFFFFFFu;
    std::vector<uint32_t> rank;  ///< by PathId; kNoRank off the element tree
    std::vector<uint32_t> end;   ///< by rank: one past its subtree's last rank
    std::vector<PathId> path;    ///< by rank
    std::vector<std::vector<PathId>> by_name;  ///< by NameId, in rank order
  };

  /// Holds the element order once built. Get() builds it under `mu_`, so
  /// concurrent const readers are safe; Reset() runs only inside Intern(),
  /// which excludes readers. Copies start empty, keeping PathDict copyable
  /// and movable.
  class OrderCache {
   public:
    OrderCache() = default;
    OrderCache(const OrderCache&) {}
    OrderCache& operator=(const OrderCache&) {
      Reset();
      return *this;
    }
    const ElementOrder& Get(const PathDict& dict);
    void Reset() { owned_.reset(); }

   private:
    std::mutex mu_;
    std::unique_ptr<const ElementOrder> owned_;  // built under mu_
  };

  static uint64_t Key(PathId parent, Sym sym) {
    return (static_cast<uint64_t>(parent) << 32) | sym.raw();
  }

  std::unique_ptr<const ElementOrder> BuildElementOrder() const;

  std::vector<Entry> entries_;
  std::unordered_map<uint64_t, PathId> index_;
  mutable OrderCache order_;
};

/// Computes the PathId of every node of `doc`, indexed by node->index,
/// interning new paths into `dict`.
std::vector<PathId> BindPaths(const Document& doc, PathDict* dict);

/// As BindPaths but read-only: nodes whose path was never interned get
/// kInvalidPath.
std::vector<PathId> FindPaths(const Document& doc, const PathDict& dict);

}  // namespace xseq

#endif  // XSEQ_SRC_SEQ_PATH_DICT_H_
