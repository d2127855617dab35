// Ordered value index: the range-predicate complement to the structural
// sequence index.
//
// The sequence index answers structure + exact-value queries holistically,
// but a range predicate like [price < 30] has no designator to match: it
// needs the *ordering* of the values, which hashing and interning both
// discard. The ValueIndex keeps, per root-to-leaf *element* path, the raw
// text of every value observed under that path, typed and sorted:
//
//   - a value is numeric iff strtod consumes its whole trimmed text and
//     the result is finite ("30", " 4.5 ", "1e3"); everything else is a
//     string;
//   - numbers order before strings; numbers by value, strings
//     lexicographically by raw bytes; ties by raw text, then doc id.
//
// A comparison literal follows the same typing: a numeric literal is
// answered by a binary search over the numeric prefix of the path's entry
// span, a string literal over the string suffix, and `!=` is raw-text
// inequality over the whole span. Because entries store raw text (not the
// ValueEncoder's designators), lookups are exact in all three value modes —
// hashed designators may collide, the value index never does.
//
// Built at Freeze/Seal time from the original (pre-chain-expansion)
// documents; persisted as its own checksummed "vindex" section of the
// index image (src/core/persist.h).

#ifndef XSEQ_SRC_VINDEX_VALUE_INDEX_H_
#define XSEQ_SRC_VINDEX_VALUE_INDEX_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/query/query_pattern.h"
#include "src/seq/path_dict.h"
#include "src/util/coding.h"
#include "src/util/status.h"
#include "src/xml/symbols.h"

namespace xseq {

/// Parses `text` as a number iff strtod consumes the whole
/// whitespace-trimmed string and the result is finite.
bool ParseWholeNumber(std::string_view text, double* out);

/// A comparison literal, typed once so every probe agrees on its class.
struct TypedValue {
  std::string text;
  double num = 0.0;
  bool numeric = false;

  static TypedValue Of(std::string_view text);
};

/// True when value text `text` satisfies (text `op` literal) under the
/// typed ordering rules above. This is the definition; the ValueIndex's
/// binary searches and the brute-force oracle must both agree with it.
bool ValueSatisfies(std::string_view text, CompareOp op,
                    const TypedValue& literal);

/// Immutable per-path sorted value postings.
class ValueIndex {
 public:
  struct Entry {
    std::string text;
    double num = 0.0;  ///< valid when `numeric`
    DocId doc = 0;
    bool numeric = false;
  };

  ValueIndex() = default;

  /// Appends (unsorted, possibly duplicated) every doc id whose entry under
  /// `path` satisfies (value `op` literal). No-op for unknown paths.
  void Collect(PathId path, CompareOp op, const TypedValue& literal,
               std::vector<DocId>* out) const;

  size_t path_count() const { return paths_.size(); }
  uint64_t entry_count() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Indexed paths in ascending PathId order.
  const std::vector<PathId>& paths() const { return paths_; }
  /// Number of entries under paths()[i].
  uint64_t EntryCountAt(size_t i) const {
    return offsets_[i + 1] - offsets_[i];
  }

  uint64_t MemoryBytes() const;

  void EncodeTo(std::string* out) const;
  static StatusOr<ValueIndex> DecodeFrom(Decoder* in);

  /// Cross-checks the invariants (paths ascending, entries sorted within
  /// each path, numeric flags consistent with the text).
  Status Validate() const;

 private:
  friend class ValueIndexBuilder;

  /// Entries of paths_[i] are entries_[offsets_[i], offsets_[i+1]).
  std::vector<PathId> paths_;
  std::vector<uint32_t> offsets_;  ///< size paths_.size() + 1 (or empty)
  std::vector<Entry> entries_;
};

/// Accumulates (parent element path, value text, doc) triples during
/// Observe and sorts them into a ValueIndex at Finish.
class ValueIndexBuilder {
 public:
  void Add(PathId parent, std::string_view text, DocId doc);
  ValueIndex Build() &&;

 private:
  struct Raw {
    PathId path;
    ValueIndex::Entry entry;
  };
  std::vector<Raw> raw_;
};

}  // namespace xseq

#endif  // XSEQ_SRC_VINDEX_VALUE_INDEX_H_
