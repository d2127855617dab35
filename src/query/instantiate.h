// Wildcard instantiation: from patterns to concrete query trees.
//
// '//' and '*' steps are resolved against the path dictionary (the set of
// root paths that actually occur in the data), the way the paper
// "instantializes '*' to symbol D". Every combination of resolutions yields
// one *concrete query tree* whose nodes all carry dictionary PathIds; the
// executor matches each concrete tree and unions the results.
//
// Sibling branches are never merged: per the paper's injective tree-pattern
// semantics, two branches — even with equal steps — must embed onto
// distinct document nodes per sibling group.

#ifndef XSEQ_SRC_QUERY_INSTANTIATE_H_
#define XSEQ_SRC_QUERY_INSTANTIATE_H_

#include <functional>
#include <vector>

#include "src/query/query_pattern.h"
#include "src/seq/path_dict.h"
#include "src/util/status.h"
#include "src/xml/name_table.h"
#include "src/xml/tree.h"

namespace xseq {

/// A fully concrete query tree: every node bound to a dictionary path.
struct ConcreteQuery {
  Document tree;
  std::vector<PathId> paths;  ///< indexed by node->index
};

/// Instantiation limits.
struct InstantiateOptions {
  /// Hard cap on emitted concrete trees; hitting it sets `truncated`.
  size_t max_instantiations = 4096;
  /// Selectivity pruning predicate (the planner wires this to "does the
  /// path occur in the target index at all"). A candidate assignment whose
  /// path fails the predicate is skipped — and the enumeration product
  /// under it never expands — counted in InstantiateResult::pruned. Must be
  /// sound: only return false for paths that cannot contribute a match.
  /// Ancestor paths of a viable path are viable by construction (every
  /// prefix of an occurring path occurs), so chains stay consistent.
  std::function<bool(PathId)> viable;
};

/// Result of instantiation.
struct InstantiateResult {
  std::vector<ConcreteQuery> queries;
  bool truncated = false;  ///< cap reached; results may be incomplete
  size_t pruned = 0;       ///< candidate assignments cut by `viable`
};

/// Enumerates the concrete query trees of `pattern` against `dict`.
/// A pattern naming an unknown element or value yields zero trees (it can
/// match nothing). Patterns with multiple top-level branches are rejected,
/// and so is a '//' step that tests a value (InvalidArgument). '//' steps
/// resolve through PathDict's element order.
StatusOr<InstantiateResult> InstantiatePattern(
    const QueryPattern& pattern, const PathDict& dict, const NameTable& names,
    const ValueEncoder& values,
    const InstantiateOptions& options = InstantiateOptions());

}  // namespace xseq

#endif  // XSEQ_SRC_QUERY_INSTANTIATE_H_
