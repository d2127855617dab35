// Comparison-predicate rewrite: pattern skeletons, value-index candidate
// sets, and the brute-force document check they must agree with.
//
// A comparison predicate is a *document-level* filter layered over the
// structural match (DESIGN.md §2k): a document answers
// `/a//b[price < 30]` when
//
//   (1) the skeleton `/a//b[price]` embeds into it (the existing exact
//       engine, untouched), and
//   (2) some value node whose root-to-parent element chain matches
//       /a//b/price satisfies `< 30`.
//
// (2) is answered two ways that must be bit-identical: by enumerating the
// dictionary paths matching the chain and probing the ValueIndex (frozen
// segments), or by walking the document tree directly (unsealed documents
// and the differential oracle). Both reduce to ValueSatisfies().

#ifndef XSEQ_SRC_VINDEX_COMPARE_H_
#define XSEQ_SRC_VINDEX_COMPARE_H_

#include <string>
#include <vector>

#include "src/query/query_pattern.h"
#include "src/seq/path_dict.h"
#include "src/util/status.h"
#include "src/vindex/value_index.h"
#include "src/xml/name_table.h"
#include "src/xml/tree.h"

namespace xseq {

/// One comparison predicate lifted out of a pattern: the root-to-host
/// element chain plus the operator and typed literal.
struct ValueComparison {
  struct Step {
    bool descendant = false;  ///< '//' edge into this step
    bool wildcard = false;
    std::string name;  ///< for non-wildcard steps
  };
  std::vector<Step> steps;  ///< root element down to the host element
  CompareOp op = CompareOp::kLt;
  TypedValue literal;
};

/// True when the pattern holds at least one kValueCompare node. Patterns
/// without comparisons take the existing execution path, bit for bit.
bool HasComparisons(const QueryPattern& pattern);

/// Deep-copies `pattern` minus its kValueCompare nodes (host elements
/// stay), appending one ValueComparison per removed node to `out`.
QueryPattern StripComparisons(const QueryPattern& pattern,
                              std::vector<ValueComparison>* out);

/// True when some comparison's root-to-host chain IS the whole skeleton: the
/// skeleton is one linear chain of element steps and cmp.steps mirrors it
/// node for node (axis, wildcard, name). A CandidateDocs posting exists only
/// because its document realizes that root-to-host chain, so for such
/// patterns candidacy already implies the structural match and the executor
/// may return the intersected candidate set without a structural scan —
/// bit-identical to scanning, in every match mode, since candidates are
/// true matches and sound matchers never drop a true match.
bool ComparisonImpliesSkeleton(const QueryPattern& skeleton,
                               const std::vector<ValueComparison>& cmps);

/// The host paths of `cmp` in `dict`: every element path whose root chain
/// matches cmp.steps, ascending and distinct. Empty when a named step is
/// unknown to `names`.
std::vector<PathId> ComparisonHosts(const PathDict& dict,
                                    const NameTable& names,
                                    const ValueComparison& cmp);

/// Sorted, de-duplicated ids of every doc with a value satisfying `cmp`:
/// the union of ValueIndex::Collect over ComparisonHosts(). `probes` counts
/// paths probed, `candidates` the postings touched (both may be null).
std::vector<DocId> CandidateDocs(const ValueIndex& vindex,
                                 const PathDict& dict,
                                 const NameTable& names,
                                 const ValueComparison& cmp,
                                 uint64_t* probes, uint64_t* candidates);

/// Brute-force (2): does `doc` hold a value node satisfying `cmp` under an
/// element whose root chain matches cmp.steps?
bool DocMatchesComparison(const Document& doc, const NameTable& names,
                          const ValueComparison& cmp);

/// Applies every comparison: true when DocMatchesComparison holds for all.
bool DocMatchesComparisons(const Document& doc, const NameTable& names,
                           const std::vector<ValueComparison>& cmps);

}  // namespace xseq

#endif  // XSEQ_SRC_VINDEX_COMPARE_H_
