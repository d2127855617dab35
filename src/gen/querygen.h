// Random query workloads (Fig. 16 experiments).
//
// Queries are sampled as connected sub-patterns of actual documents, so a
// controlled fraction of them have answers. A sample of `length` nodes keeps
// the document's branching (tree patterns, not just paths) and includes
// attribute values when value nodes are drawn.

#ifndef XSEQ_SRC_GEN_QUERYGEN_H_
#define XSEQ_SRC_GEN_QUERYGEN_H_

#include <string>
#include <vector>

#include "src/gen/xmark.h"
#include "src/query/query_pattern.h"
#include "src/util/rng.h"
#include "src/xml/name_table.h"
#include "src/xml/tree.h"

namespace xseq {

/// Samples a connected sub-pattern of `doc` with up to `length` nodes
/// (fewer when the document is smaller). All edges use the child axis.
/// `value_bias` is the probability of preferring a value leaf when one is
/// available in the frontier — higher bias produces more selective queries
/// (attribute-value predicates), like the paper's workloads.
QueryPattern SampleQueryPattern(const Document& doc, const NameTable& names,
                                size_t length, Rng* rng,
                                double value_bias = 0.0);

/// Table-7 Q1-shaped XPath texts narrowed to one mail of one item record,
/// with every literal read off the record:
///   /site//item[location='C']/mail[from='F']/date[text='D']
/// and, alternately, the child-only form through the record's region. Item
/// records among ids [0, docs) of `gen` (whose tags `names` interned) are
/// drawn with `rng` until `count` texts exist; each text has an answer.
std::vector<std::string> XMarkQ1Texts(const XMarkGenerator& gen,
                                      const NameTable& names, DocId docs,
                                      size_t count, Rng* rng);

}  // namespace xseq

#endif  // XSEQ_SRC_GEN_QUERYGEN_H_
