// Query texts and mutations of the serving benchmark, all derived from the
// run's seed. Literals are read off generated corpus records (ages, dates,
// zip codes, person ids, countries, prices), so most texts match something.

#ifndef PERFBENCH_SRC_QUERIES_H_
#define PERFBENCH_SRC_QUERIES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/xml/symbols.h"

namespace perfbench {

struct QueryText {
  std::string xpath;
  bool wildcard = false;  ///< has a '//' or '*' step
};

/// `count` texts built from the Table-7 shapes — the '//'/'*' originals and
/// child-only rewrites, about two wildcard texts to one child-only — with
/// literals from records of a `docs`-record corpus. Nearly every text is
/// unique.
std::vector<QueryText> ParamTexts(uint64_t corpus_seed, uint64_t stream_seed,
                                  xseq::DocId docs, size_t count);

/// `count` range-predicate texts (price, age, current bid, income) whose
/// bounds keep each answer to a few percent of the matching records.
/// Cycles the four families.
std::vector<QueryText> RangeTexts(uint64_t stream_seed, size_t count);

/// One wire mutation of the read/write workload.
struct Mutation {
  bool update = false;  ///< else a delete
  xseq::DocId id = 0;
  int version = 0;      ///< update: index into the replacement XML list
};

/// `count` mutations over ids [0, docs): half updates, half deletes.
/// Replacement records (as XML text) are appended to `xml`.
std::vector<Mutation> MakeMutations(uint64_t corpus_seed, xseq::DocId docs,
                                    size_t count,
                                    std::vector<std::string>* xml);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_QUERIES_H_
