// The xseq public facade: build a sequence index over a document collection
// and answer structured (tree-pattern) queries with document ids.
//
// Typical use:
//
//   CollectionBuilder builder;                     // g_best, exact values
//   XmlParser parser(builder.names(), builder.values());
//   for (const std::string& text : inputs) {
//     auto doc = parser.Parse(text, next_id++);
//     ...
//     builder.Add(std::move(*doc));
//   }
//   auto index = std::move(builder).Finish();
//   auto result = index->Query("/site//person/*/age[text='32']");
//
// Building is two-phase inside (Section 5: probabilities must be known
// before sequencing), so a streaming API is also provided for datasets too
// large to retain: Observe() every document, BeginIndexing(), then Index()
// every document again (re-generating or re-parsing them), then Finish().

#ifndef XSEQ_SRC_CORE_COLLECTION_INDEX_H_
#define XSEQ_SRC_CORE_COLLECTION_INDEX_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/index/matcher.h"
#include "src/index/trie.h"
#include "src/query/executor.h"
#include "src/schema/schema.h"
#include "src/seq/sequencer.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"
#include "src/vindex/value_index.h"
#include "src/xml/name_table.h"
#include "src/xml/parser.h"

namespace xseq {

/// Index construction knobs.
struct IndexOptions {
  SequencerKind sequencer = SequencerKind::kProbability;
  ValueMode value_mode = ValueMode::kExact;
  uint32_t hash_range = 1000;    ///< for ValueMode::kHashed
  bool bulk_load = true;         ///< sort sequences before insertion
  uint64_t random_seed = 42;     ///< for SequencerKind::kRandom
  bool keep_documents = false;   ///< retain Documents in the built index
};

/// One query answer.
struct QueryResult {
  std::vector<DocId> docs;  ///< sorted, deduplicated
  ExecStats stats;
};

/// What every part of one collection shares: the build options, the
/// vocabulary tables, the path dictionary, the schema, and the sequencing
/// model and sequencer built from them once every document was observed
/// (Section 5: Algorithm 2 orders by p(C|root), a collection statistic).
/// A CollectionIndex built on its own owns its catalog; the shards of a
/// static ShardedCollection hold one between them, so every shard's trie
/// is sequenced in one order and one compiled query is valid on each.
struct CollectionCatalog {
  IndexOptions options;
  std::shared_ptr<NameTable> names;
  std::shared_ptr<ValueEncoder> values;
  PathDict dict;
  Schema schema;
  std::shared_ptr<const SequencingModel> model;  ///< null until built
  std::unique_ptr<Sequencer> sequencer;          ///< null until built

  /// Builds the model and sequencer from the schema and dictionary.
  Status BuildSequencer();

  CatalogView view() const {
    return CatalogView{&dict, names.get(), values.get(), sequencer.get(),
                       &schema};
  }
};

class CollectionIndex;

/// Accumulates documents and produces a CollectionIndex, or several that
/// share one catalog (see the `parts` constructor).
class CollectionBuilder {
 public:
  explicit CollectionBuilder(IndexOptions options = IndexOptions());

  /// Builds over the caller's vocabulary tables, shared and not copied, so
  /// documents parsed against them keep their ids and the built index reads
  /// the same tables: names and values interned later are visible through
  /// it. Building never reads the tables (only BoostPath and
  /// BoostValuesUnder do). Used by DynamicIndex's segment builds.
  CollectionBuilder(IndexOptions options, std::shared_ptr<NameTable> names,
                    std::shared_ptr<ValueEncoder> values);

  /// Builds `parts` indexes over one catalog: Add(doc, part) observes every
  /// document into the shared dictionary and schema, and FinishParts()
  /// sequences each part with the one model built after the last Add.
  CollectionBuilder(IndexOptions options, size_t parts);

  /// Vocabulary tables to parse/generate documents against.
  NameTable* names() { return catalog_->names.get(); }
  ValueEncoder* values() { return catalog_->values.get(); }
  PathDict* dict() { return &catalog_->dict; }
  /// Schema under observation (for weights, declared repeatability, stats).
  Schema* schema() { return &catalog_->schema; }

  // --- Retained mode -------------------------------------------------
  /// Observes and retains `doc` for part `part`. Finish()/FinishParts()
  /// sequence the retained documents.
  Status Add(Document&& doc, size_t part = 0);

  // --- Streaming mode (one part) --------------------------------------
  /// Phase 1: records `doc`'s paths and statistics; does not retain it.
  Status Observe(const Document& doc);

  /// Sets the query weight w(C) (Eq. 6) of the element path
  /// `slash_path` ("/site/people/person/profile/age"), pulling it earlier
  /// in the sequences when > 1. Call after observing (so the path exists)
  /// and before BeginIndexing()/Finish(). Fails on unknown paths.
  Status BoostPath(std::string_view slash_path, double weight);

  /// Sets w(C) for every *value* designator observed under the element
  /// path `slash_path` (and for the element itself). The paper's Impact 2
  /// boosts value nodes like 'Johnson' — in path encoding each distinct
  /// value is its own path, so the whole class is boosted.
  Status BoostValuesUnder(std::string_view slash_path, double weight);
  /// Locks the schema and builds the sequencing model. Call after all
  /// Observe() calls and before Index().
  Status BeginIndexing();
  /// Phase 2: sequences `doc` on the calling thread and queues it for the
  /// trie; a returned error is about `doc`. Documents must be re-supplied
  /// identically (same ids) as observed.
  Status Index(const Document& doc);

  /// Builds the one index on the calling thread: sequences the retained
  /// documents, then bulk loads the trie. The builder is consumed.
  StatusOr<CollectionIndex> Finish() &&;

  /// Builds every part over the shared catalog: the model is built once,
  /// then each part is sequenced and bulk loaded on a task of `pool`, one
  /// part per task, so the parts do not depend on the pool's width. The
  /// builder is consumed.
  StatusOr<std::vector<CollectionIndex>> FinishParts(ThreadPool* pool) &&;

 private:
  /// Per-part build state: the retained or sequenced documents and their
  /// value postings.
  struct Part {
    std::vector<Document> retained;
    std::vector<std::pair<Sequence, DocId>> buffered;
    ValueIndexBuilder vindex;  ///< range-predicate postings, fed by Observe
    uint64_t observed_docs = 0;
  };

  /// Observes `doc` into the catalog and `part`'s value postings.
  Status ObserveInto(const Document& doc, Part* part);
  /// Sequences `doc` against the frozen dictionary and model and appends
  /// it to `part->buffered`.
  Status SequenceInto(const Document& doc, Part* part) const;
  /// Sequences `part`'s retained documents and freezes its trie.
  StatusOr<CollectionIndex> BuildPart(Part* part) const;

  std::shared_ptr<CollectionCatalog> catalog_;
  std::vector<Part> parts_;
  bool indexing_ = false;
};

/// An immutable, queryable index over a document collection: one part of
/// a collection (a trie and a value index) and the catalog it was
/// sequenced with.
class CollectionIndex {
 public:
  /// Builds one part of `catalog`'s collection on the calling thread from
  /// `documents` documents already sequenced with its model: `sequenced`
  /// holds their constraint sequences and `postings` their value postings.
  /// Every build ends here once its documents are sequenced; a reshard
  /// moves documents between parts this way without sequencing them again.
  static StatusOr<CollectionIndex> FromSequences(
      std::shared_ptr<const CollectionCatalog> catalog, uint64_t documents,
      std::vector<std::pair<Sequence, DocId>> sequenced,
      ValueIndexBuilder postings);

  /// Runs an XPath query (see query_pattern.h for the supported subset).
  /// `ctx`, when given, supplies reusable match scratch (see MatchContext);
  /// otherwise one is leased from the index's pool.
  StatusOr<QueryResult> Query(std::string_view xpath,
                              const ExecOptions& options = {},
                              MatchContext* ctx = nullptr) const;

  /// Runs many queries concurrently across a thread pool, one query per
  /// task, each start to finish on the thread that runs it (a query never
  /// fans out). `threads`: 0 = default pool, 1 = serial, n > 1 = a
  /// dedicated pool (see PoolFor). Results are positionally aligned with
  /// `xpaths` and identical to serial Query() calls.
  std::vector<StatusOr<QueryResult>> QueryBatch(
      const std::vector<std::string>& xpaths,
      const ExecOptions& options = {}, int threads = 0) const;

  /// Size and shape statistics. Reading them also refreshes the
  /// xseq.index.* gauges (packed/logical link bytes, ratio percent,
  /// decode-scratch bytes) when metrics are enabled.
  struct SizeStats {
    uint64_t documents = 0;
    uint64_t trie_nodes = 0;        ///< the paper's Fig. 14 metric
    uint64_t distinct_paths = 0;    ///< of the (shared) dictionary
    uint64_t sequence_elements = 0; ///< sum of sequence lengths
    uint64_t memory_bytes = 0;      ///< resident index footprint
    uint64_t packed_link_bytes = 0; ///< block-compressed link region
    uint64_t logical_link_bytes = 0; ///< same links flat (12 B/entry)
    uint64_t decode_scratch_bytes = 0; ///< one context's full block cache
    uint64_t vindex_paths = 0;         ///< element paths with value postings
    uint64_t vindex_entries = 0;       ///< total value postings
    uint64_t vindex_bytes = 0;         ///< resident value-index footprint
    /// packed / logical; 0 when the index has no links.
    double link_compression_ratio = 0.0;
    double avg_sequence_length = 0.0;
  };
  SizeStats Stats() const;

  const FrozenIndex& index() const { return index_; }
  const PathDict& dict() const { return catalog_->dict; }
  /// Vocabulary tables. A DynamicIndex segment shares its shard's, and a
  /// static shard its collection's, which may hold names and values this
  /// index never indexed.
  const NameTable& names() const { return *catalog_->names; }
  const ValueEncoder& values() const { return *catalog_->values; }
  const Sequencer& sequencer() const { return *catalog_->sequencer; }
  const Schema& schema() const { return catalog_->schema; }
  const SequencingModel& model() const { return *catalog_->model; }
  /// The catalog this index was sequenced with (shared by the shards of a
  /// static ShardedCollection).
  const std::shared_ptr<const CollectionCatalog>& catalog() const {
    return catalog_;
  }

  /// Retained documents (empty unless IndexOptions::keep_documents).
  const std::vector<Document>& documents() const { return documents_; }

  /// The options the index was built with.
  const IndexOptions& options() const { return catalog_->options; }

  /// A one-part executor over this index; calls without a MatchContext
  /// lease one from the index's pool.
  QueryExecutor executor() const {
    return QueryExecutor(catalog_->view(), part(), index_.plan_cache_id(),
                         contexts_.get());
  }
  /// This index as one part of its catalog's collection.
  IndexPart part() const { return IndexPart{&index_, &vindex_}; }

  /// Ordered value index for range predicates.
  const ValueIndex& vindex() const { return vindex_; }

 private:
  friend class CollectionBuilder;
  friend struct IndexImageCodec;  // src/core/persist.cc
  CollectionIndex() : contexts_(std::make_unique<MatchContextPool>()) {}

  std::shared_ptr<const CollectionCatalog> catalog_;
  FrozenIndex index_;
  ValueIndex vindex_;
  std::vector<Document> documents_;
  uint64_t documents_count_ = 0;
  uint64_t total_seq_elements_ = 0;
  /// Match scratch leased to queries that bring none (indirect so the
  /// index stays movable; the pool holds a mutex).
  std::unique_ptr<MatchContextPool> contexts_;
};

}  // namespace xseq

#endif  // XSEQ_SRC_CORE_COLLECTION_INDEX_H_
