// Index persistence: save a built CollectionIndex to a single binary file,
// or a static sharded collection to a manifest plus one part per shard,
// and load them back, ready to answer queries.
//
// Three file kinds share one container (all little-endian):
//   magic + format version byte
//   framed sections, in a fixed order per kind
//     each frame: payload length (fixed64), FNV-1a64 of the payload
//     (fixed64), then the payload bytes
//   footer  — FNV-1a64 over everything between the version byte and the
//             footer (so frame headers are covered too)
//
//   index file  "XSEQIDX"  header, names, values, dict, schema, index,
//                          vindex — one catalog and its one part
//   manifest    "XSEQSHRD" header, names, values, dict, schema — the
//                          catalog every shard of a collection shares, with
//                          the shard count and total document count
//   part        "XSEQPART" header, index, vindex — one shard's trie, links,
//                          doc lists and value index; its header records
//                          the manifest's identity (the manifest footer) and
//                          its document count
//
// The catalog sections are the same bytes in an index file and a
// manifest, and the part sections the same as an index file's, so one
// decoder reads each section wherever it sits.
//
// Per-section checksums let a failed load name the section that is damaged;
// every frame length is validated against the remaining input before any
// allocation, so an adversarial header cannot force a huge allocation.
//
// Durability: SaveCollectionIndex writes `<path>.tmp`, fsyncs it, atomically
// renames it over `path`, and fsyncs the directory. A crash or I/O error at
// any point leaves the previous index at `path` intact; the temp file is
// removed on failure. All filesystem access goes through an Env, so tests
// inject faults deterministically (src/util/env.h). Transient failures
// (kIOError) are retried with exponential backoff, bounded by
// PersistOptions::max_attempts; corruption is never retried.
//
// Retained documents are NOT persisted: a loaded index answers queries but
// has an empty documents() (baselines needing raw documents must rebuild
// from the source).

#ifndef XSEQ_SRC_CORE_PERSIST_H_
#define XSEQ_SRC_CORE_PERSIST_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/collection_index.h"
#include "src/util/env.h"

namespace xseq {

/// The one index-file version this build reads and writes: the layout
/// above, with the horizontal links block-compressed
/// (src/index/link_codec.h) in "index" and the ordered value index
/// (src/vindex/value_index.h) in "vindex". Older images are refused with
/// kInvalidArgument asking for a rebuild; a newer one is kUnimplemented.
inline constexpr uint8_t kIndexFormatVersion = 5;

/// The one manifest and part version this build reads and writes, with
/// the same refusal rules.
inline constexpr uint8_t kShardedFormatVersion = 2;

/// Environment and retry policy for on-disk save/load.
struct PersistOptions {
  /// Filesystem to use; nullptr means Env::Default().
  Env* env = nullptr;
  /// Total tries for transient (kIOError) failures; >= 1.
  int max_attempts = 3;
  /// First retry backoff, doubled per subsequent retry. Sleeps go through
  /// Env::SleepForMicroseconds, so test Envs can make them free.
  uint64_t backoff_micros = 1000;
};

/// Serializes `index` into a byte buffer.
std::string EncodeCollectionIndex(const CollectionIndex& index);

/// Reconstructs an index from EncodeCollectionIndex output. Verifies the
/// magic, version, per-section checksums, and footer; validates
/// cross-structure invariants; errors name the failing section.
StatusOr<CollectionIndex> DecodeCollectionIndex(std::string_view data);

/// A decoded sharded-collection manifest.
struct ShardedManifest {
  uint32_t shard_count = 0;
  uint64_t total_documents = 0;
  /// Identity every part of this save records: the manifest's footer
  /// checksum, which covers every shared section.
  uint64_t catalog_id = 0;
  /// The shared catalog; null unless decoded with `with_catalog`.
  std::shared_ptr<const CollectionCatalog> catalog;
};

/// Encodes the manifest of a collection whose `shard_count` parts share
/// `catalog` and hold `total_documents` between them; `*catalog_id`
/// receives the identity its parts must record.
std::string EncodeShardedManifest(const CollectionCatalog& catalog,
                                  uint32_t shard_count,
                                  uint64_t total_documents,
                                  uint64_t* catalog_id);

/// Verifies a manifest (magic, version, checksums, plausible shard count)
/// and reads its counts and identity; with `with_catalog` it also decodes
/// the shared sections into a catalog ready to sequence and compile.
StatusOr<ShardedManifest> DecodeShardedManifest(std::string_view data,
                                                bool with_catalog);

/// Encodes one shard's part, bound to the manifest identity `catalog_id`.
std::string EncodeIndexPart(const CollectionIndex& part, uint64_t catalog_id);

/// Decodes a part against `manifest` (decoded with its catalog). A part
/// recording another manifest's identity is refused before any section
/// is decoded against the wrong dictionary.
StatusOr<CollectionIndex> DecodeIndexPart(std::string_view data,
                                          const ShardedManifest& manifest);

/// Writes `index` to `path` crash-safely (temp file + fsync + rename).
/// On failure the previous contents of `path`, if any, are untouched.
Status SaveCollectionIndex(const CollectionIndex& index,
                           const std::string& path,
                           const PersistOptions& options = {});

/// Reads an index previously written by SaveCollectionIndex.
StatusOr<CollectionIndex> LoadCollectionIndex(
    const std::string& path, const PersistOptions& options = {});

/// Reads `path` whole through `options.env`, retrying transient errors
/// like the loaders do.
Status ReadImageFile(const std::string& path, const PersistOptions& options,
                     std::string* data);

/// Writes `data` to `path` crash-safely, retrying transient errors.
Status WriteImageFile(const std::string& path, const std::string& data,
                      const PersistOptions& options);

/// One framed section as seen by InspectEncodedIndex.
struct IndexSectionInfo {
  std::string name;      ///< "header", "names", "values", ...
  uint64_t offset = 0;   ///< payload offset within the file
  uint64_t length = 0;   ///< payload length in bytes
  bool checksum_ok = false;
};

/// Integrity report over an encoded index file, manifest or part (see
/// `xseq_tool verify`).
struct IndexFileReport {
  /// "index", "manifest" or "part", from the magic ("index" when the
  /// magic is unrecognized).
  std::string kind = "index";
  bool magic_ok = false;
  uint32_t version = 0;
  bool version_supported = false;
  std::vector<IndexSectionInfo> sections;
  bool footer_ok = false;
  uint64_t trailing_bytes = 0;
  /// In-memory bytes of the derived structures DecodeFrom materializes
  /// beyond the stored "index" payload (the per-path block directory); 0
  /// when that section is damaged.
  uint64_t index_derived_bytes = 0;
  /// Bytes of the stored packed link region (block headers + payload
  /// words).
  uint64_t index_packed_link_bytes = 0;
  /// Bytes the same links would occupy flat (12 per entry: fused
  /// serial+end pair plus cover word) — the uncompressed baseline the
  /// packed bytes are measured against.
  uint64_t index_logical_link_bytes = 0;
  /// Value-index shape skimmed from the vindex section's path directory
  /// (all zero/empty when that section is damaged).
  /// `vindex_path_counts` pairs each dictionary path id with its posting
  /// count, in stored (ascending-path) order.
  uint64_t vindex_paths = 0;
  uint64_t vindex_entries = 0;
  std::vector<std::pair<uint32_t, uint64_t>> vindex_path_counts;
  /// Read from a healthy header: documents held (a manifest's total) and
  /// the manifest identity (a part's recorded one, a manifest's own footer
  /// checksum).
  uint64_t documents = 0;
  uint64_t catalog_id = 0;
  /// OK iff every check above passed; otherwise the first failure,
  /// matching what the decoder of that file kind would report.
  Status status;
};

/// Walks the file structure without building an index: cheap integrity
/// checking and attribution. Never allocates proportionally to claimed
/// (possibly adversarial) lengths.
IndexFileReport InspectEncodedIndex(std::string_view data);

}  // namespace xseq

#endif  // XSEQ_SRC_CORE_PERSIST_H_
