#include "src/core/persist.h"

#include <algorithm>
#include <cstring>

#include "src/util/coding.h"
#include "src/util/hash.h"

namespace xseq {

namespace {

/// One file kind of the framed container (see persist.h).
struct FramedLayout {
  std::string_view kind;
  std::string_view magic;
  uint8_t version;
  /// Oldest version a build ever wrote with this magic: versions from it
  /// up to `version` - 1 ask for a rebuild; lower ones are corruption.
  uint8_t first_version;
  const char* const* sections;
  size_t section_count;
};

constexpr const char* kIndexSections[] = {"header", "names",  "values",
                                          "dict",   "schema", "index",
                                          "vindex"};
constexpr const char* kManifestSections[] = {"header", "names", "values",
                                             "dict", "schema"};
constexpr const char* kPartSections[] = {"header", "index", "vindex"};

// Index version 1 was the unframed "XSEQIDX1" layout; version 2 introduced
// the version byte. Manifest version 1 was an unframed 29-byte record.
constexpr FramedLayout kIndexLayout{"index", "XSEQIDX", kIndexFormatVersion,
                                    2, kIndexSections, 7};
constexpr FramedLayout kManifestLayout{
    "manifest", "XSEQSHRD", kShardedFormatVersion, 1, kManifestSections, 5};
constexpr FramedLayout kPartLayout{"part", "XSEQPART", kShardedFormatVersion,
                                   kShardedFormatVersion, kPartSections, 3};

// The trailing '1' of the legacy "XSEQIDX1" magic sits where the version
// byte now lives, so legacy index files are recognized exactly.
constexpr uint8_t kLegacyVersionByte = '1';
constexpr size_t kFooterBytes = 8;
constexpr uint32_t kMaxShards = 4096;

/// Re-labels a section decode failure with the section that produced it,
/// preserving the status code. The default arm is deliberate: any code a
/// section decoder can produce other than the two kept below (including
/// ones added later) means the stored bytes failed validation, which is
/// kCorruption by definition.
Status AnnotateSection(const char* section, const Status& st) {
  std::string msg = "section '";
  msg += section;
  msg += "': ";
  msg += st.message();
  switch (st.code()) {
    case StatusCode::kUnimplemented:
      return Status::Unimplemented(std::move(msg));
    case StatusCode::kIOError:
      return Status::IOError(std::move(msg));
    default:
      return Status::Corruption(std::move(msg));
  }
}

/// Validates magic and version. On success, `*body` is the framed-section
/// region (between the version byte and the footer), and `*footer` the
/// trailing checksum bytes.
Status CheckHeaderAndSplit(std::string_view data, const FramedLayout& layout,
                           std::string_view* body, std::string_view* footer) {
  const size_t header_bytes = layout.magic.size() + 1;
  if (data.size() < header_bytes ||
      data.substr(0, layout.magic.size()) != layout.magic) {
    return Status::Corruption("not an xseq " + std::string(layout.kind) +
                              " file (bad magic)");
  }
  const std::string what = std::string(layout.kind) + " format version ";
  const uint8_t v = static_cast<uint8_t>(data[layout.magic.size()]);
  if (layout.kind == kIndexLayout.kind && v == kLegacyVersionByte) {
    return Status::InvalidArgument(
        "legacy unversioned xseq index (magic \"XSEQIDX1\"); this format "
        "predates section framing — rebuild the index with this version");
  }
  if (v > layout.version) {
    return Status::Unimplemented(
        what + std::to_string(v) + " is newer than this build supports (max " +
        std::to_string(layout.version) + ")");
  }
  if (v < layout.first_version) {
    return Status::Corruption("unsupported " + what + std::to_string(v));
  }
  if (v < layout.version) {
    return Status::InvalidArgument(
        what + std::to_string(v) + " predates this build's format (version " +
        std::to_string(layout.version) + ") — rebuild the index with this "
        "version");
  }
  if (data.size() < header_bytes + kFooterBytes) {
    return Status::Corruption(std::string(layout.kind) +
                              " file truncated (no footer)");
  }
  *body = data.substr(header_bytes, data.size() - header_bytes - kFooterBytes);
  *footer = data.substr(data.size() - kFooterBytes);
  return Status::OK();
}

/// Reads one section frame. The length is bounded against the remaining
/// input *before* the payload is touched, so a corrupt or adversarial
/// length can never cause an allocation or out-of-bounds read.
Status ReadFrame(Decoder* in, const char* section,
                 std::string_view* payload) {
  uint64_t length = 0, checksum = 0;
  if (!in->GetFixed64(&length).ok() || !in->GetFixed64(&checksum).ok()) {
    return Status::Corruption(std::string("index file truncated in '") +
                              section + "' section frame");
  }
  if (length > in->remaining()) {
    return Status::Corruption(
        std::string("section '") + section + "' length out of bounds (claims " +
        std::to_string(length) + " bytes, " +
        std::to_string(in->remaining()) + " remain)");
  }
  XSEQ_RETURN_IF_ERROR(in->GetRaw(length, payload));
  if (Fnv1a64(*payload) != checksum) {
    return Status::Corruption(std::string("checksum mismatch in section '") +
                              section + "'");
  }
  return Status::OK();
}

/// Encodes `payloads` (one per section of `layout`, in order) into a file.
/// `*footer_sum`, when given, receives the footer checksum.
std::string EncodeFramed(const FramedLayout& layout,
                         const std::vector<std::string>& payloads,
                         uint64_t* footer_sum = nullptr) {
  std::string out(layout.magic);
  out.push_back(static_cast<char>(layout.version));
  for (const std::string& payload : payloads) {
    PutFixed64(&out, payload.size());
    PutFixed64(&out, Fnv1a64(payload));
    out += payload;
  }
  const uint64_t sum =
      Fnv1a64(std::string_view(out).substr(layout.magic.size() + 1));
  PutFixed64(&out, sum);
  if (footer_sum != nullptr) *footer_sum = sum;
  return out;
}

/// Verifies a whole file of `layout` and splits it into its section
/// payloads. `*footer_sum` receives the verified footer checksum.
Status SplitFramed(std::string_view data, const FramedLayout& layout,
                   std::vector<std::string_view>* sections,
                   uint64_t* footer_sum) {
  std::string_view body, footer_bytes;
  XSEQ_RETURN_IF_ERROR(CheckHeaderAndSplit(data, layout, &body, &footer_bytes));
  // Walk the frames first: a failure is attributed to its section.
  sections->assign(layout.section_count, std::string_view());
  Decoder in(body);
  for (size_t i = 0; i < layout.section_count; ++i) {
    XSEQ_RETURN_IF_ERROR(ReadFrame(&in, layout.sections[i], &(*sections)[i]));
  }
  if (!in.AtEnd()) {
    return Status::Corruption("trailing bytes in " + std::string(layout.kind) +
                              " file");
  }
  // Backstop over the frame headers themselves (the payloads are already
  // covered by their section checksums).
  Decoder footer(footer_bytes);
  uint64_t want = 0;
  XSEQ_RETURN_IF_ERROR(footer.GetFixed64(&want));
  if (Fnv1a64(body) != want) {
    return Status::Corruption(std::string(layout.kind) +
                              " file footer checksum mismatch");
  }
  *footer_sum = want;
  return Status::OK();
}

/// Each section decodes from its own bounded view and must consume it
/// exactly.
Status FinishSection(const char* name, const Decoder& d) {
  if (!d.AtEnd()) {
    return Status::Corruption(std::string("trailing bytes in section '") +
                              name + "'");
  }
  return Status::OK();
}

/// The catalog fields every header starts with.
void PutCatalogHeader(const IndexOptions& options, std::string* dst) {
  PutFixed32(dst, static_cast<uint32_t>(options.sequencer));
  PutFixed64(dst, options.random_seed);
  PutFixed32(dst, options.bulk_load ? 1 : 0);
}

Status GetCatalogHeader(Decoder* hdr, IndexOptions* options) {
  uint32_t sequencer_kind = 0, bulk = 0;
  XSEQ_RETURN_IF_ERROR(hdr->GetFixed32(&sequencer_kind));
  XSEQ_RETURN_IF_ERROR(hdr->GetFixed64(&options->random_seed));
  XSEQ_RETURN_IF_ERROR(hdr->GetFixed32(&bulk));
  if (sequencer_kind > static_cast<uint32_t>(SequencerKind::kProbability)) {
    return Status::Corruption("unknown sequencer kind");
  }
  options->sequencer = static_cast<SequencerKind>(sequencer_kind);
  options->bulk_load = bulk != 0;
  return Status::OK();
}

/// Encodes the names, values, dict and schema sections.
void PutCatalogSections(const CollectionCatalog& catalog,
                        std::vector<std::string>* payloads) {
  std::string section;
  catalog.names->EncodeTo(&section);
  payloads->push_back(std::move(section));
  section.clear();
  catalog.values->EncodeTo(&section);
  payloads->push_back(std::move(section));
  section.clear();
  catalog.dict.EncodeTo(&section);
  payloads->push_back(std::move(section));
  section.clear();
  catalog.schema.EncodeTo(&section);
  payloads->push_back(std::move(section));
}

/// Decodes the names, values, dict and schema sections (`sections[0..3]`)
/// into a catalog whose options carry `options`' header fields, and builds
/// its sequencer.
StatusOr<std::shared_ptr<const CollectionCatalog>> DecodeCatalogSections(
    const std::string_view* sections, const IndexOptions& options) {
  auto catalog = std::make_shared<CollectionCatalog>();
  catalog->options = options;
  {
    Decoder d(sections[0]);
    auto names = NameTable::DecodeFrom(&d);
    if (!names.ok()) return AnnotateSection("names", names.status());
    XSEQ_RETURN_IF_ERROR(FinishSection("names", d));
    catalog->names = std::make_shared<NameTable>(std::move(*names));
  }
  {
    Decoder d(sections[1]);
    auto values = ValueEncoder::DecodeFrom(&d);
    if (!values.ok()) return AnnotateSection("values", values.status());
    XSEQ_RETURN_IF_ERROR(FinishSection("values", d));
    catalog->values = std::make_shared<ValueEncoder>(std::move(*values));
    catalog->options.value_mode = catalog->values->mode();
    catalog->options.hash_range = catalog->values->hash_range();
  }
  {
    Decoder d(sections[2]);
    auto dict = PathDict::DecodeFrom(&d);
    if (!dict.ok()) return AnnotateSection("dict", dict.status());
    XSEQ_RETURN_IF_ERROR(FinishSection("dict", d));
    catalog->dict = std::move(*dict);
  }
  {
    Decoder d(sections[3]);
    auto schema = Schema::DecodeFrom(&d);
    if (!schema.ok()) return AnnotateSection("schema", schema.status());
    XSEQ_RETURN_IF_ERROR(FinishSection("schema", d));
    catalog->schema = std::move(*schema);
  }
  if (!catalog->BuildSequencer().ok()) {
    return Status::Corruption("failed to reconstruct the sequencer");
  }
  return std::shared_ptr<const CollectionCatalog>(std::move(catalog));
}

}  // namespace

/// Reads and writes the private state of a CollectionIndex.
struct IndexImageCodec {
  /// Encodes the index and vindex sections of `part`.
  static void PutPartSections(const CollectionIndex& part,
                              std::vector<std::string>* payloads) {
    std::string section;
    part.index().EncodeTo(&section);
    payloads->push_back(std::move(section));
    section.clear();
    part.vindex().EncodeTo(&section);
    payloads->push_back(std::move(section));
  }

  /// Decodes the index and vindex sections (`sections[0..1]`) against
  /// `catalog`.
  static StatusOr<CollectionIndex> DecodePart(
      const std::string_view* sections,
      std::shared_ptr<const CollectionCatalog> catalog, uint64_t documents,
      uint64_t seq_elements) {
    CollectionIndex out;
    const size_t paths = catalog->dict.size();
    {
      Decoder d(sections[0]);
      auto index = FrozenIndex::DecodeFrom(&d, paths);
      if (!index.ok()) return AnnotateSection("index", index.status());
      XSEQ_RETURN_IF_ERROR(FinishSection("index", d));
      out.index_ = std::move(*index);
    }
    {
      Decoder d(sections[1]);
      auto vindex = ValueIndex::DecodeFrom(&d);
      if (!vindex.ok()) return AnnotateSection("vindex", vindex.status());
      XSEQ_RETURN_IF_ERROR(FinishSection("vindex", d));
      Status valid = vindex->Validate();
      if (!valid.ok()) return AnnotateSection("vindex", valid);
      for (PathId p : vindex->paths()) {
        if (p >= paths) {
          return AnnotateSection(
              "vindex",
              Status::Corruption("postings reference unknown paths"));
        }
      }
      out.vindex_ = std::move(*vindex);
    }
    // The index's structural invariants must hold (defends against
    // corrupted or adversarial files whose checksums were recomputed).
    XSEQ_RETURN_IF_ERROR(out.index_.Validate());
    out.catalog_ = std::move(catalog);
    out.documents_count_ = documents;
    out.total_seq_elements_ = seq_elements;
    return out;
  }
};

std::string EncodeCollectionIndex(const CollectionIndex& index) {
  std::vector<std::string> payloads;
  const CollectionIndex::SizeStats stats = index.Stats();
  std::string header;
  PutCatalogHeader(index.options(), &header);
  PutFixed64(&header, stats.documents);
  PutFixed64(&header, stats.sequence_elements);
  payloads.push_back(std::move(header));
  PutCatalogSections(*index.catalog(), &payloads);
  IndexImageCodec::PutPartSections(index, &payloads);
  return EncodeFramed(kIndexLayout, payloads);
}

StatusOr<CollectionIndex> DecodeCollectionIndex(std::string_view data) {
  std::vector<std::string_view> sections;
  uint64_t footer_sum = 0;
  XSEQ_RETURN_IF_ERROR(SplitFramed(data, kIndexLayout, &sections, &footer_sum));
  IndexOptions options;
  uint64_t docs = 0, seq_elements = 0;
  {
    Decoder hdr(sections[0]);
    Status st = GetCatalogHeader(&hdr, &options);
    if (st.ok()) st = hdr.GetFixed64(&docs);
    if (st.ok()) st = hdr.GetFixed64(&seq_elements);
    if (st.ok() && !hdr.AtEnd()) st = Status::Corruption("trailing bytes");
    if (!st.ok()) return AnnotateSection("header", st);
  }
  auto catalog = DecodeCatalogSections(&sections[1], options);
  if (!catalog.ok()) return catalog.status();
  return IndexImageCodec::DecodePart(&sections[5], std::move(*catalog), docs,
                                     seq_elements);
}

std::string EncodeShardedManifest(const CollectionCatalog& catalog,
                                  uint32_t shard_count,
                                  uint64_t total_documents,
                                  uint64_t* catalog_id) {
  std::vector<std::string> payloads;
  std::string header;
  PutCatalogHeader(catalog.options, &header);
  PutFixed32(&header, shard_count);
  PutFixed64(&header, total_documents);
  payloads.push_back(std::move(header));
  PutCatalogSections(catalog, &payloads);
  return EncodeFramed(kManifestLayout, payloads, catalog_id);
}

StatusOr<ShardedManifest> DecodeShardedManifest(std::string_view data,
                                                bool with_catalog) {
  std::vector<std::string_view> sections;
  ShardedManifest out;
  XSEQ_RETURN_IF_ERROR(
      SplitFramed(data, kManifestLayout, &sections, &out.catalog_id));
  IndexOptions options;
  {
    Decoder hdr(sections[0]);
    Status st = GetCatalogHeader(&hdr, &options);
    if (st.ok()) st = hdr.GetFixed32(&out.shard_count);
    if (st.ok()) st = hdr.GetFixed64(&out.total_documents);
    if (st.ok() && !hdr.AtEnd()) st = Status::Corruption("trailing bytes");
    if (!st.ok()) return AnnotateSection("header", st);
  }
  if (out.shard_count == 0 || out.shard_count > kMaxShards) {
    return Status::Corruption("implausible shard count in manifest");
  }
  if (with_catalog) {
    auto catalog = DecodeCatalogSections(&sections[1], options);
    if (!catalog.ok()) return catalog.status();
    out.catalog = std::move(*catalog);
  }
  return out;
}

std::string EncodeIndexPart(const CollectionIndex& part, uint64_t catalog_id) {
  std::vector<std::string> payloads;
  const CollectionIndex::SizeStats stats = part.Stats();
  std::string header;
  PutFixed64(&header, catalog_id);
  PutFixed64(&header, stats.documents);
  PutFixed64(&header, stats.sequence_elements);
  payloads.push_back(std::move(header));
  IndexImageCodec::PutPartSections(part, &payloads);
  return EncodeFramed(kPartLayout, payloads);
}

StatusOr<CollectionIndex> DecodeIndexPart(std::string_view data,
                                          const ShardedManifest& manifest) {
  if (manifest.catalog == nullptr) {
    return Status::InvalidArgument("manifest decoded without its catalog");
  }
  std::vector<std::string_view> sections;
  uint64_t footer_sum = 0;
  XSEQ_RETURN_IF_ERROR(SplitFramed(data, kPartLayout, &sections, &footer_sum));
  uint64_t catalog_id = 0, docs = 0, seq_elements = 0;
  {
    Decoder hdr(sections[0]);
    Status st = hdr.GetFixed64(&catalog_id);
    if (st.ok()) st = hdr.GetFixed64(&docs);
    if (st.ok()) st = hdr.GetFixed64(&seq_elements);
    if (st.ok() && !hdr.AtEnd()) st = Status::Corruption("trailing bytes");
    if (!st.ok()) return AnnotateSection("header", st);
  }
  if (catalog_id != manifest.catalog_id) {
    return Status::Corruption(
        "part belongs to another save (its manifest identity differs)");
  }
  return IndexImageCodec::DecodePart(&sections[1], manifest.catalog, docs,
                                     seq_elements);
}

IndexFileReport InspectEncodedIndex(std::string_view data) {
  IndexFileReport report;
  auto record = [&report](Status st) {
    if (report.status.ok() && !st.ok()) report.status = std::move(st);
  };

  const FramedLayout* layout = &kIndexLayout;
  for (const FramedLayout* l : {&kManifestLayout, &kPartLayout}) {
    if (data.substr(0, l->magic.size()) == l->magic) layout = l;
  }
  report.kind = std::string(layout->kind);
  const size_t header_bytes = layout->magic.size() + 1;
  if (data.size() >= header_bytes &&
      data.substr(0, layout->magic.size()) == layout->magic) {
    report.magic_ok = true;
    report.version = static_cast<uint8_t>(data[layout->magic.size()]);
    report.version_supported = report.version == layout->version;
  }
  std::string_view body, footer_bytes;
  Status split = CheckHeaderAndSplit(data, *layout, &body, &footer_bytes);
  if (!split.ok()) {
    record(std::move(split));
    return report;
  }

  Decoder in(body);
  for (size_t i = 0; i < layout->section_count; ++i) {
    const char* name = layout->sections[i];
    IndexSectionInfo info;
    info.name = name;
    uint64_t length = 0, checksum = 0;
    if (!in.GetFixed64(&length).ok() || !in.GetFixed64(&checksum).ok()) {
      record(Status::Corruption(std::string("index file truncated in '") +
                                name + "' section frame"));
      return report;
    }
    info.offset = header_bytes + in.position();
    info.length = length;
    std::string_view payload;
    if (length > in.remaining() || !in.GetRaw(length, &payload).ok()) {
      report.sections.push_back(std::move(info));
      record(Status::Corruption(
          std::string("section '") + name +
          "' length out of bounds (claims " + std::to_string(length) +
          " bytes, " + std::to_string(in.remaining()) + " remain)"));
      return report;
    }
    info.checksum_ok = Fnv1a64(payload) == checksum;
    if (!info.checksum_ok) {
      record(Status::Corruption(std::string("checksum mismatch in section '") +
                                name + "'"));
    }
    if (info.checksum_ok && info.name == "header") {
      // Counts and identity (see each layout's header in persist.h).
      Decoder hdr(payload);
      IndexOptions ignored;
      if (layout == &kPartLayout) {
        (void)(hdr.GetFixed64(&report.catalog_id).ok() &&
               hdr.GetFixed64(&report.documents).ok());
      } else if (GetCatalogHeader(&hdr, &ignored).ok()) {
        uint32_t shards = 0;
        if (layout == &kManifestLayout) (void)hdr.GetFixed32(&shards);
        (void)hdr.GetFixed64(&report.documents);
      }
    }
    if (info.checksum_ok && info.name == "index") {
      // Skim the pod-vector headers (counts only, no allocation) to
      // attribute link-region bytes. The payload stores 5 vectors (nodes,
      // doc offsets, docs, block headers, packed words). Links partition
      // the nodes, so the flat baseline is 12 bytes per node.
      constexpr uint64_t kElemBytes[] = {8, 4, 4, 16, 8};
      constexpr size_t kVecs = sizeof(kElemBytes) / sizeof(*kElemBytes);
      Decoder vecs(payload);
      uint64_t counts[kVecs] = {};
      std::string_view node_bytes;
      bool ok = true;
      for (size_t v = 0; v < kVecs && ok; ++v) {
        std::string_view skip;
        ok = vecs.GetFixed64(&counts[v]).ok() &&
             counts[v] <= vecs.remaining() / kElemBytes[v] &&
             vecs.GetRaw(counts[v] * kElemBytes[v], &skip).ok();
        if (v == 0) node_bytes = skip;
      }
      if (ok) {
        // 12 = fused (serial, end) pair + cover word per link entry.
        report.index_logical_link_bytes = counts[0] * 12;
        report.index_packed_link_bytes = counts[3] * 16 + counts[4] * 8;
        // DecodeFrom derives the per-path arrays, sized by the largest
        // path a node carries: link offsets and the block directory (4
        // bytes each per path + 2) and nested flags (1 byte per path + 1).
        uint32_t max_path = 0;
        for (size_t off = 0; off + 8 <= node_bytes.size(); off += 8) {
          uint32_t path = 0;
          std::memcpy(&path, node_bytes.data() + off, sizeof(path));
          max_path = std::max(max_path, path);
        }
        if (counts[0] > 0) {
          report.index_derived_bytes =
              (uint64_t{max_path} + 2) * 8 + uint64_t{max_path} + 1;
        }
      }
    }
    if (info.checksum_ok && info.name == "vindex") {
      // Skim the path directory (counts only, no entry decode): fixed32
      // path count, then (fixed32 path, fixed64 postings) per path.
      Decoder vd(payload);
      uint32_t paths = 0;
      if (vd.GetFixed32(&paths).ok() && paths <= vd.remaining() / 12) {
        report.vindex_paths = paths;
        report.vindex_path_counts.reserve(paths);
        for (uint32_t p = 0; p < paths; ++p) {
          uint32_t path = 0;
          uint64_t count = 0;
          if (!vd.GetFixed32(&path).ok() || !vd.GetFixed64(&count).ok()) {
            break;
          }
          report.vindex_entries += count;
          report.vindex_path_counts.emplace_back(path, count);
        }
      }
    }
    report.sections.push_back(std::move(info));
  }
  report.trailing_bytes = in.remaining();
  if (report.trailing_bytes != 0) {
    record(Status::Corruption("trailing bytes in " + report.kind + " file"));
  }
  {
    Decoder footer(footer_bytes);
    uint64_t want = 0;
    report.footer_ok =
        footer.GetFixed64(&want).ok() && Fnv1a64(body) == want;
    if (!report.footer_ok) {
      record(Status::Corruption(report.kind + " file footer checksum mismatch"));
    } else if (layout == &kManifestLayout) {
      report.catalog_id = want;
    }
  }
  return report;
}

namespace {

/// Runs `attempt` up to options.max_attempts times, backing off between
/// tries. Only kIOError is retried: corruption and not-found are not
/// transient.
template <typename Fn>
Status WithRetries(const PersistOptions& options, Env* env, Fn&& attempt) {
  const int attempts = std::max(1, options.max_attempts);
  uint64_t backoff = options.backoff_micros;
  Status st;
  for (int i = 0; i < attempts; ++i) {
    if (i > 0) {
      env->SleepForMicroseconds(backoff);
      backoff *= 2;
    }
    st = attempt();
    if (st.ok() || !st.IsIOError()) return st;
  }
  return st;
}

}  // namespace

Status ReadImageFile(const std::string& path, const PersistOptions& options,
                     std::string* data) {
  Env* env = options.env != nullptr ? options.env : Env::Default();
  return WithRetries(options, env,
                     [&] { return env->ReadFileToString(path, data); });
}

Status WriteImageFile(const std::string& path, const std::string& data,
                      const PersistOptions& options) {
  Env* env = options.env != nullptr ? options.env : Env::Default();
  return WithRetries(options, env,
                     [&] { return AtomicWriteFile(env, path, data); });
}

Status SaveCollectionIndex(const CollectionIndex& index,
                           const std::string& path,
                           const PersistOptions& options) {
  return WriteImageFile(path, EncodeCollectionIndex(index), options);
}

StatusOr<CollectionIndex> LoadCollectionIndex(const std::string& path,
                                              const PersistOptions& options) {
  std::string data;
  XSEQ_RETURN_IF_ERROR(ReadImageFile(path, options, &data));
  return DecodeCollectionIndex(data);
}

}  // namespace xseq
