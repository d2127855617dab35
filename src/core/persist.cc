#include "src/core/persist.h"

#include <algorithm>
#include <cstring>

#include "src/util/coding.h"
#include "src/util/hash.h"

namespace xseq {

namespace {

constexpr char kMagic[7] = {'X', 'S', 'E', 'Q', 'I', 'D', 'X'};
// Version 1 was the unframed "XSEQIDX1" layout; its trailing '1' sits where
// the version byte now lives, so legacy files are recognized exactly.
constexpr uint8_t kLegacyVersionByte = '1';
// Version 2 introduced the version byte; no build ever wrote 0 or 1 there.
constexpr uint8_t kFirstFramedVersion = 2;

constexpr const char* kSectionNames[] = {"header", "names",  "values",
                                         "dict",   "schema", "index",
                                         "vindex"};
constexpr size_t kNumSections = sizeof(kSectionNames) / sizeof(*kSectionNames);
constexpr size_t kHeaderBytes = sizeof(kMagic) + 1;  // magic + version byte
constexpr size_t kFooterBytes = 8;

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
Status CheckHeaderAndSplit(std::string_view data, std::string_view* body,
                           std::string_view* footer) {
  if (data.size() < kHeaderBytes ||
      std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("not an xseq index file (bad magic)");
  }
  uint8_t v = static_cast<uint8_t>(data[sizeof(kMagic)]);
  if (v == kLegacyVersionByte) {
    return Status::InvalidArgument(
        "legacy unversioned xseq index (magic \"XSEQIDX1\"); this format "
        "predates section framing — rebuild the index with this version");
  }
  if (v > kIndexFormatVersion) {
    return Status::Unimplemented(
        "index format version " + std::to_string(v) +
        " is newer than this build supports (max " +
        std::to_string(kIndexFormatVersion) + ")");
  }
  if (v < kFirstFramedVersion) {
    return Status::Corruption("unsupported index format version " +
                              std::to_string(v));
  }
  if (v < kIndexFormatVersion) {
    return Status::InvalidArgument(
        "index format version " + std::to_string(v) +
        " predates this build's format (version " +
        std::to_string(kIndexFormatVersion) +
        ") — rebuild the index with this version");
  }
  if (data.size() < kHeaderBytes + kFooterBytes) {
    return Status::Corruption("index file truncated (no footer)");
  }
  *body = data.substr(kHeaderBytes, data.size() - kHeaderBytes - kFooterBytes);
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

}  // namespace

std::string EncodeCollectionIndex(const CollectionIndex& index) {
  std::string out(kMagic, sizeof(kMagic));
  out.push_back(static_cast<char>(kIndexFormatVersion));

  auto frame = [&out](const std::string& payload) {
    PutFixed64(&out, payload.size());
    PutFixed64(&out, Fnv1a64(payload));
    out += payload;
  };

  std::string section;
  PutFixed32(&section, static_cast<uint32_t>(index.options().sequencer));
  PutFixed64(&section, index.options().random_seed);
  PutFixed32(&section, index.options().bulk_load ? 1 : 0);
  PutFixed64(&section, index.Stats().documents);
  PutFixed64(&section, index.Stats().sequence_elements);
  frame(section);

  section.clear();
  index.names().EncodeTo(&section);
  frame(section);
  section.clear();
  index.values().EncodeTo(&section);
  frame(section);
  section.clear();
  index.dict().EncodeTo(&section);
  frame(section);
  section.clear();
  index.schema().EncodeTo(&section);
  frame(section);
  section.clear();
  index.index().EncodeTo(&section);
  frame(section);
  section.clear();
  index.vindex().EncodeTo(&section);
  frame(section);

  PutFixed64(&out, Fnv1a64(std::string_view(out).substr(kHeaderBytes)));
  return out;
}

StatusOr<CollectionIndex> DecodeCollectionIndex(std::string_view data) {
  std::string_view body, footer_bytes;
  XSEQ_RETURN_IF_ERROR(CheckHeaderAndSplit(data, &body, &footer_bytes));

  // Walk the frames first: a failure is attributed to its section.
  std::string_view sections[kNumSections];
  Decoder in(body);
  for (size_t i = 0; i < kNumSections; ++i) {
    XSEQ_RETURN_IF_ERROR(ReadFrame(&in, kSectionNames[i], &sections[i]));
  }
  if (!in.AtEnd()) {
    return Status::Corruption("trailing bytes in index file");
  }
  {
    // Backstop over the frame headers themselves (the payloads are already
    // covered by their section checksums).
    Decoder footer(footer_bytes);
    uint64_t want = 0;
    XSEQ_RETURN_IF_ERROR(footer.GetFixed64(&want));
    if (Fnv1a64(body) != want) {
      return Status::Corruption("index file footer checksum mismatch");
    }
  }

  CollectionIndex out;
  {
    Decoder hdr(sections[0]);
    uint32_t sequencer_kind = 0, bulk = 0;
    uint64_t docs = 0, seq_elements = 0;
    Status st = hdr.GetFixed32(&sequencer_kind);
    if (st.ok()) st = hdr.GetFixed64(&out.options_.random_seed);
    if (st.ok()) st = hdr.GetFixed32(&bulk);
    if (st.ok()) st = hdr.GetFixed64(&docs);
    if (st.ok()) st = hdr.GetFixed64(&seq_elements);
    if (st.ok() && !hdr.AtEnd()) st = Status::Corruption("trailing bytes");
    if (st.ok() &&
        sequencer_kind > static_cast<uint32_t>(SequencerKind::kProbability)) {
      st = Status::Corruption("unknown sequencer kind");
    }
    if (!st.ok()) return AnnotateSection("header", st);
    out.options_.sequencer = static_cast<SequencerKind>(sequencer_kind);
    out.options_.bulk_load = bulk != 0;
    out.documents_count_ = docs;
    out.total_seq_elements_ = seq_elements;
  }

  // Each section decodes from its own bounded view and must consume it
  // exactly.
  auto finish_section = [](const char* name, Decoder* d) -> Status {
    if (!d->AtEnd()) {
      return Status::Corruption(std::string("trailing bytes in section '") +
                                name + "'");
    }
    return Status::OK();
  };

  {
    Decoder d(sections[1]);
    auto names = NameTable::DecodeFrom(&d);
    if (!names.ok()) return AnnotateSection("names", names.status());
    XSEQ_RETURN_IF_ERROR(finish_section("names", &d));
    out.names_ = std::make_shared<const NameTable>(std::move(*names));
  }
  {
    Decoder d(sections[2]);
    auto values = ValueEncoder::DecodeFrom(&d);
    if (!values.ok()) return AnnotateSection("values", values.status());
    XSEQ_RETURN_IF_ERROR(finish_section("values", &d));
    out.values_ = std::make_shared<const ValueEncoder>(std::move(*values));
    out.options_.value_mode = out.values_->mode();
    out.options_.hash_range = out.values_->hash_range();
  }
  {
    Decoder d(sections[3]);
    auto dict = PathDict::DecodeFrom(&d);
    if (!dict.ok()) return AnnotateSection("dict", dict.status());
    XSEQ_RETURN_IF_ERROR(finish_section("dict", &d));
    out.dict_ = std::make_unique<PathDict>(std::move(*dict));
  }
  {
    Decoder d(sections[4]);
    auto schema = Schema::DecodeFrom(&d);
    if (!schema.ok()) return AnnotateSection("schema", schema.status());
    XSEQ_RETURN_IF_ERROR(finish_section("schema", &d));
    out.schema_ = std::make_unique<Schema>(std::move(*schema));
  }
  {
    Decoder d(sections[5]);
    auto index = FrozenIndex::DecodeFrom(&d);
    if (!index.ok()) return AnnotateSection("index", index.status());
    XSEQ_RETURN_IF_ERROR(finish_section("index", &d));
    out.index_ = std::move(*index);
  }
  {
    Decoder d(sections[6]);
    auto vindex = ValueIndex::DecodeFrom(&d);
    if (!vindex.ok()) return AnnotateSection("vindex", vindex.status());
    XSEQ_RETURN_IF_ERROR(finish_section("vindex", &d));
    Status valid = vindex->Validate();
    if (!valid.ok()) return AnnotateSection("vindex", valid);
    for (PathId p : vindex->paths()) {
      if (p >= out.dict_->size()) {
        return AnnotateSection(
            "vindex", Status::Corruption("postings reference unknown paths"));
      }
    }
    out.vindex_ = std::move(*vindex);
  }

  // Sanity: every indexed path must exist in the dictionary, and the
  // index's structural invariants must hold (defends against corrupted or
  // adversarial files whose checksums were recomputed).
  if (out.index_.distinct_paths() > out.dict_->size()) {
    return Status::Corruption("index references unknown paths");
  }
  XSEQ_RETURN_IF_ERROR(out.index_.Validate());

  out.model_ = out.schema_->BuildModel(*out.dict_);
  out.sequencer_ = MakeSequencer(out.options_.sequencer, out.model_,
                                 out.options_.random_seed);
  if (out.sequencer_ == nullptr) {
    return Status::Corruption("failed to reconstruct the sequencer");
  }
  return out;
}

IndexFileReport InspectEncodedIndex(std::string_view data) {
  IndexFileReport report;
  auto record = [&report](Status st) {
    if (report.status.ok() && !st.ok()) report.status = std::move(st);
  };

  if (data.size() >= kHeaderBytes &&
      std::memcmp(data.data(), kMagic, sizeof(kMagic)) == 0) {
    report.magic_ok = true;
    report.version = static_cast<uint8_t>(data[sizeof(kMagic)]);
    report.version_supported = report.version == kIndexFormatVersion;
  }
  std::string_view body, footer_bytes;
  Status split = CheckHeaderAndSplit(data, &body, &footer_bytes);
  if (!split.ok()) {
    record(std::move(split));
    return report;
  }

  Decoder in(body);
  for (size_t i = 0; i < kNumSections; ++i) {
    IndexSectionInfo info;
    info.name = kSectionNames[i];
    uint64_t length = 0, checksum = 0;
    if (!in.GetFixed64(&length).ok() || !in.GetFixed64(&checksum).ok()) {
      record(Status::Corruption(std::string("index file truncated in '") +
                                kSectionNames[i] + "' section frame"));
      return report;
    }
    info.offset = kHeaderBytes + in.position();
    info.length = length;
    std::string_view payload;
    if (length > in.remaining() || !in.GetRaw(length, &payload).ok()) {
      report.sections.push_back(std::move(info));
      record(Status::Corruption(
          std::string("section '") + kSectionNames[i] +
          "' length out of bounds (claims " + std::to_string(length) +
          " bytes, " + std::to_string(in.remaining()) + " remain)"));
      return report;
    }
    info.checksum_ok = Fnv1a64(payload) == checksum;
    if (!info.checksum_ok) {
      record(Status::Corruption(std::string("checksum mismatch in section '") +
                                kSectionNames[i] + "'"));
    }
    if (info.checksum_ok && info.name == "index") {
      // Skim the pod-vector headers (counts only, no allocation) to
      // attribute link-region bytes. The payload stores 7 vectors (nodes,
      // doc offsets, docs, link offsets, block headers, packed words,
      // nested flags). Links partition the nodes, so the flat baseline is
      // 12 bytes per node.
      constexpr uint64_t kElemBytes[] = {8, 4, 4, 4, 16, 8, 1};
      constexpr size_t kVecs = sizeof(kElemBytes) / sizeof(*kElemBytes);
      Decoder vecs(payload);
      uint64_t counts[kVecs] = {};
      bool ok = true;
      for (size_t v = 0; v < kVecs && ok; ++v) {
        std::string_view skip;
        ok = vecs.GetFixed64(&counts[v]).ok() &&
             counts[v] <= vecs.remaining() / kElemBytes[v] &&
             vecs.GetRaw(counts[v] * kElemBytes[v], &skip).ok();
      }
      if (ok) {
        // 12 = fused (serial, end) pair + cover word per link entry.
        report.index_logical_link_bytes = counts[0] * 12;
        report.index_packed_link_bytes = counts[4] * 16 + counts[5] * 8;
        // DecodeFrom rebuilds only the per-path block directory.
        report.index_derived_bytes = counts[3] * sizeof(uint32_t);
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
    record(Status::Corruption("trailing bytes in index file"));
  }
  {
    Decoder footer(footer_bytes);
    uint64_t want = 0;
    report.footer_ok =
        footer.GetFixed64(&want).ok() && Fnv1a64(body) == want;
    if (!report.footer_ok) {
      record(Status::Corruption("index file footer checksum mismatch"));
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

Status SaveCollectionIndex(const CollectionIndex& index,
                           const std::string& path,
                           const PersistOptions& options) {
  Env* env = options.env != nullptr ? options.env : Env::Default();
  std::string data = EncodeCollectionIndex(index);
  return WithRetries(options, env,
                     [&] { return AtomicWriteFile(env, path, data); });
}

StatusOr<CollectionIndex> LoadCollectionIndex(const std::string& path,
                                              const PersistOptions& options) {
  Env* env = options.env != nullptr ? options.env : Env::Default();
  std::string data;
  Status st = WithRetries(options, env,
                          [&] { return env->ReadFileToString(path, &data); });
  if (!st.ok()) return st;
  return DecodeCollectionIndex(data);
}

}  // namespace xseq
