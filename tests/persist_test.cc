// Tests for index persistence: save/load round trips, the framed format's
// corruption attribution, crash-safety under injected faults (power-loss
// atomicity), adversarial-input sweeps, and the binary coding helpers.

#include <gtest/gtest.h>

#include <cstdio>

#include "src/core/persist.h"
#include "src/gen/querygen.h"
#include "src/gen/synthetic.h"
#include "src/index/trie.h"
#include "src/util/coding.h"
#include "src/util/env.h"
#include "src/util/hash.h"
#include "tests/test_util.h"

namespace xseq {
namespace {

// Layout constants mirrored from persist.cc (current format).
constexpr size_t kImageHeaderBytes = 8;  // "XSEQIDX" + version byte
constexpr size_t kImageNumSections = 7;  // v4: ..., index, vindex

struct FrameInfo {
  size_t sum_offset;      // of the stored section checksum
  size_t payload_offset;  // of the section payload
  uint64_t length;
};

// Walks the section frames of a well-formed encoded index.
std::vector<FrameInfo> ParseFrames(const std::string& data) {
  std::vector<FrameInfo> frames;
  size_t off = kImageHeaderBytes;
  for (size_t i = 0; i < kImageNumSections; ++i) {
    Decoder d(std::string_view(data).substr(off, 16));
    uint64_t len = 0, sum = 0;
    EXPECT_TRUE(d.GetFixed64(&len).ok());
    EXPECT_TRUE(d.GetFixed64(&sum).ok());
    (void)sum;
    frames.push_back({off + 8, off + 16, len});
    off += 16 + len;
  }
  return frames;
}

void OverwriteFixed64(std::string* data, size_t off, uint64_t v) {
  std::string enc;
  PutFixed64(&enc, v);
  data->replace(off, 8, enc);
}

// Recomputes the checksum of the frame covering `frame_index` and the
// global footer, so tampering inside that section survives both checks and
// only deep structural validation can reject the image.
void FixupChecksums(std::string* data, size_t frame_index) {
  std::vector<FrameInfo> frames = ParseFrames(*data);
  const FrameInfo& f = frames[frame_index];
  OverwriteFixed64(
      data, f.sum_offset,
      Fnv1a64(std::string_view(*data).substr(f.payload_offset, f.length)));
  std::string_view body = std::string_view(*data).substr(
      kImageHeaderBytes, data->size() - kImageHeaderBytes - 8);
  OverwriteFixed64(data, data->size() - 8, Fnv1a64(body));
}

TEST(Coding, FixedRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xDEADBEEFu);
  PutFixed64(&buf, 0x0123456789ABCDEFull);
  PutDouble(&buf, 3.25);
  PutString(&buf, "hello");
  std::vector<uint32_t> v{1, 2, 3};
  PutPodVector(&buf, v);

  Decoder in(buf);
  uint32_t a;
  uint64_t b;
  double d;
  std::string s;
  std::vector<uint32_t> w;
  ASSERT_TRUE(in.GetFixed32(&a).ok());
  ASSERT_TRUE(in.GetFixed64(&b).ok());
  ASSERT_TRUE(in.GetDouble(&d).ok());
  ASSERT_TRUE(in.GetString(&s).ok());
  ASSERT_TRUE(in.GetPodVector(&w).ok());
  EXPECT_EQ(a, 0xDEADBEEFu);
  EXPECT_EQ(b, 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(d, 3.25);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(w, v);
  EXPECT_TRUE(in.AtEnd());
}

TEST(Coding, TruncationDetected) {
  std::string buf;
  PutFixed64(&buf, 100);  // promises 100 bytes that do not exist
  Decoder in(buf);
  std::string s;
  EXPECT_TRUE(in.GetString(&s).IsCorruption());

  Decoder in2("ab");
  uint32_t v;
  EXPECT_TRUE(in2.GetFixed32(&v).IsCorruption());
}

TEST(Coding, PodVectorLengthOverflowRejected) {
  std::string buf;
  PutFixed64(&buf, 0xFFFFFFFFFFFFFFull);  // absurd element count
  Decoder in(buf);
  std::vector<uint64_t> v;
  EXPECT_TRUE(in.GetPodVector(&v).IsCorruption());
}

TEST(Persist, RoundTripAnswersIdenticalQueries) {
  SyntheticParams params;
  params.identical_percent = 30;
  params.value_vocab = 8;
  IndexOptions opts;
  CollectionBuilder builder(opts);
  SyntheticDataset gen(params, builder.names(), builder.values());
  for (DocId d = 0; d < 200; ++d) {
    ASSERT_TRUE(builder.Add(gen.Generate(d)).ok());
  }
  auto built = std::move(builder).Finish();
  ASSERT_TRUE(built.ok());

  std::string encoded = EncodeCollectionIndex(*built);
  auto loaded = DecodeCollectionIndex(encoded);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->Stats().trie_nodes, built->Stats().trie_nodes);
  EXPECT_EQ(loaded->Stats().documents, built->Stats().documents);
  EXPECT_EQ(loaded->Stats().sequence_elements,
            built->Stats().sequence_elements);
  EXPECT_EQ(loaded->options().sequencer, built->options().sequencer);

  NameTable names;
  ValueEncoder values;
  SyntheticDataset sampler(params, &names, &values);
  Rng rng(5, 7);
  for (int q = 0; q < 30; ++q) {
    Document sample = sampler.Generate(rng.Uniform(200));
    QueryPattern pattern =
        SampleQueryPattern(sample, names, 2 + rng.Uniform(5), &rng, 0.4);
    auto a = built->executor().ExecutePattern(pattern);
    auto b = loaded->executor().ExecutePattern(pattern);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b) << pattern.source;
  }
}

TEST(Persist, FileRoundTrip) {
  CollectionIndex idx = testing::MakeIndex({"P(R(L('x')))", "P(D)"});
  std::string path = ::testing::TempDir() + "/xseq_persist_test.idx";
  ASSERT_TRUE(SaveCollectionIndex(idx, path).ok());
  auto loaded = LoadCollectionIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto r = loaded->Query("/P/R/L[.='x']");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->docs, (std::vector<DocId>{0}));
  std::remove(path.c_str());
}

TEST(Persist, RejectsBadMagicAndChecksum) {
  CollectionIndex idx = testing::MakeIndex({"P(R)"});
  std::string data = EncodeCollectionIndex(idx);

  std::string bad_magic = data;
  bad_magic[0] = 'Y';
  EXPECT_TRUE(DecodeCollectionIndex(bad_magic).status().IsCorruption());

  std::string bad_byte = data;
  bad_byte[data.size() / 2] ^= 0x5A;
  EXPECT_TRUE(DecodeCollectionIndex(bad_byte).status().IsCorruption());

  std::string truncated = data.substr(0, data.size() / 2);
  EXPECT_TRUE(DecodeCollectionIndex(truncated).status().IsCorruption());

  EXPECT_TRUE(DecodeCollectionIndex("").status().IsCorruption());
}

TEST(Validate, FreshIndexesAlwaysValid) {
  SyntheticParams params;
  params.identical_percent = 50;
  IndexOptions opts;
  CollectionBuilder builder(opts);
  SyntheticDataset gen(params, builder.names(), builder.values());
  for (DocId d = 0; d < 150; ++d) {
    ASSERT_TRUE(builder.Add(gen.Generate(d)).ok());
  }
  auto idx = std::move(builder).Finish();
  ASSERT_TRUE(idx.ok());
  EXPECT_TRUE(idx->index().Validate().ok());
}

TEST(Validate, EmptyIndexValid) {
  TrieBuilder b;
  FrozenIndex empty = std::move(b).Freeze();
  EXPECT_TRUE(empty.Validate().ok());
}

TEST(Validate, CorruptedPayloadWithFixedChecksumIsCaught) {
  // Recompute the checksums over a tampered payload: framing and footer
  // pass, so structural validation must catch the damage instead.
  CollectionIndex idx = testing::MakeIndex(
      {"P(R(L))", "P(R(M))", "P(D(L))"});
  std::string data = EncodeCollectionIndex(idx);
  std::vector<FrameInfo> frames = ParseFrames(data);
  // FrozenIndex arrays (the vindex frame now trails it).
  const FrameInfo& index_frame = frames[frames.size() - 2];
  ASSERT_GT(index_frame.length, 16u);
  int caught = 0, total = 0;
  Rng rng(77, 5);
  for (int trial = 0; trial < 40; ++trial) {
    std::string tampered = data;
    size_t pos = index_frame.payload_offset +
                 rng.Uniform(static_cast<uint32_t>(index_frame.length));
    tampered[pos] ^= static_cast<char>(1 + rng.Uniform(255));
    FixupChecksums(&tampered, frames.size() - 2);
    auto loaded = DecodeCollectionIndex(tampered);
    ++total;
    if (!loaded.ok()) ++caught;
    // If it decoded, the structures passed deep validation; queries must
    // then at least not crash.
    if (loaded.ok()) {
      auto r = loaded->Query("/P/R/L");
      (void)r;
    }
  }
  // Most random flips break an invariant outright.
  EXPECT_GT(caught, total / 2);
}

TEST(Persist, LoadMissingFileFails) {
  EXPECT_TRUE(
      LoadCollectionIndex("/nonexistent/xseq.idx").status().IsNotFound());
}

TEST(Format, VersionByteIsWritten) {
  CollectionIndex idx = testing::MakeIndex({"P(R)"});
  std::string data = EncodeCollectionIndex(idx);
  ASSERT_GE(data.size(), kImageHeaderBytes);
  EXPECT_EQ(data.substr(0, 7), "XSEQIDX");
  EXPECT_EQ(static_cast<uint8_t>(data[7]), kIndexFormatVersion);
}

TEST(Format, FutureVersionRejectedAsUnimplemented) {
  CollectionIndex idx = testing::MakeIndex({"P(R)"});
  std::string data = EncodeCollectionIndex(idx);
  data[7] = static_cast<char>(kIndexFormatVersion + 1);
  Status st = DecodeCollectionIndex(data).status();
  EXPECT_TRUE(st.IsUnimplemented()) << st.ToString();
  EXPECT_NE(st.message().find("newer than this build"), std::string::npos);
  // A version this build has never produced is corruption, not a feature
  // gap.
  data[7] = 0;
  EXPECT_TRUE(DecodeCollectionIndex(data).status().IsCorruption());
}

TEST(Format, LegacyUnversionedMagicRejectedWithClearMessage) {
  std::string legacy = "XSEQIDX1";
  legacy += std::string(64, '\0');  // plausible-looking old payload
  Status st = DecodeCollectionIndex(legacy).status();
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find("legacy"), std::string::npos);
  EXPECT_NE(st.message().find("rebuild"), std::string::npos);
}

TEST(Format, OlderVersionsAskForARebuild) {
  CollectionIndex idx = testing::MakeIndex({"P(R(L('x')))"});
  std::string data = EncodeCollectionIndex(idx);
  for (uint8_t old_version : {uint8_t{2}, uint8_t{3}}) {
    data[7] = static_cast<char>(old_version);
    Status st = DecodeCollectionIndex(data).status();
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_NE(st.message().find("rebuild"), std::string::npos)
        << st.ToString();
    // Inspection names the version and refuses it the same way.
    IndexFileReport report = InspectEncodedIndex(data);
    EXPECT_TRUE(report.magic_ok);
    EXPECT_EQ(report.version, old_version);
    EXPECT_FALSE(report.version_supported);
    EXPECT_TRUE(report.status.IsInvalidArgument())
        << report.status.ToString();
    EXPECT_TRUE(report.sections.empty());
  }
}

TEST(Format, SectionErrorsAreAttributed) {
  CollectionIndex idx = testing::MakeIndex({"P(R(L('x')))", "P(D)"});
  std::string data = EncodeCollectionIndex(idx);
  std::vector<FrameInfo> frames = ParseFrames(data);
  const char* names[] = {"header", "names",  "values", "dict",
                         "schema", "index",  "vindex"};
  for (size_t i = 0; i < frames.size(); ++i) {
    if (frames[i].length == 0) continue;  // nothing to corrupt
    std::string bad = data;
    bad[frames[i].payload_offset] ^= 0x40;
    Status st = DecodeCollectionIndex(bad).status();
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
    EXPECT_NE(st.message().find(std::string("section '") + names[i] + "'"),
              std::string::npos)
        << st.ToString();
  }
}

TEST(Format, AdversarialSectionLengthDoesNotAllocate) {
  CollectionIndex idx = testing::MakeIndex({"P(R)"});
  std::string data = EncodeCollectionIndex(idx);
  std::vector<FrameInfo> frames = ParseFrames(data);
  for (size_t i = 0; i < frames.size(); ++i) {
    std::string bad = data;
    // A section claiming multiple exabytes must be rejected up front by
    // the bounds check, not by attempting the allocation.
    OverwriteFixed64(&bad, frames[i].sum_offset - 8, 1ull << 62);
    Status st = DecodeCollectionIndex(bad).status();
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
    EXPECT_NE(st.message().find("out of bounds"), std::string::npos)
        << st.ToString();
  }
}

TEST(Format, InspectReportsHealthyFile) {
  CollectionIndex idx = testing::MakeIndex({"P(R(L('x')))"});
  std::string data = EncodeCollectionIndex(idx);
  IndexFileReport report = InspectEncodedIndex(data);
  EXPECT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_TRUE(report.magic_ok);
  EXPECT_EQ(report.version, kIndexFormatVersion);
  EXPECT_TRUE(report.version_supported);
  ASSERT_EQ(report.sections.size(), kImageNumSections);
  for (const IndexSectionInfo& s : report.sections) {
    EXPECT_TRUE(s.checksum_ok) << s.name;
  }
  EXPECT_TRUE(report.footer_ok);
  EXPECT_EQ(report.trailing_bytes, 0u);
}

TEST(Format, InspectAttributesDamage) {
  CollectionIndex idx = testing::MakeIndex({"P(R(L('x')))"});
  std::string data = EncodeCollectionIndex(idx);
  std::vector<FrameInfo> frames = ParseFrames(data);
  std::string bad = data;
  bad[frames[3].payload_offset] ^= 0x01;  // the dict section
  IndexFileReport report = InspectEncodedIndex(bad);
  EXPECT_FALSE(report.status.ok());
  ASSERT_EQ(report.sections.size(), kImageNumSections);
  EXPECT_TRUE(report.sections[1].checksum_ok);
  EXPECT_FALSE(report.sections[3].checksum_ok);
  EXPECT_FALSE(report.footer_ok);  // payload bytes are footer-covered too
  EXPECT_NE(report.status.message().find("section 'dict'"),
            std::string::npos);
}

// --- Adversarial-input sweeps (run under ASan via scripts/check.sh) ------

TEST(CorruptionSweep, TruncationAtEveryOffsetIsRejected) {
  CollectionIndex idx = testing::MakeIndex(
      {"P(R(L('x')))", "P(R(M('y')))", "P(D)"});
  std::string data = EncodeCollectionIndex(idx);
  for (size_t len = 0; len < data.size(); ++len) {
    auto loaded = DecodeCollectionIndex(std::string_view(data).substr(0, len));
    EXPECT_FALSE(loaded.ok()) << "truncation to " << len << " bytes decoded";
    IndexFileReport report =
        InspectEncodedIndex(std::string_view(data).substr(0, len));
    EXPECT_FALSE(report.status.ok()) << "inspect passed at " << len;
  }
}

TEST(CorruptionSweep, SampledBitFlipsAreRejected) {
  CollectionIndex idx = testing::MakeIndex(
      {"P(R(L('x')))", "P(R(M('y')))", "P(D)"});
  std::string data = EncodeCollectionIndex(idx);
  Rng rng(1234, 9);
  int trials = 0;
  // Cover every byte position at least once, and at least 1k samples.
  for (size_t pos = 0; pos < data.size(); ++pos) {
    std::string bad = data;
    bad[pos] ^= static_cast<char>(1 + rng.Uniform(255));
    EXPECT_FALSE(DecodeCollectionIndex(bad).ok())
        << "flip at byte " << pos << " decoded";
    ++trials;
  }
  while (trials < 1000) {
    std::string bad = data;
    size_t pos = rng.Uniform(static_cast<uint32_t>(bad.size()));
    bad[pos] ^= static_cast<char>(1u << rng.Uniform(8));
    EXPECT_FALSE(DecodeCollectionIndex(bad).ok())
        << "flip at byte " << pos << " decoded";
    ++trials;
  }
}

// --- Crash safety under injected faults ----------------------------------

TEST(FaultSweep, EveryFailedSavePreservesACompleteIndex) {
  CollectionIndex old_idx = testing::MakeIndex({"P(R(L('x')))"});
  CollectionIndex new_idx = testing::MakeIndex({"P(R(M('y')))", "P(D)"});
  std::string path = ::testing::TempDir() + "/xseq_fault_sweep.idx";
  std::string tmp = path + ".tmp";
  std::string old_bytes = EncodeCollectionIndex(old_idx);
  std::string new_bytes = EncodeCollectionIndex(new_idx);
  ASSERT_NE(old_bytes, new_bytes);

  // Baseline: a clean save, to learn how many operations a sweep covers.
  FaultInjectionEnv counter(Env::Default());
  PersistOptions once;
  once.env = &counter;
  once.max_attempts = 1;
  ASSERT_TRUE(SaveCollectionIndex(old_idx, path, once).ok());
  const uint64_t total_ops = counter.ops_seen();
  ASSERT_GE(total_ops, 6u);  // open, append, sync, close, rename, dir sync

  for (uint64_t k = 0; k < total_ops; ++k) {
    FaultInjectionEnv fenv(Env::Default());
    fenv.FailOperation(k);
    PersistOptions opts;
    opts.env = &fenv;
    opts.max_attempts = 1;

    Status st = SaveCollectionIndex(new_idx, path, opts);
    EXPECT_TRUE(st.IsIOError()) << "fault at op " << k << ": "
                                << st.ToString();

    // Power-loss atomicity: the file at `path` is always one complete
    // image — bit-identical to the old index for every fault up to and
    // including the rename, and to the new one only when the fault hit
    // the directory sync after the atomic rename (the commit point).
    std::string now;
    ASSERT_TRUE(Env::Default()->ReadFileToString(path, &now).ok())
        << "fault at op " << k << " lost the index entirely";
    EXPECT_TRUE(now == old_bytes || now == new_bytes)
        << "fault at op " << k << " left a torn file";
    if (k + 1 < total_ops) {
      EXPECT_EQ(now, old_bytes) << "fault at op " << k
                                << " replaced the index before commit";
    }
    auto loaded = LoadCollectionIndex(path);
    EXPECT_TRUE(loaded.ok()) << "fault at op " << k << ": "
                             << loaded.status().ToString();

    // The fault was one-shot, so a retry must succeed and clean up.
    Status retry = SaveCollectionIndex(new_idx, path, opts);
    EXPECT_TRUE(retry.ok()) << "retry after op-" << k
                            << " fault: " << retry.ToString();
    EXPECT_FALSE(Env::Default()->FileExists(tmp))
        << ".tmp residue after successful retry (fault at op " << k << ")";
    std::string after;
    ASSERT_TRUE(Env::Default()->ReadFileToString(path, &after).ok());
    EXPECT_EQ(after, new_bytes);

    // Restore the old index for the next sweep point.
    ASSERT_TRUE(SaveCollectionIndex(old_idx, path).ok());
  }
  ASSERT_TRUE(Env::Default()->RemoveFile(path).ok());
}

TEST(FaultSweep, TransientSaveFaultsAreRetriedWithBackoff) {
  CollectionIndex idx = testing::MakeIndex({"P(R)"});
  std::string path = ::testing::TempDir() + "/xseq_retry.idx";
  FaultInjectionEnv fenv(Env::Default());
  fenv.FailOperation(2);  // the tmp-file fsync of the first attempt
  PersistOptions opts;
  opts.env = &fenv;
  opts.max_attempts = 3;
  opts.backoff_micros = 500;
  Status st = SaveCollectionIndex(idx, path, opts);
  EXPECT_TRUE(st.ok()) << st.ToString();
  // Exactly one retry happened, after the first backoff step; the sleep
  // went through the Env (recorded, not slept).
  EXPECT_EQ(fenv.slept_micros(), 500u);
  ASSERT_TRUE(Env::Default()->RemoveFile(path).ok());
}

TEST(FaultSweep, RetriesAreBoundedAndBackoffDoubles) {
  CollectionIndex idx = testing::MakeIndex({"P(R)"});
  std::string path = ::testing::TempDir() + "/xseq_retry_bounded.idx";
  FaultInjectionEnv fenv(Env::Default());
  // Each attempt dies at its first operation (the tmp-file open), so
  // attempts consume exactly one op index each.
  fenv.FailOperation(0);
  fenv.FailOperation(1);
  fenv.FailOperation(2);
  PersistOptions opts;
  opts.env = &fenv;
  opts.max_attempts = 3;
  opts.backoff_micros = 1000;
  Status st = SaveCollectionIndex(idx, path, opts);
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_EQ(fenv.slept_micros(), 1000u + 2000u);
  EXPECT_FALSE(Env::Default()->FileExists(path));
}

TEST(FaultSweep, LoadRetriesReadErrorsButNotCorruption) {
  CollectionIndex idx = testing::MakeIndex({"P(R(L('x')))"});
  std::string path = ::testing::TempDir() + "/xseq_load_retry.idx";
  ASSERT_TRUE(SaveCollectionIndex(idx, path).ok());

  {
    FaultInjectionEnv fenv(Env::Default());
    fenv.FailRead(0, FaultInjectionEnv::ReadFaultKind::kReadError);
    PersistOptions opts;
    opts.env = &fenv;
    opts.max_attempts = 2;
    opts.backoff_micros = 250;
    auto loaded = LoadCollectionIndex(path, opts);
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(fenv.slept_micros(), 250u);
  }
  {
    // A bit flip is corruption, not a transient error: no retry can help,
    // and the Status must say kCorruption even though retries remain.
    FaultInjectionEnv fenv(Env::Default(), /*seed=*/11);
    fenv.FailRead(0, FaultInjectionEnv::ReadFaultKind::kBitFlip);
    fenv.FailRead(1, FaultInjectionEnv::ReadFaultKind::kBitFlip);
    PersistOptions opts;
    opts.env = &fenv;
    opts.max_attempts = 2;
    auto loaded = LoadCollectionIndex(path, opts);
    EXPECT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsCorruption() ||
                loaded.status().IsUnimplemented() ||
                loaded.status().IsInvalidArgument())
        << loaded.status().ToString();
    EXPECT_EQ(fenv.slept_micros(), 0u);  // corruption is not retried
  }
  ASSERT_TRUE(Env::Default()->RemoveFile(path).ok());
}

TEST(Persist, ChainModeSurvivesRoundTrip) {
  IndexOptions opts;
  opts.value_mode = ValueMode::kCharSequence;
  CollectionIndex idx =
      testing::MakeIndex({"P(L('boston'))", "P(L('boxford'))"}, opts);
  std::string encoded = EncodeCollectionIndex(idx);
  auto loaded = DecodeCollectionIndex(encoded);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->values().mode(), ValueMode::kCharSequence);
  auto r = loaded->Query("/P/L[starts-with(., 'bos')]");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->docs, (std::vector<DocId>{0}));
}

}  // namespace
}  // namespace xseq
