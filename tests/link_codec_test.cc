// Edge-case tests for the link block codec (src/index/link_codec.h): the
// shapes where bit-packing degenerates — single entries, header-only
// blocks, exact block boundaries, maximally wide values — plus stream-split
// decode equivalence and image-level block checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "src/core/persist.h"
#include "src/index/link_codec.h"
#include "src/index/trie.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace xseq {
namespace {

struct Decoded {
  std::vector<uint32_t> serials, ends, covers;
};

/// Packs one logical link (any length) block by block and decodes it back.
Decoded RoundTrip(const std::vector<uint32_t>& serials,
                  const std::vector<uint32_t>& ends,
                  const std::vector<uint32_t>& covers,
                  std::vector<LinkBlockHeader>* headers_out = nullptr) {
  std::vector<LinkBlockHeader> headers;
  std::vector<uint64_t> words;
  const uint32_t n = static_cast<uint32_t>(serials.size());
  for (uint32_t off = 0; off < n; off += kLinkBlockSize) {
    uint32_t count = std::min(kLinkBlockSize, n - off);
    headers.push_back(PackLinkBlock(serials.data() + off, ends.data() + off,
                                    covers.data() + off, count, off,
                                    &words));
  }
  Decoded d;
  LinkBlockScratch scratch;
  for (size_t b = 0; b < headers.size(); ++b) {
    const LinkBlockHeader& h = headers[b];
    UnpackLinkBlock(h, words.data() + h.word_off,
                    static_cast<uint32_t>(b) * kLinkBlockSize, &scratch);
    for (uint32_t i = 0; i < LinkBlockCount(h); ++i) {
      d.serials.push_back(scratch.serials[i]);
      d.ends.push_back(scratch.ends[i]);
      d.covers.push_back(scratch.covers[i]);
    }
  }
  if (headers_out != nullptr) *headers_out = std::move(headers);
  return d;
}

TEST(LinkCodec, SingleEntryLinkIsHeaderOnly) {
  std::vector<uint32_t> s = {42}, e = {42}, c = {kNoLinkCover};
  std::vector<LinkBlockHeader> headers;
  Decoded d = RoundTrip(s, e, c, &headers);
  EXPECT_EQ(d.serials, s);
  EXPECT_EQ(d.ends, e);
  EXPECT_EQ(d.covers, c);
  ASSERT_EQ(headers.size(), 1u);
  // A lone leaf has no deltas, a zero end offset and no cover: all three
  // streams are zero-width and the block packs to zero payload words.
  EXPECT_EQ(headers[0].delta_bits, 0);
  EXPECT_EQ(headers[0].end_bits, 0);
  EXPECT_EQ(headers[0].cover_bits, 0);
  EXPECT_EQ(LinkBlockWords(headers[0]), 0u);
  EXPECT_EQ(headers[0].base_serial, 42u);
  EXPECT_EQ(headers[0].max_end, 42u);
}

TEST(LinkCodec, ZeroDeltaRunPacksToZeroBits) {
  // Consecutive sibling leaves: serial deltas are all exactly 1 (stored as
  // delta - 1 = 0), ends equal serials, no covers — a full block that still
  // occupies no payload words.
  std::vector<uint32_t> s, e, c;
  for (uint32_t i = 0; i < kLinkBlockSize; ++i) {
    s.push_back(1000 + i);
    e.push_back(1000 + i);
    c.push_back(kNoLinkCover);
  }
  std::vector<LinkBlockHeader> headers;
  Decoded d = RoundTrip(s, e, c, &headers);
  EXPECT_EQ(d.serials, s);
  EXPECT_EQ(d.ends, e);
  EXPECT_EQ(d.covers, c);
  ASSERT_EQ(headers.size(), 1u);
  EXPECT_EQ(LinkBlockWords(headers[0]), 0u);
  EXPECT_EQ(LinkBlockCount(headers[0]), kLinkBlockSize);
}

TEST(LinkCodec, ExactBlockBoundarySplits) {
  // 128, 129 and 256 entries: the boundary between "one block" and "one
  // block plus a one-entry tail" and the exactly-two-blocks case.
  for (uint32_t n : {kLinkBlockSize, kLinkBlockSize + 1, 2 * kLinkBlockSize}) {
    std::vector<uint32_t> s, e, c;
    for (uint32_t i = 0; i < n; ++i) {
      s.push_back(i * 3);
      e.push_back(i * 3 + 2);
      c.push_back(i > 0 && i % 7 == 0 ? i - 1 : kNoLinkCover);
    }
    std::vector<LinkBlockHeader> headers;
    Decoded d = RoundTrip(s, e, c, &headers);
    EXPECT_EQ(d.serials, s) << n;
    EXPECT_EQ(d.ends, e) << n;
    EXPECT_EQ(d.covers, c) << n;
    EXPECT_EQ(headers.size(), (n + kLinkBlockSize - 1) / kLinkBlockSize)
        << n;
    for (size_t b = 0; b < headers.size(); ++b) {
      EXPECT_EQ(headers[b].base_serial, s[b * kLinkBlockSize]) << n;
    }
  }
}

TEST(LinkCodec, MaxDeltaWideBlocksUseFullWidths) {
  // Deltas and end offsets near 2^31: forces the per-block widths to their
  // practical maximum and exercises the bit reader's word-straddling path
  // on every value.
  const uint32_t kBig = 1u << 31;
  std::vector<uint32_t> s = {0, kBig - 1, (kBig - 1) + (kBig / 2)};
  std::vector<uint32_t> e = {s[0] + kBig, s[1] + kBig / 3, s[2]};
  std::vector<uint32_t> c = {kNoLinkCover, 0, 1};
  std::vector<LinkBlockHeader> headers;
  Decoded d = RoundTrip(s, e, c, &headers);
  EXPECT_EQ(d.serials, s);
  EXPECT_EQ(d.ends, e);
  EXPECT_EQ(d.covers, c);
  ASSERT_EQ(headers.size(), 1u);
  EXPECT_GE(headers[0].delta_bits, 30);
  EXPECT_LE(headers[0].delta_bits, 32);
  EXPECT_GE(headers[0].end_bits, 31);
  EXPECT_EQ(headers[0].max_end, *std::max_element(e.begin(), e.end()));
  EXPECT_LE(LinkBlockWords(headers[0]), kMaxLinkBlockWords);
}

TEST(LinkCodec, StreamSplitDecodesMatchFullDecode) {
  // Random blocks: decoding stream by stream (in any legal order — serials
  // before ends) must produce exactly what the full decode produces.
  Rng rng(77, 5);
  for (int trial = 0; trial < 50; ++trial) {
    uint32_t count = 1 + rng.Uniform(kLinkBlockSize);
    std::vector<uint32_t> s, e, c;
    uint32_t serial = rng.Uniform(1000);
    for (uint32_t i = 0; i < count; ++i) {
      serial += 1 + rng.Uniform(1 << (1 + rng.Uniform(20)));
      s.push_back(serial);
      e.push_back(serial + rng.Uniform(1 << (rng.Uniform(16))));
      c.push_back(i > 0 && rng.Uniform(4) == 0 ? rng.Uniform(i)
                                               : kNoLinkCover);
    }
    std::vector<uint64_t> words;
    LinkBlockHeader h =
        PackLinkBlock(s.data(), e.data(), c.data(), count, 0, &words);
    // Ensure out-of-range reads would be caught: pad nothing, words holds
    // exactly LinkBlockWords(h) entries.
    ASSERT_EQ(words.size(), LinkBlockWords(h));
    words.push_back(0);  // straddle guard word for the reader

    LinkBlockScratch full;
    UnpackLinkBlock(h, words.data(), 0, &full);
    LinkBlockScratch split;
    UnpackLinkSerials(h, words.data(), &split);
    UnpackLinkEnds(h, words.data(), &split);
    UnpackLinkCovers(h, words.data(), 0, &split);
    for (uint32_t i = 0; i < count; ++i) {
      ASSERT_EQ(full.serials[i], s[i]) << trial << ":" << i;
      ASSERT_EQ(split.serials[i], full.serials[i]) << trial << ":" << i;
      ASSERT_EQ(split.ends[i], full.ends[i]) << trial << ":" << i;
      ASSERT_EQ(split.covers[i], full.covers[i]) << trial << ":" << i;
    }
  }
}

// --- FrozenIndex-level checks ---------------------------------------------

TEST(LinkCodecCompat, CorruptBlockHeaderIsRejectedBeforeDecode) {
  CollectionIndex idx = testing::MakeIndex(
      {"P(R(L('x'))R(L('x')))", "P(R(R(L('y'))))"});
  std::string data = EncodeCollectionIndex(idx);
  // Flip every byte of the image once; every flip must be rejected (the
  // section checksum catches it before the structural checks even run).
  // This subsumes header-field corruption — oversized counts, widths,
  // non-cumulative word offsets — without needing to locate the header.
  for (size_t pos = 0; pos < data.size(); ++pos) {
    std::string bad = data;
    bad[pos] ^= 0x40;
    EXPECT_FALSE(DecodeCollectionIndex(bad).ok()) << pos;
  }
}

TEST(LinkCodecCompat, FrozenIndexPackedBytesAccounting) {
  CollectionIndex idx = testing::MakeIndex(
      {"P(R(L('x'))R(L('x'))R(L('x'))R(L('x')))", "P(R(L('x')))"});
  const FrozenIndex& fi = idx.index();
  // Logical size is 12 bytes per entry; packed is headers + words + the
  // block directory, and on any real corpus it must be strictly smaller.
  uint64_t entries = 0;
  for (PathId p = 0; p < fi.distinct_paths(); ++p) entries += fi.LinkSize(p);
  EXPECT_EQ(fi.LogicalLinkBytes(), entries * 12);
  EXPECT_GT(fi.PackedLinkBytes(), 0u);
  EXPECT_LT(fi.PackedLinkBytes(), fi.LogicalLinkBytes());
}

}  // namespace
}  // namespace xseq
