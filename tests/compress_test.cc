// Round-trip and range-decode tests for the PFOR / PFOR-DELTA / PDICT block
// codecs across bit widths, exception rates, and awkward block lengths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "compress/block_layout.h"
#include "compress/codec.h"
#include "compress/pdict.h"
#include "compress/skip_cursor.h"
#include "compress/unpack.h"
#include "compress/pfor.h"
#include "compress/pfor_delta.h"

namespace x100ir::compress {
namespace {

std::vector<int32_t> MakeData(uint32_t n, int bits, double exc_rate,
                              uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> v(n);
  const uint32_t max_code = bits >= 31 ? 0x7FFFFFFFu : (1u << bits) - 1;
  for (auto& x : v) {
    if (rng.NextBernoulli(exc_rate)) {
      x = static_cast<int32_t>(max_code) +
          1 + static_cast<int32_t>(rng.NextBounded(1 << 20));
    } else {
      x = static_cast<int32_t>(rng.NextBounded(max_code));
    }
  }
  return v;
}

std::vector<int32_t> MakeSorted(uint32_t n, uint64_t seed,
                                uint32_t max_gap = 30) {
  Rng rng(seed);
  std::vector<int32_t> v(n);
  int32_t cur = 0;
  for (auto& x : v) {
    cur += 1 + static_cast<int32_t>(rng.NextBounded(max_gap));
    x = cur;
  }
  return v;
}

std::vector<int32_t> RoundTrip(const std::vector<int32_t>& values,
                               const EncodeOptions& opts,
                               Status (*encode)(const int32_t*, uint32_t,
                                                const EncodeOptions&,
                                                std::vector<uint8_t>*,
                                                BlockStats*),
                               BlockStats* stats = nullptr) {
  std::vector<uint8_t> block;
  Status s = encode(values.data(), static_cast<uint32_t>(values.size()), opts,
                    &block, stats);
  EXPECT_TRUE(s.ok()) << s.ToString();
  BlockDecoder dec;
  s = dec.Init(block.data(), block.size());
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(dec.n(), values.size());
  std::vector<int32_t> out(values.size());
  dec.DecodeAll(out.data());
  return out;
}

TEST(Pfor, RoundTripAllBitWidths) {
  for (int bits = 1; bits <= 30; ++bits) {
    auto values = MakeData(5000, bits, 0.01, 100 + bits);
    EncodeOptions opts;
    opts.bit_width = bits;
    auto out = RoundTrip(values, opts, &PforEncode);
    ASSERT_EQ(out, values) << "bit width " << bits;
  }
}

TEST(Pfor, RoundTripExceptionRates) {
  for (double rate : {0.0, 0.01, 0.5, 1.0}) {
    for (int bits : {4, 8, 16}) {
      auto values = MakeData(4096, bits, rate, 7);
      EncodeOptions opts;
      opts.bit_width = bits;
      // Pin base = 0 so the requested exception rate is the actual one
      // (otherwise FOR re-centers on min(values) and absorbs outliers).
      opts.force_base = true;
      BlockStats stats;
      auto out = RoundTrip(values, opts, &PforEncode, &stats);
      ASSERT_EQ(out, values) << "rate " << rate << " bits " << bits;
      if (rate == 0.0) {
        EXPECT_EQ(stats.n_compulsory_exceptions, 0u);
        EXPECT_EQ(stats.n_dense_windows, 0u);
      }
      if (rate == 1.0) {
        // Every window is all-exceptions, so the encoder stores them raw
        // (dense) — the block must stay near 4 bytes/value, not the ~12 a
        // fully patched window would cost.
        EXPECT_EQ(stats.n_dense_windows, 4096u / kEntryPointStride);
        EXPECT_LT(stats.BitsPerValue(), 36.0);
      }
    }
  }
}

TEST(Pfor, EmptyBlock) {
  std::vector<int32_t> values;
  EncodeOptions opts;
  opts.bit_width = 8;
  auto out = RoundTrip(values, opts, &PforEncode);
  EXPECT_TRUE(out.empty());
}

TEST(Pfor, SingleValue) {
  for (int32_t v : {0, 1, 255, 1 << 20, -5}) {
    std::vector<int32_t> values = {v};
    EncodeOptions opts;
    opts.bit_width = 8;
    opts.force_base = true;
    auto out = RoundTrip(values, opts, &PforEncode);
    ASSERT_EQ(out, values) << "value " << v;
  }
}

TEST(Pfor, NonMultipleOf128Lengths) {
  for (uint32_t n : {1u, 127u, 128u, 129u, 1000u, 4095u}) {
    auto values = MakeData(n, 8, 0.1, n);
    EncodeOptions opts;
    opts.bit_width = 8;
    auto out = RoundTrip(values, opts, &PforEncode);
    ASSERT_EQ(out, values) << "n = " << n;
  }
}

TEST(Pfor, AutoBitWidthSelection) {
  // Mostly 6-bit values with rare large outliers: auto selection should
  // land near 6 bits, not 30.
  auto values = MakeData(1 << 16, 6, 0.005, 11);
  EncodeOptions opts;
  opts.bit_width = 0;
  BlockStats stats;
  auto out = RoundTrip(values, opts, &PforEncode, &stats);
  ASSERT_EQ(out, values);
  EXPECT_GE(stats.bit_width, 4);
  EXPECT_LE(stats.bit_width, 10);
  EXPECT_LT(stats.BitsPerValue(), 12.0);
}

TEST(Pfor, FrameOfReferenceBase) {
  // Values clustered near 1e6: FOR base should make them 4-bit encodable.
  Rng rng(13);
  std::vector<int32_t> values(2000);
  for (auto& v : values) {
    v = 1000000 + static_cast<int32_t>(rng.NextBounded(14));
  }
  EncodeOptions opts;
  opts.bit_width = 4;
  BlockStats stats;
  auto out = RoundTrip(values, opts, &PforEncode, &stats);
  ASSERT_EQ(out, values);
  EXPECT_EQ(stats.n_exceptions, 0u);
}

TEST(Pfor, NegativeValuesBecomeExceptionsWithForcedBase) {
  std::vector<int32_t> values = {5, -1, 200, -1000000, 17, 3};
  EncodeOptions opts;
  opts.bit_width = 8;
  opts.force_base = true;
  BlockStats stats;
  auto out = RoundTrip(values, opts, &PforEncode, &stats);
  ASSERT_EQ(out, values);
  EXPECT_GE(stats.n_exceptions, 2u);
}

TEST(Pfor, NaiveLayoutRoundTrip) {
  for (double rate : {0.0, 0.01, 0.5, 1.0}) {
    auto values = MakeData(4096, 8, rate, 23);
    EncodeOptions opts;
    opts.bit_width = 8;
    opts.naive_layout = true;
    opts.force_base = true;
    std::vector<uint8_t> block;
    ASSERT_TRUE(PforEncode(values.data(), 4096, opts, &block, nullptr).ok());
    BlockDecoder dec;
    ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
    EXPECT_TRUE(dec.naive_layout());
    std::vector<int32_t> out(values.size());
    dec.DecodeNaive(out.data());
    ASSERT_EQ(out, values) << "rate " << rate;
    // DecodeAll must agree on naive blocks.
    std::vector<int32_t> out2(values.size());
    dec.DecodeAll(out2.data());
    ASSERT_EQ(out2, values);
  }
}

TEST(Pfor, NaiveSentinelValueIsException) {
  // The all-ones codeword is reserved in the naive layout, so a value equal
  // to it must round-trip through the exception section.
  std::vector<int32_t> values = {0, 255, 254, 255, 1};
  EncodeOptions opts;
  opts.bit_width = 8;
  opts.naive_layout = true;
  opts.force_base = true;
  BlockStats stats;
  auto out = RoundTrip(values, opts, &PforEncode, &stats);
  ASSERT_EQ(out, values);
  EXPECT_EQ(stats.n_exceptions, 2u);
}

TEST(Pfor, CompulsoryExceptionsAtSmallWidths) {
  // b=2: links reach at most 4 positions, so sparse exceptions force
  // compulsory intermediates — and the block must still round-trip.
  Rng rng(31);
  std::vector<int32_t> values(2048);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = i % 97 == 0 ? 1000 : static_cast<int32_t>(rng.NextBounded(4));
  }
  EncodeOptions opts;
  opts.bit_width = 2;
  opts.force_base = true;
  BlockStats stats;
  auto out = RoundTrip(values, opts, &PforEncode, &stats);
  ASSERT_EQ(out, values);
  EXPECT_GT(stats.n_compulsory_exceptions, 0u);
}

TEST(Pfor, RangeDecodeMatchesDecodeAll) {
  auto values = MakeData(10000, 8, 0.05, 41);
  EncodeOptions opts;
  opts.bit_width = 8;
  std::vector<uint8_t> block;
  ASSERT_TRUE(PforEncode(values.data(), 10000, opts, &block, nullptr).ok());
  BlockDecoder dec;
  ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
  Rng rng(43);
  for (int trial = 0; trial < 100; ++trial) {
    const auto pos = static_cast<uint32_t>(rng.NextBounded(10000));
    const auto len =
        static_cast<uint32_t>(1 + rng.NextBounded(10000 - pos));
    std::vector<int32_t> out(len, -12345);
    dec.Decode(pos, len, out.data());
    for (uint32_t i = 0; i < len; ++i) {
      ASSERT_EQ(out[i], values[pos + i])
          << "pos " << pos << " len " << len << " i " << i;
    }
  }
}

TEST(Pfor, RangeDecodeClampsOutOfRange) {
  auto values = MakeData(300, 8, 0.0, 47);
  EncodeOptions opts;
  opts.bit_width = 8;
  std::vector<uint8_t> block;
  ASSERT_TRUE(PforEncode(values.data(), 300, opts, &block, nullptr).ok());
  BlockDecoder dec;
  ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
  std::vector<int32_t> out(300, -1);
  dec.Decode(290, 100, out.data());  // only 10 values exist
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[i], values[290 + i]);
  EXPECT_EQ(out[10], -1);
  dec.Decode(5000, 10, out.data());  // fully out of range: no write
  EXPECT_EQ(out[10], -1);
}

TEST(Pfor, ExceptionMaskMatchesData) {
  for (bool naive : {false, true}) {
    EncodeOptions opts;
    opts.bit_width = 8;
    opts.naive_layout = naive;
    opts.force_base = true;
    // 10% exceptions: low enough that no window trips the dense escape
    // (dense windows store no exceptions to flag).
    auto values = MakeData(1000, 8, 0.1, 53);
    std::vector<uint8_t> block;
    ASSERT_TRUE(PforEncode(values.data(), 1000, opts, &block, nullptr).ok());
    BlockDecoder dec;
    ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
    std::vector<bool> mask;
    dec.ExceptionMask(&mask);
    ASSERT_EQ(mask.size(), values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      if (values[i] > 255) {
        // Natural exceptions must always be flagged (the patched layout may
        // additionally flag compulsory ones, but not at b=8).
        EXPECT_TRUE(mask[i]) << (naive ? "naive" : "patched") << " i=" << i;
      } else if (!naive) {
        EXPECT_FALSE(mask[i]) << "patched i=" << i;
      }
    }
  }
}

TEST(Pfor, InvalidArgumentsRejected) {
  std::vector<int32_t> values = {1, 2, 3};
  std::vector<uint8_t> block;
  EncodeOptions opts;
  opts.bit_width = 31;  // > kMaxBitWidth
  EXPECT_FALSE(PforEncode(values.data(), 3, opts, &block, nullptr).ok());
  opts.bit_width = -3;
  EXPECT_FALSE(PforEncode(values.data(), 3, opts, &block, nullptr).ok());
  opts.bit_width = 8;
  ASSERT_TRUE(PforEncode(values.data(), 3, opts, &block, nullptr).ok());
  BlockDecoder dec;
  EXPECT_FALSE(dec.Init(block.data(), 4).ok());  // truncated
  block[0] ^= 0xFF;                              // corrupt magic
  EXPECT_FALSE(dec.Init(block.data(), block.size()).ok());
}

TEST(Codec, InitRejectsCraftedHeaders) {
  // A header whose value count implies far more entry points than the
  // block can hold must not pass Init (it would read out of bounds).
  std::vector<int32_t> values(300, 7);
  std::vector<uint8_t> block;
  EncodeOptions opts;
  opts.bit_width = 8;
  ASSERT_TRUE(PforEncode(values.data(), 300, opts, &block, nullptr).ok());
  auto corrupt = [&](size_t offset, uint32_t v) {
    std::vector<uint8_t> bad = block;
    std::memcpy(bad.data() + offset, &v, 4);
    BlockDecoder dec;
    return dec.Init(bad.data(), bad.size());
  };
  EXPECT_FALSE(corrupt(8, 0x40000000u).ok());   // n blown up
  EXPECT_FALSE(corrupt(32, 44u).ok());          // code_offset into entries
  EXPECT_FALSE(corrupt(16, 0xFFFFFFu).ok());    // n_exceptions blown up
  // Second entry point's payload_off bent to alias the first window:
  // DecodeAll's batched unpack assumes canonical back-to-back payloads.
  EXPECT_FALSE(corrupt(40 + 16 + 12, 0u).ok());
  EXPECT_FALSE(corrupt(36, 41u).ok());  // exc_offset misaligned
}

TEST(Codec, ValidateCatchesCorruptExceptionRecords) {
  auto values = MakeData(1000, 8, 0.1, 131);
  std::vector<uint8_t> block;
  EncodeOptions opts;
  opts.bit_width = 8;
  opts.force_base = true;
  BlockStats stats;
  ASSERT_TRUE(PforEncode(values.data(), 1000, opts, &block, &stats).ok());
  ASSERT_GT(stats.n_exceptions, 0u);
  BlockDecoder dec;
  ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
  EXPECT_TRUE(dec.Validate().ok());
  // Smash the first record's position to point far outside the block's
  // value range: Validate must flag what DecodeAll would have turned into
  // an out-of-bounds write.
  const uint32_t huge = 1u << 30;
  std::memcpy(block.data() + block.size() - 8 /*pad*/ -
                  8ull * stats.n_exceptions + 4,
              &huge, 4);
  ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
  EXPECT_FALSE(dec.Validate().ok());
}

TEST(Codec, ValidateCatchesForgedNaiveSentinels) {
  // A naive block whose codewords claim more exceptions than there are
  // records would read past the exceptions section during decode.
  std::vector<int32_t> values(256, 3);
  std::vector<uint8_t> block;
  EncodeOptions opts;
  opts.bit_width = 8;
  opts.naive_layout = true;
  opts.force_base = true;
  ASSERT_TRUE(PforEncode(values.data(), 256, opts, &block, nullptr).ok());
  BlockDecoder dec;
  ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
  EXPECT_TRUE(dec.Validate().ok());
  // Flip one codeword to the all-ones sentinel without adding a record.
  const size_t code_offset = 40 + 2 * 16;  // header + 2 entry points
  block[code_offset] = 0xFF;
  ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
  EXPECT_FALSE(dec.Validate().ok());
}

TEST(Pdict, RejectsOutOfRangeBitWidth) {
  std::vector<int32_t> values = {1, 2, 3};
  std::vector<uint8_t> block;
  EncodeOptions opts;
  opts.bit_width = -3;
  EXPECT_FALSE(PdictEncode(values.data(), 3, opts, &block, nullptr).ok());
  opts.bit_width = 21;  // > kMaxDictBitWidth
  EXPECT_FALSE(PdictEncode(values.data(), 3, opts, &block, nullptr).ok());
}

TEST(PforDelta, RoundTripSortedDocids) {
  for (int bits : {0, 4, 8, 16}) {
    auto docids = MakeSorted(20000, 61 + bits);
    EncodeOptions opts;
    opts.bit_width = bits;
    auto out = RoundTrip(docids, opts, &PforDeltaEncode);
    ASSERT_EQ(out, docids) << "bits " << bits;
  }
}

TEST(PforDelta, RoundTripAllBitWidths) {
  for (int bits = 1; bits <= 30; ++bits) {
    auto docids = MakeSorted(3000, 200 + bits, /*max_gap=*/1u << (bits / 2));
    EncodeOptions opts;
    opts.bit_width = bits;
    auto out = RoundTrip(docids, opts, &PforDeltaEncode);
    ASSERT_EQ(out, docids) << "bits " << bits;
  }
}

TEST(PforDelta, AwkwardLengths) {
  for (uint32_t n : {0u, 1u, 127u, 129u, 777u}) {
    auto docids = MakeSorted(n, 71 + n);
    EncodeOptions opts;
    opts.bit_width = 8;
    auto out = RoundTrip(docids, opts, &PforDeltaEncode);
    ASSERT_EQ(out, docids) << "n = " << n;
  }
}

TEST(PforDelta, RangeDecodeFromMidBlock) {
  auto docids = MakeSorted(50000, 73);
  EncodeOptions opts;
  opts.bit_width = 8;
  std::vector<uint8_t> block;
  ASSERT_TRUE(
      PforDeltaEncode(docids.data(), 50000, opts, &block, nullptr).ok());
  BlockDecoder dec;
  ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
  Rng rng(79);
  for (int trial = 0; trial < 100; ++trial) {
    const auto pos = static_cast<uint32_t>(rng.NextBounded(50000));
    const auto len =
        static_cast<uint32_t>(1 + rng.NextBounded(
                                      std::min<uint64_t>(2048, 50000 - pos)));
    std::vector<int32_t> out(len);
    dec.Decode(pos, len, out.data());
    for (uint32_t i = 0; i < len; ++i) {
      ASSERT_EQ(out[i], docids[pos + i]) << "pos " << pos << " len " << len;
    }
  }
}

TEST(PforDelta, LargeGapsBecomeExceptions) {
  // A few huge docid jumps among small gaps: deltas overflow b bits and
  // must be patched.
  auto docids = MakeSorted(5000, 83);
  for (size_t i = 500; i < docids.size(); i += 500) {
    for (size_t j = i; j < docids.size(); ++j) docids[j] += 1 << 22;
  }
  EncodeOptions opts;
  opts.bit_width = 8;
  BlockStats stats;
  auto out = RoundTrip(docids, opts, &PforDeltaEncode, &stats);
  ASSERT_EQ(out, docids);
  EXPECT_GE(stats.n_exceptions, 9u);
}

TEST(Pdict, RoundTripSmallDictionary) {
  Rng rng(89);
  std::vector<int32_t> values(10000);
  for (auto& v : values) {
    v = static_cast<int32_t>(rng.NextBounded(64)) * 9973;
  }
  EncodeOptions opts;
  BlockStats stats;
  auto out = RoundTrip(values, opts, &PdictEncode, &stats);
  ASSERT_EQ(out, values);
  EXPECT_EQ(stats.bit_width, 6);
  EXPECT_EQ(stats.n_exceptions, 0u);
}

TEST(Pdict, OverflowingDictionaryPatchesExceptions) {
  // 2-bit dictionary over values with 20 distinct codes: the 4 most
  // frequent values stay in the dictionary, the tail gets patched.
  Rng rng(97);
  std::vector<int32_t> values(8000);
  for (auto& v : values) {
    // Zipf-ish skew: favor small codes.
    uint32_t r = static_cast<uint32_t>(rng.NextBounded(100));
    v = static_cast<int32_t>(r < 80 ? r % 4 : r % 20) * 31 - 7;
  }
  EncodeOptions opts;
  opts.bit_width = 2;
  BlockStats stats;
  auto out = RoundTrip(values, opts, &PdictEncode, &stats);
  ASSERT_EQ(out, values);
  EXPECT_GT(stats.n_exceptions, 0u);
  EXPECT_LT(stats.n_exceptions, 4000u);  // the skewed head stays dictionary
}

TEST(Pdict, AwkwardLengthsAndRange) {
  Rng rng(101);
  std::vector<int32_t> values(1337);
  for (auto& v : values) {
    v = static_cast<int32_t>(rng.NextBounded(10)) - 5;
  }
  EncodeOptions opts;
  std::vector<uint8_t> block;
  ASSERT_TRUE(PdictEncode(values.data(), 1337, opts, &block, nullptr).ok());
  BlockDecoder dec;
  ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
  std::vector<int32_t> all(values.size());
  dec.DecodeAll(all.data());
  ASSERT_EQ(all, values);
  std::vector<int32_t> window(100);
  dec.Decode(640, 100, window.data());
  for (int i = 0; i < 100; ++i) ASSERT_EQ(window[i], values[640 + i]);
}

TEST(Pdict, RejectsNaiveLayout) {
  std::vector<int32_t> values = {1, 2, 3};
  std::vector<uint8_t> block;
  EncodeOptions opts;
  opts.naive_layout = true;
  EXPECT_FALSE(PdictEncode(values.data(), 3, opts, &block, nullptr).ok());
}

TEST(Pfor, DenseWindowsNeverLoseToRaw) {
  // Sweep exception rates; compressed size must never exceed raw by more
  // than the fixed metadata (header + entry points), because high-exception
  // windows fall back to dense storage.
  for (double rate : {0.6, 0.8, 0.95, 1.0}) {
    auto values = MakeData(10000, 8, rate, 111);
    EncodeOptions opts;
    opts.bit_width = 8;
    opts.force_base = true;
    BlockStats stats;
    auto out = RoundTrip(values, opts, &PforEncode, &stats);
    ASSERT_EQ(out, values) << "rate " << rate;
    EXPECT_GT(stats.n_dense_windows, 0u) << "rate " << rate;
    const size_t raw = 4u * 10000;
    const size_t metadata =
        sizeof(uint32_t) * 10 + (10000 / kEntryPointStride + 1) * 16 + 64;
    EXPECT_LE(stats.compressed_bytes, raw + metadata) << "rate " << rate;
  }
}

TEST(Pfor, DenseWindowRangeDecode) {
  // Mixed dense/patched block: range decodes crossing dense windows must
  // still match DecodeAll.
  Rng rng(113);
  std::vector<int32_t> values(5000);
  for (size_t i = 0; i < values.size(); ++i) {
    // Alternate stretches of lightly-excepted 8-bit data (stays patched)
    // and exception-heavy data (goes dense).
    const bool heavy = (i / 512) % 2 == 1;
    values[i] = rng.NextBernoulli(heavy ? 0.9 : 0.05)
                    ? 100000 + static_cast<int32_t>(rng.NextBounded(1000))
                    : static_cast<int32_t>(rng.NextBounded(200));
  }
  EncodeOptions opts;
  opts.bit_width = 8;
  opts.force_base = true;
  std::vector<uint8_t> block;
  BlockStats stats;
  ASSERT_TRUE(PforEncode(values.data(), 5000, opts, &block, &stats).ok());
  EXPECT_GT(stats.n_dense_windows, 0u);
  EXPECT_GT(stats.n_exceptions, 0u);  // patched windows coexist
  BlockDecoder dec;
  ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
  std::vector<int32_t> all(values.size());
  dec.DecodeAll(all.data());
  ASSERT_EQ(all, values);
  Rng trng(127);
  for (int trial = 0; trial < 50; ++trial) {
    const auto pos = static_cast<uint32_t>(trng.NextBounded(5000));
    const auto len = static_cast<uint32_t>(1 + trng.NextBounded(5000 - pos));
    std::vector<int32_t> window(len);
    dec.Decode(pos, len, window.data());
    for (uint32_t i = 0; i < len; ++i) {
      ASSERT_EQ(window[i], values[pos + i]) << "pos " << pos << " len " << len;
    }
  }
}

TEST(Codec, CompressionActuallyCompresses) {
  // 60k 8-bit-ish values, 1% exceptions: the block must be far below the
  // 4-bytes-per-value raw footprint (the §3.3 story).
  auto values = MakeData(1 << 16, 8, 0.01, 103);
  EncodeOptions opts;
  opts.bit_width = 8;
  BlockStats stats;
  std::vector<uint8_t> block;
  ASSERT_TRUE(PforEncode(values.data(), 1 << 16, opts, &block, &stats).ok());
  EXPECT_LT(stats.BitsPerValue(), 10.0);
  EXPECT_EQ(stats.compressed_bytes, block.size());
}

TEST(Codec, RangeDecodeHostileEdges) {
  // Hostile-argument regression tests for Decode(pos, len): len == 0,
  // pos == n exactly, pos far beyond n, and pos + len wrapping uint32.
  // None of these may write outside the decoded span.
  auto values = MakeData(300, 8, 0.05, 211);
  EncodeOptions opts;
  opts.bit_width = 8;
  std::vector<uint8_t> block;
  ASSERT_TRUE(PforEncode(values.data(), 300, opts, &block, nullptr).ok());
  BlockDecoder dec;
  ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
  constexpr uint32_t kMax = std::numeric_limits<uint32_t>::max();

  std::vector<int32_t> out(301, -7);
  dec.Decode(0, 0, out.data());    // len == 0: no write
  dec.Decode(150, 0, out.data());  // len == 0 mid-block: no write
  dec.Decode(300, 1, out.data());  // pos == n exactly: no write
  dec.Decode(300, kMax, out.data());
  dec.Decode(kMax, kMax, out.data());  // pos and pos+len both out of range
  for (int32_t v : out) ASSERT_EQ(v, -7);

  // pos + len wraps uint32 (299 + kMax == 298 in 32-bit arithmetic): the
  // clamp must be computed in 64-bit, yielding exactly [299, 300).
  dec.Decode(299, kMax, out.data());
  EXPECT_EQ(out[0], values[299]);
  EXPECT_EQ(out[1], -7);

  // Wrap-around with a multi-window remainder: decodes [100, 300).
  std::fill(out.begin(), out.end(), -7);
  dec.Decode(100, kMax - 3, out.data());
  for (uint32_t i = 0; i < 200; ++i) ASSERT_EQ(out[i], values[100 + i]) << i;
  EXPECT_EQ(out[200], -7);

  // Empty block: every range is out of range.
  std::vector<uint8_t> empty_block;
  ASSERT_TRUE(PforEncode(nullptr, 0, opts, &empty_block, nullptr).ok());
  BlockDecoder empty_dec;
  ASSERT_TRUE(empty_dec.Init(empty_block.data(), empty_block.size()).ok());
  std::fill(out.begin(), out.end(), -7);
  empty_dec.Decode(0, 5, out.data());
  empty_dec.Decode(0, kMax, out.data());
  EXPECT_EQ(out[0], -7);
}

TEST(Codec, InitRejectsDeadDictSectionOnNonPdict) {
  // A crafted PFOR block can carry a bounds-consistent dictionary section
  // (payload offsets are relative to code_offset, so shifting the payload
  // right keeps every other check green). Before the fix Init accepted it
  // and silently ignored the section; fuzzed payloads must not be able to
  // smuggle unvalidated bytes, so Init now rejects dict_offset != 0 for
  // PFOR / PFOR-DELTA.
  std::vector<int32_t> values(200, 7);
  std::vector<uint8_t> block;
  EncodeOptions opts;
  opts.bit_width = 8;
  ASSERT_TRUE(PforEncode(values.data(), 200, opts, &block, nullptr).ok());
  BlockDecoder dec;
  ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());

  // Splice a zeroed (4 << b)-byte dictionary between the entry points and
  // the payload, then patch dict/code/exc offsets to keep the block
  // self-consistent.
  const uint32_t entries_end = 40 + 2 * 16;  // header + 2 entry points
  const uint32_t dict_bytes = 4u << 8;
  std::vector<uint8_t> bad(block.begin(), block.begin() + entries_end);
  bad.insert(bad.end(), dict_bytes, 0);
  bad.insert(bad.end(), block.begin() + entries_end, block.end());
  auto patch_u32 = [&](size_t offset, uint32_t delta_or_value, bool add) {
    uint32_t v;
    std::memcpy(&v, bad.data() + offset, 4);
    v = add ? v + delta_or_value : delta_or_value;
    std::memcpy(bad.data() + offset, &v, 4);
  };
  patch_u32(28, entries_end, /*add=*/false);  // dict_offset
  patch_u32(32, dict_bytes, /*add=*/true);    // code_offset
  patch_u32(36, dict_bytes, /*add=*/true);    // exc_offset
  BlockDecoder bad_dec;
  Status s = bad_dec.Init(bad.data(), bad.size());
  EXPECT_FALSE(s.ok());

  // Sanity: a genuine PDICT block (which must carry a dictionary) still
  // passes Init.
  std::vector<uint8_t> pdict_block;
  EncodeOptions pdict_opts;
  ASSERT_TRUE(
      PdictEncode(values.data(), 200, pdict_opts, &pdict_block, nullptr)
          .ok());
  BlockDecoder pdict_dec;
  EXPECT_TRUE(pdict_dec.Init(pdict_block.data(), pdict_block.size()).ok());
}

// Encoder round-trip at boundary shapes: n % 128 in {0, 1, 127} exercises
// the final-partial-window path, b in {1, 7, 8, 30} the byte-aligned and
// straddling codeword widths (30 leans hardest on the 8-byte
// unaligned-load pad), across all three schemes.
class BoundaryShapeTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, int, int>> {};

TEST_P(BoundaryShapeTest, RoundTripsAndRangeDecodes) {
  const uint32_t n = 384 + std::get<0>(GetParam());  // 384 / 385 / 511
  const int b = std::get<1>(GetParam());
  const int scheme = std::get<2>(GetParam());

  std::vector<int32_t> values;
  EncodeOptions opts;
  Status (*encode)(const int32_t*, uint32_t, const EncodeOptions&,
                   std::vector<uint8_t>*, BlockStats*) = nullptr;
  switch (scheme) {
    case 0:  // PFOR
      values = MakeData(n, b, 0.03, 1000 + n + b);
      opts.bit_width = b;
      opts.force_base = true;
      encode = &PforEncode;
      break;
    case 1: {  // PFOR-DELTA
      values = MakeSorted(n, 2000 + n + b,
                          /*max_gap=*/std::max(1u, 1u << (b / 2)));
      // A few huge jumps so exceptions hit the partial-window path too.
      for (size_t i = 100; i < values.size(); i += 150) {
        for (size_t j = i; j < values.size(); ++j) values[j] += 1 << 24;
      }
      opts.bit_width = b;
      encode = &PforDeltaEncode;
      break;
    }
    default: {  // PDICT: width capped at kMaxDictBitWidth
      const int bd = std::min(b, kMaxDictBitWidth);
      Rng rng(3000 + n + b);
      values.resize(n);
      // Slightly more distinct values than the dictionary holds, so small
      // widths exercise exception patching.
      const uint64_t distinct = (1ull << std::min(bd, 10)) + 3;
      for (auto& v : values) {
        v = static_cast<int32_t>(rng.NextBounded(distinct)) * 7 - 3;
      }
      opts.bit_width = bd;
      encode = &PdictEncode;
      break;
    }
  }

  std::vector<uint8_t> block;
  ASSERT_TRUE(
      encode(values.data(), n, opts, &block, nullptr).ok());
  BlockDecoder dec;
  ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
  ASSERT_TRUE(dec.Validate().ok());
  ASSERT_EQ(dec.n(), n);
  std::vector<int32_t> out(n);
  dec.DecodeAll(out.data());
  ASSERT_EQ(out, values);

  // Range decodes that isolate the final (possibly partial) window and the
  // very last value — the unaligned-load pad path.
  const uint32_t last_window_start = ((n - 1) / kEntryPointStride) *
                                     kEntryPointStride;
  const uint32_t wn = n - last_window_start;
  std::vector<int32_t> tail(wn);
  dec.Decode(last_window_start, wn, tail.data());
  for (uint32_t i = 0; i < wn; ++i) {
    ASSERT_EQ(tail[i], values[last_window_start + i]) << i;
  }
  int32_t last = 0;
  dec.Decode(n - 1, 1, &last);
  EXPECT_EQ(last, values[n - 1]);
}

std::string BoundaryShapeName(
    const ::testing::TestParamInfo<BoundaryShapeTest::ParamType>& info) {
  const int scheme = std::get<2>(info.param);
  const std::string name =
      scheme == 0 ? "Pfor" : scheme == 1 ? "PforDelta" : "Pdict";
  return name + "_n384p" + std::to_string(std::get<0>(info.param)) + "_b" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    EncoderBoundarySweep, BoundaryShapeTest,
    ::testing::Combine(::testing::Values(0u, 1u, 127u),
                       ::testing::Values(1, 7, 8, 30),
                       ::testing::Values(0, 1, 2)),
    BoundaryShapeName);

TEST(Codec, EntryPointStrideIsStable) {
  // The on-disk format and the skip granularity depend on this constant;
  // changing it is a format break.
  EXPECT_EQ(kEntryPointStride, 128u);
}

// ---------------------------------------------------------------------------
// SIMD LOOP1 unpack (PR 4): bit-exactness against the scalar kernels.
// ---------------------------------------------------------------------------

// Restores the SIMD toggle even when an assertion bails out of a test.
class ScopedSimdToggle {
 public:
  ScopedSimdToggle() : prev_(internal::SimdUnpackEnabled()) {}
  ~ScopedSimdToggle() { internal::SetSimdUnpackEnabled(prev_); }

 private:
  bool prev_;
};

TEST(Codec, SimdUnpackBitExactSweep) {
  // On hosts without SIMD support both decodes run the scalar table and the
  // sweep degenerates to determinism; on SSE/NEON hosts it pins the shuffle
  // kernels (including their scalar tails at awkward lengths) to the scalar
  // ground truth across schemes and exception rates.
  ScopedSimdToggle guard;
  for (int b : {1, 4, 7, 8, 13, 16, 26, 30}) {
    for (bool delta : {false, true}) {
      // Delta exceptions are giant gaps; past b=16 their running sum would
      // overflow int32 at these lengths, so wide widths sweep PFOR only.
      if (delta && b > 16) continue;
      for (uint32_t n : {1u, 127u, 128u, 129u, 1023u, 4096u}) {
        for (double rate : {0.0, 0.05, 0.5}) {
          std::vector<int32_t> values;
          if (delta) {
            // Exceptions in the delta domain: occasional giant gaps.
            Rng rng(7'000 + b + n + static_cast<uint64_t>(rate * 100));
            values.resize(n);
            int32_t cur = 0;
            for (auto& x : values) {
              // Exception gaps stay small enough that 4096 of them cannot
              // overflow the running int32 value.
              cur += rng.NextBernoulli(rate)
                         ? (1 << b) + 1 +
                               static_cast<int32_t>(rng.NextBounded(1 << 10))
                         : 1 + static_cast<int32_t>(
                                   rng.NextBounded((1u << b) - 1));
              x = cur;
            }
          } else {
            values = MakeData(n, b, rate, 9'000 + b + n);
          }
          EncodeOptions opts;
          opts.bit_width = b;
          std::vector<uint8_t> block;
          const auto encode = delta ? &PforDeltaEncode : &PforEncode;
          ASSERT_TRUE(encode(values.data(), n, opts, &block, nullptr).ok());
          BlockDecoder dec;
          ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());

          std::vector<int32_t> simd_out(n), scalar_out(n);
          internal::SetSimdUnpackEnabled(true);
          dec.DecodeAll(simd_out.data());
          internal::SetSimdUnpackEnabled(false);
          dec.DecodeAll(scalar_out.data());
          ASSERT_EQ(simd_out, scalar_out)
              << "b=" << b << " delta=" << delta << " n=" << n
              << " rate=" << rate;
          ASSERT_EQ(simd_out, values);

          // Range decodes hit the per-window path with partial windows.
          Rng rng(31 + n);
          for (int rep = 0; rep < 8; ++rep) {
            const uint32_t pos =
                static_cast<uint32_t>(rng.NextBounded(n));
            const uint32_t len = 1 + static_cast<uint32_t>(
                                         rng.NextBounded(n - pos));
            std::vector<int32_t> a(len), s(len);
            internal::SetSimdUnpackEnabled(true);
            dec.Decode(pos, len, a.data());
            internal::SetSimdUnpackEnabled(false);
            dec.Decode(pos, len, s.data());
            ASSERT_EQ(a, s) << "b=" << b << " pos=" << pos << " len=" << len;
          }
        }
      }
    }
  }
}

TEST(Codec, Avx2UnpackAllWidthsBitExact) {
  // Direct kernel-level sweep: every width 1..kMaxBitWidth against the
  // scalar oracle on raw random bitstreams, at lengths chosen to hit zero
  // full groups, exact group boundaries, and partial tails (the SIMD
  // kernels' scalar resume). On hosts without AVX2 the dispatcher returns
  // the shuffle-table or scalar kernel and the sweep still pins agreement.
  ScopedSimdToggle guard;
  internal::SetSimdUnpackEnabled(true);
  Rng rng(0xA7C2);
  for (int b = 1; b <= kMaxBitWidth; ++b) {
    for (uint32_t n :
         {1u, 7u, 8u, 9u, 15u, 63u, 127u, 128u, 129u, 1024u, 1031u}) {
      // Codeword bytes plus the kBlockPadBytes slack every decode path
      // guarantees past the last codeword.
      std::vector<uint8_t> src((static_cast<uint64_t>(n) * b + 7) / 8 +
                               internal::kBlockPadBytes);
      for (auto& byte : src) {
        byte = static_cast<uint8_t>(rng.NextBounded(256));
      }
      const int32_t base =
          static_cast<int32_t>(rng.NextBounded(1u << 20)) - 17;
      std::vector<int32_t> got(n, -1), want(n, -2);
      internal::GetUnpackAdd(b)(src.data(), n, base, got.data());
      internal::ScalarUnpackAdd(b)(src.data(), n, base, want.data());
      ASSERT_EQ(got, want) << "b=" << b << " n=" << n;
    }
  }
}

TEST(Codec, PatchKernelBitExact) {
  // LOOP2 kernel agreement: unique positions (the block invariant) make
  // store order irrelevant, so the SIMD deinterleave must land the exact
  // same bytes as the scalar record loop, including the sub-quad tail.
  ScopedSimdToggle guard;
  internal::SetSimdUnpackEnabled(true);
  Rng rng(0x9E37);
  const uint32_t out_base = 256;
  const uint32_t window = 512;
  for (uint32_t count : {0u, 1u, 3u, 4u, 5u, 8u, 127u}) {
    std::vector<internal::ExceptionRecord> recs(count);
    std::vector<uint32_t> pos(window);
    for (uint32_t i = 0; i < window; ++i) pos[i] = out_base + i;
    for (uint32_t i = 0; i < count; ++i) {
      std::swap(pos[i],
                pos[i + static_cast<uint32_t>(rng.NextBounded(window - i))]);
      recs[i].pos = pos[i];
      recs[i].value = static_cast<int32_t>(rng.NextBounded(1u << 30)) - 5;
    }
    std::vector<int32_t> got(window, 0), want(window, 0);
    internal::GetPatch()(reinterpret_cast<const uint8_t*>(recs.data()), count,
                         out_base, got.data());
    internal::ScalarPatch()(reinterpret_cast<const uint8_t*>(recs.data()),
                            count, out_base, want.data());
    ASSERT_EQ(got, want) << count;
  }
}

TEST(Codec, SimdDispatchReportsConsistently) {
  ScopedSimdToggle guard;
  internal::SetSimdUnpackEnabled(true);
  const internal::SimdLevel level = internal::ActiveSimdLevel();
  const bool host_has_simd = level != internal::SimdLevel::kScalar;
  for (int b : {4, 8, 16}) {
    EXPECT_EQ(internal::SimdUnpackAvailable(b), host_has_simd) << b;
    EXPECT_EQ(internal::GetUnpackAdd(b) != internal::ScalarUnpackAdd(b),
              host_has_simd)
        << b;
  }
  // The generic AVX2 kernels cover every width; the shuffle-table SSSE3 /
  // NEON kernels only the byte-friendly ones, so other widths fall back to
  // the scalar table there.
  const bool all_widths = level == internal::SimdLevel::kAvx2;
  for (int b : {1, 7, 15, 26, 30}) {
    EXPECT_EQ(internal::SimdUnpackAvailable(b), all_widths) << b;
    EXPECT_EQ(internal::GetUnpackAdd(b) != internal::ScalarUnpackAdd(b),
              all_widths)
        << b;
  }
  // The LOOP2 patch kernel dispatches the same way.
  EXPECT_EQ(internal::GetPatch() != internal::ScalarPatch(), all_widths);
  internal::SetSimdUnpackEnabled(false);
  EXPECT_EQ(internal::ActiveSimdLevel(), internal::SimdLevel::kScalar);
  EXPECT_FALSE(internal::SimdUnpackAvailable(8));
  EXPECT_EQ(internal::GetUnpackAdd(8), internal::ScalarUnpackAdd(8));
  EXPECT_EQ(internal::GetPatch(), internal::ScalarPatch());
}

// ---------------------------------------------------------------------------
// BlockCursor / SkipTo: block-skipping scans over a resident block.
// ---------------------------------------------------------------------------

// Shorthands over the resident cursor (its loads cannot fail).
bool SkipTo(BlockCursor& cur, int32_t target) {
  cur.SkipTo(target);
  return !cur.AtEnd();
}

int32_t Value(BlockCursor& cur) {
  int32_t v = 0;
  cur.Value(&v);
  return v;
}

RunView CurrentRun(BlockCursor& cur) {
  RunView rv;
  cur.CurrentRun(&rv);
  return rv;
}

// Builds a TD.docid-shaped column: `runs` concatenated ascending runs whose
// boundaries reset to small values (the per-term resets force_base turns
// into exceptions).
std::vector<int32_t> MakeRunColumn(const std::vector<uint32_t>& run_lens,
                                   uint64_t seed, uint32_t max_gap = 9) {
  Rng rng(seed);
  std::vector<int32_t> v;
  for (uint32_t len : run_lens) {
    int32_t cur = static_cast<int32_t>(rng.NextBounded(50));
    for (uint32_t i = 0; i < len; ++i) {
      cur += 1 + static_cast<int32_t>(rng.NextBounded(max_gap));
      v.push_back(cur);
    }
  }
  return v;
}

// Drives one cursor over [begin, end) with an ascending probe list and
// checks every landing against the linear-scan oracle on the full decode.
void CheckCursorAgainstOracle(const BlockDecoder& dec,
                              const std::vector<int32_t>& full,
                              uint64_t begin, uint64_t end,
                              const std::vector<int32_t>& probes) {
  BlockCursor cur;
  ASSERT_TRUE(cur.Init(BlockWindows(&dec), begin, end).ok());
  uint64_t opos = begin;
  for (int32_t t : probes) {
    while (opos < end && full[opos] < t) ++opos;
    const bool found = SkipTo(cur, t);
    ASSERT_EQ(found, opos < end) << "probe " << t;
    ASSERT_EQ(cur.AtEnd(), opos >= end);
    if (found) {
      ASSERT_EQ(cur.position(), opos) << "probe " << t;
      ASSERT_EQ(Value(cur), full[opos]) << "probe " << t;
    }
  }
}

TEST(SkipCursor, AgreesWithOracleAcrossHostileBoundaries) {
  // Shapes: run splits landing on/next to window boundaries, totals with
  // n % 128 in {0, 1, 127}, widths from compulsory-exception-riddled b=1
  // to exception-free b=30.
  const std::vector<std::vector<uint32_t>> shapes = {
      {256, 128, 384},        // n = 768 (0 mod 128), boundaries on windows
      {129, 127, 1},          // n = 257 (1 mod 128)
      {100, 27, 300, 84},     // n = 511 (127 mod 128)
      {1, 1, 126},            // tiny runs inside one window
      {640},                  // single run spanning 5 windows
  };
  for (const auto& shape : shapes) {
    const auto values = MakeRunColumn(shape, 42 + shape[0]);
    const uint32_t n = static_cast<uint32_t>(values.size());
    for (int b : {1, 7, 8, 16, 30}) {
      EncodeOptions opts;
      opts.bit_width = b;
      opts.force_base = true;
      std::vector<uint8_t> block;
      ASSERT_TRUE(
          PforDeltaEncode(values.data(), n, opts, &block, nullptr).ok());
      BlockDecoder dec;
      ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
      // Sanity: the decoder still round-trips this shape.
      std::vector<int32_t> out(n);
      dec.DecodeAll(out.data());
      ASSERT_EQ(out, values) << "b=" << b;

      uint64_t begin = 0;
      for (uint32_t len : shape) {
        const uint64_t end = begin + len;
        // Probe script: every run value, its neighbors, and window-edge
        // positions — ascending, as the merge-join contract requires.
        std::vector<int32_t> probes;
        for (uint64_t p = begin; p < end; ++p) {
          probes.push_back(values[p] - 1);
          probes.push_back(values[p]);
          probes.push_back(values[p] + 1);
        }
        std::sort(probes.begin(), probes.end());
        CheckCursorAgainstOracle(dec, values, begin, end, probes);
        // A second pass probing only past-the-end.
        CheckCursorAgainstOracle(
            dec, values, begin, end,
            {values[end - 1], values[end - 1] + 1});
        begin = end;
      }
    }
  }
}

TEST(SkipCursor, SequentialNextMatchesFullDecode) {
  const auto values = MakeRunColumn({500, 300, 200}, 99);
  EncodeOptions opts;
  opts.bit_width = 8;
  opts.force_base = true;
  std::vector<uint8_t> block;
  ASSERT_TRUE(PforDeltaEncode(values.data(),
                              static_cast<uint32_t>(values.size()), opts,
                              &block, nullptr)
                  .ok());
  BlockDecoder dec;
  ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
  BlockCursor cur;
  ASSERT_TRUE(cur.Init(BlockWindows(&dec), 500, 800).ok());
  for (uint64_t p = 500; p < 800; ++p) {
    ASSERT_FALSE(cur.AtEnd());
    ASSERT_EQ(cur.position(), p);
    ASSERT_EQ(Value(cur), values[p]);
    cur.Next();
  }
  ASSERT_TRUE(cur.AtEnd());
  // Sequential reads decode each window exactly once.
  EXPECT_EQ(cur.stats().windows_decoded, (800 + 127) / 128 - 500 / 128);
}

TEST(SkipCursor, SkipsWindowsWithoutDecodingThem) {
  // A long sorted list probed at a handful of far-apart targets: the
  // cursor must decode only the windows it lands in, skipping the rest.
  const auto values = MakeSorted(128 * 100, 7);  // 100 windows
  EncodeOptions opts;
  opts.force_base = true;
  std::vector<uint8_t> block;
  ASSERT_TRUE(PforDeltaEncode(values.data(),
                              static_cast<uint32_t>(values.size()), opts,
                              &block, nullptr)
                  .ok());
  BlockDecoder dec;
  ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
  BlockCursor cur;
  ASSERT_TRUE(cur.Init(BlockWindows(&dec), 0, values.size()).ok());
  for (uint64_t p : {4000ull, 8000ull, 12700ull}) {
    ASSERT_TRUE(SkipTo(cur, values[p]));
    EXPECT_EQ(cur.position(), p);
  }
  EXPECT_EQ(cur.stats().windows_decoded, 3u);
  EXPECT_GT(cur.stats().windows_skipped, 90u);
  EXPECT_EQ(cur.stats().skip_calls, 3u);
}

TEST(Codec, SkipStatsPartitionExact) {
  // Counter-drift audit (DESIGN.md §12.4): randomly mixed driving — value
  // skips (SkipTo, including the probe-past-everything exhaust path),
  // Block-Max window rejects, and bulk run decodes — over hostile sub-range
  // boundaries. At exhaustion, windows_decoded + windows_skipped +
  // windows_blockmax_skipped must equal the number of 128-value windows
  // overlapping [begin, end) exactly. No single counter is monotone in how
  // aggressively the driver skips; only the partition is invariant.
  const auto values = MakeSorted(5 * 128 + 57, 0xBEEF, 40);
  const uint32_t n = static_cast<uint32_t>(values.size());
  EncodeOptions opts;
  opts.force_base = true;
  std::vector<uint8_t> block;
  ASSERT_TRUE(PforDeltaEncode(values.data(), n, opts, &block, nullptr).ok());
  BlockDecoder dec;
  ASSERT_TRUE(dec.Init(block.data(), block.size()).ok());
  const uint32_t ranges[][2] = {{0, n},         {1, n - 1}, {127, 129},
                                {128, 256},     {130, 131}, {3, 128 * 4 + 1},
                                {128 * 2, n}};
  Rng rng(0x5EED);
  for (const auto& range : ranges) {
    const uint32_t begin = range[0], end = range[1];
    for (int rep = 0; rep < 16; ++rep) {
      BlockCursor cur;
      ASSERT_TRUE(cur.Init(BlockWindows(&dec), begin, end).ok());
      int32_t probe = values[begin];
      while (!cur.AtEnd()) {
        switch (rng.NextBounded(3)) {
          case 0:
            cur.SkipCurrentWindowBlockMax();
            break;
          case 1: {
            const auto rv = CurrentRun(cur);
            ASSERT_LT(rv.lo, rv.hi);
            probe = std::max(probe, rv.vals[rv.hi - 1]);
            cur.AdvanceTo(rv.win_base + rv.hi);
            break;
          }
          default: {
            probe += static_cast<int32_t>(rng.NextBounded(200));
            if (SkipTo(cur, probe)) {
              probe = std::max(probe, Value(cur));
              cur.Next();
            }
            break;
          }
        }
      }
      const auto& st = cur.stats();
      const uint64_t overlapped = (end - 1) / 128 - begin / 128 + 1;
      ASSERT_EQ(st.windows_decoded + st.windows_skipped +
                    st.windows_blockmax_skipped,
                overlapped)
          << "range [" << begin << "," << end << ") rep " << rep
          << " decoded=" << st.windows_decoded
          << " skipped=" << st.windows_skipped
          << " blockmax=" << st.windows_blockmax_skipped;
    }
  }
}

TEST(SkipCursor, InitRejectsBadRangesAndSchemes) {
  const auto values = MakeSorted(1000, 3);
  std::vector<uint8_t> delta_block, pfor_block;
  EncodeOptions opts;
  opts.force_base = true;
  ASSERT_TRUE(PforDeltaEncode(values.data(), 1000, opts, &delta_block,
                              nullptr)
                  .ok());
  ASSERT_TRUE(PforEncode(values.data(), 1000, {}, &pfor_block, nullptr).ok());
  BlockDecoder delta_dec, pfor_dec;
  ASSERT_TRUE(delta_dec.Init(delta_block.data(), delta_block.size()).ok());
  ASSERT_TRUE(pfor_dec.Init(pfor_block.data(), pfor_block.size()).ok());

  BlockCursor cur;
  EXPECT_FALSE(cur.Init(BlockWindows(nullptr), 0, 0).ok());
  // PFOR blocks carry no window value bases: skipping would be wrong.
  EXPECT_FALSE(cur.Init(BlockWindows(&pfor_dec), 0, 1000).ok());
  const BlockWindows delta(&delta_dec);
  EXPECT_FALSE(cur.Init(delta, 500, 400).ok());  // begin > end
  EXPECT_FALSE(cur.Init(delta, 0, 1001).ok());   // past the block
  ASSERT_TRUE(cur.Init(delta, 700, 700).ok());   // empty range is fine
  EXPECT_TRUE(cur.AtEnd());
  EXPECT_FALSE(SkipTo(cur, 0));

  // Probing below the current value never moves the cursor.
  ASSERT_TRUE(cur.Init(delta, 200, 900).ok());
  ASSERT_TRUE(SkipTo(cur, values[450]));
  const uint64_t pos = cur.position();
  ASSERT_TRUE(SkipTo(cur, values[450] - 3));
  EXPECT_EQ(cur.position(), pos);
  ASSERT_TRUE(SkipTo(cur, values[450]));
  EXPECT_EQ(cur.position(), pos);
  // Probing past everything exhausts the cursor cleanly.
  EXPECT_FALSE(SkipTo(cur, values[899] + 1));
  EXPECT_TRUE(cur.AtEnd());
}

}  // namespace
}  // namespace x100ir::compress
