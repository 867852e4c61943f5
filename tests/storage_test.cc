// Unit tests for the chunked column storage layer: encoding round-trips,
// zone-map / histogram pruning semantics (including the boundary and null
// cases the engine's pruning pass relies on), and the decode kernels
// across (v, s, p) coordinates.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/aligned_buffer.h"
#include "common/rng.h"
#include "hybrid/hybrid_config.h"
#include "storage/chunk.h"
#include "storage/chunked_column.h"
#include "storage/decode.h"
#include "storage/encoding.h"

namespace hef::storage {
namespace {

std::vector<std::uint64_t> DecodeAll(const ChunkedColumn& col,
                                     const HybridConfig& cfg) {
  std::vector<std::uint64_t> out(col.size());
  DecodeScratch scratch;
  scratch.EnsureCapacity(col.size());
  col.DecodeRange(cfg, 0, col.size(), scratch, out.data());
  return out;
}

// ---------------------------------------------------------------------------
// PackBits / UnpackBitsArray

TEST(PackBitsTest, RoundTripsEveryWidth) {
  Rng rng(0xbeefULL);
  for (const std::uint8_t width : kPackedWidths) {
    if (width == 0) continue;
    const std::size_t n = 1000;  // not a multiple of values-per-word
    const std::uint64_t mask =
        width >= 64 ? ~0ULL : (1ULL << width) - 1;
    std::vector<std::uint64_t> values(n);
    for (auto& v : values) v = rng.Next() & mask;
    AlignedBuffer<std::uint64_t> words(PackedWords(n, width), 8);
    PackBits(values.data(), n, width, words.data());

    DecodeScratch scratch;
    scratch.EnsureCapacity(n);
    std::vector<std::uint64_t> out(n);
    UnpackBitsArray(HybridConfig{1, 1, 2}, words.data(), width,
                    /*first=*/0, scratch.iota(), out.data(), n);
    EXPECT_EQ(values, out) << "width " << int(width);
  }
}

TEST(PackBitsTest, UnpackHonoursFirstOffset) {
  const std::uint8_t width = 8;
  const std::size_t n = 64;
  std::vector<std::uint64_t> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = i * 3 % 251;
  AlignedBuffer<std::uint64_t> words(PackedWords(n, width), 8);
  PackBits(values.data(), n, width, words.data());

  DecodeScratch scratch;
  scratch.EnsureCapacity(n);
  std::vector<std::uint64_t> out(n - 13);
  UnpackBitsArray(HybridConfig{1, 0, 1}, words.data(), width,
                  /*first=*/13, scratch.iota(), out.data(), n - 13);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], values[13 + i]) << i;
  }
}

TEST(DecodeKernelsTest, AllSupportedConfigsAgree) {
  Rng rng(7);
  const std::size_t n = 777;
  std::vector<std::uint64_t> values(n);
  for (auto& v : values) v = rng.Next() & 0xffff;
  AlignedBuffer<std::uint64_t> words(PackedWords(n, 16), 8);
  PackBits(values.data(), n, 16, words.data());
  DecodeScratch scratch;
  scratch.EnsureCapacity(n);
  for (const HybridConfig& cfg : UnpackBitsSupportedConfigs()) {
    std::vector<std::uint64_t> out(n);
    UnpackBitsArray(cfg, words.data(), 16, 0, scratch.iota(), out.data(),
                    n);
    EXPECT_EQ(values, out) << cfg.ToString();
  }
  for (const HybridConfig& cfg : ForAddSupportedConfigs()) {
    std::vector<std::uint64_t> out(n);
    ForAddArray(cfg, 19920101, values.data(), out.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], values[i] + 19920101) << cfg.ToString();
    }
  }
  std::vector<std::uint64_t> dict(256);
  for (std::size_t i = 0; i < dict.size(); ++i) dict[i] = i * i;
  std::vector<std::uint64_t> codes(n);
  for (auto& c : codes) c = rng.Next() % dict.size();
  for (const HybridConfig& cfg : DictGatherSupportedConfigs()) {
    std::vector<std::uint64_t> out(n);
    DictGatherArray(cfg, dict.data(), codes.data(), out.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], dict[codes[i]]) << cfg.ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// EncodeChunk

TEST(EncodeChunkTest, PolicyRoundTrips) {
  Rng rng(0x1234ULL);
  // Dict-friendly (few distinct), FoR-friendly (dense range off a big
  // base), and incompressible (full 64-bit spread) inputs.
  std::vector<std::vector<std::uint64_t>> inputs(3);
  for (std::size_t i = 0; i < 5000; ++i) {
    inputs[0].push_back(1101 + 100 * (rng.Next() % 40));
    inputs[1].push_back(19980101 + rng.Next() % 365);
    inputs[2].push_back(rng.Next());
  }
  for (const auto& values : inputs) {
    for (const EncodingPolicy policy :
         {EncodingPolicy::kAuto, EncodingPolicy::kPlain,
          EncodingPolicy::kDict, EncodingPolicy::kFor}) {
      const ChunkedColumn col = ChunkedColumn::Encode(
          values.data(), values.size(), /*chunk_rows=*/2048, policy);
      EXPECT_EQ(DecodeAll(col, HybridConfig{2, 1, 2}), values)
          << EncodingPolicyName(policy);
    }
  }
}

TEST(EncodeChunkTest, AutoPicksDictForFewDistinct) {
  std::vector<std::uint64_t> values(4096);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 1'000'000'000ULL * (i % 3);  // 3 distinct, huge range
  }
  const ColumnChunk chunk =
      EncodeChunk(values.data(), values.size(), EncodingPolicy::kAuto);
  EXPECT_EQ(chunk.encoding, Encoding::kDict);
  EXPECT_EQ(chunk.dict.size(), 3u);
  // 3 codes fit in 2 bits.
  EXPECT_LE(chunk.width, 2);
}

TEST(EncodeChunkTest, AutoPicksForOnDenseRange) {
  std::vector<std::uint64_t> values(4096);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 19940000 + (i * 37) % 10000;  // ~10k distinct, small span
  }
  const ColumnChunk chunk =
      EncodeChunk(values.data(), values.size(), EncodingPolicy::kAuto);
  EXPECT_EQ(chunk.encoding, Encoding::kFor);
  EXPECT_LE(chunk.width, 16);
}

TEST(EncodeChunkTest, SingleValueChunkHasNoPayload) {
  std::vector<std::uint64_t> values(512, 42);
  for (const EncodingPolicy policy :
       {EncodingPolicy::kAuto, EncodingPolicy::kDict, EncodingPolicy::kFor}) {
    const ColumnChunk chunk =
        EncodeChunk(values.data(), values.size(), policy);
    EXPECT_EQ(chunk.width, 0) << EncodingPolicyName(policy);
    EXPECT_EQ(chunk.words.size(), 0u) << EncodingPolicyName(policy);
    const ChunkedColumn col = ChunkedColumn::Encode(
        values.data(), values.size(), values.size(), policy);
    EXPECT_EQ(DecodeAll(col, HybridConfig{1, 0, 1}), values);
  }
}

TEST(EncodeChunkTest, NullSentinelsRoundTripEveryPolicy) {
  Rng rng(99);
  std::vector<std::uint64_t> values(2048);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = (i % 7 == 0) ? kNullValue : 5000 + rng.Next() % 100;
  }
  for (const EncodingPolicy policy :
       {EncodingPolicy::kAuto, EncodingPolicy::kPlain, EncodingPolicy::kDict,
        EncodingPolicy::kFor}) {
    const ChunkedColumn col = ChunkedColumn::Encode(
        values.data(), values.size(), values.size(), policy);
    EXPECT_EQ(DecodeAll(col, HybridConfig{1, 1, 1}), values)
        << EncodingPolicyName(policy);
    const ColumnChunk& chunk = col.chunk(0);
    // Sentinels are metadata, not data: excluded from the zone span.
    EXPECT_EQ(chunk.zone.null_count, (values.size() + 6) / 7);
    EXPECT_GE(chunk.zone.min, 5000u);
    EXPECT_LT(chunk.zone.max, 5100u);
  }
}

// ---------------------------------------------------------------------------
// Zone map semantics

TEST(ZoneMapTest, BoundaryPredicatesAtExactMinMax) {
  ZoneMap zone;
  zone.Observe(100);
  zone.Observe(200);
  // Closed-interval semantics: predicates touching min or max exactly
  // must keep the chunk.
  EXPECT_TRUE(zone.MayContainRange(200, 300));   // lo == max
  EXPECT_TRUE(zone.MayContainRange(0, 100));     // hi == min
  EXPECT_TRUE(zone.MayContainRange(150, 150));   // interior point
  EXPECT_FALSE(zone.MayContainRange(201, 300));  // lo just past max
  EXPECT_FALSE(zone.MayContainRange(0, 99));     // hi just short of min
}

TEST(ZoneMapTest, AllNullChunkNeverMatchesFiniteRanges) {
  ZoneMap zone;
  zone.Observe(kNullValue);
  zone.Observe(kNullValue);
  EXPECT_TRUE(zone.all_null());
  EXPECT_FALSE(zone.null_free());
  EXPECT_FALSE(zone.MayContainRange(0, kNullValue - 1));
  // A predicate whose upper bound reaches the sentinel must match: the
  // engine compares sentinels as plain integers.
  EXPECT_TRUE(zone.MayContainRange(0, kNullValue));
}

TEST(ZoneMapTest, NullBearingChunkConservativeAtSentinel) {
  ZoneMap zone;
  zone.Observe(10);
  zone.Observe(kNullValue);
  EXPECT_FALSE(zone.MayContainRange(20, 30));
  EXPECT_TRUE(zone.MayContainRange(20, kNullValue));
}

TEST(ZoneMapTest, SingleValueChunkPrunesAroundThePoint) {
  ZoneMap zone;
  zone.Observe(777);
  EXPECT_TRUE(zone.MayContainRange(777, 777));
  EXPECT_FALSE(zone.MayContainRange(778, kNullValue - 1));
  EXPECT_FALSE(zone.MayContainRange(0, 776));
}

TEST(HistogramTest, RefinesZoneMapInEmptyGaps) {
  // Bimodal data: values at both ends of the span, nothing in the middle.
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 100; ++i) {
    values.push_back(1000 + i);
    values.push_back(17000 + i);
  }
  const ColumnChunk chunk =
      EncodeChunk(values.data(), values.size(), EncodingPolicy::kPlain);
  // The zone map alone cannot prune the gap; the histogram can.
  EXPECT_TRUE(chunk.zone.MayContainRange(8000, 9000));
  EXPECT_FALSE(chunk.MayContainRange(8000, 9000));
  EXPECT_TRUE(chunk.MayContainRange(1050, 1060));
  EXPECT_TRUE(chunk.MayContainRange(17000, 17001));
}

TEST(HistogramTest, ChunkBoundaryPredicates) {
  std::vector<std::uint64_t> values;
  for (std::uint64_t v = 500; v <= 1500; ++v) values.push_back(v);
  const ColumnChunk chunk =
      EncodeChunk(values.data(), values.size(), EncodingPolicy::kAuto);
  EXPECT_TRUE(chunk.MayContainRange(1500, 2000));  // lo == chunk max
  EXPECT_TRUE(chunk.MayContainRange(0, 500));      // hi == chunk min
  EXPECT_FALSE(chunk.MayContainRange(1501, 2000));
  EXPECT_FALSE(chunk.MayContainRange(0, 499));
}

// ---------------------------------------------------------------------------
// ChunkedColumn

TEST(ChunkedColumnTest, DecodeRangeCrossesChunkBoundaries) {
  Rng rng(11);
  const std::size_t n = 10'000;
  const std::size_t chunk_rows = 1024;
  std::vector<std::uint64_t> values(n);
  for (auto& v : values) v = rng.Next() % 100'000;
  const ChunkedColumn col = ChunkedColumn::Encode(
      values.data(), n, chunk_rows, EncodingPolicy::kAuto);
  EXPECT_EQ(col.num_chunks(), (n + chunk_rows - 1) / chunk_rows);

  DecodeScratch scratch;
  const HybridConfig cfg{2, 1, 1};
  // Windows chosen to start/end mid-chunk and span several chunks.
  const struct { std::size_t begin, count; } windows[] = {
      {0, n}, {1000, 48}, {1020, 2060}, {9000, 1000}, {n - 1, 1}};
  for (const auto& w : windows) {
    scratch.EnsureCapacity(w.count);
    std::vector<std::uint64_t> out(w.count);
    col.DecodeRange(cfg, w.begin, w.count, scratch, out.data());
    for (std::size_t i = 0; i < w.count; ++i) {
      ASSERT_EQ(out[i], values[w.begin + i])
          << "begin " << w.begin << " i " << i;
    }
  }
}

TEST(ChunkedColumnTest, ShortLastChunkRoundTrips) {
  std::vector<std::uint64_t> values(1500);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = i;
  const ChunkedColumn col = ChunkedColumn::Encode(
      values.data(), values.size(), 1024, EncodingPolicy::kAuto);
  EXPECT_EQ(col.num_chunks(), 2u);
  EXPECT_EQ(col.chunk(1).rows, 1500u - 1024u);
  EXPECT_EQ(DecodeAll(col, HybridConfig{1, 1, 3}), values);
}

// Four 1024-row chunks and a 300-row tail: nulls in a narrow range, a
// single-value chunk (width 0 under dict/FoR/auto), few distinct large
// values, and a random tail.
std::vector<std::uint64_t> MixedChunkValues() {
  Rng rng(21);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 1024; ++i) {
    values.push_back(i % 7 == 0 ? kNullValue : 5000 + rng.Next() % 100);
  }
  for (int i = 0; i < 1024; ++i) values.push_back(42);
  for (int i = 0; i < 1024; ++i) {
    values.push_back(1'000'000'000ULL * (1 + rng.Next() % 5));
  }
  for (int i = 0; i < 1024; ++i) values.push_back(rng.Next() % 70'000);
  for (int i = 0; i < 300; ++i) values.push_back(19920101 + rng.Next() % 2557);
  return values;
}

TEST(ChunkedColumnTest, DecodeAtMatchesDecodeRange) {
  const std::vector<std::uint64_t> values = MixedChunkValues();
  const std::size_t chunk_rows = 1024;
  Rng rng(5);
  for (const EncodingPolicy policy :
       {EncodingPolicy::kAuto, EncodingPolicy::kPlain, EncodingPolicy::kDict,
        EncodingPolicy::kFor}) {
    const ChunkedColumn col = ChunkedColumn::Encode(
        values.data(), values.size(), chunk_rows, policy);
    ASSERT_EQ(col.num_chunks(), 5u);
    if (policy != EncodingPolicy::kPlain) {
      EXPECT_EQ(col.chunk(1).width, 0) << EncodingPolicyName(policy);
    }
    for (const HybridConfig& cfg : UnpackBitsSupportedConfigs()) {
      DecodeScratch scratch;
      const std::vector<std::uint64_t> all = [&] {
        std::vector<std::uint64_t> out(col.size());
        scratch.EnsureCapacity(col.size());
        col.DecodeRange(cfg, 0, col.size(), scratch, out.data());
        return out;
      }();
      ASSERT_EQ(all, values) << EncodingPolicyName(policy) << " "
                             << cfg.ToString();
      // Per chunk, at its start and mid-chunk: the first and last row,
      // every row, and a sparse ascending subset.
      for (std::size_t c = 0; c < col.num_chunks(); ++c) {
        const std::size_t rows = col.chunk(c).rows;
        for (const std::size_t offset : {std::size_t{0}, rows / 2}) {
          const std::size_t begin = c * chunk_rows + offset;
          const std::size_t span = rows - offset;
          std::vector<std::vector<std::uint64_t>> selections(3);
          selections[0] = {0, span - 1};
          for (std::size_t i = 0; i < span; ++i) {
            selections[1].push_back(i);
            if (rng.Next() % 10 == 0) selections[2].push_back(i);
          }
          for (const auto& pos : selections) {
            std::vector<std::uint64_t> out(pos.size() + 1, 7);
            col.DecodeAt(cfg, begin, pos.data(), pos.size(), scratch,
                         out.data());
            for (std::size_t i = 0; i < pos.size(); ++i) {
              ASSERT_EQ(out[i], all[begin + pos[i]])
                  << EncodingPolicyName(policy) << " " << cfg.ToString()
                  << " chunk " << c << " row " << pos[i];
            }
            EXPECT_EQ(out[pos.size()], 7u);  // nothing past n written
          }
        }
      }
    }
  }
}

// The codes CodesAt returns, compared against CodeRangeFor's rewrite,
// select exactly the rows lo <= value <= hi selects.
TEST(ChunkedColumnTest, CodeSpaceFiltersMatchValueFilters) {
  const std::vector<std::uint64_t> values = MixedChunkValues();
  const std::uint64_t probes[] = {0,        41,         42,
                                  43,       5000,       5049,
                                  5099,     70'000,     19920101,
                                  19922000, 1'000'000'000ULL,
                                  3'000'000'000ULL, kNullValue - 1,
                                  kNullValue};
  for (const EncodingPolicy policy :
       {EncodingPolicy::kAuto, EncodingPolicy::kPlain, EncodingPolicy::kDict,
        EncodingPolicy::kFor}) {
    const ChunkedColumn col = ChunkedColumn::Encode(
        values.data(), values.size(), 1024, policy);
    std::vector<std::uint64_t> pos(1024);
    for (std::size_t i = 0; i < pos.size(); ++i) pos[i] = i;
    std::vector<std::uint64_t> codes(1024);
    for (std::size_t c = 0; c < col.num_chunks(); ++c) {
      const ColumnChunk& chunk = col.chunk(c);
      col.CodesAt(HybridConfig{1, 1, 3}, c * 1024, pos.data(), chunk.rows,
                  codes.data());
      for (const std::uint64_t lo : probes) {
        for (const std::uint64_t hi : probes) {
          const CodeRange r = CodeRangeFor(chunk, lo, hi);
          for (std::size_t i = 0; i < chunk.rows; ++i) {
            const std::uint64_t v = values[c * 1024 + i];
            const bool want = lo <= v && v <= hi;
            const bool got =
                r.verdict == CodeRange::Verdict::kAll ||
                (r.verdict == CodeRange::Verdict::kCompare &&
                 r.lo <= codes[i] && codes[i] <= r.hi);
            ASSERT_EQ(got, want)
                << EncodingPolicyName(policy) << " chunk " << c << " ["
                << lo << ", " << hi << "] row " << i;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// CodeRangeFor

ColumnChunk ChunkOf(std::vector<std::uint64_t> values,
                    EncodingPolicy policy) {
  return EncodeChunk(values.data(), values.size(), policy);
}

TEST(CodeRangeTest, ForBoundsShiftByReference) {
  const ColumnChunk chunk =
      ChunkOf({1000, 1003, 1010, 1100}, EncodingPolicy::kFor);
  ASSERT_EQ(chunk.encoding, Encoding::kFor);
  ASSERT_EQ(chunk.reference, 1000u);
  const CodeRange r = CodeRangeFor(chunk, 1003, 1050);
  EXPECT_EQ(r.verdict, CodeRange::Verdict::kCompare);
  EXPECT_EQ(r.lo, 3u);
  EXPECT_EQ(r.hi, 50u);
  // A lower bound under the reference clamps to code 0.
  const CodeRange low = CodeRangeFor(chunk, 5, 1009);
  EXPECT_EQ(low.verdict, CodeRange::Verdict::kCompare);
  EXPECT_EQ(low.lo, 0u);
  EXPECT_EQ(low.hi, 9u);
}

TEST(CodeRangeTest, BoundsOutsideTheChunkAreNone) {
  for (const EncodingPolicy policy :
       {EncodingPolicy::kPlain, EncodingPolicy::kDict, EncodingPolicy::kFor}) {
    const ColumnChunk chunk = ChunkOf({10, 20, 30}, policy);
    EXPECT_EQ(CodeRangeFor(chunk, 0, 9).verdict, CodeRange::Verdict::kNone)
        << EncodingPolicyName(policy);  // below the minimum
    EXPECT_EQ(CodeRangeFor(chunk, 31, 1000).verdict,
              CodeRange::Verdict::kNone)
        << EncodingPolicyName(policy);  // above the maximum
    EXPECT_EQ(CodeRangeFor(chunk, 25, 15).verdict, CodeRange::Verdict::kNone)
        << EncodingPolicyName(policy);  // lo > hi
    EXPECT_EQ(CodeRangeFor(chunk, 0, 1000).verdict, CodeRange::Verdict::kAll)
        << EncodingPolicyName(policy);
    EXPECT_EQ(CodeRangeFor(chunk, 10, 30).verdict, CodeRange::Verdict::kAll)
        << EncodingPolicyName(policy);  // exactly the zone span
  }
}

TEST(CodeRangeTest, DictBoundsBetweenEntries) {
  const ColumnChunk chunk =
      ChunkOf({10, 20, 30, 40, 10, 40}, EncodingPolicy::kDict);
  ASSERT_EQ(chunk.encoding, Encoding::kDict);
  // Strictly between two entries: no code can match.
  EXPECT_EQ(CodeRangeFor(chunk, 11, 19).verdict, CodeRange::Verdict::kNone);
  // Bounds between entries round inward to the entries they enclose.
  const CodeRange r = CodeRangeFor(chunk, 15, 35);
  EXPECT_EQ(r.verdict, CodeRange::Verdict::kCompare);
  EXPECT_EQ(r.lo, 1u);  // 20
  EXPECT_EQ(r.hi, 2u);  // 30
  const CodeRange exact = CodeRangeFor(chunk, 20, 20);
  EXPECT_EQ(exact.verdict, CodeRange::Verdict::kCompare);
  EXPECT_EQ(exact.lo, 1u);
  EXPECT_EQ(exact.hi, 1u);
}

TEST(CodeRangeTest, UpperBoundAtSentinelKeepsNulls) {
  const ColumnChunk dict =
      ChunkOf({10, kNullValue, 30, 20}, EncodingPolicy::kDict);
  ASSERT_EQ(dict.encoding, Encoding::kDict);
  // Sentinels compare as kNullValue: [20, kNullValue] holds 20, 30 and
  // the null, i.e. dictionary codes 1..3.
  const CodeRange r = CodeRangeFor(dict, 20, kNullValue);
  EXPECT_EQ(r.verdict, CodeRange::Verdict::kCompare);
  EXPECT_EQ(r.lo, 1u);
  EXPECT_EQ(r.hi, 3u);
  EXPECT_EQ(CodeRangeFor(dict, 0, kNullValue).verdict,
            CodeRange::Verdict::kAll);
  // Below the sentinel the null row fails, so the chunk is not all-pass.
  const CodeRange finite = CodeRangeFor(dict, 0, kNullValue - 1);
  EXPECT_EQ(finite.verdict, CodeRange::Verdict::kCompare);
  EXPECT_EQ(finite.hi, 2u);

  const ColumnChunk plain =
      ChunkOf({10, kNullValue, 30}, EncodingPolicy::kPlain);
  const CodeRange p = CodeRangeFor(plain, 20, kNullValue);
  EXPECT_EQ(p.verdict, CodeRange::Verdict::kCompare);
  EXPECT_EQ(p.hi, kNullValue);
  // An all-null chunk passes only a predicate reaching the sentinel.
  const ColumnChunk nulls =
      ChunkOf({kNullValue, kNullValue}, EncodingPolicy::kFor);
  EXPECT_EQ(CodeRangeFor(nulls, 0, kNullValue).verdict,
            CodeRange::Verdict::kAll);
  EXPECT_EQ(CodeRangeFor(nulls, 0, kNullValue - 1).verdict,
            CodeRange::Verdict::kNone);
}

TEST(ZoneMapTest, AllInRangeHonoursNulls) {
  ZoneMap zone;
  zone.Observe(100);
  zone.Observe(200);
  EXPECT_TRUE(zone.AllInRange(100, 200));
  EXPECT_TRUE(zone.AllInRange(0, kNullValue));
  EXPECT_FALSE(zone.AllInRange(101, 200));
  EXPECT_FALSE(zone.AllInRange(100, 199));
  zone.Observe(kNullValue);
  EXPECT_FALSE(zone.AllInRange(0, kNullValue - 1));
  EXPECT_TRUE(zone.AllInRange(100, kNullValue));
}

TEST(ChunkedColumnTest, EncodedBytesBeatPlainOnCompressibleData) {
  std::vector<std::uint64_t> values(65536);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 19920101 + i % 2000;
  }
  const ChunkedColumn col = ChunkedColumn::Encode(
      values.data(), values.size(), 8192, EncodingPolicy::kAuto);
  EXPECT_LT(col.EncodedBytes(), col.PlainBytes() / 2);
}

TEST(DecodeScratchTest, GrowsAndKeepsIota) {
  DecodeScratch scratch;
  scratch.EnsureCapacity(100);
  ASSERT_GE(scratch.capacity(), 100u);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(scratch.iota()[i], i);
  const std::size_t before = scratch.capacity();
  scratch.EnsureCapacity(10);  // never shrinks
  EXPECT_EQ(scratch.capacity(), before);
  scratch.EnsureCapacity(5000);
  ASSERT_GE(scratch.capacity(), 5000u);
  for (std::size_t i = 0; i < 5000; ++i) {
    ASSERT_EQ(scratch.iota()[i], i);
  }
}

}  // namespace
}  // namespace hef::storage
