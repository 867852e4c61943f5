// Chunked column storage: per-chunk statistics and encoded payloads.
//
// A column is split into fixed-size chunks (kDefaultChunkRows rows, a
// multiple of the engine block size so one pipeline block never straddles
// chunks). Each chunk is encoded independently — plain, dictionary, or
// frame-of-reference + bit-packing — and carries a zone map (min/max over
// non-null values plus a null count) and a small equal-width histogram.
// The engine's scan-pruning pass (engine/scan.h) consults both to skip
// whole chunks before morsel dispatch.
//
// Null semantics: this storage layer reserves kNullValue (all ones) as the
// null sentinel. Sentinels round-trip bit-exactly through every encoding;
// they are excluded from the zone map's min/max and from the histogram,
// and counted in ZoneMap::null_count instead. Pruning stays sound against
// engines that compare sentinels as plain integers: a predicate whose
// upper bound reaches kNullValue conservatively matches any chunk that
// holds nulls.

#ifndef HEF_STORAGE_CHUNK_H_
#define HEF_STORAGE_CHUNK_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/aligned_buffer.h"

namespace hef::storage {

// Rows per chunk: 16 default engine blocks, 512 KiB of uncompressed
// 64-bit values.
inline constexpr std::size_t kDefaultChunkRows = 65536;

// The storage layer's null sentinel (see file comment).
inline constexpr std::uint64_t kNullValue = ~0ULL;

enum class Encoding : std::uint8_t {
  kPlain,  // raw 64-bit values
  kDict,   // bit-packed codes into a sorted per-chunk dictionary
  kFor,    // frame-of-reference: bit-packed deltas from the chunk minimum
};

const char* EncodingName(Encoding encoding);

// Packed widths are restricted to divisors of 64 so a value never
// straddles a word boundary: both the SIMD unpack kernel (one gather, one
// variable shift, one mask — no two-word splice) and its HID template
// stay honest. Width 0 marks a single-value chunk (no payload at all).
inline constexpr std::array<std::uint8_t, 7> kPackedWidths = {0,  1,  2, 4,
                                                              8, 16, 32};

// Smallest packed width that can represent values in [0, range], or 64
// when the range needs more than 32 bits.
std::uint8_t PackedWidthFor(std::uint64_t range);

// Min/max over a chunk's non-null values plus the null count. A chunk of
// nothing but nulls keeps the initial min > max state.
struct ZoneMap {
  std::uint64_t min = kNullValue;
  std::uint64_t max = 0;
  std::uint64_t null_count = 0;

  bool null_free() const { return null_count == 0; }
  bool all_null() const { return min > max; }

  void Observe(std::uint64_t v) {
    if (v == kNullValue) {
      ++null_count;
      return;
    }
    if (v < min) min = v;
    if (v > max) max = v;
  }

  // May any row of the chunk satisfy lo <= value <= hi under plain
  // unsigned comparison? Sentinels compare as kNullValue, so a predicate
  // reaching it must keep any null-bearing chunk alive.
  bool MayContainRange(std::uint64_t lo, std::uint64_t hi) const {
    if (null_count > 0 && hi >= kNullValue) return true;
    if (all_null()) return false;
    return lo <= max && hi >= min;
  }

  // Does every row of the chunk satisfy lo <= value <= hi, sentinels
  // compared as kNullValue? A filter that holds for the whole chunk need
  // not run on it.
  bool AllInRange(std::uint64_t lo, std::uint64_t hi) const {
    if (null_count > 0 && hi < kNullValue) return false;
    if (all_null()) return true;
    return lo <= min && max <= hi;
  }
};

// Equal-width histogram over the zone map's [min, max] span (non-null
// values only). Refines the zone map: a predicate range that only covers
// empty buckets proves the chunk dead even though [min, max] overlaps.
struct EqualWidthHistogram {
  static constexpr int kBuckets = 16;

  std::uint64_t base = 0;         // == zone.min at build time
  std::uint64_t bucket_width = 1; // (max - min) / kBuckets + 1
  std::array<std::uint32_t, kBuckets> counts{};

  void Reset(std::uint64_t min, std::uint64_t max) {
    base = min;
    bucket_width = max >= min ? (max - min) / kBuckets + 1 : 1;
    counts.fill(0);
  }

  int BucketOf(std::uint64_t v) const {
    return static_cast<int>((v - base) / bucket_width);
  }

  void Observe(std::uint64_t v) { ++counts[BucketOf(v)]; }

  // Any non-empty bucket inside [lo, hi]? Callers clamp [lo, hi] to the
  // zone map's span first (MayContainRange below does).
  bool AnyInRange(std::uint64_t lo, std::uint64_t hi) const {
    const int b_lo = BucketOf(lo);
    const int b_hi = BucketOf(hi);
    for (int b = b_lo; b <= b_hi && b < kBuckets; ++b) {
      if (counts[b] != 0) return true;
    }
    return false;
  }
};

// One encoded chunk. `words` holds the payload: raw values (kPlain),
// bit-packed dictionary codes (kDict), or bit-packed deltas from
// `reference` (kFor). Width 0 means every non-payload value equals
// `reference` (kFor) or dict[0] (kDict) and `words` is empty.
struct ColumnChunk {
  Encoding encoding = Encoding::kPlain;
  std::uint32_t rows = 0;
  std::uint8_t width = 64;     // packed bit width; 64 = unpacked
  std::uint64_t reference = 0; // kFor base
  ZoneMap zone;
  EqualWidthHistogram hist;
  AlignedBuffer<std::uint64_t> words;
  AlignedBuffer<std::uint64_t> dict; // kDict only, sorted ascending

  // Zone map + histogram verdict for a conjunctive range predicate.
  bool MayContainRange(std::uint64_t lo, std::uint64_t hi) const {
    if (!zone.MayContainRange(lo, hi)) return false;
    if (zone.null_count > 0 && hi >= kNullValue) return true;
    const std::uint64_t c_lo = lo < zone.min ? zone.min : lo;
    const std::uint64_t c_hi = hi > zone.max ? zone.max : hi;
    return hist.AnyInRange(c_lo, c_hi);
  }

  std::size_t EncodedBytes() const {
    return words.capacity() * sizeof(std::uint64_t) +
           dict.capacity() * sizeof(std::uint64_t) + sizeof(ColumnChunk) -
           2 * sizeof(AlignedBuffer<std::uint64_t>);
  }
};

}  // namespace hef::storage

#endif  // HEF_STORAGE_CHUNK_H_
