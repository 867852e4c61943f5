// Per-chunk encoding selection and packing.
//
// EncodeChunk builds one ColumnChunk from a raw span of 64-bit values:
// it collects the zone map + histogram in a first pass, then picks the
// cheapest of {plain, dict, FoR} by projected payload size (kAuto) or
// honours a forced policy, and bit-packs the payload. Decode lives in
// decode.h; this header is pure scalar build-time code.

#ifndef HEF_STORAGE_ENCODING_H_
#define HEF_STORAGE_ENCODING_H_

#include <cstddef>
#include <cstdint>

#include "storage/chunk.h"

namespace hef::storage {

// Forced or automatic encoding choice. kAuto picks per chunk by stats;
// the forced policies fall back to kPlain when the requested encoding
// cannot represent the chunk (e.g. kFor on a >32-bit range).
enum class EncodingPolicy : std::uint8_t { kAuto, kPlain, kDict, kFor };

const char* EncodingPolicyName(EncodingPolicy policy);

// Parses "auto" / "plain" / "dict" / "for". Returns false on anything else.
bool EncodingPolicyByName(const char* name, EncodingPolicy* out);

// Dictionary encoding is only attempted when a chunk has at most this
// many distinct values; beyond it the dictionary build (sort + unique)
// costs more than it can save over FoR/plain.
inline constexpr std::size_t kDictDistinctCap = 4096;

// A value-space range predicate lo <= v <= hi rewritten into one chunk's
// code space, so a filter compares the codes as stored instead of
// decoding them: FoR deltas against [lo - reference, hi - reference],
// dictionary codes against the dictionary positions [lo, hi] spans,
// plain values against [lo, hi] itself. The rewrite is exact, sentinels
// included: they compare as kNullValue in either space.
struct CodeRange {
  enum class Verdict : std::uint8_t {
    kNone,     // no row of the chunk passes
    kAll,      // every row passes; the filter need not run
    kCompare,  // a row passes iff lo <= code <= hi
  };
  Verdict verdict = Verdict::kNone;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
};

CodeRange CodeRangeFor(const ColumnChunk& chunk, std::uint64_t lo,
                       std::uint64_t hi);

// Encodes values[0..n) into one chunk. n must be >= 1.
ColumnChunk EncodeChunk(const std::uint64_t* values, std::size_t n,
                        EncodingPolicy policy);

// Bit-packs values[0..n) (each < 2^width) into out words. width must be a
// nonzero member of kPackedWidths; out must hold PackedWords(n, width)
// zero-initialised words.
void PackBits(const std::uint64_t* values, std::size_t n, std::uint8_t width,
              std::uint64_t* out);

// Number of 64-bit words needed to pack n values at the given width.
inline std::size_t PackedWords(std::size_t n, std::uint8_t width) {
  if (width == 0) return 0;
  const std::size_t per_word = 64 / width;
  return (n + per_word - 1) / per_word;
}

}  // namespace hef::storage

#endif  // HEF_STORAGE_ENCODING_H_
