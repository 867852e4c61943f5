#include "storage/encoding.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/macros.h"

namespace hef::storage {
namespace {

// Projected payload bytes for each candidate encoding. ~0 marks "cannot
// represent this chunk".
constexpr std::size_t kInvalidBytes = ~std::size_t{0};

std::size_t ForBytes(std::uint8_t width, std::size_t n) {
  if (width > 32) return kInvalidBytes;
  return PackedWords(n, width) * sizeof(std::uint64_t);
}

std::size_t DictBytes(std::uint8_t width, std::size_t n,
                      std::size_t distinct) {
  if (distinct == 0 || distinct > kDictDistinctCap || width > 32) {
    return kInvalidBytes;
  }
  return PackedWords(n, width) * sizeof(std::uint64_t) +
         distinct * sizeof(std::uint64_t);
}

void PackWith(const std::uint64_t* values, std::size_t n, std::uint8_t width,
              std::uint64_t* out, std::uint64_t (*code)(std::uint64_t,
                                                        std::uint64_t),
              std::uint64_t arg) {
  const std::size_t per_word = 64 / width;
  for (std::size_t i = 0; i < n; ++i) {
    out[i / per_word] |= code(values[i], arg)
                         << (i % per_word) * width;
  }
}

void EncodePlain(const std::uint64_t* values, std::size_t n,
                 ColumnChunk* chunk) {
  chunk->encoding = Encoding::kPlain;
  chunk->width = 64;
  chunk->words.Allocate(n);
  std::memcpy(chunk->words.data(), values, n * sizeof(std::uint64_t));
}

void EncodeFor(const std::uint64_t* values, std::size_t n, std::uint64_t base,
               std::uint8_t width, ColumnChunk* chunk) {
  chunk->encoding = Encoding::kFor;
  chunk->width = width;
  chunk->reference = base;
  if (width == 0) return;  // single-value chunk: no payload
  chunk->words.Allocate(PackedWords(n, width));
  PackWith(
      values, n, width, chunk->words.data(),
      [](std::uint64_t v, std::uint64_t b) { return v - b; }, base);
}

void EncodeDict(const std::uint64_t* values, std::size_t n,
                const std::vector<std::uint64_t>& dict, std::uint8_t width,
                ColumnChunk* chunk) {
  chunk->encoding = Encoding::kDict;
  chunk->width = width;
  chunk->dict.Allocate(dict.size());
  std::memcpy(chunk->dict.data(), dict.data(),
              dict.size() * sizeof(std::uint64_t));
  if (width == 0) return;
  chunk->words.Allocate(PackedWords(n, width));
  const std::size_t per_word = 64 / width;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t code = static_cast<std::uint64_t>(
        std::lower_bound(dict.begin(), dict.end(), values[i]) - dict.begin());
    chunk->words[i / per_word] |= code << (i % per_word) * width;
  }
}

}  // namespace

CodeRange CodeRangeFor(const ColumnChunk& chunk, std::uint64_t lo,
                       std::uint64_t hi) {
  using Verdict = CodeRange::Verdict;
  // The zone map settles chunks wholly outside or inside [lo, hi], so a
  // width-0 chunk never reaches a comparison.
  if (lo > hi || !chunk.zone.MayContainRange(lo, hi)) return {};
  if (chunk.zone.AllInRange(lo, hi)) return {Verdict::kAll};
  switch (chunk.encoding) {
    case Encoding::kPlain:
      return {Verdict::kCompare, lo, hi};
    case Encoding::kFor:
      // value = reference + code, and reference is the smallest value
      // (sentinels included), so the zone check put hi >= reference.
      return {Verdict::kCompare,
              lo > chunk.reference ? lo - chunk.reference : 0,
              hi - chunk.reference};
    case Encoding::kDict: {
      // The dictionary is sorted, so the entries inside [lo, hi] are the
      // one run of positions [first >= lo, last <= hi] — possibly none,
      // when [lo, hi] falls between two entries.
      const std::uint64_t* begin = chunk.dict.data();
      const std::uint64_t* end = begin + chunk.dict.size();
      const auto first =
          static_cast<std::uint64_t>(std::lower_bound(begin, end, lo) - begin);
      const auto past =
          static_cast<std::uint64_t>(std::upper_bound(begin, end, hi) - begin);
      if (past == first) return {};
      return {Verdict::kCompare, first, past - 1};
    }
  }
  return {};
}

const char* EncodingName(Encoding encoding) {
  switch (encoding) {
    case Encoding::kPlain:
      return "plain";
    case Encoding::kDict:
      return "dict";
    case Encoding::kFor:
      return "for";
  }
  return "unknown";
}

const char* EncodingPolicyName(EncodingPolicy policy) {
  switch (policy) {
    case EncodingPolicy::kAuto:
      return "auto";
    case EncodingPolicy::kPlain:
      return "plain";
    case EncodingPolicy::kDict:
      return "dict";
    case EncodingPolicy::kFor:
      return "for";
  }
  return "unknown";
}

bool EncodingPolicyByName(const char* name, EncodingPolicy* out) {
  if (std::strcmp(name, "auto") == 0) {
    *out = EncodingPolicy::kAuto;
  } else if (std::strcmp(name, "plain") == 0) {
    *out = EncodingPolicy::kPlain;
  } else if (std::strcmp(name, "dict") == 0) {
    *out = EncodingPolicy::kDict;
  } else if (std::strcmp(name, "for") == 0) {
    *out = EncodingPolicy::kFor;
  } else {
    return false;
  }
  return true;
}

std::uint8_t PackedWidthFor(std::uint64_t range) {
  if (range == 0) return 0;
  for (std::uint8_t width : kPackedWidths) {
    if (width > 0 && range >> width == 0) return width;
  }
  return 64;
}

void PackBits(const std::uint64_t* values, std::size_t n, std::uint8_t width,
              std::uint64_t* out) {
  HEF_CHECK(width > 0 && width <= 32 && 64 % width == 0);
  PackWith(
      values, n, width, out,
      [](std::uint64_t v, std::uint64_t) { return v; }, 0);
}

ColumnChunk EncodeChunk(const std::uint64_t* values, std::size_t n,
                        EncodingPolicy policy) {
  HEF_CHECK(n > 0);
  ColumnChunk chunk;
  chunk.rows = static_cast<std::uint32_t>(n);

  // Pass 1: statistics. The zone map tracks non-null values only; the
  // FoR frame must cover sentinels too so nulls round-trip bit-exactly.
  std::uint64_t min_all = values[0];
  std::uint64_t max_all = values[0];
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t v = values[i];
    chunk.zone.Observe(v);
    if (v < min_all) min_all = v;
    if (v > max_all) max_all = v;
  }
  if (!chunk.zone.all_null()) {
    chunk.hist.Reset(chunk.zone.min, chunk.zone.max);
    for (std::size_t i = 0; i < n; ++i) {
      if (values[i] != kNullValue) chunk.hist.Observe(values[i]);
    }
  }

  const std::uint8_t for_width = PackedWidthFor(max_all - min_all);
  const std::size_t for_bytes = ForBytes(for_width, n);

  // Dictionary candidate: sort+unique a copy, abandon past the cap.
  std::vector<std::uint64_t> dict(values, values + n);
  std::sort(dict.begin(), dict.end());
  dict.erase(std::unique(dict.begin(), dict.end()), dict.end());
  const std::uint8_t dict_width =
      PackedWidthFor(dict.empty() ? 0 : dict.size() - 1);
  const std::size_t dict_bytes = DictBytes(dict_width, n, dict.size());

  Encoding choice = Encoding::kPlain;
  switch (policy) {
    case EncodingPolicy::kPlain:
      break;
    case EncodingPolicy::kFor:
      if (for_bytes != kInvalidBytes) choice = Encoding::kFor;
      break;
    case EncodingPolicy::kDict:
      if (dict_bytes != kInvalidBytes) choice = Encoding::kDict;
      break;
    case EncodingPolicy::kAuto: {
      // Cheapest payload wins; FoR beats dict on ties (one decode pass,
      // no dictionary indirection), anything beats plain on ties.
      const std::size_t plain_bytes = n * sizeof(std::uint64_t);
      std::size_t best = plain_bytes;
      if (dict_bytes != kInvalidBytes && dict_bytes < best) {
        choice = Encoding::kDict;
        best = dict_bytes;
      }
      if (for_bytes != kInvalidBytes && for_bytes <= best) {
        choice = Encoding::kFor;
      }
      break;
    }
  }

  switch (choice) {
    case Encoding::kPlain:
      EncodePlain(values, n, &chunk);
      break;
    case Encoding::kFor:
      EncodeFor(values, n, min_all, for_width, &chunk);
      break;
    case Encoding::kDict:
      EncodeDict(values, n, dict, dict_width, &chunk);
      break;
  }
  return chunk;
}

}  // namespace hef::storage
