#include "engine/scan.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/macros.h"
#include "engine/star_plan.h"
#include "hid/hid.h"
#include "ssb/chunked_fact.h"
#include "telemetry/flight_recorder.h"

namespace hef {

namespace {

std::size_t ScanRangeBitmapScalar(const std::uint64_t* col, std::size_t n,
                                  std::uint64_t lo, std::uint64_t hi,
                                  std::uint64_t* bitmap) {
  std::memset(bitmap, 0, BitmapWords(n) * sizeof(std::uint64_t));
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t pass = (col[i] >= lo) & (col[i] <= hi);
    bitmap[i >> 6] |= pass << (i & 63);
    count += pass;
  }
  return count;
}

#if HEF_HAVE_AVX512
std::size_t ScanRangeBitmapSimd(const std::uint64_t* col, std::size_t n,
                                std::uint64_t lo, std::uint64_t hi,
                                std::uint64_t* bitmap) {
  using B = Avx512Backend;
  std::memset(bitmap, 0, BitmapWords(n) * sizeof(std::uint64_t));
  auto* bytes = reinterpret_cast<std::uint8_t*>(bitmap);
  const auto vlo = B::Set1(lo);
  const auto vhi = B::Set1(hi);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const auto v = B::LoadU(col + i);
    const auto m = B::MaskAnd(B::MaskNot(B::CmpGt(vlo, v)),
                              B::MaskNot(B::CmpGt(v, vhi)));
    bytes[i >> 3] = static_cast<std::uint8_t>(B::MaskBits(m));
    count += static_cast<std::size_t>(B::MaskCount(m));
  }
  for (; i < n; ++i) {
    const std::uint64_t pass = (col[i] >= lo) & (col[i] <= hi);
    bitmap[i >> 6] |= pass << (i & 63);
    count += pass;
  }
  return count;
}
#endif

}  // namespace

std::size_t ScanRangeBitmap(Flavor flavor, const std::uint64_t* col,
                            std::size_t n, std::uint64_t lo,
                            std::uint64_t hi, std::uint64_t* bitmap) {
#if HEF_HAVE_AVX512
  if (flavor != Flavor::kScalar) {
    return ScanRangeBitmapSimd(col, n, lo, hi, bitmap);
  }
#endif
  return ScanRangeBitmapScalar(col, n, lo, hi, bitmap);
}

std::size_t BitmapAnd(std::uint64_t* dst, const std::uint64_t* src,
                      std::size_t n) {
  const std::size_t words = BitmapWords(n);
  std::size_t count = 0;
  for (std::size_t w = 0; w < words; ++w) {
    dst[w] &= src[w];
    count += static_cast<std::size_t>(__builtin_popcountll(dst[w]));
  }
  // Bits past n are zero by construction (both operands were built with
  // cleared tails), so the popcount is exact.
  return count;
}

std::size_t BitmapToPositions(const std::uint64_t* bitmap, std::size_t n,
                              std::uint64_t* positions_out) {
  const std::size_t words = BitmapWords(n);
  std::size_t count = 0;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = bitmap[w];
    while (bits != 0) {
      const int bit = __builtin_ctzll(bits);
      bits &= bits - 1;
      positions_out[count++] = (w << 6) + static_cast<std::uint64_t>(bit);
    }
  }
  return count;
}

ChunkPruning ComputeChunkPruning(const ssb::SsbDatabase& db,
                                 const StarPlan& plan,
                                 const std::string& label) {
  HEF_CHECK_MSG(db.chunked != nullptr,
                "ComputeChunkPruning requires a built chunked fact");
  const ssb::ChunkedFact& fact = *db.chunked;

  // One pruning stage per filter then per join: the stage's chunked
  // column and its necessary [lo, hi] range. A stage whose column is not
  // part of the chunked fact (defensive; all plan columns are) never
  // votes.
  struct Stage {
    const storage::ChunkedColumn* col;
    std::uint64_t lo, hi;
    std::string cause;
  };
  std::vector<Stage> stages;
  stages.reserve(plan.filters.size() + plan.joins.size());
  for (const RangeFilter& f : plan.filters) {
    stages.push_back({fact.Find(f.col), f.lo, f.hi,
                      std::string("filter.") +
                          FactColumnName(db.lineorder, f.col)});
  }
  for (const JoinStage& j : plan.joins) {
    stages.push_back({fact.Find(j.fact_key), j.key_lo, j.key_hi,
                      std::string("probe.") +
                          FactColumnName(db.lineorder, j.fact_key)});
  }

  ChunkPruning pruning;
  const std::size_t chunks = fact.num_chunks();
  pruning.chunks_total = chunks;
  pruning.alive.assign(chunks, 1);
  pruning.reached.assign(stages.size(), 0);
  pruning.pruned_by.assign(stages.size(), 0);

  auto& recorder = telemetry::FlightRecorder::Get();
  for (std::size_t c = 0; c < chunks; ++c) {
    for (std::size_t s = 0; s < stages.size(); ++s) {
      const Stage& stage = stages[s];
      if (stage.col == nullptr) continue;
      ++pruning.reached[s];
      // lo > hi is the empty range (an empty dimension table): nothing
      // can match, prune unconditionally.
      if (stage.lo <= stage.hi &&
          stage.col->chunk(c).MayContainRange(stage.lo, stage.hi)) {
        continue;
      }
      ++pruning.pruned_by[s];
      pruning.alive[c] = 0;
      recorder.Record(telemetry::FlightEventKind::kScanPrune,
                      stage.cause.c_str(), /*trace_id=*/0, /*arg0=*/c);
      break;
    }
    if (pruning.alive[c] == 0) continue;
    ++pruning.chunks_scanned;
    pruning.rows_scanned +=
        std::min(fact.chunk_rows(), fact.rows() - c * fact.chunk_rows());
  }
  recorder.Record(telemetry::FlightEventKind::kScanPrune, label.c_str(),
                  /*trace_id=*/0, /*arg0=*/pruning.chunks_scanned,
                  /*arg1=*/pruning.chunks_total);
  return pruning;
}

}  // namespace hef
