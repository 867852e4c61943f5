// Bitmap selection scans (Zhou & Ross [46], the earliest SIMD database
// operator the paper builds on): predicate evaluation over a column
// producing one bit per row, bitmap conjunction for multi-predicate
// WHERE clauses, and bitmap-to-positions extraction.
//
// Compared to the compaction pipeline (primitives.h), bitmap scans
// evaluate *all* predicates over *all* rows without reshuffling data —
// profitable when individual predicates are unselective but their
// conjunction is (the SSB Q1 pattern), because compaction after a 50%
// filter moves half the block. The engine's filter stage takes this path
// on the vector flavours for plans with two or more range filters; the
// scalar flavour compacts after each predicate, which measures faster.

#ifndef HEF_ENGINE_SCAN_H_
#define HEF_ENGINE_SCAN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/flavor.h"

namespace hef {

namespace ssb {
struct SsbDatabase;
}  // namespace ssb

struct StarPlan;

// Words needed for an n-row bitmap.
inline std::size_t BitmapWords(std::size_t n) { return (n + 63) / 64; }

// bitmap[i] = (lo <= col[i] <= hi); returns the number of set bits.
// The SIMD flavour evaluates eight rows per compare pair and writes the
// k-mask byte directly into the bitmap.
std::size_t ScanRangeBitmap(Flavor flavor, const std::uint64_t* col,
                            std::size_t n, std::uint64_t lo,
                            std::uint64_t hi, std::uint64_t* bitmap);

// dst &= src over `words` words; returns the surviving popcount over the
// first n bits.
std::size_t BitmapAnd(std::uint64_t* dst, const std::uint64_t* src,
                      std::size_t n);

// Extracts the positions of set bits (ascending); returns the count.
std::size_t BitmapToPositions(const std::uint64_t* bitmap, std::size_t n,
                              std::uint64_t* positions_out);

// Verdicts of the statistics-driven scan-pruning pass: one alive bit per
// fact chunk, plus per-stage attribution. Computed once at plan build
// (the chunk statistics and the plan's predicate ranges are both fixed),
// consulted by every block of every Run.
struct ChunkPruning {
  std::vector<std::uint8_t> alive;  // per chunk: 1 = scan, 0 = skip
  std::uint64_t chunks_total = 0;
  std::uint64_t chunks_scanned = 0;  // popcount of alive
  std::uint64_t rows_scanned = 0;    // fact rows of the alive chunks
  // Per pruning stage (plan filters in order, then joins in probe
  // order): chunks that reached the stage un-pruned, and chunks the
  // stage pruned. First cause wins, so sum(pruned_by) + chunks_scanned
  // == chunks_total.
  std::vector<std::uint64_t> reached;
  std::vector<std::uint64_t> pruned_by;
};

// Evaluates every chunk of db.chunked against the plan's range filters
// (zone map + histogram on the filtered column) and join key ranges
// (zone map + histogram on the fact foreign key against [key_lo,
// key_hi]). Pruning is conservative: a pruned chunk is *proven* to
// contribute no qualifying row, so results are bit-identical with the
// pass on or off. Emits one kScanPrune flight event per pruned chunk
// plus a per-query summary; `label` names the query in those events.
// Requires db.chunked != nullptr.
ChunkPruning ComputeChunkPruning(const ssb::SsbDatabase& db,
                                 const StarPlan& plan,
                                 const std::string& label);

}  // namespace hef

#endif  // HEF_ENGINE_SCAN_H_
