// Vectorized group-by aggregation with conflict detection.
//
// The SIMD aggregation literature the paper cites ([18], [31]) updates a
// dense accumulator array with gather -> add -> scatter, which is wrong
// when one vector holds duplicate group ids (the scatter loses all but
// one update). AVX-512CD's vpconflictq detects intra-vector duplicates:
// conflict-free lanes take the fast gather/scatter path, conflicting
// lanes fall back to serial updates. The scalar lowering is the plain
// accumulate loop, so the operation fits HEF's flavour scheme.
//
// The engine accumulates with the scalar loop (this kernel measured
// slower there); bench/micro_kernels and the benchmark replay call it.
// Group ids must be < the accumulator array size.

#ifndef HEF_TABLE_GROUP_AGG_H_
#define HEF_TABLE_GROUP_AGG_H_

#include <cstddef>
#include <cstdint>

namespace hef {

// agg[gids[i]] += values[i] and cnt[gids[i]] += 1 for i in [0, n).
// `use_simd` selects the conflict-detected vector path (requires
// AVX-512CD; silently falls back to the scalar loop when absent).
void GroupSumAdd(bool use_simd, const std::uint64_t* gids,
                 const std::uint64_t* values, std::size_t n,
                 std::uint64_t* agg, std::uint64_t* cnt);

}  // namespace hef

#endif  // HEF_TABLE_GROUP_AGG_H_
