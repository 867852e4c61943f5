#include "table/group_agg.h"

#include "common/macros.h"
#include "hid/hid.h"

#if HEF_HAVE_AVX512 && defined(__AVX512CD__)
#define HEF_HAVE_GROUP_AGG_SIMD 1
#else
#define HEF_HAVE_GROUP_AGG_SIMD 0
#endif

namespace hef {

namespace {

void GroupSumAddScalar(const std::uint64_t* gids,
                       const std::uint64_t* values, std::size_t n,
                       std::uint64_t* agg, std::uint64_t* cnt) {
  for (std::size_t i = 0; i < n; ++i) {
    agg[gids[i]] += values[i];
    cnt[gids[i]] += 1;
  }
}

#if HEF_HAVE_GROUP_AGG_SIMD

void GroupSumAddSimd(const std::uint64_t* gids, const std::uint64_t* values,
                     std::size_t n, std::uint64_t* agg,
                     std::uint64_t* cnt) {
  using B = Avx512Backend;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i g = B::LoadU(gids + i);
    const __m512i v = B::LoadU(values + i);
    // conflicts[lane] has a bit set per earlier lane with the same gid;
    // zero means this lane is the only (or first) occurrence.
    const __m512i conflicts = _mm512_conflict_epi64(g);
    const __mmask8 free_lanes =
        _mm512_cmpeq_epi64_mask(conflicts, _mm512_setzero_si512());

    // Fast path: gather-add-scatter the conflict-free lanes.
    const __m512i cur_agg =
        _mm512_mask_i64gather_epi64(_mm512_setzero_si512(), free_lanes, g,
                                    agg, 8);
    const __m512i cur_cnt =
        _mm512_mask_i64gather_epi64(_mm512_setzero_si512(), free_lanes, g,
                                    cnt, 8);
    _mm512_mask_i64scatter_epi64(agg, free_lanes, g,
                                 _mm512_add_epi64(cur_agg, v), 8);
    _mm512_mask_i64scatter_epi64(cnt, free_lanes, g,
                                 _mm512_add_epi64(cur_cnt, B::Set1(1)), 8);

    // Slow path: serial updates for lanes that duplicate an earlier gid.
    std::uint32_t dup = static_cast<std::uint8_t>(~free_lanes);
    if (HEF_UNLIKELY(dup != 0)) {
      while (dup != 0) {
        const int lane = __builtin_ctz(dup);
        dup &= dup - 1;
        const std::uint64_t gid = B::Lane(g, lane);
        agg[gid] += B::Lane(v, lane);
        cnt[gid] += 1;
      }
    }
  }
  GroupSumAddScalar(gids + i, values + i, n - i, agg, cnt);
}

#endif  // HEF_HAVE_GROUP_AGG_SIMD

}  // namespace

void GroupSumAdd(bool use_simd, const std::uint64_t* gids,
                 const std::uint64_t* values, std::size_t n,
                 std::uint64_t* agg, std::uint64_t* cnt) {
#if HEF_HAVE_GROUP_AGG_SIMD
  if (use_simd) {
    GroupSumAddSimd(gids, values, n, agg, cnt);
    return;
  }
#endif
  (void)use_simd;
  GroupSumAddScalar(gids, values, n, agg, cnt);
}

}  // namespace hef
