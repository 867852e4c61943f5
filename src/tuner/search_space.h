// Search-space arithmetic (paper §II-C, Eq. 1 / Eq. 2): the number of
// concrete implementations of an operator when the vector statement count
// ranges over 0..v, the scalar count over 0..s and the pack size over 1..p.

#ifndef HEF_TUNER_SEARCH_SPACE_H_
#define HEF_TUNER_SEARCH_SPACE_H_

#include <cstdint>
#include <vector>

#include "hybrid/hybrid_config.h"

namespace hef {

// Eq. 2 as printed in the paper: space = v*s*(p-1) + v + s - 1 for
// v + s >= 1. (Note: the paper's reduction of Eq. 1 to Eq. 2 drops the
// p = 1 plane of the mixed region; both are O(v*s*p), which is the claim
// the formula supports. EnumerateSearchSpace() below counts the actual
// grid.)
std::uint64_t SearchSpaceSize(int v, int s, int p);

// The actual implementation grid the optimizer can visit: every valid
// (v', s', p') with v' <= v, s' <= s, p' <= p; mixed nodes vary over all
// pack sizes, pure nodes too (packing pure-SIMD statements is exactly the
// SLP transformation). Size = (v+1)*(s+1)*p - p.
std::vector<HybridConfig> EnumerateSearchSpace(int v, int s, int p);

// The per-axis maxima (v, s, p) of a compiled grid, p at least 1: the
// bounds of the smallest EnumerateSearchSpace box that contains it.
HybridConfig GridBounds(const std::vector<HybridConfig>& grid);

}  // namespace hef

#endif  // HEF_TUNER_SEARCH_SPACE_H_
