#include "tuner/search_space.h"

#include <algorithm>

#include "common/macros.h"

namespace hef {

std::uint64_t SearchSpaceSize(int v, int s, int p) {
  HEF_CHECK_MSG(v >= 0 && s >= 0 && p >= 1, "bad space bounds");
  HEF_CHECK_MSG(v + s >= 1, "Eq. 2 requires v + s >= 1");
  return static_cast<std::uint64_t>(v) * s * (p - 1) + v + s - 1;
}

std::vector<HybridConfig> EnumerateSearchSpace(int v, int s, int p) {
  std::vector<HybridConfig> space;
  for (int vv = 0; vv <= v; ++vv) {
    for (int ss = 0; ss <= s; ++ss) {
      for (int pp = 1; pp <= p; ++pp) {
        const HybridConfig cfg{vv, ss, pp};
        if (cfg.valid()) space.push_back(cfg);
      }
    }
  }
  return space;
}

HybridConfig GridBounds(const std::vector<HybridConfig>& grid) {
  HybridConfig bounds{0, 0, 1};
  for (const HybridConfig& c : grid) {
    bounds.v = std::max(bounds.v, c.v);
    bounds.s = std::max(bounds.s, c.s);
    bounds.p = std::max(bounds.p, c.p);
  }
  return bounds;
}

}  // namespace hef
