#include "algo/reduce.h"

#include "hybrid/hybrid_reducer.h"

namespace hef {

namespace {

constexpr int kMaxV = 2;
constexpr int kMaxS = 4;
constexpr int kMaxP = 4;

using SumGrid = HybridReduceGrid<SumKernel, kMaxV, kMaxS, kMaxP>;

}  // namespace

std::uint64_t SumArray(const HybridConfig& cfg, const std::uint64_t* in,
                       std::size_t n) {
  return SumGrid::Run(cfg, SumKernel{}, in, n);
}

const std::vector<HybridConfig>& ReduceSupportedConfigs() {
  static const std::vector<HybridConfig>* configs =
      new std::vector<HybridConfig>(SumGrid::Supported());
  return *configs;
}

}  // namespace hef
