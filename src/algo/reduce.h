// Hybrid aggregation kernel: sum over a 64-bit column.
// Aggregations are one of the operator classes the paper's SIMD related
// work targets; expressed against the HID they get the same (v, s, p)
// treatment — every instance carries its own accumulator, so packing
// shortens the accumulate chain's effective latency exactly as for maps.

#ifndef HEF_ALGO_REDUCE_H_
#define HEF_ALGO_REDUCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hid/hid.h"
#include "hybrid/hybrid_config.h"
#include "procinfo/instruction_table.h"

namespace hef {

// Reduction kernel concept implementation (see hybrid_reducer.h).
struct SumKernel {
  template <typename B>
  struct State {
    typename B::Reg acc;
  };
  template <typename B>
  HEF_INLINE void Init(State<B>& st) const {
    st.acc = B::Set1(0);
  }
  template <typename B>
  HEF_INLINE void Accumulate(State<B>& st, const std::uint64_t* in) const {
    st.acc = B::Add(st.acc, B::LoadU(in));
  }
  template <typename B>
  HEF_INLINE std::uint64_t Reduce(const State<B>& st) const {
    std::uint64_t total = 0;
    for (int i = 0; i < B::kLanes; ++i) total += B::Lane(st.acc, i);
    return total;
  }
  static std::uint64_t Combine(std::uint64_t a, std::uint64_t b) {
    return a + b;
  }
  static std::uint64_t Identity() { return 0; }
  static std::vector<OpClass> Ops() {
    return {OpClass::kLoad, OpClass::kAdd};
  }
};

// sum(in[i]) under implementation `cfg` (wrap-around on overflow, like the
// scalar loop it replaces).
std::uint64_t SumArray(const HybridConfig& cfg, const std::uint64_t* in,
                       std::size_t n);

// All (v, s, p) coordinates precompiled for the sum kernel.
const std::vector<HybridConfig>& ReduceSupportedConfigs();

}  // namespace hef

#endif  // HEF_ALGO_REDUCE_H_
