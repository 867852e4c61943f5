// Tests for the hybrid reduction combinator and the sum kernel:
// every (v, s, p) instantiation must equal the sequential fold, for all
// input sizes including tails and empty inputs.

#include <gtest/gtest.h>

#include <cstdint>

#include "algo/reduce.h"
#include "common/aligned_buffer.h"
#include "common/rng.h"

namespace hef {
namespace {

class ReduceConfigTest : public ::testing::TestWithParam<HybridConfig> {};

TEST_P(ReduceConfigTest, SumMatchesSequentialFold) {
  const HybridConfig cfg = GetParam();
  Rng rng(31);
  for (std::size_t n : {0u, 1u, 63u, 1024u, 4099u}) {
    AlignedBuffer<std::uint64_t> in(n, 256);
    std::uint64_t expect = 0;
    for (std::size_t i = 0; i < n; ++i) {
      in[i] = rng.Uniform(0, 1 << 20);
      expect += in[i];
    }
    ASSERT_EQ(SumArray(cfg, in.data(), n), expect)
        << "config " << cfg.ToString() << " n " << n;
  }
}

TEST_P(ReduceConfigTest, SumWrapsOnOverflowLikeScalar) {
  const HybridConfig cfg = GetParam();
  const std::size_t n = 173;
  AlignedBuffer<std::uint64_t> in(n, 256);
  std::uint64_t expect = 0;
  Rng rng(32);
  for (std::size_t i = 0; i < n; ++i) {
    in[i] = rng.Next();  // full 64-bit range: sums wrap
    expect += in[i];
  }
  EXPECT_EQ(SumArray(cfg, in.data(), n), expect) << cfg.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, ReduceConfigTest,
    ::testing::ValuesIn(ReduceSupportedConfigs()),
    [](const ::testing::TestParamInfo<HybridConfig>& info) {
      return info.param.ToString();
    });

TEST(ReduceEdgeTest, EmptyInputsYieldIdentities) {
  const HybridConfig cfg{1, 1, 1};
  EXPECT_EQ(SumArray(cfg, nullptr, 0), 0u);
}

}  // namespace
}  // namespace hef
