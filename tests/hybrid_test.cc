// Tests for the hybrid runner/grid: every (v, s, p) instantiation of a
// kernel must compute exactly what the scalar reference computes — the
// framework's foundational invariant ("different implementations handle
// different numbers of arguments, but users do not need to care").

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/rng.h"
#include "hybrid/hybrid_config.h"
#include "hybrid/hybrid_grid.h"
#include "hybrid/hybrid_runner.h"

namespace hef {
namespace {

// A tiny but non-trivial test kernel: out = (in * 3 + 7) ^ (in >> 5).
struct AffineXorKernel {
  template <typename B>
  struct State {
    typename B::Reg x;
  };

  template <typename B>
  HEF_INLINE void Load(State<B>& st, const std::uint64_t* in) const {
    st.x = B::LoadU(in);
  }
  template <typename B>
  HEF_INLINE void Compute(State<B>& st) const {
    auto mul = B::Mul(st.x, B::Set1(3));
    auto add = B::Add(mul, B::Set1(7));
    st.x = B::Xor(add, B::template Srli<5>(st.x));
  }
  template <typename B>
  HEF_INLINE void Store(std::uint64_t* out, const State<B>& st) const {
    B::StoreU(out, st.x);
  }
};

std::uint64_t AffineXorReference(std::uint64_t x) {
  return (x * 3 + 7) ^ (x >> 5);
}

using TestGrid = HybridGrid<AffineXorKernel, /*MaxV=*/2, /*MaxS=*/3,
                            /*MaxP=*/3>;

class HybridGridTest : public ::testing::TestWithParam<HybridConfig> {};

TEST_P(HybridGridTest, MatchesScalarReference) {
  const HybridConfig cfg = GetParam();
  Rng rng(42);
  // Deliberately awkward size: exercises both the chunked bulk and the
  // scalar tail for every chunk width in the grid.
  const std::size_t n = 1013;
  AlignedBuffer<std::uint64_t> in(n, /*padding_elems=*/64);
  AlignedBuffer<std::uint64_t> out(n, /*padding_elems=*/64);
  for (std::size_t i = 0; i < n; ++i) in[i] = rng.Next();

  TestGrid::Run(cfg, AffineXorKernel{}, in.data(), out.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(out[i], AffineXorReference(in[i]))
        << "config " << cfg.ToString() << " element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, HybridGridTest, ::testing::ValuesIn(TestGrid::Supported()),
    [](const ::testing::TestParamInfo<HybridConfig>& info) {
      return info.param.ToString();
    });

TEST(HybridConfigTest, ValidityRules) {
  EXPECT_TRUE((HybridConfig{1, 0, 1}).valid());
  EXPECT_TRUE((HybridConfig{0, 1, 1}).valid());
  EXPECT_TRUE((HybridConfig{1, 3, 2}).valid());
  EXPECT_FALSE((HybridConfig{0, 0, 1}).valid());  // no statements
  EXPECT_FALSE((HybridConfig{1, 1, 0}).valid());  // no packs
  EXPECT_FALSE((HybridConfig{-1, 1, 1}).valid());
}

TEST(HybridConfigTest, ToStringParseRoundTrip) {
  for (const HybridConfig& cfg : TestGrid::Supported()) {
    auto parsed = HybridConfig::Parse(cfg.ToString());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), cfg);
  }
}

TEST(HybridConfigTest, ParseRejectsGarbage) {
  EXPECT_FALSE(HybridConfig::Parse("").ok());
  EXPECT_FALSE(HybridConfig::Parse("v1s3").ok());
  EXPECT_FALSE(HybridConfig::Parse("v1s3p2x").ok());
  EXPECT_FALSE(HybridConfig::Parse("v0s0p1").ok());
  EXPECT_FALSE(HybridConfig::Parse("banana").ok());
  // Overflowing and oversized fields: each bounded by kMaxCoordinate.
  EXPECT_FALSE(HybridConfig::Parse("v1s1p99999999999").ok());
  EXPECT_FALSE(HybridConfig::Parse("v99999s1p1").ok());
  EXPECT_FALSE(HybridConfig::Parse("v1s1p100000").ok());
  EXPECT_FALSE(HybridConfig::Parse("v33s1p1").ok());
  EXPECT_FALSE(HybridConfig::Parse("v1s33p1").ok());
  EXPECT_FALSE(HybridConfig::Parse("v1s1p33").ok());
  EXPECT_TRUE(HybridConfig::Parse("v32s32p32").ok());
  // Signed, spaced and zero-padded spellings are not canonical.
  EXPECT_FALSE(HybridConfig::Parse("v1s1p+2").ok());
  EXPECT_FALSE(HybridConfig::Parse("v1s1p-2").ok());
  EXPECT_FALSE(HybridConfig::Parse("v-1s1p1").ok());
  EXPECT_FALSE(HybridConfig::Parse("v 1s1p2").ok());
  EXPECT_FALSE(HybridConfig::Parse("v1s1p2 ").ok());
  EXPECT_FALSE(HybridConfig::Parse(" v1s1p2").ok());
  EXPECT_FALSE(HybridConfig::Parse("v01s1p2").ok());
  EXPECT_FALSE(HybridConfig::Parse("v1s1p").ok());
}

TEST(HybridConfigTest, ElementsPerChunk) {
  // v1 s3 p2 on an 8-lane backend: 2 * (8 + 3) = 22 (Fig. 6(b) layout).
  EXPECT_EQ((HybridConfig{1, 3, 2}).ElementsPerChunk(8), 22);
  // v2 s3 p2: 2 * (16 + 3) = 38 (Fig. 6(c) layout).
  EXPECT_EQ((HybridConfig{2, 3, 2}).ElementsPerChunk(8), 38);
}

TEST(HybridGridTest2, LookupRejectsOutsideGrid) {
  EXPECT_EQ(TestGrid::Lookup(HybridConfig{3, 0, 1}), nullptr);
  EXPECT_EQ(TestGrid::Lookup(HybridConfig{0, 4, 1}), nullptr);
  EXPECT_EQ(TestGrid::Lookup(HybridConfig{1, 1, 4}), nullptr);
  EXPECT_EQ(TestGrid::Lookup(HybridConfig{0, 0, 1}), nullptr);
  EXPECT_NE(TestGrid::Lookup(HybridConfig{2, 3, 3}), nullptr);
}

TEST(HybridGridTest2, SupportedEnumeratesFullGrid) {
  const auto configs = TestGrid::Supported();
  // (MaxV+1)*(MaxS+1)*MaxP minus the invalid v=0,s=0 column (MaxP nodes).
  EXPECT_EQ(configs.size(), 3u * 4u * 3u - 3u);
  for (const auto& cfg : configs) {
    EXPECT_TRUE(cfg.valid());
    EXPECT_NE(TestGrid::Lookup(cfg), nullptr) << cfg.ToString();
  }
}

TEST(HybridRunnerTest, PureScalarConfigHandlesTinyInputs) {
  for (std::size_t n : {0u, 1u, 2u, 7u}) {
    std::vector<std::uint64_t> in(n + 8, 5), out(n + 8, 0);
    HybridRunner<AffineXorKernel, 0, 1, 1>::Run(AffineXorKernel{}, in.data(),
                                                out.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], AffineXorReference(5));
    }
    // Elements past n stay untouched.
    for (std::size_t i = n; i < out.size(); ++i) {
      EXPECT_EQ(out[i], 0u);
    }
  }
}

TEST(HybridRunnerTest, ChunkConstantMatchesConfig) {
  constexpr auto kChunk =
      HybridRunner<AffineXorKernel, 1, 3, 2, ScalarBackend>::kChunk;
  EXPECT_EQ(kChunk, (HybridConfig{1, 3, 2}).ElementsPerChunk(1));
}

TEST(HybridRunnerTest, InputExactlyOneChunk) {
  using Runner = HybridRunner<AffineXorKernel, 2, 3, 3>;
  const std::size_t n = Runner::kChunk;
  Rng rng(7);
  AlignedBuffer<std::uint64_t> in(n, 64), out(n, 64);
  for (std::size_t i = 0; i < n; ++i) in[i] = rng.Next();
  Runner::Run(AffineXorKernel{}, in.data(), out.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(out[i], AffineXorReference(in[i]));
  }
}

}  // namespace
}  // namespace hef
