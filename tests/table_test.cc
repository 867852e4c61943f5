// Tests for the linear-probe hash table and its scalar/SIMD/hybrid probe
// kernels: probes of every (v, s, p) flavour must agree with a
// std::unordered_map reference, including collision chains and misses.

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/rng.h"
#include "table/linear_hash_table.h"
#include "table/probe.h"

namespace hef {
namespace {

TEST(LinearHashTableTest, InsertAndLookup) {
  LinearHashTable table(100);
  for (std::uint64_t k = 1; k <= 100; ++k) {
    table.Insert(k, k * 10);
  }
  EXPECT_EQ(table.size(), 100u);
  for (std::uint64_t k = 1; k <= 100; ++k) {
    std::uint64_t v = 0;
    ASSERT_TRUE(table.Lookup(k, &v));
    EXPECT_EQ(v, k * 10);
  }
  std::uint64_t v = 0;
  EXPECT_FALSE(table.Lookup(101, &v));
  EXPECT_FALSE(table.Lookup(0, &v));
}

TEST(LinearHashTableTest, CapacityIsPowerOfTwoAndLarge) {
  LinearHashTable table(1000, 0.25);
  EXPECT_EQ(table.capacity() & (table.capacity() - 1), 0u);
  EXPECT_GE(table.capacity(), 4000u);
  EXPECT_EQ(table.mask(), table.capacity() - 1);
}

TEST(LinearHashTableTest, SurvivesAdversarialCollisions) {
  // High load factor forces long probe chains; lookups must still resolve.
  LinearHashTable table(64, 0.8);
  std::unordered_map<std::uint64_t, std::uint64_t> reference;
  Rng rng(17);
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t k = rng.Next() | 1;  // avoid 0 and kEmptyKey
    if (reference.count(k)) continue;
    reference[k] = rng.Next() >> 1;
    table.Insert(k, reference[k]);
  }
  for (const auto& [k, v] : reference) {
    std::uint64_t got = 0;
    ASSERT_TRUE(table.Lookup(k, &got));
    EXPECT_EQ(got, v);
  }
}

TEST(LinearHashTableTest, RawSlabsExposeEmptyMarker) {
  LinearHashTable table(4);
  table.Insert(7, 70);
  int empties = 0;
  int found = 0;
  for (std::size_t i = 0; i < table.capacity(); ++i) {
    if (table.keys()[i] == kEmptyKey) {
      ++empties;
    } else if (table.keys()[i] == 7) {
      EXPECT_EQ(table.values()[i], 70u);
      ++found;
    }
  }
  EXPECT_EQ(found, 1);
  EXPECT_EQ(empties, static_cast<int>(table.capacity()) - 1);
}

class ProbeConfigTest : public ::testing::TestWithParam<HybridConfig> {
 protected:
  void SetUp() override {
    rng_.Seed(77);
    table_ = std::make_unique<LinearHashTable>(kTableKeys);
    for (std::uint64_t k = 0; k < kTableKeys; ++k) {
      // Sparse keys so roughly half the probe stream misses.
      const std::uint64_t key = k * 2 + 1;
      reference_[key] = k * 31 + 5;
      table_->Insert(key, k * 31 + 5);
    }
  }

  static constexpr std::uint64_t kTableKeys = 4096;
  Rng rng_;
  std::unique_ptr<LinearHashTable> table_;
  std::unordered_map<std::uint64_t, std::uint64_t> reference_;
};

TEST_P(ProbeConfigTest, MatchesReferenceIncludingMisses) {
  const HybridConfig cfg = GetParam();
  const std::size_t n = 3001;
  AlignedBuffer<std::uint64_t> keys(n, 128), out(n, 128);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = rng_.Uniform(0, kTableKeys * 2);  // ~50% hit rate
  }
  ProbeArray(cfg, *table_, keys.data(), out.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    auto it = reference_.find(keys[i]);
    if (it == reference_.end()) {
      ASSERT_EQ(out[i], kMissValue)
          << "config " << cfg.ToString() << " key " << keys[i];
    } else {
      ASSERT_EQ(out[i], it->second)
          << "config " << cfg.ToString() << " key " << keys[i];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, ProbeConfigTest,
    ::testing::ValuesIn(ProbeSupportedConfigs()),
    [](const ::testing::TestParamInfo<HybridConfig>& info) {
      return info.param.ToString();
    });

TEST(ProbeStressTest, HighLoadFactorCollisionChase) {
  // Force collisions so the vector kernels exercise ChaseCollisions.
  LinearHashTable table(512, 0.8);
  std::unordered_map<std::uint64_t, std::uint64_t> reference;
  Rng rng(3);
  while (reference.size() < 512) {
    const std::uint64_t k = rng.Uniform(1, 100000);
    if (reference.count(k)) continue;
    reference[k] = reference.size();
    table.Insert(k, reference[k]);
  }
  const std::size_t n = 4096;
  AlignedBuffer<std::uint64_t> keys(n, 64), out(n, 64);
  for (std::size_t i = 0; i < n; ++i) keys[i] = rng.Uniform(1, 100000);

  for (HybridConfig cfg :
       {HybridConfig::PureScalar(), HybridConfig::PureSimd(),
        HybridConfig{1, 3, 2}, HybridConfig{2, 2, 3}}) {
    ProbeArray(cfg, table, keys.data(), out.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      auto it = reference.find(keys[i]);
      const std::uint64_t want =
          it == reference.end() ? kMissValue : it->second;
      ASSERT_EQ(out[i], want) << cfg.ToString() << " key " << keys[i];
    }
  }
}

TEST(ProbeTest, EmptyTableAllMiss) {
  LinearHashTable table(16);
  const std::size_t n = 100;
  AlignedBuffer<std::uint64_t> keys(n, 64), out(n, 64);
  for (std::size_t i = 0; i < n; ++i) keys[i] = i;
  ProbeArray(HybridConfig{1, 1, 1}, table, keys.data(), out.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i], kMissValue);
  }
}

}  // namespace
}  // namespace hef
