// Tests for the bitmap selection-scan operators and their integration as
// the vector flavours' filter strategy.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "engine/reference.h"
#include "engine/scan.h"
#include "ssb/database.h"

namespace hef {
namespace {

class ScanFlavorTest : public ::testing::TestWithParam<Flavor> {};

TEST_P(ScanFlavorTest, BitmapMatchesPredicate) {
  const Flavor flavor = GetParam();
  Rng rng(51);
  for (std::size_t n : {0u, 1u, 7u, 64u, 65u, 1000u, 4096u}) {
    AlignedBuffer<std::uint64_t> col(n, 64);
    AlignedBuffer<std::uint64_t> bitmap(BitmapWords(n), 8);
    for (std::size_t i = 0; i < n; ++i) col[i] = rng.Uniform(0, 99);
    const std::size_t count =
        ScanRangeBitmap(flavor, col.data(), n, 20, 59, bitmap.data());
    std::size_t expect = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const bool pass = col[i] >= 20 && col[i] <= 59;
      ASSERT_EQ((bitmap[i >> 6] >> (i & 63)) & 1, pass ? 1u : 0u)
          << "n " << n << " row " << i;
      expect += pass;
    }
    EXPECT_EQ(count, expect) << "n " << n;
    // Tail bits past n stay clear (BitmapAnd popcounts rely on it).
    for (std::size_t i = n; i < BitmapWords(n) * 64; ++i) {
      ASSERT_EQ((bitmap[i >> 6] >> (i & 63)) & 1, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Flavors, ScanFlavorTest,
                         ::testing::Values(Flavor::kScalar, Flavor::kSimd,
                                           Flavor::kHybrid),
                         [](const ::testing::TestParamInfo<Flavor>& info) {
                           return FlavorName(info.param);
                         });

TEST(BitmapOpsTest, AndAndPositions) {
  const std::size_t n = 200;
  AlignedBuffer<std::uint64_t> a(BitmapWords(n), 8), b(BitmapWords(n), 8);
  // a: multiples of 2; b: multiples of 3 -> conjunction: multiples of 6.
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 2 == 0) a[i >> 6] |= 1ULL << (i & 63);
    if (i % 3 == 0) b[i >> 6] |= 1ULL << (i & 63);
  }
  const std::size_t count = BitmapAnd(a.data(), b.data(), n);
  EXPECT_EQ(count, (n + 5) / 6);

  AlignedBuffer<std::uint64_t> pos(n, 8);
  const std::size_t extracted = BitmapToPositions(a.data(), n, pos.data());
  ASSERT_EQ(extracted, count);
  for (std::size_t i = 0; i < extracted; ++i) {
    EXPECT_EQ(pos[i] % 6, 0u);
    if (i > 0) EXPECT_LT(pos[i - 1], pos[i]);
  }
}

TEST(BitmapOpsTest, EmptyAndFullBitmaps) {
  const std::size_t n = 130;
  AlignedBuffer<std::uint64_t> bitmap(BitmapWords(n), 8);
  AlignedBuffer<std::uint64_t> pos(n, 8);
  EXPECT_EQ(BitmapToPositions(bitmap.data(), n, pos.data()), 0u);
  AlignedBuffer<std::uint64_t> col(n, 64);
  col.Fill(5);
  EXPECT_EQ(ScanRangeBitmap(Flavor::kSimd, col.data(), n, 0, 10,
                            bitmap.data()),
            n);
  EXPECT_EQ(BitmapToPositions(bitmap.data(), n, pos.data()), n);
}

// The engine picks the filter path from the flavour: the vector flavours
// scan every predicate as a bitmap and conjoin once, the scalar flavour
// compacts after each predicate.
TEST(FusedFiltersTest, AllQ1QueriesMatchReference) {
  const ssb::SsbDatabase db = ssb::SsbDatabase::Generate(0.02, 7);
  for (const QueryId query :
       {QueryId::kQ1_1, QueryId::kQ1_2, QueryId::kQ1_3}) {
    const QueryResult want = RunReferenceQuery(db, query);
    for (Flavor flavor :
         {Flavor::kScalar, Flavor::kSimd, Flavor::kHybrid}) {
      EngineConfig config;
      config.flavor = flavor;
      SsbEngine engine(db, config);
      EXPECT_EQ(engine.Run(query), want)
          << QueryName(query) << " " << FlavorName(flavor);
    }
  }
}

TEST(FusedFiltersTest, FlavorChoosesFilterPath) {
  const ssb::SsbDatabase db = ssb::SsbDatabase::Generate(0.02, 7);
  for (Flavor flavor : {Flavor::kScalar, Flavor::kSimd, Flavor::kHybrid}) {
    EngineConfig config;
    config.flavor = flavor;
    config.collect_stats = true;
    SsbEngine engine(db, config);
    std::vector<OperatorStats> filters;
    for (const OperatorStats& op :
         engine.Run(QueryId::kQ1_1).operator_stats) {
      if (op.name.rfind("filter.", 0) == 0) filters.push_back(op);
    }
    ASSERT_GE(filters.size(), 2u);
    // Fused: every predicate sees every row. Compacting: the second
    // predicate sees only the first one's survivors.
    const std::uint64_t want = flavor == Flavor::kScalar
                                   ? filters[0].rows_out
                                   : filters[0].rows_in;
    EXPECT_EQ(filters[1].rows_in, want) << FlavorName(flavor);
    EXPECT_LT(filters[0].rows_out, filters[0].rows_in) << FlavorName(flavor);
  }
}

TEST(FusedFiltersTest, JoinQueriesUnaffected) {
  // Queries without >= 2 filters take the compacting path on every
  // flavour; results identical.
  const ssb::SsbDatabase db = ssb::SsbDatabase::Generate(0.01, 8);
  for (Flavor flavor : {Flavor::kScalar, Flavor::kSimd, Flavor::kHybrid}) {
    EngineConfig config;
    config.flavor = flavor;
    SsbEngine engine(db, config);
    for (const QueryId query : {QueryId::kQ2_1, QueryId::kQ4_3}) {
      EXPECT_EQ(engine.Run(query), RunReferenceQuery(db, query))
          << QueryName(query) << " " << FlavorName(flavor);
    }
  }
}

}  // namespace
}  // namespace hef
