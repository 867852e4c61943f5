// Tests for the SSB schema encodings and the data generator: hierarchy
// invariants, dbgen-compatible cardinalities, determinism, and the
// distribution properties the query selectivities depend on.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "ssb/database.h"
#include "ssb/schema.h"

namespace hef::ssb {
namespace {

TEST(SchemaTest, RegionNames) {
  EXPECT_STREQ(RegionName(kAmerica), "AMERICA");
  EXPECT_STREQ(RegionName(kAsia), "ASIA");
  EXPECT_STREQ(RegionName(kEurope), "EUROPE");
  EXPECT_EQ(RegionCode("AMERICA").value(), kAmerica);
  EXPECT_FALSE(RegionCode("ATLANTIS").ok());
}

TEST(SchemaTest, WellKnownNationCodes) {
  EXPECT_EQ(NationName(kNationUnitedStates), "UNITED STATES");
  EXPECT_EQ(NationName(kNationUnitedKingdom), "UNITED KINGDOM");
  EXPECT_EQ(NationCode("UNITED STATES").value(), kNationUnitedStates);
  EXPECT_EQ(RegionOfNation(kNationUnitedStates), kAmerica);
  EXPECT_EQ(RegionOfNation(kNationUnitedKingdom), kEurope);
}

TEST(SchemaTest, CityNamesFollowDbgenFormat) {
  // City = nation name padded/truncated to 9 chars + digit.
  EXPECT_EQ(CityName(kCityUnitedKi1), "UNITED KI1");
  EXPECT_EQ(CityName(kCityUnitedKi5), "UNITED KI5");
  EXPECT_EQ(CityCode("UNITED KI1").value(), kCityUnitedKi1);
  EXPECT_EQ(NationOfCity(kCityUnitedKi1), kNationUnitedKingdom);
}

TEST(SchemaTest, CityNameRoundTripAll250) {
  for (std::uint64_t c = 0; c < kNumCities; ++c) {
    const std::string name = CityName(c);
    ASSERT_EQ(name.size(), 10u) << name;
    auto code = CityCode(name);
    ASSERT_TRUE(code.ok()) << name;
    EXPECT_EQ(code.value(), c) << name;
  }
}

TEST(SchemaTest, BrandEncoding) {
  EXPECT_EQ(BrandName(2221), "MFGR#2221");
  EXPECT_EQ(BrandName(1101), "MFGR#1101");
  EXPECT_EQ(BrandName(5540), "MFGR#5540");
  EXPECT_EQ(BrandToCategory(2221), 22u);
  EXPECT_EQ(CategoryToMfgr(22), 2u);
  EXPECT_EQ(CategoryName(12), "MFGR#12");
  EXPECT_EQ(MfgrSeriesCode("MFGR#2221").value(), 2221u);
  EXPECT_EQ(MfgrSeriesCode("MFGR#12").value(), 12u);
  EXPECT_FALSE(MfgrSeriesCode("BRAND#1").ok());
}

class SsbDatabaseTest : public ::testing::Test {
 protected:
  // SF 0.01 -> 60k lineorder rows: fast enough for every test, large
  // enough for distribution checks.
  static void SetUpTestSuite() { db_ = new SsbDatabase(SsbDatabase::Generate(0.01)); }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static SsbDatabase* db_;
};

SsbDatabase* SsbDatabaseTest::db_ = nullptr;

TEST_F(SsbDatabaseTest, Cardinalities) {
  EXPECT_EQ(db_->date.n, static_cast<std::size_t>(kDaysInSsb));
  EXPECT_EQ(db_->customer.n, 300u);
  EXPECT_EQ(db_->supplier.n, 20u);
  EXPECT_EQ(db_->part.n, 2000u);
  EXPECT_EQ(db_->lineorder.n, 60000u);
}

TEST_F(SsbDatabaseTest, DateDimensionCalendar) {
  // First and last days.
  EXPECT_EQ(db_->date.datekey[0], 19920101u);
  // dbgen's date table has 2556 rows and ends at 1998-12-30.
  EXPECT_EQ(db_->date.datekey[db_->date.n - 1], 19981230u);
  // 1992 and 1996 are leap years: Feb 29 exists.
  bool found_feb29 = false;
  for (std::size_t i = 0; i < db_->date.n; ++i) {
    if (db_->date.datekey[i] == 19960229) found_feb29 = true;
    // Hierarchy consistency.
    ASSERT_EQ(db_->date.yearmonthnum[i], db_->date.datekey[i] / 100);
    ASSERT_EQ(db_->date.year[i], db_->date.datekey[i] / 10000);
    ASSERT_GE(db_->date.weeknuminyear[i], 1u);
    ASSERT_LE(db_->date.weeknuminyear[i], 53u);
  }
  EXPECT_TRUE(found_feb29);
}

TEST_F(SsbDatabaseTest, GeoHierarchyConsistent) {
  for (std::size_t i = 0; i < db_->customer.n; ++i) {
    ASSERT_LT(db_->customer.city[i], static_cast<std::uint64_t>(kNumCities));
    ASSERT_EQ(db_->customer.nation[i], NationOfCity(db_->customer.city[i]));
    ASSERT_EQ(db_->customer.region[i],
              RegionOfNation(db_->customer.nation[i]));
  }
  for (std::size_t i = 0; i < db_->supplier.n; ++i) {
    ASSERT_EQ(db_->supplier.nation[i], NationOfCity(db_->supplier.city[i]));
    ASSERT_EQ(db_->supplier.region[i],
              RegionOfNation(db_->supplier.nation[i]));
  }
}

TEST_F(SsbDatabaseTest, PartHierarchyConsistent) {
  for (std::size_t i = 0; i < db_->part.n; ++i) {
    const std::uint64_t m = db_->part.mfgr[i];
    const std::uint64_t c = db_->part.category[i];
    const std::uint64_t b = db_->part.brand1[i];
    ASSERT_GE(m, 1u);
    ASSERT_LE(m, 5u);
    ASSERT_EQ(CategoryToMfgr(c), m);
    ASSERT_EQ(BrandToCategory(b), c);
    ASSERT_GE(b % 100, 1u);
    ASSERT_LE(b % 100, 40u);
  }
}

TEST_F(SsbDatabaseTest, LineorderForeignKeysInRange) {
  const auto& lo = db_->lineorder;
  for (std::size_t i = 0; i < lo.n; ++i) {
    ASSERT_GE(lo.custkey[i], 1u);
    ASSERT_LE(lo.custkey[i], db_->customer.n);
    ASSERT_GE(lo.suppkey[i], 1u);
    ASSERT_LE(lo.suppkey[i], db_->supplier.n);
    ASSERT_GE(lo.partkey[i], 1u);
    ASSERT_LE(lo.partkey[i], db_->part.n);
    ASSERT_GE(lo.orderdate[i], 19920101u);
    ASSERT_LE(lo.orderdate[i], 19981231u);
  }
}

TEST_F(SsbDatabaseTest, MeasureColumnsConsistent) {
  const auto& lo = db_->lineorder;
  for (std::size_t i = 0; i < lo.n; ++i) {
    ASSERT_GE(lo.quantity[i], 1u);
    ASSERT_LE(lo.quantity[i], 50u);
    ASSERT_LE(lo.discount[i], 10u);
    ASSERT_EQ(lo.revenue[i],
              lo.extendedprice[i] * (100 - lo.discount[i]) / 100);
    ASSERT_LE(lo.supplycost[i], lo.extendedprice[i]);
  }
}

TEST_F(SsbDatabaseTest, SelectivityOfQ1Predicates) {
  // Q1.1: year = 1993 (1/7), discount 1..3 (3/11), quantity < 25 (~48%).
  const auto& lo = db_->lineorder;
  std::size_t matches = 0;
  for (std::size_t i = 0; i < lo.n; ++i) {
    if (lo.orderdate[i] / 10000 == 1993 && lo.discount[i] >= 1 &&
        lo.discount[i] <= 3 && lo.quantity[i] < 25) {
      ++matches;
    }
  }
  const double sel = static_cast<double>(matches) / lo.n;
  EXPECT_NEAR(sel, (1.0 / 7) * (3.0 / 11) * (24.0 / 50), 0.005);
}

TEST(SsbGeneratorTest, DeterministicForSeed) {
  const SsbDatabase a = SsbDatabase::Generate(0.001, 42);
  const SsbDatabase b = SsbDatabase::Generate(0.001, 42);
  ASSERT_EQ(a.lineorder.n, b.lineorder.n);
  for (std::size_t i = 0; i < a.lineorder.n; ++i) {
    ASSERT_EQ(a.lineorder.revenue[i], b.lineorder.revenue[i]);
    ASSERT_EQ(a.lineorder.partkey[i], b.lineorder.partkey[i]);
  }
}

TEST(SsbGeneratorTest, SeedChangesData) {
  const SsbDatabase a = SsbDatabase::Generate(0.001, 1);
  const SsbDatabase b = SsbDatabase::Generate(0.001, 2);
  std::size_t diff = 0;
  for (std::size_t i = 0; i < a.lineorder.n; ++i) {
    if (a.lineorder.revenue[i] != b.lineorder.revenue[i]) ++diff;
  }
  EXPECT_GT(diff, a.lineorder.n / 2);
}

TEST(SsbGeneratorTest, PartCountScalesLogarithmically) {
  EXPECT_EQ(SsbDatabase::Generate(0.01).part.n, 2000u);
  // SF1 -> 200k, SF2 -> 400k, SF4 -> 600k (1 + floor(log2(sf))).
  // Generating full SF1+ tables here is too slow for a unit test, so the
  // formula itself is exercised through small fractional scales only.
}

TEST(SsbGeneratorTest, TotalBytesAccountsForColumns) {
  const SsbDatabase db = SsbDatabase::Generate(0.001);
  // 6000 lineorder rows * 9 columns * 8B is the dominant term.
  EXPECT_GT(db.TotalBytes(), 6000u * 9 * 8);
}

}  // namespace
}  // namespace hef::ssb
