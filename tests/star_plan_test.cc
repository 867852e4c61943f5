// Tests for the star planner: selectivity estimation, probe ordering,
// plan structure per query, and the framed group-key layout.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "engine/engine.h"
#include "engine/reference.h"
#include "engine/star_plan.h"
#include "ssb/database.h"
#include "voila/voila_engine.h"

namespace hef {
namespace {

const ssb::SsbDatabase& TestDb() {
  static const ssb::SsbDatabase* db =
      new ssb::SsbDatabase(ssb::SsbDatabase::Generate(0.05, 7));
  return *db;
}

TEST(StarPlanTest, SelectivitiesAreEstimatedForEveryJoin) {
  for (const QueryId id : AllQueries()) {
    const BoundPlan bound = BuildQueryPlan(TestDb(), id);
    for (const JoinStage& join : bound.plan.joins) {
      // Zero is legitimate: at tiny scale factors a city-level filter can
      // match no suppliers at all (Q3.3/Q3.4).
      EXPECT_GE(join.selectivity, 0.0) << QueryName(id);
      EXPECT_LE(join.selectivity, 1.0 + 1e-9) << QueryName(id);
      EXPECT_GE(join.payload_slot, 0) << QueryName(id);
    }
  }
}

// A join whose predicate keeps every dimension row carries no Bloom
// filter; every other join's filter holds every key of its hash table.
TEST(StarPlanTest, FilteringJoinsCarryBloomFilters) {
  int unfiltered = 0;
  for (const QueryId id : AllQueries()) {
    const BoundPlan bound = BuildQueryPlan(TestDb(), id);
    std::size_t filters = 0;
    for (const JoinStage& join : bound.plan.joins) {
      if (join.selectivity == 1.0) {
        EXPECT_EQ(join.bloom, nullptr) << QueryName(id);
        ++unfiltered;
        continue;
      }
      ASSERT_NE(join.bloom, nullptr) << QueryName(id);
      ++filters;
      const LinearHashTable& table = *join.table;
      for (std::size_t slot = 0; slot < table.capacity(); ++slot) {
        const std::uint64_t key = table.keys()[slot];
        if (key == kEmptyKey) continue;
        ASSERT_TRUE(join.bloom->MayContain(key))
            << QueryName(id) << " key " << key;
      }
    }
    EXPECT_EQ(bound.blooms.size(), filters) << QueryName(id);
  }
  // The unfiltered date joins of Q2.1-Q2.3 and Q4.1.
  EXPECT_EQ(unfiltered, 4);
}

TEST(StarPlanTest, JoinsOrderedMostSelectiveFirst) {
  for (const QueryId id : AllQueries()) {
    const BoundPlan bound = BuildQueryPlan(TestDb(), id);
    for (std::size_t j = 1; j < bound.plan.joins.size(); ++j) {
      EXPECT_LE(bound.plan.joins[j - 1].selectivity,
                bound.plan.joins[j].selectivity)
          << QueryName(id) << " stage " << j;
    }
  }
}

TEST(StarPlanTest, Q2PlansProbePartFirst) {
  // Part filters (1/25 category, brand ranges) dominate supplier region
  // (1/5) and the unfiltered date join.
  const auto& db = TestDb();
  for (const QueryId id :
       {QueryId::kQ2_1, QueryId::kQ2_2, QueryId::kQ2_3}) {
    const BoundPlan bound = BuildQueryPlan(db, id);
    ASSERT_EQ(bound.plan.joins.size(), 3u) << QueryName(id);
    EXPECT_EQ(bound.plan.joins[0].fact_key, &db.lineorder.partkey)
        << QueryName(id);
    EXPECT_EQ(bound.plan.joins[2].fact_key, &db.lineorder.orderdate)
        << QueryName(id);
  }
}

TEST(StarPlanTest, Q4_3ProbesMostSelectiveDimensionsFirst) {
  // s_nation = US (1/25) and p_category = 14 (1/25) precede c_region
  // (1/5) and the 2-year date filter (~2/7).
  const auto& db = TestDb();
  const BoundPlan bound = BuildQueryPlan(db, QueryId::kQ4_3);
  ASSERT_EQ(bound.plan.joins.size(), 4u);
  const auto* first = bound.plan.joins[0].fact_key;
  const auto* second = bound.plan.joins[1].fact_key;
  EXPECT_TRUE(first == &db.lineorder.suppkey ||
              first == &db.lineorder.partkey);
  EXPECT_TRUE(second == &db.lineorder.suppkey ||
              second == &db.lineorder.partkey);
  EXPECT_NE(first, second);
}

TEST(StarPlanTest, Q1PlansHaveNoJoinsExceptQ13) {
  EXPECT_TRUE(BuildQueryPlan(TestDb(), QueryId::kQ1_1).plan.joins.empty());
  EXPECT_TRUE(BuildQueryPlan(TestDb(), QueryId::kQ1_2).plan.joins.empty());
  EXPECT_EQ(BuildQueryPlan(TestDb(), QueryId::kQ1_3).plan.joins.size(), 1u);
}

TEST(StarPlanTest, MeasureColumnsPerQueryClass) {
  const auto& db = TestDb();
  const BoundPlan q1 = BuildQueryPlan(db, QueryId::kQ1_1);
  EXPECT_EQ(q1.plan.value_op, ValueOp::kSumProduct);
  EXPECT_EQ(q1.plan.value_a, &db.lineorder.extendedprice);
  const BoundPlan q2 = BuildQueryPlan(db, QueryId::kQ2_2);
  EXPECT_EQ(q2.plan.value_op, ValueOp::kSum);
  EXPECT_EQ(q2.plan.value_a, &db.lineorder.revenue);
  const BoundPlan q4 = BuildQueryPlan(db, QueryId::kQ4_1);
  EXPECT_EQ(q4.plan.value_op, ValueOp::kSumDiff);
  EXPECT_EQ(q4.plan.value_b, &db.lineorder.supplycost);
}

bool HasEmptyJoin(const StarPlan& plan) {
  return std::any_of(plan.joins.begin(), plan.joins.end(),
                     [](const JoinStage& j) { return j.table->size() == 0; });
}

// Smallest and largest payload each join table holds, by payload slot.
std::array<std::array<std::uint64_t, 4>, 2> PayloadEnds(const StarPlan& plan) {
  std::array<std::array<std::uint64_t, 4>, 2> ends{};
  for (const JoinStage& join : plan.joins) {
    std::uint64_t lo = ~0ULL, hi = 0;
    for (std::size_t s = 0; s < join.table->capacity(); ++s) {
      if (join.table->keys()[s] == kEmptyKey) continue;
      lo = std::min(lo, join.table->values()[s]);
      hi = std::max(hi, join.table->values()[s]);
    }
    ends[0][join.payload_slot] = lo;
    ends[1][join.payload_slot] = hi;
  }
  return ends;
}

TEST(StarPlanTest, GidDecodeRoundTripsOverDomain) {
  // Upper bounds on gid_domain at any scale factor: the product of the
  // widths of the group payloads the dimension predicates let through
  // (nations/cities of one region/nation, one category's 40 brands, the
  // years a date predicate keeps), from the codes in ssb/schema.h.
  const std::map<QueryId, std::size_t> kMaxDomain = {
      {QueryId::kQ1_1, 1},   {QueryId::kQ1_2, 1},   {QueryId::kQ1_3, 1},
      {QueryId::kQ2_1, 280}, {QueryId::kQ2_2, 56},  {QueryId::kQ2_3, 7},
      {QueryId::kQ3_1, 150}, {QueryId::kQ3_2, 600}, {QueryId::kQ3_3, 150},
      {QueryId::kQ3_4, 25},  {QueryId::kQ4_1, 35},  {QueryId::kQ4_2, 150},
      {QueryId::kQ4_3, 800}};
  for (const QueryId id : AllQueries()) {
    const BoundPlan bound = BuildQueryPlan(TestDb(), id);
    const StarPlan& plan = bound.plan;
    ASSERT_GE(plan.gid_domain, 1u) << QueryName(id);
    EXPECT_LE(plan.gid_domain, kMaxDomain.at(id)) << QueryName(id);
    // decode is injective over the whole domain: no two gids render the
    // same key tuple.
    std::set<std::array<std::uint64_t, 3>> seen;
    for (std::size_t g = 0; g < plan.gid_domain; ++g) {
      ASSERT_TRUE(seen.insert(plan.decode(g)).second)
          << QueryName(id) << " gid " << g;
    }
    // The domain is tight: the smallest and largest payloads the tables
    // hold land on its two ends (unless a table holds none).
    if (HasEmptyJoin(plan)) continue;
    const auto ends = PayloadEnds(plan);
    EXPECT_EQ(plan.gid(ends[0]), 0u) << QueryName(id);
    EXPECT_EQ(plan.gid(ends[1]), plan.gid_domain - 1) << QueryName(id);
  }

  // A join table no dimension row reaches (a Q3.3/Q3.4 city filter keeps
  // 2 of 250 cities, so tiny scale factors hold seeds where no supplier
  // or customer passes) still frames to a domain of at least 1, and
  // every engine returns the reference's empty result.
  for (std::uint64_t seed = 1; seed < 64; ++seed) {
    const ssb::SsbDatabase db = ssb::SsbDatabase::Generate(0.002, seed);
    for (const QueryId id : {QueryId::kQ3_3, QueryId::kQ3_4}) {
      const BoundPlan bound = BuildQueryPlan(db, id);
      if (!HasEmptyJoin(bound.plan)) continue;
      EXPECT_GE(bound.plan.gid_domain, 1u) << QueryName(id);
      const QueryResult want = RunReferenceQuery(db, id);
      EXPECT_TRUE(want.rows.empty()) << QueryName(id) << " seed " << seed;
      for (Flavor flavor :
           {Flavor::kScalar, Flavor::kSimd, Flavor::kHybrid}) {
        EngineConfig config;
        config.flavor = flavor;
        SsbEngine engine(db, config);
        EXPECT_EQ(engine.Run(id), want)
            << QueryName(id) << " seed " << seed << " "
            << FlavorName(flavor);
      }
      VoilaEngine voila(db);
      EXPECT_EQ(voila.Run(id), want) << QueryName(id) << " seed " << seed;
      return;
    }
  }
  FAIL() << "no seed gave a Q3.3/Q3.4 join table with no rows";
}

}  // namespace
}  // namespace hef
