// Integration tests for the vectorized SSB engine: every flavour of every
// query must produce results bit-identical to the independent row-at-a-time
// reference executor.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "engine/engine.h"
#include "engine/reference.h"
#include "ssb/database.h"

namespace hef {
namespace {

// One shared small database for the whole binary (generation dominates
// runtime otherwise). SF 0.02 -> 120k fact rows: enough to populate every
// group of every query.
const ssb::SsbDatabase& TestDb() {
  static const ssb::SsbDatabase* db =
      new ssb::SsbDatabase(ssb::SsbDatabase::Generate(0.02, 7));
  return *db;
}

class EngineVsReferenceTest
    : public ::testing::TestWithParam<std::tuple<QueryId, Flavor>> {};

TEST_P(EngineVsReferenceTest, MatchesReference) {
  const auto [query, flavor] = GetParam();
  EngineConfig config;
  config.flavor = flavor;
  SsbEngine engine(TestDb(), config);
  const QueryResult got = engine.Run(query);
  const QueryResult want = RunReferenceQuery(TestDb(), query);
  ASSERT_EQ(got.qualifying_rows, want.qualifying_rows);
  ASSERT_EQ(got.rows.size(), want.rows.size());
  EXPECT_EQ(got, want) << "flavor " << FlavorName(flavor) << "\ngot:\n"
                       << got.ToString() << "want:\n"
                       << want.ToString();
}

std::string ParamName(
    const ::testing::TestParamInfo<std::tuple<QueryId, Flavor>>& info) {
  std::string name = QueryName(std::get<0>(info.param));
  name += "_";
  name += FlavorName(std::get<1>(info.param));
  for (char& ch : name) {
    if (ch == '.') ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllQueriesAllFlavors, EngineVsReferenceTest,
    ::testing::Combine(::testing::ValuesIn(AllQueries()),
                       ::testing::Values(Flavor::kScalar, Flavor::kSimd,
                                         Flavor::kHybrid)),
    ParamName);

TEST(EngineConfigTest, FlavorsMapToConfigs) {
  EngineConfig config;
  config.flavor = Flavor::kScalar;
  EXPECT_EQ(config.PointFor(EngineKernel::kProbe), HybridConfig::PureScalar());
  config.flavor = Flavor::kSimd;
  EXPECT_EQ(config.PointFor(EngineKernel::kProbe), HybridConfig::PureSimd());
  config.flavor = Flavor::kHybrid;
  EXPECT_EQ(config.PointFor(EngineKernel::kProbe), (HybridConfig{1, 1, 3}));
}

TEST(EngineTest, HybridConfigOverrideRespected) {
  EngineConfig config;
  config.flavor = Flavor::kHybrid;
  config.points.probe = {2, 2, 2};
  config.points.gather = {1, 2, 1};
  SsbEngine engine(TestDb(), config);
  EXPECT_EQ(engine.Run(QueryId::kQ2_1),
            RunReferenceQuery(TestDb(), QueryId::kQ2_1));
}

TEST(EngineTest, BlockSizeDoesNotChangeResults) {
  const QueryResult want = RunReferenceQuery(TestDb(), QueryId::kQ3_2);
  for (int block : {64, 1000, 4096, 16384}) {
    EngineConfig config;
    config.flavor = Flavor::kSimd;
    config.block_size = block;
    SsbEngine engine(TestDb(), config);
    EXPECT_EQ(engine.Run(QueryId::kQ3_2), want) << "block " << block;
  }
}

TEST(EngineTest, MorselParallelismPreservesResults) {
  // Group sums commute, so any thread count must be bit-identical.
  const QueryResult want = RunReferenceQuery(TestDb(), QueryId::kQ4_2);
  for (int threads : {2, 3, 4, 8}) {
    for (Flavor flavor : {Flavor::kScalar, Flavor::kHybrid}) {
      EngineConfig config;
      config.flavor = flavor;
      config.threads = threads;
      SsbEngine engine(TestDb(), config);
      EXPECT_EQ(engine.Run(QueryId::kQ4_2), want)
          << threads << " threads, " << FlavorName(flavor);
    }
  }
}

TEST(EngineTest, MoreThreadsThanBlocksStillCorrect) {
  const ssb::SsbDatabase db = ssb::SsbDatabase::Generate(0.001, 3);
  EngineConfig config;
  config.threads = 64;  // 6000 rows / 4096 block -> 2 blocks only
  SsbEngine engine(db, config);
  EXPECT_EQ(engine.Run(QueryId::kQ2_1),
            RunReferenceQuery(db, QueryId::kQ2_1));
}

TEST(EngineTest, SelectivityOrdering) {
  // The paper's selectivity discussion: Q2.3 (brand equality) qualifies
  // fewer rows than Q2.2 (8-brand range) which qualifies fewer than Q2.1
  // (whole category); Q3.3 is below 1%.
  EngineConfig config;
  SsbEngine engine(TestDb(), config);
  const auto q21 = engine.Run(QueryId::kQ2_1).qualifying_rows;
  const auto q22 = engine.Run(QueryId::kQ2_2).qualifying_rows;
  const auto q23 = engine.Run(QueryId::kQ2_3).qualifying_rows;
  EXPECT_GT(q21, q22);
  EXPECT_GT(q22, q23);
  const double q33_sel =
      static_cast<double>(engine.Run(QueryId::kQ3_3).qualifying_rows) /
      static_cast<double>(TestDb().lineorder.n);
  EXPECT_LT(q33_sel, 0.01);
}

TEST(EngineTest, GroupKeysAreWithinDomains) {
  EngineConfig config;
  SsbEngine engine(TestDb(), config);
  for (const GroupRow& row : engine.Run(QueryId::kQ2_1).rows) {
    EXPECT_GE(row.keys[0], 1992u);
    EXPECT_LE(row.keys[0], 1998u);
    EXPECT_GE(row.keys[1], 1201u);
    EXPECT_LE(row.keys[1], 1240u);
  }
  for (const GroupRow& row : engine.Run(QueryId::kQ4_2).rows) {
    EXPECT_GE(row.keys[0], 1997u);
    EXPECT_LE(row.keys[0], 1998u);
    EXPECT_LT(row.keys[1], 25u);   // s_nation
    EXPECT_GE(row.keys[2], 11u);   // category
    EXPECT_LE(row.keys[2], 25u);   // mfgr in {1,2} -> categories 11..25
  }
}

TEST(EngineStatsTest, EmptyUnlessRequested) {
  EngineConfig config;
  SsbEngine engine(TestDb(), config);
  EXPECT_TRUE(engine.Run(QueryId::kQ2_1).operator_stats.empty());
}

TEST(EngineStatsTest, CollectStatsProducesPerOperatorRows) {
  EngineConfig config;
  config.collect_stats = true;
  SsbEngine engine(TestDb(), config);
  const QueryResult result = engine.Run(QueryId::kQ2_1);
  const auto& stats = result.operator_stats;
  ASSERT_FALSE(stats.empty());
  // Pipeline order: dimension build first, group-by last, one probe per
  // join level in between (Q2.1 joins part, supplier, date).
  EXPECT_EQ(stats.front().name, "build");
  EXPECT_EQ(stats.back().name, "groupby");
  std::vector<std::string> probes;
  for (const OperatorStats& s : stats) {
    if (s.name.rfind("probe.", 0) == 0) probes.push_back(s.name);
    EXPECT_LE(s.rows_out, s.rows_in) << s.name;
    EXPECT_GE(s.Selectivity(), 0.0);
    EXPECT_LE(s.Selectivity(), 1.0);
  }
  EXPECT_EQ(probes,
            (std::vector<std::string>{"probe.partkey", "probe.suppkey",
                                      "probe.orderdate"}));
  // The first probe scans every fact row; the last one feeds the group-by
  // with exactly the qualifying rows.
  EXPECT_EQ(stats[1].rows_in, TestDb().lineorder.n);
  EXPECT_EQ(stats[stats.size() - 2].rows_out, result.qualifying_rows);
  EXPECT_GT(stats[1].wall_nanos, 0u);
  EXPECT_GT(stats[1].invocations, 0u);
  // The text rendering carries one line per operator (plus the header).
  const std::string text = result.StatsToString();
  EXPECT_NE(text.find("probe.partkey"), std::string::npos);
  EXPECT_NE(text.find("groupby"), std::string::npos);
}

TEST(EngineStatsTest, FilterQueriesReportFilterOperators) {
  EngineConfig config;
  config.collect_stats = true;
  SsbEngine engine(TestDb(), config);
  const auto stats = engine.Run(QueryId::kQ1_1).operator_stats;
  int filters = 0;
  for (const OperatorStats& s : stats) {
    if (s.name.rfind("filter.", 0) == 0) ++filters;
  }
  EXPECT_GE(filters, 3);  // year, discount, quantity predicates
}

TEST(EngineStatsTest, MorselParallelStatsMergeAcrossWorkers) {
  EngineConfig config;
  config.collect_stats = true;
  config.threads = 4;
  SsbEngine engine(TestDb(), config);
  const QueryResult result = engine.Run(QueryId::kQ2_1);
  ASSERT_FALSE(result.operator_stats.empty());
  // Worker-local accumulators must merge to whole-query row counts.
  EXPECT_EQ(result.operator_stats[1].rows_in, TestDb().lineorder.n);
  EXPECT_EQ(result.operator_stats[result.operator_stats.size() - 2].rows_out,
            result.qualifying_rows);
}

TEST(EngineStatsTest, OperatorStatsJsonHasPerOperatorObjects) {
  EngineConfig config;
  config.collect_stats = true;
  SsbEngine engine(TestDb(), config);
  const std::string json =
      OperatorStatsToJson(engine.Run(QueryId::kQ2_1).operator_stats);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"name\":\"build\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"probe.partkey\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"groupby\""), std::string::npos);
  EXPECT_NE(json.find("\"selectivity\":"), std::string::npos);
}

TEST(QueryIdTest, ParseAndNames) {
  EXPECT_EQ(ParseQueryId("2.1").value(), QueryId::kQ2_1);
  EXPECT_EQ(ParseQueryId("Q4.3").value(), QueryId::kQ4_3);
  EXPECT_FALSE(ParseQueryId("5.1").ok());
  EXPECT_STREQ(QueryName(QueryId::kQ3_4), "Q3.4");
  EXPECT_EQ(AllQueries().size(), 13u);
  EXPECT_EQ(PaperFigureQueries().size(), 10u);
}

}  // namespace
}  // namespace hef
