// Tests for tuner extensions: TuningCache persistence, exhaustive search
// as the pruning baseline, and per-query dynamic selection (§VII).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>

#include "analysis/register_pressure.h"
#include "procinfo/cpu_features.h"
#include "ssb/database.h"
#include "tuner/kernel_table.h"
#include "tuner/query_tuner.h"
#include "tuner/search_space.h"
#include "tuner/tuning_cache.h"

namespace hef {
namespace {

class TuningCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per test: ctest runs the cases as parallel processes.
    path_ = ::testing::TempDir() + "/hef_tuning_cache_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".txt";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(TuningCacheTest, MissingFileLoadsEmpty) {
  TuningCache cache(path_);
  ASSERT_TRUE(cache.Load().ok());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.host_mismatch());
}

TEST_F(TuningCacheTest, SaveLoadRoundTrip) {
  TuningCache cache(path_);
  cache.Put("murmur", HybridConfig{1, 3, 2}, 0.00123);
  cache.Put("probe", HybridConfig{2, 0, 3}, 0.042);
  ASSERT_TRUE(cache.Save().ok());

  TuningCache loaded(path_);
  ASSERT_TRUE(loaded.Load().ok());
  EXPECT_EQ(loaded.size(), 2u);
  ASSERT_TRUE(loaded.Contains("murmur"));
  const auto entry = loaded.Get("murmur").value();
  EXPECT_EQ(entry.config, (HybridConfig{1, 3, 2}));
  EXPECT_NEAR(entry.seconds, 0.00123, 1e-9);
  EXPECT_FALSE(loaded.Get("gather").ok());
}

TEST_F(TuningCacheTest, PutOverwrites) {
  TuningCache cache(path_);
  cache.Put("op", HybridConfig{1, 0, 1}, 1.0);
  cache.Put("op", HybridConfig{1, 1, 1}, 0.5);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Get("op").value().config, (HybridConfig{1, 1, 1}));
}

TEST_F(TuningCacheTest, NsPerRowSurvivesSaveLoad) {
  TuningCache cache(path_);
  cache.Put("probe", HybridConfig{2, 1, 3}, 0.042, 6.25);
  cache.Put("gather", HybridConfig{1, 2, 2}, 0.01);  // no prediction
  ASSERT_TRUE(cache.Save().ok());

  TuningCache loaded(path_);
  ASSERT_TRUE(loaded.Load().ok());
  EXPECT_NEAR(loaded.Get("probe").value().ns_per_row, 6.25, 1e-9);
  // Entries written without the optional column read back as zero, which
  // the drift monitor treats as "no tuner prediction for this key".
  EXPECT_EQ(loaded.Get("gather").value().ns_per_row, 0.0);
}

TEST_F(TuningCacheTest, LegacyThreeColumnFileLoadsWithZeroNsPerRow) {
  TuningCache writer(path_);
  ASSERT_TRUE(writer.Save().ok());  // valid header for this host
  {
    FILE* f = std::fopen(path_.c_str(), "a");
    std::fputs("op murmur v1s3p2 0.001\n", f);
    std::fclose(f);
  }
  TuningCache cache(path_);
  ASSERT_TRUE(cache.Load().ok());
  ASSERT_TRUE(cache.Contains("murmur"));
  const auto entry = cache.Get("murmur").value();
  EXPECT_EQ(entry.config, (HybridConfig{1, 3, 2}));
  EXPECT_EQ(entry.ns_per_row, 0.0);
}

TEST_F(TuningCacheTest, RejectsGarbageFile) {
  {
    FILE* f = std::fopen(path_.c_str(), "w");
    std::fputs("not a cache\n", f);
    std::fclose(f);
  }
  TuningCache cache(path_);
  EXPECT_FALSE(cache.Load().ok());
}

TEST_F(TuningCacheTest, ForeignHostCacheIsIgnored) {
  {
    FILE* f = std::fopen(path_.c_str(), "w");
    std::fputs("hef-tuning-cache v1\nhost some other machine\n"
               "op murmur v1s3p2 0.001\n",
               f);
    std::fclose(f);
  }
  TuningCache cache(path_);
  ASSERT_TRUE(cache.Load().ok());
  EXPECT_TRUE(cache.host_mismatch());
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(TuningCacheTest, MalformedEntryIsError) {
  // The bad lines are reported, and drop only themselves.
  TuningCache writer(path_);
  writer.Put("gather", HybridConfig{2, 0, 1}, 0.001);
  ASSERT_TRUE(writer.Save().ok());  // header lines 1-2, gather on line 3
  {
    FILE* f = std::fopen(path_.c_str(), "a");
    std::fputs("op broken_line\nop probe v1s1pX 0.001\n"
               "op sum v1s1p2 0.002\n",
               f);
    std::fclose(f);
  }
  TuningCache cache(path_);
  const Status st = cache.Load();
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.message().find("line 4"), std::string::npos) << st.message();
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Get("gather").value().config, (HybridConfig{2, 0, 1}));
  EXPECT_EQ(cache.Get("sum").value().config, (HybridConfig{1, 1, 2}));
  EXPECT_FALSE(cache.Contains("probe"));
}

TEST_F(TuningCacheTest, HugeCostSavesWholeLinesThatLoadBack) {
  // A repetitions=0 search reports the measurement sentinel DBL_MAX; its
  // %.9f rendering is over 300 characters and must not cut the line.
  const double huge = std::numeric_limits<double>::max();
  TuningCache cache(path_);
  cache.Put("probe", HybridConfig{2, 1, 3}, huge, 6.25);
  cache.Put("gather", HybridConfig{1, 2, 2}, 0.01, huge);
  ASSERT_TRUE(cache.Save().ok());

  TuningCache loaded(path_);
  ASSERT_TRUE(loaded.Load().ok());
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.Get("probe").value().seconds, huge);
  EXPECT_NEAR(loaded.Get("probe").value().ns_per_row, 6.25, 1e-9);
  EXPECT_EQ(loaded.Get("gather").value().config, (HybridConfig{1, 2, 2}));
  EXPECT_EQ(loaded.Get("gather").value().ns_per_row, huge);
}

TEST_F(TuningCacheTest, NonFiniteOrNegativeCostIsError) {
  for (const char* line :
       {"op probe v1s1p3 inf 1.0\n", "op probe v1s1p3 nan\n",
        "op probe v1s1p3 -0.5 1.0\n", "op probe v1s1p3 1e999\n",
        "op probe v1s1p3 0.001 inf\n", "op probe v1s1p3 0.001 -nan\n",
        "op probe v1s1p3 0.001 -2\n", "op probe v1s1p3 0.001 1e400\n",
        "op probe v1s1p3 0.001 3x\n"}) {
    TuningCache writer(path_);
    ASSERT_TRUE(writer.Save().ok());  // valid header, no entries
    FILE* f = std::fopen(path_.c_str(), "a");
    std::fputs(line, f);
    std::fclose(f);
    TuningCache cache(path_);
    const Status st = cache.Load();
    EXPECT_EQ(st.code(), StatusCode::kIoError) << line;
  }
}

double ConvexCost(const HybridConfig& cfg) {
  const double dv = cfg.v - 1.0;
  const double ds = cfg.s - 2.0;
  const double dp = cfg.p - 2.0;
  return 1.0 + dv * dv + ds * ds + dp * dp;
}

TEST(ExhaustiveTest, MeasuresWholeSpaceAndAgreesWithPruning) {
  const auto space = EnumerateSearchSpace(3, 4, 3);
  const TuneResult full = TuneExhaustive(space, ConvexCost);
  EXPECT_EQ(full.nodes_tested, static_cast<int>(space.size()));
  EXPECT_EQ(full.best, (HybridConfig{1, 2, 2}));

  TuneOptions options;
  options.is_supported = [](const HybridConfig& cfg) {
    return cfg.v <= 3 && cfg.s <= 4 && cfg.p <= 3;
  };
  const TuneResult pruned = Tune(HybridConfig{3, 4, 3}, ConvexCost, options);
  EXPECT_EQ(pruned.best, full.best);
  EXPECT_LT(pruned.nodes_tested, full.nodes_tested);
}

TEST(QueryTunerTest, FindsValidProbeAndBeatsNothing) {
  const ssb::SsbDatabase db = ssb::SsbDatabase::Generate(0.01, 3);
  QueryTuneOptions options;
  options.repetitions = 1;
  const QueryTuneResult r = TuneQueryProbe(db, QueryId::kQ2_1, options);
  EXPECT_TRUE(r.probe.valid());
  EXPECT_GT(r.best_seconds, 0);
  EXPECT_GE(r.nodes_tested, 1);
}

TEST(QueryTunerTest, MultiQueryTuningAggregatesCosts) {
  const ssb::SsbDatabase db = ssb::SsbDatabase::Generate(0.005, 11);
  QueryTuneOptions options;
  options.repetitions = 1;
  const QueryTuneResult r = TuneQueriesProbe(
      db, {QueryId::kQ2_1, QueryId::kQ3_1}, options);
  EXPECT_TRUE(r.probe.valid());
  // Cost is the sum over both queries: strictly positive.
  EXPECT_GT(r.best_seconds, 0);
}

TEST(QueryTunerTest, StaticPressureRejectsCandidatesBeforeMeasurement) {
  // The Q2.1 acceptance exhibit: from root (1,2,2) — scalar pressure
  // 2*2*3+3 = 15/16, admitted — the first expansion generates (1,3,2) and
  // (1,2,3), both at 21/16 scalar, so the register-pressure gate must
  // reject candidates on this search regardless of timing noise, and no
  // rejected candidate may ever be benchmarked.
  const ssb::SsbDatabase db = ssb::SsbDatabase::Generate(0.005, 7);
  QueryTuneOptions options;
  options.initial_probe = HybridConfig{1, 2, 2};
  options.repetitions = 1;
  const QueryTuneResult r = TuneQueryProbe(db, QueryId::kQ2_1, options);
  EXPECT_GT(r.search.nodes_rejected_static, 0);
  const Isa isa = CpuFeatures::Get().BestIsa();
  const PressureProfile probe = *FindKernel("probe").pressure;
  for (const TuneStep& step : r.search.trace) {
    if (!step.rejected_static) continue;
    EXPECT_FALSE(analysis::EstimatePressure(probe.live_values,
                                            probe.constants, step.config,
                                            isa)
                     .fits())
        << step.config.ToString();
    // Never measured: a rejected node must not appear in the history.
    EXPECT_TRUE(std::none_of(
        r.search.history.begin(), r.search.history.end(),
        [&](const auto& entry) { return entry.first == step.config; }))
        << step.config.ToString();
  }
  // Everything that *was* measured fits the register file (the root is
  // exempt by contract, but this root fits anyway).
  for (const auto& [cfg, t] : r.search.history) {
    EXPECT_TRUE(analysis::EstimatePressure(probe.live_values,
                                           probe.constants, cfg, isa)
                    .fits())
        << cfg.ToString();
    (void)t;
  }
}

TEST(QueryTunerTest, StaticPressureCheckCanBeDisabled) {
  const ssb::SsbDatabase db = ssb::SsbDatabase::Generate(0.005, 7);
  QueryTuneOptions options;
  options.initial_probe = HybridConfig{1, 2, 2};
  options.repetitions = 1;
  options.static_pressure_check = false;
  const QueryTuneResult r = TuneQueryProbe(db, QueryId::kQ2_1, options);
  EXPECT_EQ(r.search.nodes_rejected_static, 0);
  EXPECT_TRUE(r.probe.valid());
}

TEST(QueryTunerTest, UnsupportedInitialFallsBack) {
  const ssb::SsbDatabase db = ssb::SsbDatabase::Generate(0.005, 4);
  QueryTuneOptions options;
  options.initial_probe = HybridConfig{9, 9, 9};  // outside the grid
  options.repetitions = 1;
  const QueryTuneResult r = TuneQueryProbe(db, QueryId::kQ3_1, options);
  EXPECT_TRUE(r.probe.valid());
}

}  // namespace
}  // namespace hef
