// Cross-cutting integration and property tests:
//   * fuzz: every engine (3 flavours x {bloom on/off} + Voila) produces
//     identical results on randomized databases (seeds x scales x queries);
//   * workflow: the full offline pipeline — candidate generator -> pruning
//     search -> tuning cache -> engine configured from the cache — runs end
//     to end and the tuned engine still answers correctly;
//   * determinism: repeated runs of one engine are bit-stable.

#include <gtest/gtest.h>

#include <cstdio>

#include "engine/engine.h"
#include "engine/reference.h"
#include "ssb/database.h"
#include "tuner/kernel_tuners.h"
#include "tuner/tuning_cache.h"
#include "voila/voila_engine.h"

namespace hef {
namespace {

TEST(EngineFuzzTest, AllEnginesAgreeOnRandomDatabases) {
  // Several small random databases; every query, every engine.
  const std::uint64_t seeds[] = {101, 202, 303};
  for (const std::uint64_t seed : seeds) {
    const double sf = 0.004 + 0.003 * static_cast<double>(seed % 3);
    const ssb::SsbDatabase db = ssb::SsbDatabase::Generate(sf, seed);
    for (const QueryId query : AllQueries()) {
      const QueryResult want = RunReferenceQuery(db, query);
      for (Flavor flavor :
           {Flavor::kScalar, Flavor::kSimd, Flavor::kHybrid}) {
        for (bool bloom : {false, true}) {
          EngineConfig config;
          config.flavor = flavor;
          config.bloom_prefilter = bloom;
          SsbEngine engine(db, config);
          ASSERT_EQ(engine.Run(query), want)
              << "seed " << seed << " sf " << sf << " query "
              << QueryName(query) << " flavor " << FlavorName(flavor)
              << " bloom " << bloom;
        }
      }
      VoilaEngine voila(db);
      ASSERT_EQ(voila.Run(query), want)
          << "seed " << seed << " query " << QueryName(query) << " (voila)";
    }
  }
}

TEST(EngineFuzzTest, OddBlockSizesNeverChangeResults) {
  const ssb::SsbDatabase db = ssb::SsbDatabase::Generate(0.005, 7);
  const QueryResult want = RunReferenceQuery(db, QueryId::kQ4_3);
  for (int block : {64, 65, 127, 1000, 4097}) {
    EngineConfig config;
    config.flavor = Flavor::kHybrid;
    config.block_size = block;
    SsbEngine engine(db, config);
    ASSERT_EQ(engine.Run(QueryId::kQ4_3), want) << "block " << block;
  }
}

TEST(WorkflowTest, TuneCacheConfigureRunEndToEnd) {
  // Offline phase: tune the probe and gather kernels, persist the result.
  const std::string cache_path =
      ::testing::TempDir() + "/hef_workflow_cache.txt";
  std::remove(cache_path.c_str());
  {
    KernelTuneOptions options;
    options.elements = 1 << 12;
    options.repetitions = 2;
    const TuneResult probe = TuneProbe(options);
    const TuneResult gather = TuneGather(options);
    TuningCache cache(cache_path);
    cache.Put("probe", probe.best, probe.best_time);
    cache.Put("gather", gather.best, gather.best_time);
    ASSERT_TRUE(cache.Save().ok());
  }

  // Online phase: a fresh process would load the cache and configure the
  // engine "without further training" (paper §III-A).
  TuningCache cache(cache_path);
  ASSERT_TRUE(cache.Load().ok());
  ASSERT_TRUE(cache.Contains("probe"));
  ASSERT_TRUE(cache.Contains("gather"));

  EngineConfig config;
  config.flavor = Flavor::kHybrid;
  config.probe_cfg = cache.Get("probe").value().config;
  config.gather_cfg = cache.Get("gather").value().config;

  const ssb::SsbDatabase db = ssb::SsbDatabase::Generate(0.01, 99);
  SsbEngine engine(db, config);
  for (const QueryId query :
       {QueryId::kQ2_1, QueryId::kQ3_3, QueryId::kQ4_2}) {
    EXPECT_EQ(engine.Run(query), RunReferenceQuery(db, query))
        << QueryName(query);
  }
  std::remove(cache_path.c_str());
}

TEST(EngineFuzzTest, AllStrategiesCombinedStillCorrect) {
  // Every optional strategy at once: bloom pre-filter + the hybrid
  // flavour's fused filters + 4 worker threads, across all queries.
  const ssb::SsbDatabase db = ssb::SsbDatabase::Generate(0.01, 12);
  EngineConfig config;
  config.flavor = Flavor::kHybrid;
  config.bloom_prefilter = true;
  config.threads = 4;
  SsbEngine engine(db, config);
  for (const QueryId query : AllQueries()) {
    ASSERT_EQ(engine.Run(query), RunReferenceQuery(db, query))
        << QueryName(query);
  }
}

TEST(DeterminismTest, RepeatedRunsAreBitStable) {
  const ssb::SsbDatabase db = ssb::SsbDatabase::Generate(0.01, 5);
  EngineConfig config;
  config.flavor = Flavor::kHybrid;
  SsbEngine engine(db, config);
  const QueryResult first = engine.Run(QueryId::kQ3_2);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(engine.Run(QueryId::kQ3_2), first);
  }
}

TEST(DeterminismTest, QualifyingRowsConsistentAcrossEngines) {
  const ssb::SsbDatabase db = ssb::SsbDatabase::Generate(0.01, 6);
  EngineConfig config;
  SsbEngine engine(db, config);
  VoilaEngine voila(db);
  for (const QueryId query : PaperFigureQueries()) {
    EXPECT_EQ(engine.Run(query).qualifying_rows,
              voila.Run(query).qualifying_rows)
        << QueryName(query);
  }
}

}  // namespace
}  // namespace hef
