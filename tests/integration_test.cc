// Cross-cutting integration and property tests:
//   * fuzz: every engine (3 flavours + Voila) produces
//     identical results on randomized databases (seeds x scales x queries);
//   * workflow: the full offline pipeline — candidate generator -> pruning
//     search -> tuning cache -> engine configured from the cache — runs end
//     to end and the tuned engine still answers correctly;
//   * determinism: repeated runs of one engine are bit-stable.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "engine/engine.h"
#include "engine/reference.h"
#include "ssb/database.h"
#include "tuner/kernel_table.h"
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
        EngineConfig config;
        config.flavor = flavor;
        SsbEngine engine(db, config);
        ASSERT_EQ(engine.Run(query), want)
            << "seed " << seed << " sf " << sf << " query "
            << QueryName(query) << " flavor " << FlavorName(flavor);
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

// Runs the tuning-cache loader on `path` and returns what it printed.
std::string ApplyCache(const std::string& path, EngineConfig* config) {
  std::FILE* out = std::tmpfile();
  ApplyTuningCache(path, config, out);
  std::rewind(out);
  std::string printed;
  for (int c; (c = std::fgetc(out)) != EOF;) printed += static_cast<char>(c);
  std::fclose(out);
  return printed;
}

TEST(WorkflowTest, TuneCacheConfigureRunEndToEnd) {
  // Offline phase: tune the kernels the engine reads, persist the result.
  const std::string cache_path =
      ::testing::TempDir() + "/hef_workflow_cache.txt";
  std::remove(cache_path.c_str());
  HybridConfig probe, gather;
  {
    KernelTuneOptions options;
    options.elements = 1 << 12;
    options.repetitions = 2;
    TuningCache cache(cache_path);
    for (const auto& [entry, result] : TuneEnginePoints(options, &cache)) {
      (entry->name == "probe" ? probe : gather) = result.best;
    }
    ASSERT_TRUE(cache.Save().ok());
  }

  // Online phase: a fresh process loads the cache and configures the
  // engine "without further training" (paper §III-A).
  EngineConfig config;
  config.flavor = Flavor::kHybrid;
  EXPECT_EQ(ApplyCache(cache_path, &config),
            "using cached tuning: probe " + probe.ToString() + ", gather " +
                gather.ToString() + "\n");
  EXPECT_EQ(config.points.probe, probe);
  EXPECT_EQ(config.points.gather, gather);

  const ssb::SsbDatabase db = ssb::SsbDatabase::Generate(0.01, 99);
  SsbEngine engine(db, config);
  for (const QueryId query :
       {QueryId::kQ2_1, QueryId::kQ3_3, QueryId::kQ4_2}) {
    EXPECT_EQ(engine.Run(query), RunReferenceQuery(db, query))
        << QueryName(query);
  }
  std::remove(cache_path.c_str());
}

TEST(WorkflowTest, OutOfGridCachedPointKeepsTheDefault) {
  // A hand-edited (or foreign-build) cache must not abort the engine on
  // a point outside the compiled grid: the loader rejects that point and
  // applies the valid one.
  const std::string cache_path =
      ::testing::TempDir() + "/hef_out_of_grid_cache.txt";
  {
    TuningCache cache(cache_path);
    cache.Put("probe", HybridConfig{9, 9, 9}, 1e-3, 5.0);
    cache.Put("gather", HybridConfig{2, 0, 1}, 1e-3, 0.5);
    ASSERT_TRUE(cache.Save().ok());
  }
  EngineConfig config;
  config.flavor = Flavor::kHybrid;
  const HybridConfig default_probe = config.points.probe;
  EXPECT_EQ(ApplyCache(cache_path, &config),
            "using cached tuning: gather v2s0p1\n");
  EXPECT_EQ(config.points.probe, default_probe);
  EXPECT_EQ(config.points.gather, (HybridConfig{2, 0, 1}));

  const ssb::SsbDatabase db = ssb::SsbDatabase::Generate(0.01, 99);
  SsbEngine engine(db, config);
  for (const QueryId query : AllQueries()) {
    EXPECT_EQ(engine.Run(query), RunReferenceQuery(db, query))
        << QueryName(query);
  }

  // A line the reader refuses — a number that does not fit an int, or a
  // malformed point — drops only itself, with a warning naming it; the
  // valid gather line still applies and the probe keeps its default.
  for (const char* bad_line : {"op probe v1s1p99999999999 0.001 5.0\n",
                               "op probe v1s1pX 0.001 5.0\n"}) {
    {
      TuningCache cache(cache_path);
      cache.Put("gather", HybridConfig{2, 0, 1}, 1e-3, 0.5);
      ASSERT_TRUE(cache.Save().ok());
      std::FILE* f = std::fopen(cache_path.c_str(), "a");
      ASSERT_NE(f, nullptr);
      std::fputs(bad_line, f);
      std::fclose(f);
    }
    EngineConfig loaded;
    loaded.flavor = Flavor::kHybrid;
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(ApplyCache(cache_path, &loaded),
              "using cached tuning: gather v2s0p1\n")
        << bad_line;
    const std::string warning = ::testing::internal::GetCapturedStderr();
    const std::string line(bad_line);
    const std::string cfg_text = line.substr(9, line.find(' ', 9) - 9);
    EXPECT_NE(warning.find("line 4"), std::string::npos) << warning;
    EXPECT_NE(warning.find(cfg_text), std::string::npos) << warning;
    EXPECT_EQ(loaded.points.probe, default_probe);
    EXPECT_EQ(loaded.points.gather, (HybridConfig{2, 0, 1}));
  }
  std::remove(cache_path.c_str());
}

TEST(EngineFuzzTest, AllStrategiesCombinedStillCorrect) {
  // Every optional strategy at once: the hybrid flavour's fused filters +
  // 4 worker threads, across all queries.
  const ssb::SsbDatabase db = ssb::SsbDatabase::Generate(0.01, 12);
  EngineConfig config;
  config.flavor = Flavor::kHybrid;
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
