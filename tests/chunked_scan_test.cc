// Engine-level tests for the chunked scan path: bit-identical results
// across flat / chunked / chunked+pruned execution for all 13 SSB
// queries, the pruning bookkeeping surfaced through QueryResult and
// EXPLAIN, and the configuration validation on the fallible Run path.

#include <algorithm>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/explain.h"
#include "engine/reference.h"
#include "engine/scan.h"
#include "engine/star_plan.h"
#include "perf/drift_monitor.h"
#include "ssb/chunked_fact.h"
#include "ssb/database.h"
#include "telemetry/json_value.h"
#include "telemetry/metrics.h"

namespace hef {
namespace {

// Small scale, small chunks: SF 0.01 is 60k fact rows; 8192-row chunks
// (2 engine blocks) give 8 chunks so pruning has something to skip.
constexpr double kSf = 0.01;
constexpr std::size_t kChunkRows = 8192;

ssb::SsbDatabase MakeChunkedDb() {
  ssb::SsbDatabase db = ssb::SsbDatabase::Generate(kSf);
  ssb::ChunkedFactOptions options;
  options.chunk_rows = kChunkRows;
  ssb::EnsureChunked(db, options);
  return db;
}

EngineConfig Config(Flavor flavor, bool chunked, bool pruning) {
  EngineConfig config;
  config.flavor = flavor;
  config.threads = 1;
  config.chunked_scan = chunked;
  config.scan_pruning = pruning;
  return config;
}

TEST(ChunkedScanTest, AllQueriesBitIdenticalAcrossScanModes) {
  const ssb::SsbDatabase db = MakeChunkedDb();
  for (const Flavor flavor : {Flavor::kScalar, Flavor::kHybrid}) {
    SsbEngine flat(db, Config(flavor, false, false));
    SsbEngine chunked(db, Config(flavor, true, false));
    SsbEngine pruned(db, Config(flavor, true, true));
    for (const QueryId id : AllQueries()) {
      const QueryResult want = flat.Run(id);
      const QueryResult got_chunked = chunked.Run(id);
      const QueryResult got_pruned = pruned.Run(id);
      EXPECT_TRUE(want == got_chunked)
          << QueryName(id) << " chunked mismatch";
      EXPECT_TRUE(want == got_pruned)
          << QueryName(id) << " pruned mismatch";
      // The group rows compare above; qualifying_rows additionally pins
      // the scan cardinality, so pruning provably dropped only dead
      // chunks.
      EXPECT_EQ(want.qualifying_rows, got_pruned.qualifying_rows)
          << QueryName(id);
    }
  }
}

TEST(ChunkedScanTest, ResultsMatchReferenceWithPruning) {
  const ssb::SsbDatabase db = MakeChunkedDb();
  SsbEngine pruned(db, Config(Flavor::kSimd, true, true));
  for (const QueryId id : AllQueries()) {
    EXPECT_TRUE(pruned.Run(id) == RunReferenceQuery(db, id))
        << QueryName(id);
  }
}

TEST(ChunkedScanTest, EnvelopeCountsChunks) {
  const ssb::SsbDatabase db = MakeChunkedDb();
  const std::uint64_t total = db.chunked->num_chunks();

  SsbEngine flat(db, Config(Flavor::kHybrid, false, false));
  EXPECT_EQ(flat.Run(QueryId::kQ1_1).chunks_total, 0u);

  SsbEngine chunked(db, Config(Flavor::kHybrid, true, false));
  const QueryResult unpruned = chunked.Run(QueryId::kQ1_1);
  EXPECT_EQ(unpruned.chunks_total, total);
  EXPECT_EQ(unpruned.chunks_scanned, total);
  EXPECT_EQ(unpruned.chunks_pruned, 0u);

  SsbEngine pruned(db, Config(Flavor::kHybrid, true, true));
  const QueryResult result = pruned.Run(QueryId::kQ1_1);
  EXPECT_EQ(result.chunks_total, total);
  EXPECT_EQ(result.chunks_scanned + result.chunks_pruned, total);
  // Q1.1 filters one year out of seven from date-clustered chunks:
  // pruning must actually drop something at this chunk granularity.
  EXPECT_GT(result.chunks_pruned, 0u);
}

TEST(ChunkedScanTest, OperatorStatsAttributePrunes) {
  const ssb::SsbDatabase db = MakeChunkedDb();
  EngineConfig config = Config(Flavor::kHybrid, true, true);
  config.collect_stats = true;
  SsbEngine engine(db, config);
  const QueryResult result = engine.Run(QueryId::kQ1_1);
  std::uint64_t attributed = 0;
  for (const OperatorStats& op : result.operator_stats) {
    attributed += op.chunks_pruned;
  }
  // First-cause-wins attribution: per-operator prunes sum to the
  // envelope total.
  EXPECT_EQ(attributed, result.chunks_pruned);

  const ExplainMeta meta =
      MakeExplainMeta("Q1.1", "hybrid", engine.config());
  const std::string text = ExplainToText(meta, result);
  EXPECT_NE(text.find("chunks="), std::string::npos);
  EXPECT_NE(text.find("pruned="), std::string::npos);
  const std::string json = ExplainToJson(meta, result);
  EXPECT_NE(json.find("\"chunks_total\""), std::string::npos);
  EXPECT_NE(json.find("\"chunks_pruned\""), std::string::npos);
}

TEST(ChunkedScanTest, StorageMetricsAdvance) {
  const ssb::SsbDatabase db = MakeChunkedDb();
  auto& registry = telemetry::MetricsRegistry::Get();
  const std::uint64_t scanned0 =
      registry.counter("storage.chunks_scanned").value();
  const std::uint64_t pruned0 =
      registry.counter("storage.chunks_pruned").value();
  SsbEngine engine(db, Config(Flavor::kHybrid, true, true));
  EXPECT_GT(registry.gauge("storage.encoded_bytes").value(), 0);
  EXPECT_GT(registry.gauge("storage.plain_bytes").value(), 0);
  engine.Run(QueryId::kQ1_1);
  const std::uint64_t scanned =
      registry.counter("storage.chunks_scanned").value() - scanned0;
  const std::uint64_t pruned =
      registry.counter("storage.chunks_pruned").value() - pruned0;
  EXPECT_EQ(scanned + pruned, db.chunked->num_chunks());
  EXPECT_GT(pruned, 0u);
}

// The `rows` of the whole-query drift window one Run fed the sentinel.
std::uint64_t DriftQueryRows(const std::string& query) {
  auto parsed = telemetry::JsonValue::Parse(DriftMonitor::Get().ToJson());
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  if (!parsed.ok()) return 0;
  const telemetry::JsonValue* profiles = parsed.value().Find("profiles");
  if (profiles == nullptr) return 0;
  for (const telemetry::JsonValue& p : profiles->array()) {
    if (p.StringOr("query", "") == query &&
        p.StringOr("kernel", "") == "query") {
      return static_cast<std::uint64_t>(p.NumberOr("rows", 0));
    }
  }
  ADD_FAILURE() << "no drift window for " << query;
  return 0;
}

TEST(ChunkedScanTest, DriftWindowCountsRowsOfScannedChunks) {
  const ssb::SsbDatabase db = MakeChunkedDb();
  const std::size_t n = db.chunked->rows();
  // The tail chunk is short: counting it as a full chunk overstates rows.
  ASSERT_NE(n % kChunkRows, 0u);

  DriftMonitor::Get().Reset();
  SsbEngine chunked(db, Config(Flavor::kHybrid, true, false));
  chunked.Run(QueryId::kQ2_1);
  EXPECT_EQ(DriftQueryRows("Q2.1"), n);

  // With pruning, the window holds exactly the rows of surviving chunks.
  const BoundPlan bound = BuildQueryPlan(db, QueryId::kQ1_1);
  const ChunkPruning pruning = ComputeChunkPruning(db, bound.plan, "Q1.1");
  std::uint64_t want = 0;
  for (std::size_t c = 0; c < pruning.alive.size(); ++c) {
    if (pruning.alive[c]) want += std::min(kChunkRows, n - c * kChunkRows);
  }
  ASSERT_LT(want, n);
  DriftMonitor::Get().Reset();
  SsbEngine pruned(db, Config(Flavor::kHybrid, true, true));
  pruned.Run(QueryId::kQ1_1);
  EXPECT_EQ(DriftQueryRows("Q1.1"), want);
  DriftMonitor::Get().Reset();
}

TEST(ChunkedScanTest, ChunkedScanWithoutEnsureChunkedIsInvalidArgument) {
  const ssb::SsbDatabase db = ssb::SsbDatabase::Generate(kSf);
  SsbEngine engine(db, Config(Flavor::kScalar, true, false));
  const Result<QueryResult> r =
      engine.Run(QueryId::kQ1_1, exec::QueryContext());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ChunkedScanTest, MisalignedChunkRowsIsInvalidArgument) {
  ssb::SsbDatabase db = ssb::SsbDatabase::Generate(kSf);
  ssb::ChunkedFactOptions options;
  options.chunk_rows = 1000;  // not a multiple of the 4096 block
  ssb::EnsureChunked(db, options);
  SsbEngine engine(db, Config(Flavor::kScalar, true, false));
  const Result<QueryResult> r =
      engine.Run(QueryId::kQ1_1, exec::QueryContext());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ChunkedScanTest, AnswersAfterDropFlatFact) {
  ssb::SsbDatabase db = MakeChunkedDb();
  // Capture the expected answers while the flat columns are alive.
  SsbEngine flat(db, Config(Flavor::kHybrid, false, false));
  const QueryResult want = flat.Run(QueryId::kQ4_2);

  SsbEngine engine(db, Config(Flavor::kHybrid, true, true));
  ssb::DropFlatFact(db);
  EXPECT_TRUE(engine.Run(QueryId::kQ4_2) == want);
}

TEST(ChunkedScanTest, EnsureChunkedIsIdempotent) {
  ssb::SsbDatabase db = MakeChunkedDb();
  const ssb::ChunkedFact* first = db.chunked.get();
  ssb::EnsureChunked(db);  // different (default) options: still a no-op
  EXPECT_EQ(db.chunked.get(), first);
}

}  // namespace
}  // namespace hef
