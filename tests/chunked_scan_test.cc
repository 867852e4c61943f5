// Engine-level tests for the chunked scan path: bit-identical results
// across flat / chunked / chunked+pruned execution for all 13 SSB
// queries, the pruning bookkeeping surfaced through QueryResult and
// EXPLAIN, and the configuration validation on the fallible Run path.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/explain.h"
#include "engine/reference.h"
#include "engine/scan.h"
#include "engine/star_plan.h"
#include "perf/drift_monitor.h"
#include "ssb/chunked_fact.h"
#include "ssb/database.h"
#include "storage/encoding.h"
#include "telemetry/json_value.h"
#include "telemetry/metrics.h"

namespace hef {
namespace {

// Small scale, small chunks: SF 0.01 is 60k fact rows; 8192-row chunks
// (2 engine blocks) give 8 chunks so pruning has something to skip.
constexpr double kSf = 0.01;
constexpr std::size_t kChunkRows = 8192;

ssb::SsbDatabase MakeChunkedDb(
    storage::EncodingPolicy policy = storage::EncodingPolicy::kAuto) {
  ssb::SsbDatabase db = ssb::SsbDatabase::Generate(kSf);
  ssb::ChunkedFactOptions options;
  options.chunk_rows = kChunkRows;
  options.policy = policy;
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

// Every flavour, encoding policy, pruning and Bloom setting and thread
// count gives the flat scan's answer, which is the reference answer.
TEST(ChunkedScanTest, AllQueriesBitIdenticalAcrossScanModes) {
  for (const storage::EncodingPolicy policy :
       {storage::EncodingPolicy::kAuto, storage::EncodingPolicy::kPlain,
        storage::EncodingPolicy::kDict, storage::EncodingPolicy::kFor}) {
    const ssb::SsbDatabase db = MakeChunkedDb(policy);
    std::vector<QueryResult> reference;
    for (const QueryId id : AllQueries()) {
      reference.push_back(RunReferenceQuery(db, id));
    }
    for (const Flavor flavor :
         {Flavor::kScalar, Flavor::kSimd, Flavor::kHybrid}) {
      SsbEngine flat(db, Config(flavor, false, false));
      for (const bool pruning : {false, true}) {
        for (const bool bloom : {false, true}) {
          for (const int threads : {1, 2}) {
            EngineConfig config = Config(flavor, true, pruning);
            config.bloom_prefilter = bloom;
            config.threads = threads;
            SsbEngine chunked(db, config);
            for (std::size_t q = 0; q < AllQueries().size(); ++q) {
              const QueryId id = AllQueries()[q];
              const std::string label =
                  std::string(QueryName(id)) + " " + FlavorName(flavor) +
                  " " + storage::EncodingPolicyName(policy) +
                  (pruning ? " pruned" : " unpruned") +
                  (bloom ? " bloom" : "") + " threads=" +
                  std::to_string(threads);
              const QueryResult want = flat.Run(id);
              const QueryResult got = chunked.Run(id);
              EXPECT_TRUE(want == reference[q]) << label << " flat";
              EXPECT_TRUE(got == want) << label;
              // The group rows compare above; qualifying_rows additionally
              // pins the scan cardinality, so pruning provably dropped only
              // dead chunks.
              EXPECT_EQ(got.qualifying_rows, want.qualifying_rows) << label;
            }
          }
        }
      }
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

// The distinct fact columns a plan reads.
std::size_t DistinctPlanColumns(const StarPlan& plan) {
  std::vector<const ssb::Column*> cols;
  for (const RangeFilter& f : plan.filters) cols.push_back(f.col);
  for (const JoinStage& j : plan.joins) cols.push_back(j.fact_key);
  cols.push_back(plan.value_a);
  if (plan.value_b != nullptr) cols.push_back(plan.value_b);
  std::sort(cols.begin(), cols.end());
  return static_cast<std::size_t>(
      std::unique(cols.begin(), cols.end()) - cols.begin());
}

const OperatorStats* FindOperator(const QueryResult& result,
                                  const std::string& name) {
  for (const OperatorStats& op : result.operator_stats) {
    if (op.name == name) return &op;
  }
  return nullptr;
}

// Q2.1 has no fact filter and a selective first join, so only the first
// probe's key column is decoded whole; the other columns decode at the
// survivors. Decoding every plan column of every block reads
// columns x rows_scanned values.
TEST(ChunkedScanTest, LateMaterializationDecodesOnlySurvivors) {
  const ssb::SsbDatabase db = MakeChunkedDb();
  EngineConfig config = Config(Flavor::kHybrid, true, false);
  config.collect_stats = true;
  SsbEngine engine(db, config);
  auto& registry = telemetry::MetricsRegistry::Get();
  const std::uint64_t decoded0 =
      registry.counter("storage.rows_decoded").value();
  const QueryResult result = engine.Run(QueryId::kQ2_1);
  EXPECT_TRUE(result == RunReferenceQuery(db, QueryId::kQ2_1));

  const OperatorStats* decode = FindOperator(result, "decode");
  ASSERT_NE(decode, nullptr) << "no decode operator row";
  const std::uint64_t rows_scanned = db.chunked->rows();
  const std::size_t columns =
      DistinctPlanColumns(BuildQueryPlan(db, QueryId::kQ2_1).plan);
  ASSERT_GE(columns, 2u);
  EXPECT_GE(decode->rows_out, rows_scanned);  // the first probe's keys
  EXPECT_LT(decode->rows_out, columns * rows_scanned);
  EXPECT_EQ(registry.counter("storage.rows_decoded").value() - decoded0,
            decode->rows_out);

  // The decode row renders in both EXPLAIN forms.
  const ExplainMeta meta = MakeExplainMeta("Q2.1", "hybrid", config);
  EXPECT_NE(ExplainToText(meta, result).find("decode  self="),
            std::string::npos);
  auto json = telemetry::JsonValue::Parse(ExplainToJson(meta, result));
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  bool found = false;
  for (const telemetry::JsonValue& op :
       json.value().Find("operators")->array()) {
    if (op.StringOr("kind", "") != "decode") continue;
    found = true;
    EXPECT_EQ(op.NumberOr("values_decoded", 0),
              static_cast<double>(decode->rows_out));
  }
  EXPECT_TRUE(found);
}

// The Bloom pre-filter drops only rows the hash probe would drop too, and
// the keys it keeps are gathered from the ones already fetched: it must
// not add a single decoded value, on any query or encoding.
TEST(ChunkedScanTest, BloomPrefilterDecodesNoExtraValues) {
  for (const storage::EncodingPolicy policy :
       {storage::EncodingPolicy::kAuto, storage::EncodingPolicy::kDict,
        storage::EncodingPolicy::kFor}) {
    const ssb::SsbDatabase db = MakeChunkedDb(policy);
    EngineConfig config = Config(Flavor::kHybrid, true, false);
    config.collect_stats = true;
    SsbEngine plain(db, config);
    config.bloom_prefilter = true;
    SsbEngine bloom(db, config);
    for (const QueryId id : AllQueries()) {
      const std::string label = std::string(QueryName(id)) + " " +
                                storage::EncodingPolicyName(policy);
      const QueryResult without = plain.Run(id);
      const QueryResult with = bloom.Run(id);
      EXPECT_TRUE(with == without) << label;
      const OperatorStats* a = FindOperator(without, "decode");
      const OperatorStats* b = FindOperator(with, "decode");
      ASSERT_NE(a, nullptr) << label;
      ASSERT_NE(b, nullptr) << label;
      EXPECT_EQ(b->rows_out, a->rows_out) << label;
    }
  }
}

// Decode time moves out of the operators that asked for it: the rows
// still partition the pipeline, so their sum stays within the Run's wall.
TEST(ChunkedScanTest, DecodeRowKeepsOperatorRowsWithinWall) {
  const ssb::SsbDatabase db = MakeChunkedDb();
  EngineConfig config = Config(Flavor::kHybrid, true, true);
  config.collect_stats = true;
  SsbEngine engine(db, config);
  for (const QueryId id : {QueryId::kQ1_1, QueryId::kQ3_1, QueryId::kQ4_1}) {
    const QueryResult result = engine.Run(id);
    std::uint64_t sum = 0;
    for (const OperatorStats& op : result.operator_stats) {
      sum += op.wall_nanos;
    }
    EXPECT_LE(sum, result.wall_nanos) << QueryName(id);
    const OperatorStats* decode = FindOperator(result, "decode");
    ASSERT_NE(decode, nullptr) << QueryName(id);
    EXPECT_GT(decode->rows_out, 0u) << QueryName(id);
    // Chunk attribution lands on the stage rows: the first stage after
    // the decode row is reached by every chunk.
    EXPECT_EQ(decode->chunks_scanned + decode->chunks_pruned, 0u);
    const OperatorStats& first_stage = *(decode + 1);
    EXPECT_EQ(first_stage.chunks_scanned + first_stage.chunks_pruned,
              result.chunks_total)
        << QueryName(id) << " " << first_stage.name;
  }
  // The flat scan decodes nothing and has no decode row.
  SsbEngine flat(db, [] {
    EngineConfig c = Config(Flavor::kHybrid, false, false);
    c.collect_stats = true;
    return c;
  }());
  EXPECT_EQ(FindOperator(flat.Run(QueryId::kQ2_1), "decode"), nullptr);
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

// Blocks of the chunks pruning kept: a 4096-row block never straddles a
// chunk, and the short tail chunk holds fewer blocks.
std::uint64_t LiveBlocks(const ssb::SsbDatabase& db,
                         const ChunkPruning& pruning) {
  constexpr std::size_t kBlock = 4096;
  const std::size_t n = db.chunked->rows();
  std::uint64_t blocks = 0;
  for (std::size_t c = 0; c < pruning.alive.size(); ++c) {
    if (!pruning.alive[c]) continue;
    const std::size_t rows = std::min(kChunkRows, n - c * kChunkRows);
    blocks += (rows + kBlock - 1) / kBlock;
  }
  return blocks;
}

// At threads=2 the cursor hands out only the blocks of unpruned chunks.
TEST(ChunkedScanTest, ParallelRunDispatchesOnlyLiveBlocks) {
  const ssb::SsbDatabase db = MakeChunkedDb();
  const BoundPlan bound = BuildQueryPlan(db, QueryId::kQ1_1);
  const std::uint64_t live =
      LiveBlocks(db, ComputeChunkPruning(db, bound.plan, "Q1.1"));
  ASSERT_GE(live, 2u);  // enough for both workers
  ASSERT_LT(live, (db.chunked->rows() + 4095) / 4096);

  EngineConfig config = Config(Flavor::kHybrid, true, true);
  config.threads = 2;
  SsbEngine engine(db, config);
  auto& registry = telemetry::MetricsRegistry::Get();
  const std::uint64_t morsels0 =
      registry.counter("exec.morsels_dispatched").value();
  const QueryResult result = engine.Run(QueryId::kQ1_1);
  EXPECT_EQ(registry.counter("exec.morsels_dispatched").value() - morsels0,
            live);
  EXPECT_EQ(result.morsels, live);
  EXPECT_TRUE(result == RunReferenceQuery(db, QueryId::kQ1_1));
}

// engine.rows_scanned counts the fact rows entering the pipeline: with
// pruning on, the rows of the surviving chunks only.
TEST(ChunkedScanTest, RowsScannedCountsOnlyUnprunedRows) {
  const ssb::SsbDatabase db = MakeChunkedDb();
  const BoundPlan bound = BuildQueryPlan(db, QueryId::kQ1_2);
  const ChunkPruning pruning = ComputeChunkPruning(db, bound.plan, "Q1.2");
  ASSERT_LT(pruning.rows_scanned, db.chunked->rows());

  EngineConfig config = Config(Flavor::kHybrid, true, true);
  config.collect_stats = true;
  SsbEngine engine(db, config);
  auto& registry = telemetry::MetricsRegistry::Get();
  const std::uint64_t rows0 = registry.counter("engine.rows_scanned").value();
  engine.Run(QueryId::kQ1_2);
  EXPECT_EQ(registry.counter("engine.rows_scanned").value() - rows0,
            pruning.rows_scanned);
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
