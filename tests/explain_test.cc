// EXPLAIN ANALYZE tests: a golden text tree and JSON document rendered
// from synthetic operator stats (fixed numbers, deterministic output),
// plus end-to-end checks that an engine Run fills the diagnostics
// envelope (trace id, wall time, morsels, plan-cache bit), that the
// explain JSON parses under the hef-explain-v1 schema, that each hybrid
// row lists exactly the kernels it called, and that error Statuses carry
// the trace-id suffix.

#include <cstdint>
#include <set>
#include <string>

#include "engine/engine.h"
#include "engine/explain.h"
#include "engine/reference.h"
#include "exec/query_context.h"
#include "gtest/gtest.h"
#include "ssb/chunked_fact.h"
#include "ssb/database.h"
#include "storage/encoding.h"
#include "telemetry/json_value.h"

namespace hef {
namespace {

using telemetry::JsonValue;

// A fabricated hybrid run with round numbers so both renderings are
// byte-stable: a four-stage pipeline, cached plan, traced. The filter
// called no engine kernel, the probe its Bloom filter, hash probe and a
// survivor gather, the group-by one gather.
QueryResult SyntheticResult() {
  QueryResult result;
  result.rows.push_back(GroupRow{{1993, 0, 0}, 12345});
  result.qualifying_rows = 250;
  result.trace_id = 0xABC;
  result.wall_nanos = 5'000'000;  // 5 ms
  result.morsels = 7;
  result.plan_cache_hit = true;
  auto add = [&](const char* name, std::uint64_t nanos, std::uint64_t inv,
                 std::uint64_t in, std::uint64_t out, KernelSet kernels) {
    OperatorStats op;
    op.name = name;
    op.wall_nanos = nanos;
    op.invocations = inv;
    op.rows_in = in;
    op.rows_out = out;
    op.kernels = kernels;
    result.operator_stats.push_back(op);
  };
  const KernelSet gather = KernelBit(EngineKernel::kGather);
  // Execution order: build first, sink last (the renderer reverses).
  add("build", 2'000'000, 1, 100, 100, 0);
  add("filter.year", 500'000, 4, 1000, 500, 0);
  add("probe.partkey", 1'000'000, 4, 500, 250,
      KernelBit(EngineKernel::kBloom) | KernelBit(EngineKernel::kProbe) |
          gather);
  add("groupby", 250'000, 4, 250, 250, gather);
  return result;
}

ExplainMeta SyntheticMeta() {
  EngineConfig config;
  config.flavor = Flavor::kHybrid;
  config.points.probe = HybridConfig{2, 1, 3};
  config.points.gather = HybridConfig{1, 2, 4};
  return MakeExplainMeta("Q9.9", "hybrid", config);
}

TEST(ExplainTextTest, GoldenTree) {
  EXPECT_EQ(
      ExplainToText(SyntheticMeta(), SyntheticResult()),
      "Q9.9 [hybrid] trace=0000000000000abc wall=5.000ms morsels=7 "
      "plan=cached\n"
      "groupby (gather v1s2p4)  self=0.250ms  rows 250 -> 250  calls=4\n"
      "  `- probe.partkey (bloom v2s1p3, probe v2s1p3, gather v1s2p4)"
      "  self=1.000ms  rows 500 -> 250  sel=50.00%  calls=4\n"
      "    `- filter.year  self=0.500ms  rows 1000 -> 500"
      "  sel=50.00%  calls=4\n"
      "      `- build  self=2.000ms  rows 100 -> 100\n");
}

TEST(ExplainTextTest, UntunedAndStatlessRendering) {
  // Voila: engine == flavor collapses the bracket, no (v,s,p) points.
  ExplainMeta meta;
  meta.query = "Q1.1";
  meta.engine = "voila";
  meta.flavor = "voila";
  QueryResult result = SyntheticResult();
  const std::string text = ExplainToText(meta, result);
  EXPECT_NE(text.find("Q1.1 [voila] trace="), std::string::npos);
  EXPECT_EQ(text.find("(v"), std::string::npos);
  // Stats-free run: a pointer at the flag instead of an empty tree.
  result.operator_stats.clear();
  EXPECT_NE(ExplainToText(meta, result).find("no operator stats"),
            std::string::npos);
}

TEST(ExplainJsonTest, GoldenDocumentParses) {
  const auto parsed =
      JsonValue::Parse(ExplainToJson(SyntheticMeta(), SyntheticResult()));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& doc = parsed.value();
  EXPECT_EQ(doc.StringOr("schema", ""), "hef-explain-v1");
  EXPECT_EQ(doc.StringOr("query", ""), "Q9.9");
  EXPECT_EQ(doc.StringOr("engine", ""), "hybrid");
  EXPECT_EQ(doc.StringOr("flavor", ""), "hybrid");
  EXPECT_EQ(doc.StringOr("trace", ""), "0000000000000abc");
  EXPECT_NEAR(doc.NumberOr("wall_ms", 0), 5.0, 1e-9);
  EXPECT_EQ(doc.NumberOr("morsels", 0), 7.0);
  EXPECT_EQ(doc.NumberOr("qualifying_rows", 0), 250.0);
  EXPECT_EQ(doc.NumberOr("output_rows", 0), 1.0);
  const JsonValue* hit = doc.Find("plan_cache_hit");
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->bool_value());
  const JsonValue* tuned = doc.Find("tuned");
  ASSERT_NE(tuned, nullptr);
  ASSERT_NE(tuned->Find("probe"), nullptr);
  EXPECT_EQ(tuned->Find("probe")->NumberOr("v", 0), 2.0);
  EXPECT_EQ(tuned->Find("gather")->NumberOr("p", 0), 4.0);

  const JsonValue* ops = doc.Find("operators");
  ASSERT_NE(ops, nullptr);
  ASSERT_EQ(ops->array().size(), 4u);
  const JsonValue& build = ops->array()[0];
  EXPECT_EQ(build.StringOr("name", ""), "build");
  EXPECT_EQ(build.StringOr("kind", ""), "build");
  EXPECT_EQ(build.Find("tuned"), nullptr);  // builds call no engine kernel
  EXPECT_EQ(ops->array()[1].Find("tuned"), nullptr);  // nor did the filter
  // Each row's `tuned` object maps the kernels it called to their points.
  const JsonValue& probe = ops->array()[2];
  EXPECT_EQ(probe.StringOr("kind", ""), "probe");
  EXPECT_NEAR(probe.NumberOr("selectivity", 0), 0.5, 1e-9);
  const JsonValue* probe_tuned = probe.Find("tuned");
  ASSERT_NE(probe_tuned, nullptr);
  ASSERT_EQ(probe_tuned->object().size(), 3u);
  ASSERT_NE(probe_tuned->Find("bloom"), nullptr);
  EXPECT_EQ(probe_tuned->Find("bloom")->NumberOr("v", -1), 2.0);
  ASSERT_NE(probe_tuned->Find("probe"), nullptr);
  EXPECT_EQ(probe_tuned->Find("probe")->NumberOr("s", -1), 1.0);
  ASSERT_NE(probe_tuned->Find("gather"), nullptr);
  EXPECT_EQ(probe_tuned->Find("gather")->NumberOr("p", -1), 4.0);
  const JsonValue& sink = ops->array()[3];
  EXPECT_EQ(sink.StringOr("kind", ""), "aggregate");
  const JsonValue* sink_tuned = sink.Find("tuned");
  ASSERT_NE(sink_tuned, nullptr);
  ASSERT_EQ(sink_tuned->object().size(), 1u);
  ASSERT_NE(sink_tuned->Find("gather"), nullptr);
  EXPECT_EQ(sink_tuned->Find("gather")->NumberOr("s", -1), 2.0);
}

// ------------------------------------------------------------- end-to-end

const ssb::SsbDatabase& TestDb() {
  static const ssb::SsbDatabase* db =
      new ssb::SsbDatabase(ssb::SsbDatabase::Generate(0.01));
  return *db;
}

TEST(ExplainEndToEndTest, RunFillsDiagnosticsEnvelope) {
  EngineConfig config;
  config.flavor = Flavor::kScalar;
  config.collect_stats = true;
  SsbEngine engine(TestDb(), config);
  const QueryId id = ParseQueryId("2.1").value();

  const auto first = engine.Run(id, exec::QueryContext());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_NE(first.value().trace_id, 0u);
  EXPECT_GT(first.value().wall_nanos, 0u);
  EXPECT_GT(first.value().morsels, 0u);
  EXPECT_FALSE(first.value().plan_cache_hit);  // first run builds
  ASSERT_FALSE(first.value().operator_stats.empty());

  const auto second = engine.Run(id, exec::QueryContext());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().plan_cache_hit);
  EXPECT_NE(second.value().trace_id, first.value().trace_id);

  // A pre-seeded trace id is honoured, not re-minted.
  exec::QueryContext traced;
  traced.set_trace_id(0x5EED);
  const auto third = engine.Run(id, traced);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.value().trace_id, 0x5EEDu);

  const ExplainMeta meta = MakeExplainMeta("Q2.1", "scalar", config);
  const std::string text = ExplainToText(meta, first.value());
  EXPECT_NE(text.find("Q2.1 [scalar] trace="), std::string::npos);
  EXPECT_NE(text.find("groupby"), std::string::npos);
  const auto json = JsonValue::Parse(ExplainToJson(meta, first.value()));
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_EQ(json.value().StringOr("schema", ""), "hef-explain-v1");
  EXPECT_FALSE(json.value().Find("operators")->array().empty());
}

// The hef-explain-v1 document of one hybrid Run of `id` with stats, after
// checking its result against the reference.
JsonValue HybridExplain(const ssb::SsbDatabase& db, QueryId id,
                        bool chunked) {
  EngineConfig config;
  config.flavor = Flavor::kHybrid;
  config.threads = 1;
  config.collect_stats = true;
  config.chunked_scan = chunked;
  SsbEngine engine(db, config);
  const QueryResult result = engine.Run(id);
  EXPECT_TRUE(result == RunReferenceQuery(db, id)) << QueryName(id);
  const ExplainMeta meta = MakeExplainMeta(QueryName(id), "hybrid", config);
  return JsonValue::Parse(ExplainToJson(meta, result)).value();
}

// The kernels the row `name` of `doc` lists: the keys of its `tuned`
// object, empty when it has none.
std::set<std::string> RowKernels(const JsonValue& doc,
                                 const std::string& name) {
  std::set<std::string> kernels;
  for (const JsonValue& op : doc.Find("operators")->array()) {
    if (op.StringOr("name", "") != name) continue;
    if (const JsonValue* tuned = op.Find("tuned")) {
      for (const auto& [kernel, point] : tuned->object()) {
        EXPECT_EQ(point.NumberOr("p", 0), 3.0) << name << " " << kernel;
        kernels.insert(kernel);
      }
    }
    return kernels;
  }
  ADD_FAILURE() << "no operator row " << name;
  return kernels;
}

TEST(ExplainEndToEndTest, HybridRowsListTheKernelsTheyRan) {
  using Kernels = std::set<std::string>;
  // Q1.1 on flat storage: the fused filters scan bitmaps over the whole
  // block in flavour code, so they list no kernel; the group-by gathers
  // its measures at the survivors.
  const JsonValue flat = HybridExplain(TestDb(), QueryId::kQ1_1, false);
  int filters = 0;
  for (const JsonValue& op : flat.Find("operators")->array()) {
    if (op.StringOr("kind", "") != "filter") continue;
    ++filters;
    EXPECT_EQ(op.Find("tuned"), nullptr) << op.StringOr("name", "");
  }
  EXPECT_EQ(filters, 3);
  EXPECT_EQ(RowKernels(flat, "groupby"), Kernels{"gather"});
  EXPECT_EQ(RowKernels(flat, "build"), Kernels{});

  // On FoR storage the filters compare unpacked codes and the measures
  // decode at the survivors: all of it is the decode row's, and the
  // group-by gathers nothing.
  ssb::SsbDatabase db = ssb::SsbDatabase::Generate(0.01);
  ssb::ChunkedFactOptions options;
  options.chunk_rows = 8192;
  options.policy = storage::EncodingPolicy::kFor;
  ssb::EnsureChunked(db, options);
  const JsonValue for_add = HybridExplain(db, QueryId::kQ1_1, true);
  EXPECT_EQ(RowKernels(for_add, "decode"),
            (Kernels{"unpack_bits", "for_add"}));
  EXPECT_EQ(RowKernels(for_add, "groupby"), Kernels{});

  // Q2.1: the first join runs its Bloom filter and hash probe; the build
  // calls no engine kernel.
  const JsonValue join = HybridExplain(TestDb(), QueryId::kQ2_1, false);
  const Kernels probe = RowKernels(join, "probe.partkey");
  EXPECT_EQ(probe.count("bloom"), 1u);
  EXPECT_EQ(probe.count("probe"), 1u);
  EXPECT_EQ(RowKernels(join, "build"), Kernels{});
}

TEST(ExplainEndToEndTest, ErrorStatusCarriesTraceId) {
  EngineConfig config;
  config.flavor = Flavor::kScalar;
  SsbEngine engine(TestDb(), config);
  const QueryId id = ParseQueryId("1.1").value();
  // An already-expired deadline fails fast and deterministically.
  const auto result =
      engine.Run(id, exec::QueryContext::WithDeadline(1e-9));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(result.status().message().find(" [trace="), std::string::npos)
      << result.status().message();
}

}  // namespace
}  // namespace hef
