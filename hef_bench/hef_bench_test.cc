#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <numeric>
#include <thread>
#include <vector>

#include "engine/reference.h"
#include "serve/serve_server.h"
#include "ssb/chunked_fact.h"
#include "suite.h"

namespace hef::bench {
namespace {

TEST(HefBenchStats, TailNeedsTenSamplesBeyondIt) {
  std::vector<double> v(99);
  std::iota(v.begin(), v.end(), 1.0);
  EXPECT_FALSE(TailPercentile(v, 90).has_value());  // 9 beyond p90
  v.push_back(100);
  ASSERT_TRUE(TailPercentile(v, 90).has_value());  // 10 beyond p90
  EXPECT_DOUBLE_EQ(*TailPercentile(v, 90), Quantile(v, 0.9));

  std::vector<double> w(999, 1.0);
  EXPECT_FALSE(TailPercentile(w, 99).has_value());
  w.push_back(2.0);
  EXPECT_TRUE(TailPercentile(w, 99).has_value());
  EXPECT_DOUBLE_EQ(Quantile({3, 1, 2}, 0.5), 2);
}

TEST(HefBenchLoad, PoissonScheduleIsSeeded) {
  const auto a = PoissonSchedule(7, 200, 5, AllQueries());
  const auto b = PoissonSchedule(7, 200, 5, AllQueries());
  const auto c = PoissonSchedule(8, 200, 5, AllQueries());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_ns, b[i].due_ns);
    EXPECT_EQ(a[i].query, b[i].query);
  }
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].due_ns != c[i].due_ns || a[i].query != c[i].query;
  }
  EXPECT_TRUE(differs);

  // ~1000 arrivals (sd ~32), in order, inside the window, and every
  // complete pass over the mix issues each query exactly once.
  EXPECT_GT(a.size(), 800u);
  EXPECT_LT(a.size(), 1200u);
  std::map<QueryId, int> per_query;
  const std::size_t passes = a.size() / AllQueries().size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(a[i].due_ns, a[i - 1].due_ns);
    }
    EXPECT_LT(a[i].due_ns, 5'000'000'000u);
    if (i < passes * AllQueries().size()) ++per_query[a[i].query];
  }
  for (const QueryId q : AllQueries()) {
    EXPECT_EQ(per_query[q], static_cast<int>(passes)) << QueryName(q);
  }
}

TEST(HefBenchLoad, OpenLoopLatencyCountsFromDueTime) {
  // One worker; the first request stalls 40 ms, so the two arrivals due
  // meanwhile go out late. Their latency must include that wait.
  const std::vector<Arrival> schedule = {
      {0, QueryId::kQ1_1}, {5'000'000, QueryId::kQ1_2},
      {10'000'000, QueryId::kQ1_3}};
  std::atomic<int> calls{0};
  const auto records = RunOpenLoop(schedule, 1, [&](QueryId) {
    if (calls.fetch_add(1) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
    }
    return Completion{};
  });
  ASSERT_EQ(records.size(), 3u);
  for (std::size_t i = 1; i < records.size(); ++i) {
    const RequestRecord& r = records[i];
    EXPECT_EQ(r.due_ns, schedule[i].due_ns);
    EXPECT_GE(r.send_ns, 40'000'000u);
    EXPECT_GE(r.latency_ms(), 40.0 - static_cast<double>(r.due_ns) * 1e-6);
    EXPECT_GE(r.lag_ms(), 25.0);
    EXPECT_LT(static_cast<double>(r.done_ns - r.send_ns) * 1e-6, 20.0);
  }
}

TEST(HefBenchLoad, ClosedLoopRequestIsDueWhenItsPredecessorCompletes) {
  const ClosedLoopRun run =
      RunClosedLoop(1, 0.02, 3, AllQueries(), [](QueryId) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return Completion{};
      });
  ASSERT_GE(run.records.size(), 2u);
  EXPECT_EQ(run.records.size() % AllQueries().size(), 0u);  // whole passes
  EXPECT_EQ(run.records[0].due_ns, 0u);
  for (std::size_t i = 1; i < run.records.size(); ++i) {
    EXPECT_EQ(run.records[i].due_ns, run.records[i - 1].done_ns);
    EXPECT_GE(run.records[i].latency_ms(), 1.0);
  }
  EXPECT_GE(run.elapsed_s, 0.02);
}

TEST(HefBenchReplay, MatchesReferenceOnAllQueries) {
  ssb::SsbDatabase db = ssb::SsbDatabase::Generate(0.01, 42);
  ssb::ChunkedFactOptions options;  // auto encoding
  options.chunk_rows = 8192;        // several chunks, so pruning has work
  ssb::EnsureChunked(db, options);
  EngineConfig config;
  config.flavor = Flavor::kHybrid;
  config.threads = 1;
  config.chunked_scan = true;
  config.scan_pruning = true;

  LayerTotals all;
  for (const QueryId q : AllQueries()) {
    LayerTotals t;
    EXPECT_EQ(ReplayQuery(db, q, config, &t), RunReferenceQuery(db, q))
        << QueryName(q);
    EXPECT_LE(t.chunks_scanned, t.chunks_total);
    EXPECT_LE(t.probe_hits, t.probe_keys);
    EXPECT_LE(t.rows_decoded, t.chunks_scanned * options.chunk_rows * 9);
    all.Add(t);
  }
  EXPECT_LT(all.chunks_scanned, all.chunks_total);  // something was pruned
  EXPECT_GT(all.rows_decoded, 0u);
  EXPECT_GT(all.probe_keys, 0u);
  EXPECT_GT(all.select_rows_in, 0u);
  EXPECT_GT(all.rows_aggregated, 0u);
  EXPECT_GT(all.pipeline_ns(), 0u);
}

TEST(HefBenchCheck, CorruptedRowIsReportedAsAnError) {
  const ssb::SsbDatabase db = ssb::SsbDatabase::Generate(0.01, 42);
  const QueryResult expected = RunReferenceQuery(db, QueryId::kQ2_1);
  ASSERT_FALSE(expected.rows.empty());

  QueryResult corrupted = expected;
  corrupted.rows.back().value += 1;
  EXPECT_EQ(CheckRun(Result<QueryResult>(expected), expected).outcome,
            Outcome::kOk);
  EXPECT_EQ(CheckRun(Result<QueryResult>(corrupted), expected).outcome,
            Outcome::kWrongRows);

  serve::QueryResponse response;
  response.result = expected;
  response.exec_ms = 1.5;
  std::string detail;
  const Completion ok = CheckServeBody(
      serve::RenderServeResponse("Q2.1", response), expected, &detail);
  EXPECT_EQ(ok.outcome, Outcome::kOk) << detail;
  EXPECT_DOUBLE_EQ(ok.exec_ms, 1.5);
  for (const bool in_key : {true, false}) {
    serve::QueryResponse bad = response;
    if (in_key) {
      bad.result.rows.front().keys[0] ^= 1;
    } else {
      bad.result.rows.back().value += 1;
    }
    detail.clear();
    EXPECT_EQ(CheckServeBody(serve::RenderServeResponse("Q2.1", bad),
                             expected, &detail)
                  .outcome,
              Outcome::kWrongRows);
    EXPECT_FALSE(detail.empty());
  }

  // A wrong row counts as a failed request and never as a latency sample.
  std::vector<RequestRecord> records(3);
  records[1].completion.outcome = Outcome::kWrongRows;
  LoadSummary summary;
  summary.Add(records);
  EXPECT_EQ(summary.attempted, 3u);
  EXPECT_EQ(summary.failed, 1u);
  EXPECT_EQ(summary.wrong_rows, 1u);
  EXPECT_EQ(summary.latency_ms.size(), 2u);
}

}  // namespace
}  // namespace hef::bench
