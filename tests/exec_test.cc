// Tests for the execution runtime: TaskPool, MorselCursor dispatch,
// PlanCache semantics, the partitioned hash-table build, and cross-thread /
// cached-vs-cold result identity for both engines.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/reference.h"
#include "exec/morsel.h"
#include "exec/plan_cache.h"
#include "exec/query_context.h"
#include "exec/runtime.h"
#include "exec/task_pool.h"
#include "ssb/chunked_fact.h"
#include "ssb/database.h"
#include "table/linear_hash_table.h"
#include "telemetry/metrics.h"
#include "voila/voila_engine.h"

namespace hef {
namespace {

TEST(TaskPoolTest, RunsEveryWorkerExactlyOnce) {
  constexpr int kWorkers = 8;
  std::vector<std::atomic<int>> hits(kWorkers);
  exec::TaskPool::Get().Run(kWorkers, [&](int w) {
    ASSERT_GE(w, 0);
    ASSERT_LT(w, kWorkers);
    hits[w].fetch_add(1);
  });
  for (int w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(hits[w].load(), 1) << "worker " << w;
  }
}

TEST(TaskPoolTest, SingleWorkerRunsInline) {
  const auto caller = std::this_thread::get_id();
  std::thread::id body_thread;
  exec::TaskPool::Get().Run(1, [&](int w) {
    EXPECT_EQ(w, 0);
    body_thread = std::this_thread::get_id();
  });
  EXPECT_EQ(body_thread, caller);
}

TEST(TaskPoolTest, SequentialRunsReuseThreads) {
  exec::TaskPool::Get().Run(4, [](int) {});
  const int spawned = exec::TaskPool::Get().spawned_threads();
  for (int i = 0; i < 10; ++i) {
    exec::TaskPool::Get().Run(4, [](int) {});
  }
  EXPECT_EQ(exec::TaskPool::Get().spawned_threads(), spawned);
}

TEST(ResolveThreadsTest, AutoAndExplicit) {
  EXPECT_EQ(exec::ResolveThreads(0), exec::TaskPool::HardwareThreads());
  EXPECT_EQ(exec::ResolveThreads(1), 1);
  EXPECT_EQ(exec::ResolveThreads(7), 7);
}

TEST(ParseThreadsFlagTest, Values) {
  EXPECT_EQ(exec::ParseThreadsFlag("auto").value(), 0);
  EXPECT_EQ(exec::ParseThreadsFlag("1").value(), 1);
  EXPECT_EQ(exec::ParseThreadsFlag("16").value(), 16);
  EXPECT_FALSE(exec::ParseThreadsFlag("-1").ok());
  EXPECT_FALSE(exec::ParseThreadsFlag("bogus").ok());
  EXPECT_FALSE(exec::ParseThreadsFlag("4x").ok());
  EXPECT_FALSE(exec::ParseThreadsFlag("100000").ok());
}

// Every block must be claimed exactly once, no matter how claims
// interleave.
TEST(MorselSchedulerTest, DispatchCompleteUnderContention) {
  constexpr std::size_t kBlocks = 4096;
  constexpr int kWorkers = 8;
  exec::MorselCursor cursor(kBlocks);

  std::mutex mu;
  std::set<std::size_t> seen;
  std::atomic<bool> duplicate{false};
  exec::TaskPool::Get().Run(kWorkers, [&](int) {
    std::size_t b = 0;
    while (cursor.Next(&b)) {
      std::lock_guard<std::mutex> lock(mu);
      if (!seen.insert(b).second) duplicate.store(true);
    }
  });
  EXPECT_FALSE(duplicate.load());
  EXPECT_EQ(seen.size(), kBlocks);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), kBlocks - 1);
  EXPECT_EQ(cursor.dispatched(), kBlocks);
}

// A worker stuck on a slow block claims no more while the others drain
// the rest: far fewer blocks land on it than the 1/kWorkers share a
// static split would pin behind it.
TEST(MorselSchedulerTest, SlowWorkerDoesNotSerializeQuery) {
  constexpr std::size_t kBlocks = 512;
  constexpr int kWorkers = 4;
  exec::MorselCursor cursor(kBlocks);

  std::atomic<std::uint64_t> done{0};
  std::uint64_t slow_blocks = 0;
  exec::TaskPool::Get().Run(kWorkers, [&](int w) {
    std::size_t b = 0;
    while (cursor.Next(&b)) {
      if (w == 0) {
        // Artificial skew: each of worker 0's blocks takes longer than
        // the rest of the query combined.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        ++slow_blocks;
      }
      done.fetch_add(1);
    }
  });
  EXPECT_EQ(done.load(), kBlocks);
  EXPECT_EQ(cursor.dispatched(), kBlocks);
  EXPECT_LT(slow_blocks, kBlocks / kWorkers);
}

TEST(MorselSchedulerTest, MoreWorkersThanBlocks) {
  exec::MorselCursor cursor(3);
  std::atomic<std::uint64_t> done{0};
  exec::TaskPool::Get().Run(8, [&](int) {
    std::size_t b = 0;
    while (cursor.Next(&b)) done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 3u);
}

// A live-block list is handed out in order, and only its blocks.
TEST(MorselSchedulerTest, HandsOutOnlyLiveBlocks) {
  const std::vector<std::uint32_t> live = {2, 3, 7, 11};
  exec::MorselCursor cursor(live.size(), live.data());
  std::vector<std::size_t> got;
  std::size_t b = 0;
  while (cursor.Next(&b)) got.push_back(b);
  EXPECT_EQ(got, std::vector<std::size_t>({2, 3, 7, 11}));
  EXPECT_EQ(cursor.dispatched(), live.size());
}

TEST(PlanCacheTest, HitMissInvalidate) {
  exec::PlanCache<int, std::string> cache("exec_test.plan_cache");
  auto& registry = telemetry::MetricsRegistry::Get();
  const std::uint64_t hits0 =
      registry.counter("exec_test.plan_cache.hit").value();
  const std::uint64_t misses0 =
      registry.counter("exec_test.plan_cache.miss").value();

  int builds = 0;
  auto build = [&] { return std::string("plan-") + std::to_string(++builds); };

  bool hit = true;
  const std::string& a = cache.GetOrBuild(7, build, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(a, "plan-1");
  const std::string& b = cache.GetOrBuild(7, build, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(&a, &b);  // stable reference, no rebuild
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(cache.size(), 1u);

  cache.GetOrBuild(9, build, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(cache.size(), 2u);

  cache.Invalidate();
  EXPECT_EQ(cache.size(), 0u);
  cache.GetOrBuild(7, build, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(builds, 3);

  EXPECT_EQ(registry.counter("exec_test.plan_cache.hit").value() - hits0,
            1u);
  EXPECT_EQ(
      registry.counter("exec_test.plan_cache.miss").value() - misses0, 3u);
}

// The partitioned parallel build must produce a table equivalent to the
// serial one: same size, every key found with its payload.
TEST(InsertBatchTest, ParallelMatchesSerialLookups) {
  constexpr std::size_t kKeys = 40000;
  std::vector<std::uint64_t> keys(kKeys), values(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) {
    keys[i] = i * 2654435761u + 1;  // unique, scrambled
    values[i] = i;
  }

  LinearHashTable serial(kKeys);
  serial.InsertBatch(keys.data(), values.data(), kKeys);

  LinearHashTable parallel(kKeys);
  LinearHashTable::ParallelFor pool_for =
      [](int parts, const std::function<void(int)>& fn) {
        exec::TaskPool::Get().Run(parts, fn);
      };
  parallel.InsertBatch(keys.data(), values.data(), kKeys, pool_for);

  EXPECT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < kKeys; ++i) {
    std::uint64_t v = 0;
    ASSERT_TRUE(parallel.Lookup(keys[i], &v)) << "key " << keys[i];
    EXPECT_EQ(v, values[i]);
  }
  std::uint64_t v = 0;
  EXPECT_FALSE(parallel.Lookup(0xdeadbeefcafe, &v));
}

// --- cross-thread and cached-vs-cold result identity ------------------

class ExecIdentityTest : public ::testing::Test {
 protected:
  static const ssb::SsbDatabase& Db() {
    static const ssb::SsbDatabase db = ssb::SsbDatabase::Generate(0.1);
    return db;
  }
};

TEST_F(ExecIdentityTest, ThreadCountsBitIdenticalAllQueries) {
  for (const Flavor flavor : {Flavor::kScalar, Flavor::kSimd}) {
    EngineConfig one;
    one.flavor = flavor;
    one.threads = 1;
    EngineConfig eight;
    eight.flavor = flavor;
    eight.threads = 8;
    SsbEngine engine_one(Db(), one);
    SsbEngine engine_eight(Db(), eight);
    for (const QueryId id : AllQueries()) {
      const QueryResult want = RunReferenceQuery(Db(), id);
      EXPECT_TRUE(engine_one.Run(id) == want) << QueryName(id);
      EXPECT_TRUE(engine_eight.Run(id) == want)
          << QueryName(id) << " threads=8";
    }
  }
}

TEST_F(ExecIdentityTest, CachedVsColdBitIdenticalAllQueries) {
  EngineConfig cfg;
  cfg.flavor = Flavor::kHybrid;
  cfg.threads = 2;
  cfg.bloom_prefilter = true;  // blooms live in the cache entry too
  SsbEngine engine(Db(), cfg);
  for (const QueryId id : AllQueries()) {
    const QueryResult cold = engine.Run(id);    // miss: builds the entry
    const QueryResult cached = engine.Run(id);  // hit: reuses it
    EXPECT_TRUE(cold == cached) << QueryName(id);
    engine.InvalidatePlanCache();
    const QueryResult rebuilt = engine.Run(id);  // cold again
    EXPECT_TRUE(rebuilt == cold) << QueryName(id) << " after invalidate";
  }
}

TEST_F(ExecIdentityTest, PlanCacheCountersAdvance) {
  auto& registry = telemetry::MetricsRegistry::Get();
  const std::uint64_t hits0 =
      registry.counter("engine.plan_cache.hit").value();
  const std::uint64_t misses0 =
      registry.counter("engine.plan_cache.miss").value();
  EngineConfig cfg;
  cfg.threads = 1;
  SsbEngine engine(Db(), cfg);
  engine.Run(QueryId::kQ2_1);
  engine.Run(QueryId::kQ2_1);
  engine.Run(QueryId::kQ2_1);
  EXPECT_EQ(registry.counter("engine.plan_cache.miss").value() - misses0,
            1u);
  EXPECT_EQ(registry.counter("engine.plan_cache.hit").value() - hits0, 2u);
}

TEST_F(ExecIdentityTest, PlanCacheOffRebuildsEveryRun) {
  auto& registry = telemetry::MetricsRegistry::Get();
  const std::uint64_t hits0 =
      registry.counter("engine.plan_cache.hit").value();
  EngineConfig cfg;
  cfg.threads = 1;
  cfg.plan_cache = false;
  SsbEngine engine(Db(), cfg);
  const QueryResult a = engine.Run(QueryId::kQ3_2);
  const QueryResult b = engine.Run(QueryId::kQ3_2);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(registry.counter("engine.plan_cache.hit").value(), hits0);
}

TEST_F(ExecIdentityTest, VoilaThreadsAndCacheBitIdentical) {
  VoilaConfig one;
  one.threads = 1;
  VoilaConfig eight;
  eight.threads = 8;
  VoilaEngine voila_one(Db(), one);
  VoilaEngine voila_eight(Db(), eight);
  for (const QueryId id : AllQueries()) {
    const QueryResult want = RunReferenceQuery(Db(), id);
    EXPECT_TRUE(voila_one.Run(id) == want) << QueryName(id);
    EXPECT_TRUE(voila_eight.Run(id) == want) << QueryName(id);
    EXPECT_TRUE(voila_eight.Run(id) == want)
        << QueryName(id) << " cached";
    voila_eight.InvalidatePlanCache();
    EXPECT_TRUE(voila_eight.Run(id) == want)
        << QueryName(id) << " after invalidate";
  }
}

TEST_F(ExecIdentityTest, MorselMetricsAdvanceOnParallelRuns) {
  auto& registry = telemetry::MetricsRegistry::Get();
  const std::uint64_t morsels0 =
      registry.counter("exec.morsels_dispatched").value();
  EngineConfig cfg;
  cfg.threads = 4;
  SsbEngine engine(Db(), cfg);
  engine.Run(QueryId::kQ1_1);
  EXPECT_GT(registry.counter("exec.morsels_dispatched").value(), morsels0);
  EXPECT_GT(registry.gauge("exec.pool_threads").value(), 0.0);
}

TEST_F(ExecIdentityTest, StatsMergeAcrossWorkersWithCache) {
  EngineConfig cfg;
  cfg.threads = 4;
  cfg.collect_stats = true;
  SsbEngine engine(Db(), cfg);
  for (int run = 0; run < 2; ++run) {  // cold, then cached
    const QueryResult r = engine.Run(QueryId::kQ2_1);
    ASSERT_FALSE(r.operator_stats.empty());
    EXPECT_EQ(r.operator_stats.front().name, "build");
    std::uint64_t probe_rows_in = 0;
    for (const OperatorStats& s : r.operator_stats) {
      if (s.name.rfind("probe.", 0) == 0 && probe_rows_in == 0) {
        probe_rows_in = s.rows_in;
      }
    }
    // The first probe sees every fact row (Q2.1 has no filters), no
    // matter how many workers the blocks were spread over.
    EXPECT_EQ(probe_rows_in, Db().lineorder.n);
  }
}

// A threads=1 Run claims every block on the calling thread, and the
// slices it parks there behind a higher-priority query count into
// exec.morsel_yields like a pool worker's.
TEST_F(ExecIdentityTest, InlineRunCountsMorselYields) {
  auto& registry = telemetry::MetricsRegistry::Get();
  EngineConfig cfg;
  cfg.threads = 1;
  SsbEngine engine(Db(), cfg);
  engine.Run(QueryId::kQ1_1);  // warm the plan cache
  const std::uint64_t yields0 =
      registry.counter("exec.morsel_yields").value();

  exec::PriorityGate gate;
  gate.Enter(exec::Priority::kHigh);
  exec::QueryContext ctx;
  ctx.set_priority(exec::Priority::kLow);
  ctx.set_priority_gate(&gate);
  std::thread leaver([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gate.Leave(exec::Priority::kHigh);
  });
  const Result<QueryResult> r = engine.Run(QueryId::kQ1_1, ctx);
  leaver.join();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value() == RunReferenceQuery(Db(), QueryId::kQ1_1));
  EXPECT_GT(registry.counter("exec.morsel_yields").value(), yields0);
}

// Both engines, every flavour, threads 1, 2 and 8, over flat, chunked and
// chunked+pruned storage: neither the claim order nor the live-block list
// changes a result. VoilaEngine always scans the flat columns.
TEST(CursorDispatchTest, EveryEngineThreadCountAndScanModeMatchReference) {
  ssb::SsbDatabase db = ssb::SsbDatabase::Generate(0.01);
  ssb::ChunkedFactOptions options;
  options.chunk_rows = 8192;  // 8 chunks, so pruning has chunks to skip
  ssb::EnsureChunked(db, options);
  const std::vector<QueryId>& queries = AllQueries();
  std::vector<QueryResult> want;
  for (const QueryId id : queries) want.push_back(RunReferenceQuery(db, id));

  for (const int threads : {1, 2, 8}) {
    for (const Flavor flavor :
         {Flavor::kScalar, Flavor::kSimd, Flavor::kHybrid}) {
      for (const auto& [chunked, pruning] :
           {std::pair{false, false}, std::pair{true, false},
            std::pair{true, true}}) {
        EngineConfig cfg;
        cfg.flavor = flavor;
        cfg.threads = threads;
        cfg.chunked_scan = chunked;
        cfg.scan_pruning = pruning;
        SsbEngine engine(db, cfg);
        for (std::size_t q = 0; q < queries.size(); ++q) {
          EXPECT_TRUE(engine.Run(queries[q]) == want[q])
              << QueryName(queries[q]) << " " << FlavorName(flavor)
              << " threads=" << threads << " chunked=" << chunked
              << " pruning=" << pruning;
        }
      }
    }
    VoilaConfig voila_cfg;
    voila_cfg.threads = threads;
    VoilaEngine voila(db, voila_cfg);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      EXPECT_TRUE(voila.Run(queries[q]) == want[q])
          << QueryName(queries[q]) << " voila threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace hef
