// The query shell both star-plan engines share. The paper holds the
// pipeline fixed and lets Voila differ only in its interpreter loop
// (§V-B), so SsbEngine and VoilaEngine differ only in their block kernel
// and per-plan extras; everything around the kernel lives here, once:
// the Run(id, ctx) envelope (RunTraced), plan resolution (QueryShell) and
// block dispatch (DispatchBlocks).

#ifndef HEF_ENGINE_QUERY_SHELL_H_
#define HEF_ENGINE_QUERY_SHELL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "engine/explain.h"
#include "engine/query_id.h"
#include "engine/result.h"
#include "engine/star_plan.h"
#include "exec/fault_injection.h"
#include "exec/morsel.h"
#include "exec/plan_cache.h"
#include "exec/query_context.h"
#include "perf/perf_counters.h"
#include "ssb/database.h"

namespace hef {

// What one engine plugs into the Run(id, ctx) envelope.
struct RunHooks {
  std::string engine;  // label in /statusz, /tracez and EXPLAIN
  std::function<Result<QueryResult>(const exec::QueryContext& traced)>
      execute;
  std::function<ExplainMeta(const std::string& query)> explain_meta;
  // Optional; runs once a successful run is recorded.
  std::function<void(const std::string& query, const QueryResult& result,
                     std::uint64_t end_nanos)>
      on_success;
};

// Adopts or mints the trace id, registers the run with /statusz, counts
// its outcome, records the /tracez completion (with EXPLAIN JSON when
// stats were collected) and stamps errors with " [trace=<16 hex>]".
Result<QueryResult> RunTraced(QueryId id, const exec::QueryContext& ctx,
                              const RunHooks& hooks);

// The aborting Run(id) form: `result` must be OK (tests and paper-exhibit
// benches treat any failure as fatal).
QueryResult ValueOrDie(Result<QueryResult> result, const char* engine,
                       QueryId id);

// The config knobs the shell reads (both engines carry them).
struct ShellOptions {
  int threads = 0;  // 0 = one worker per hardware thread
  bool plan_cache = true;
  bool collect_stats = false;
  bool collect_pmu = false;  // PMU-bracket the build row too
};

// A started PerfCounters group for the calling thread, or null when the
// PMU is unavailable.
std::unique_ptr<PerfCounters> StartPmu();

// A built plan plus the engine's per-plan extras (Bloom filters, chunk
// pruning verdicts), sharing the plan's lifetime in the cache.
template <typename Extras>
struct PlanEntry {
  BoundPlan bound;
  Extras extras;
};

namespace shell_internal {

// Builds the plan under span `span`, on the persistent pool when more than
// one worker is configured (partitioned InsertBatch for the dimension
// hash tables).
BoundPlan BuildPlan(const ssb::SsbDatabase& db, QueryId id, int threads,
                    const char* span);
// The "build" stats row of a resolution that started at `t0`.
OperatorStats BuildRow(const BoundPlan& bound, std::uint64_t t0,
                       PerfCounters* pmu);
// Run `fn`, mapping exceptions to Status::Internal.
Status GuardBuild(QueryId id, const std::function<void()>& fn);
Status GuardExecution(QueryId id, const std::function<void()>& fn);

}  // namespace shell_internal

// One engine's plan cache plus the plan-resolving half of its Run.
template <typename Extras>
class QueryShell {
 public:
  using Entry = PlanEntry<Extras>;

  // `build_site` names both the build span and its fault point
  // ("engine.build", "voila.build"). The database must outlive the shell.
  QueryShell(const ssb::SsbDatabase& db, const char* build_site,
             ShellOptions options)
      : db_(db), build_site_(build_site), options_(options) {}

  QueryShell(const QueryShell&) = delete;
  QueryShell& operator=(const QueryShell&) = delete;

  // Resolves the plan and runs `execute` on it. A cache hit reuses the
  // dimension hash tables and extras an earlier Run built, and the "build"
  // row then reports the (tiny) lookup cost; with the cache off every Run
  // builds fresh. A failed build is never cached. A stop mid-run ends block
  // dispatch without an error, so the context is checked again after
  // execution: a partial result must not look like a complete one.
  Result<QueryResult> Execute(
      QueryId id, const exec::QueryContext& ctx,
      const std::function<Extras(const BoundPlan&)>& build_extras,
      const std::function<QueryResult(const Entry&, bool cache_hit)>&
          execute) {
    HEF_RETURN_NOT_OK(ctx.Check());
    std::unique_ptr<PerfCounters> pmu;
    if (options_.collect_stats && options_.collect_pmu) pmu = StartPmu();
    const std::uint64_t t0 = MonotonicNanos();
    // Rejects an already-stopped context before doing any work; a failed
    // build (including an injected fault) inserts nothing into the cache.
    auto build = [&]() -> Result<Entry> {
      HEF_RETURN_NOT_OK(ctx.Check());
      HEF_FAULT_POINT_STATUS(build_site_);
      Entry entry;
      HEF_RETURN_NOT_OK(shell_internal::GuardBuild(id, [&] {
        entry.bound =
            shell_internal::BuildPlan(db_, id, options_.threads, build_site_);
        entry.extras = build_extras(entry.bound);
      }));
      return entry;
    };
    bool cache_hit = false;
    const Entry* entry = nullptr;
    std::unique_ptr<Entry> fresh;
    if (options_.plan_cache) {
      Result<const Entry*> cached = cache_.TryGetOrBuild(id, build,
                                                         &cache_hit);
      HEF_RETURN_NOT_OK(cached.status());
      entry = cached.value();
    } else {
      Result<Entry> built = build();
      HEF_RETURN_NOT_OK(built.status());
      fresh = std::make_unique<Entry>(std::move(built).value());
      entry = fresh.get();
    }
    // The build row closes here, so it never overlaps the operator rows
    // of the execution below.
    OperatorStats build_row;
    if (options_.collect_stats) {
      build_row = shell_internal::BuildRow(entry->bound, t0, pmu.get());
    }
    QueryResult result;
    HEF_RETURN_NOT_OK(shell_internal::GuardExecution(
        id, [&] { result = execute(*entry, cache_hit); }));
    HEF_RETURN_NOT_OK(ctx.Check());
    result.plan_cache_hit = cache_hit;
    if (options_.collect_stats) {
      result.operator_stats.insert(result.operator_stats.begin(),
                                   std::move(build_row));
    }
    return result;
  }

  void InvalidatePlanCache() { cache_.Invalidate(); }

 private:
  const ssb::SsbDatabase& db_;
  const char* build_site_;
  const ShellOptions options_;
  exec::PlanCache<QueryId, Entry> cache_{"engine.plan_cache"};
};

// One operator's accumulated statistics within a worker (merged across
// workers into QueryResult::operator_stats). Plain integers: each worker
// owns its own vector, so the hot-loop bumps need no atomics. The PMU
// fields stay zero for kernels that are not PMU-bracketed.
struct OpAcc {
  std::uint64_t nanos = 0;
  std::uint64_t calls = 0;
  std::uint64_t rows_in = 0;
  std::uint64_t rows_out = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  std::uint64_t llc_misses = 0;
  bool pmu_valid = false;
  bool pmu_scaled = false;

  void Merge(const OpAcc& o);
};

// One executing thread's private accumulators for one plan.
struct BlockAccumulator {
  std::vector<std::uint64_t> agg;  // per group id
  std::vector<std::uint64_t> cnt;
  std::uint64_t qualifying = 0;
  // Layout: filters, then probes, then group-by, then decode. Empty
  // unless stats are collected, so kernels test `ops.empty()` to skip the
  // bracketing.
  std::vector<OpAcc> ops;

  BlockAccumulator(const StarPlan& plan, bool stats);
};

// Runs once per executing thread: sets up the thread's private state, then
// runs one block per `cursor.Next(&block)` until it returns false.
// `inline_path` is true when the calling thread runs alone, so the engine
// may use its own long-lived scratch; pool workers allocate their own.
using BlockWorker = std::function<void(
    bool inline_path, exec::MorselCursor& cursor, BlockAccumulator& acc)>;

struct BlockDispatch {
  std::size_t total_blocks = 0;
  // The blocks to run, ascending; null runs all of [0, total_blocks).
  const std::vector<std::uint32_t>* live_blocks = nullptr;
  int threads = 0;  // configured; 0 = auto
  bool collect_stats = false;
  bool decode_row = false;  // the kernel decodes encoded storage
  const char* fault_site = nullptr;   // "<engine>.morsel", passed per block
  const char* inline_span = nullptr;  // optional span around the inline run
  const char* worker_span = nullptr;  // span on each pool worker
};

// Runs `worker` over the live blocks through one exec::MorselCursor, which
// stops, yields and passes the fault site for the whole query. At most one
// resolved thread runs inline on the caller; more run on the TaskPool with
// private accumulators merged in worker order — group sums commute, so
// results are bit-identical to single-threaded. Fills rows (decoded,
// sorted), qualifying_rows, morsels (the blocks run) and, with stats, one
// filter.<col> / probe.<col> / groupby row per operator, led by the
// decode row when `decode_row` is set.
//
// Pool runs publish exec.morsels_dispatched, exec.pool_threads and
// exec.worker_busy_fraction; every run publishes exec.morsel_yields.
QueryResult DispatchBlocks(const StarPlan& plan,
                           const ssb::LineorderFact& lo,
                           const BlockDispatch& dispatch,
                           const BlockWorker& worker,
                           const exec::QueryContext* ctx);

}  // namespace hef

#endif  // HEF_ENGINE_QUERY_SHELL_H_
