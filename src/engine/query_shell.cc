#include "engine/query_shell.h"

#include <algorithm>
#include <atomic>
#include <optional>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "exec/runtime.h"
#include "exec/task_pool.h"
#include "telemetry/diagnostics.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"

namespace hef {

Result<QueryResult> RunTraced(QueryId id, const exec::QueryContext& ctx,
                              const RunHooks& hooks) {
  // Every serving Run is traced: adopt the caller's id or mint one, so
  // logs, flight events, /statusz and error messages all correlate.
  exec::QueryContext traced = ctx;
  if (traced.trace_id() == 0) traced.set_trace_id(exec::MintTraceId());
  const std::string query = QueryName(id);

  const std::uint64_t t0 = MonotonicNanos();
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    telemetry::ActiveQueryGuard guard(traced.trace_id(), query, hooks.engine,
                                      traced.deadline_nanos());
    return hooks.execute(traced);
  }();
  const std::uint64_t wall = MonotonicNanos() - t0;
  exec::RecordQueryOutcome(result.status());

  telemetry::QueryCompletion completion;
  completion.trace_id = traced.trace_id();
  completion.query = query;
  completion.engine = hooks.engine;
  completion.wall_nanos = wall;
  if (result.ok()) {
    QueryResult& r = result.value();
    r.trace_id = traced.trace_id();
    r.wall_nanos = wall;
    completion.cache_hit = r.plan_cache_hit;
    completion.morsels = r.morsels;
    if (!r.operator_stats.empty()) {
      completion.explain_json = ExplainToJson(hooks.explain_meta(query), r);
    }
    telemetry::Diagnostics::Get().RecordCompletion(completion);
    if (hooks.on_success) hooks.on_success(query, r, t0 + wall);
    return result;
  }
  completion.status_code =
      static_cast<std::uint16_t>(result.status().code());
  completion.status_message = result.status().message();
  telemetry::Diagnostics::Get().RecordCompletion(completion);
  // Errors carry the trace id so a client-side log line alone is enough
  // to find the query in /tracez or a flight dump.
  return Status(result.status().code(),
                result.status().message() + " [trace=" +
                    telemetry::FormatTraceId(traced.trace_id()) + "]");
}

QueryResult ValueOrDie(Result<QueryResult> result, const char* engine,
                       QueryId id) {
  HEF_CHECK_MSG(result.ok(), "%s::Run(%s) failed: %s", engine, QueryName(id),
                result.status().ToString().c_str());
  return std::move(result).value();
}

std::unique_ptr<PerfCounters> StartPmu() {
  auto pmu = std::make_unique<PerfCounters>();
  if (!pmu->available()) return nullptr;
  pmu->Start();
  return pmu;
}

namespace shell_internal {

BoundPlan BuildPlan(const ssb::SsbDatabase& db, QueryId id, int threads,
                    const char* span) {
  HEF_TRACE_SPAN(span);
  PlanBuildOptions options;
  const int workers = exec::ResolveThreads(threads);
  if (workers > 1) {
    options.parallel_for = [workers](int parts,
                                     const std::function<void(int)>& fn) {
      const int w = workers < parts ? workers : parts;
      std::atomic<int> next{0};
      exec::TaskPool::Get().Run(w, [&](int) {
        int p;
        while ((p = next.fetch_add(1)) < parts) fn(p);
      });
    };
  }
  return BuildQueryPlan(db, id, options);
}

OperatorStats BuildRow(const BoundPlan& bound, std::uint64_t t0,
                       PerfCounters* pmu) {
  OperatorStats build;
  build.name = "build";
  build.wall_nanos = MonotonicNanos() - t0;
  build.invocations = 1;
  for (const auto& table : bound.tables) {
    build.rows_in += table->size();
    build.rows_out += table->size();
  }
  if (pmu != nullptr) {
    build.perf = pmu->Stop();
    build.perf.elapsed_seconds = static_cast<double>(build.wall_nanos) * 1e-9;
  }
  return build;
}

Status GuardBuild(QueryId id, const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return Status::Internal(std::string("plan build failed for ") +
                            QueryName(id) + ": " + e.what());
  }
  return Status::OK();
}

// Exceptions escaping a kernel (a worker threw; the TaskPool rethrew the
// first one at the join) become Status::Internal here.
Status GuardExecution(QueryId id, const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return Status::Internal(std::string("query execution failed for ") +
                            QueryName(id) + ": " + e.what());
  } catch (...) {
    return Status::Internal(std::string("query execution failed for ") +
                            QueryName(id) + ": unknown exception");
  }
  return Status::OK();
}

}  // namespace shell_internal

void OpAcc::Merge(const OpAcc& o) {
  nanos += o.nanos;
  calls += o.calls;
  rows_in += o.rows_in;
  rows_out += o.rows_out;
  instructions += o.instructions;
  cycles += o.cycles;
  llc_misses += o.llc_misses;
  pmu_valid = pmu_valid || o.pmu_valid;
  pmu_scaled = pmu_scaled || o.pmu_scaled;
  kernels |= o.kernels;
}

BlockAccumulator::BlockAccumulator(const StarPlan& plan, bool stats)
    : agg(plan.gid_domain, 0),
      cnt(plan.gid_domain, 0),
      ops(stats ? plan.filters.size() + plan.joins.size() + 2 : 0) {}

namespace {

OperatorStats ToStats(const std::string& name, const OpAcc& a) {
  OperatorStats s;
  s.name = name;
  s.wall_nanos = a.nanos;
  s.invocations = a.calls;
  s.rows_in = a.rows_in;
  s.rows_out = a.rows_out;
  s.perf.valid = a.pmu_valid;
  s.perf.instructions = a.instructions;
  s.perf.cycles = a.cycles;
  s.perf.llc_misses = a.llc_misses;
  s.perf.scaled = a.pmu_scaled;
  s.perf.elapsed_seconds = static_cast<double>(a.nanos) * 1e-9;
  s.kernels = a.kernels;
  return s;
}

}  // namespace

QueryResult DispatchBlocks(const StarPlan& plan,
                           const ssb::LineorderFact& lo,
                           const BlockDispatch& dispatch,
                           const BlockWorker& worker,
                           const exec::QueryContext* ctx) {
  const bool stats = dispatch.collect_stats;
  const std::vector<std::uint32_t>* live = dispatch.live_blocks;
  const std::size_t blocks =
      live != nullptr ? live->size() : dispatch.total_blocks;
  exec::MorselCursor cursor(blocks, live != nullptr ? live->data() : nullptr,
                            ctx, dispatch.fault_site);
  BlockAccumulator acc(plan, stats);
  const int threads =
      std::min<int>(exec::ResolveThreads(dispatch.threads),
                    static_cast<int>(blocks == 0 ? 1 : blocks));
  auto& registry = telemetry::MetricsRegistry::Get();
  if (threads <= 1) {
    std::optional<telemetry::SpanScope> span;
    if (dispatch.inline_span != nullptr) span.emplace(dispatch.inline_span);
    worker(/*inline_path=*/true, cursor, acc);
  } else {
    // Every pool worker claims from the one cursor, so a worker stuck on
    // an expensive block claims fewer while the others drain the rest.
    std::vector<BlockAccumulator> worker_accs(threads, acc);
    std::vector<std::uint64_t> busy_nanos(static_cast<std::size_t>(threads));
    const std::uint64_t wall_t0 = MonotonicNanos();
    exec::TaskPool::Get().Run(threads, [&](int t) {
      HEF_TRACE_SPAN(dispatch.worker_span);
      const std::uint64_t t0 = MonotonicNanos();
      // A throwing worker stops the cursor before the pool captures the
      // exception, so the surviving workers stop claiming blocks and the
      // error reaches the caller quickly.
      try {
        worker(/*inline_path=*/false, cursor, worker_accs[t]);
      } catch (...) {
        cursor.Stop();
        throw;
      }
      busy_nanos[t] = MonotonicNanos() - t0;
    });
    const std::uint64_t wall = MonotonicNanos() - wall_t0;
    std::uint64_t busy_total = 0;
    for (const std::uint64_t b : busy_nanos) busy_total += b;
    registry.counter("exec.morsels_dispatched").Increment(cursor.dispatched());
    registry.gauge("exec.pool_threads")
        .Set(static_cast<double>(exec::TaskPool::Get().spawned_threads()));
    registry.gauge("exec.worker_busy_fraction")
        .Set(wall == 0 ? 1.0
                       : static_cast<double>(busy_total) /
                             (static_cast<double>(wall) * threads));
    for (const BlockAccumulator& w : worker_accs) {
      acc.qualifying += w.qualifying;
      for (std::size_t g = 0; g < plan.gid_domain; ++g) {
        acc.agg[g] += w.agg[g];
        acc.cnt[g] += w.cnt[g];
      }
      for (std::size_t i = 0; i < acc.ops.size(); ++i) {
        acc.ops[i].Merge(w.ops[i]);
      }
    }
  }
  if (cursor.yields() > 0) {
    registry.counter("exec.morsel_yields").Increment(cursor.yields());
  }

  QueryResult result;
  result.qualifying_rows = acc.qualifying;
  result.morsels = cursor.dispatched();
  if (stats) {
    auto& ops = result.operator_stats;
    ops.reserve(acc.ops.size() + 1);  // + the shell's build row
    if (dispatch.decode_row) ops.push_back(ToStats("decode", acc.ops.back()));
    std::size_t idx = 0;
    for (const RangeFilter& f : plan.filters) {
      ops.push_back(ToStats(std::string("filter.") + FactColumnName(lo, f.col),
                            acc.ops[idx++]));
    }
    for (const JoinStage& j : plan.joins) {
      ops.push_back(
          ToStats(std::string("probe.") + FactColumnName(lo, j.fact_key),
                  acc.ops[idx++]));
    }
    ops.push_back(ToStats("groupby", acc.ops[idx]));
  }
  for (std::size_t g = 0; g < plan.gid_domain; ++g) {
    if (acc.cnt[g] == 0) continue;
    GroupRow row;
    row.keys = plan.decode(g);
    row.value = acc.agg[g];
    result.rows.push_back(row);
  }
  std::sort(result.rows.begin(), result.rows.end());
  return result;
}

}  // namespace hef
