// Execution-runtime glue: thread-count resolution, the pooled morsel run
// loop, and its scheduler telemetry.
//
// Engines call RunMorsels() instead of spawning threads: it carves the
// block space into a MorselScheduler, runs one worker loop per logical
// worker on the persistent TaskPool (caller participating as worker 0),
// and publishes scheduler counters to the process-wide MetricsRegistry:
//
//   exec.morsels_dispatched   counter — blocks claimed (all runs)
//   exec.steals               counter — shard-half steals (all runs)
//   exec.morsel_yields        counter — sleep slices parked behind
//                                       higher-priority queries (all runs)
//   exec.pool_threads         gauge   — pool threads currently spawned
//   exec.worker_busy_fraction gauge   — sum(worker loop time) /
//                                       (workers * run wall time), last run

#ifndef HEF_EXEC_RUNTIME_H_
#define HEF_EXEC_RUNTIME_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "exec/morsel.h"
#include "exec/query_context.h"
#include "exec/task_pool.h"

namespace hef::exec {

// Resolves an EngineConfig-style thread count: 0 ("auto") becomes the
// hardware concurrency, anything else passes through.
int ResolveThreads(int configured);

// Parses a --threads=auto|N flag value ("auto" -> 0). InvalidArgument on
// anything else that is not an integer in [0, kMaxPoolThreads].
Result<int> ParseThreadsFlag(const std::string& text);

// What a RunMorsels call did, for callers that report scheduler behaviour
// (the same numbers are also accumulated into the metrics registry).
struct MorselRunInfo {
  int workers = 1;
  std::uint64_t dispatched = 0;
  std::uint64_t steals = 0;
  std::uint64_t yields = 0;
  double busy_fraction = 1.0;
};

// Runs worker_fn(worker_index, scheduler) for every worker in
// [0, workers) over the TaskPool. Each worker_fn owns its private state
// (scratch buffers, accumulators, PMU group) and loops
// `while (scheduler.Next(worker, &b, &e)) ...` until the block space is
// drained. Blocks until all workers return.
//
// With a non-null `ctx`, the scheduler checks cancellation/deadline at
// every morsel claim and stops dispatch across all workers once the
// context reports a stop; the caller reads ctx->Check() after the join
// to learn why the scan ended early. A worker_fn that throws follows the
// TaskPool contract: the remaining workers drain (the scheduler is
// stopped so they drain fast) and the first exception rethrows here on
// the calling thread.
MorselRunInfo RunMorsels(
    std::size_t total_blocks, int workers,
    const std::function<void(int, MorselScheduler&)>& worker_fn,
    const QueryContext* ctx = nullptr);

// Serving-outcome accounting for a finished fallible Run. OK counts
// nothing; non-OK statuses bump exactly one of
//
//   exec.queries_cancelled          counter — Cancelled
//   exec.queries_deadline_exceeded  counter — DeadlineExceeded
//   exec.queries_failed             counter — every other error
//
// The engines' shared Run envelope (engine/query_shell.h) calls this, so
// callers (benches, servers) get outcome counts without instrumenting
// each call site.
void RecordQueryOutcome(const Status& status);

}  // namespace hef::exec

#endif  // HEF_EXEC_RUNTIME_H_
