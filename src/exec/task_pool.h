// TaskPool — the process-wide persistent worker pool the execution runtime
// schedules on.
//
// Pre-PR engines spawned fresh std::threads for every query, which is fine
// for one-shot paper exhibits but dominates latency once the same process
// serves thousands of repeated queries. The pool is created lazily on the
// first parallel run, keeps its threads parked on a condition variable
// between queries, and grows monotonically to the largest worker count any
// run has asked for (capped at kMaxPoolThreads). Thread spawn cost is paid
// once per process instead of once per query.
//
// The pool itself hands out whole per-worker run loops; fine-grained load
// balancing happens one level down, in MorselCursor (see morsel.h), where
// every worker claims its next block from one shared cursor.
//
// Exception safety: a serving pool must outlive any single bad query. A
// task body that throws (std::bad_alloc, an injected fault, a bug in an
// engine worker loop) is caught where it runs; the first exception of a
// Run is captured, the remaining workers of that Run complete normally,
// and the exception is rethrown on the *calling* thread at the join
// point — never on a pool thread, so the pool's threads survive every
// Run. Callers on fallible paths convert the rethrown exception to
// hef::Status. Each capture counts into the exec.task_exceptions metric.

#ifndef HEF_EXEC_TASK_POOL_H_
#define HEF_EXEC_TASK_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace hef::exec {

// Upper bound on pool threads (matches EngineConfig's thread-count range).
inline constexpr int kMaxPoolThreads = 256;

class TaskPool {
 public:
  // The process-wide pool. Constructed on first use; joined at exit.
  static TaskPool& Get();

  // std::thread::hardware_concurrency() with a floor of 1 (the value an
  // EngineConfig::threads of 0, "auto", resolves to).
  static int HardwareThreads();

  // Runs body(0) .. body(workers - 1) and returns when all have finished.
  // The calling thread participates as worker 0, so `workers == 1` runs
  // entirely inline and a run can never deadlock waiting for pool
  // capacity. Nested Run calls from inside a body are not supported (the
  // engine run loops never nest).
  //
  // If any body throws, every other body still runs to completion and the
  // first captured exception is rethrown here, on the calling thread,
  // after the join. The pool itself is unaffected and immediately
  // serviceable for the next Run.
  void Run(int workers, const std::function<void(int)>& body);

  // Pool threads spawned so far (excludes callers). For the
  // exec.pool_threads gauge and tests.
  int spawned_threads() const HEF_EXCLUDES(mu_);

  // Joins the pool threads. Reads threads_ after releasing mu_ — safe
  // because nothing may race a destructor, but outside the checker's
  // model.
  ~TaskPool() HEF_NO_THREAD_SAFETY_ANALYSIS;

 private:
  TaskPool() = default;

  void EnsureThreads(int wanted) HEF_EXCLUDES(mu_);
  // Relocks around each task body (unique_lock unlock/lock), a pattern
  // the analysis cannot follow.
  void WorkerLoop() HEF_NO_THREAD_SAFETY_ANALYSIS;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_ HEF_GUARDED_BY(mu_);
  std::vector<std::thread> threads_ HEF_GUARDED_BY(mu_);
  bool shutdown_ HEF_GUARDED_BY(mu_) = false;
};

}  // namespace hef::exec

#endif  // HEF_EXEC_TASK_POOL_H_
