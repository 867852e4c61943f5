// QueryContext — per-query cancellation and deadline plumbing.
//
// The serving path ("heavy traffic from millions of users", ROADMAP) needs
// queries that can be abandoned: a client disconnects, a latency budget
// expires, an operator drains a host. Both engines accept a QueryContext
// on their fallible Run overload, and the query's MorselCursor (morsel.h)
// checks it before handing out each block — one block of work
// (EngineConfig::block_size rows) is the cancellation granularity, so a
// stop request is honoured within a single block's execution time and
// partial accumulators are simply discarded.
//
// The check is designed for the per-block path: no token and no deadline
// cost one predictable branch each; an armed deadline adds one clock read
// per block (~4k rows), which is noise next to the block's kernel work.

#ifndef HEF_EXEC_QUERY_CONTEXT_H_
#define HEF_EXEC_QUERY_CONTEXT_H_

#include <atomic>
#include <cstdint>

#include "common/status.h"
#include "common/stopwatch.h"

namespace hef::exec {

// Priority classes for the serving path. Lower numeric value = more
// urgent. High-priority queries are admitted first (src/serve/admission.h)
// and *preempt* running lower-priority queries at morsel boundaries via
// PriorityGate below.
enum class Priority : int {
  kHigh = 0,
  kNormal = 1,
  kLow = 2,
};
inline constexpr int kPriorityClasses = 3;

const char* PriorityName(Priority priority);

// Parses "high" / "normal" / "low"; InvalidArgument otherwise.
Result<Priority> ParsePriority(const std::string& name);

// Shared between every query a server runs: per-class counts of queries
// currently executing. A running query consults the gate at morsel
// boundaries and yields its timeslice while any strictly-higher class is
// active — cooperative preemption with morsel granularity, no thread
// cancellation, no lock. Counts are maintained by the admission layer
// (Enter before Run, Leave after); the hot-path read is one relaxed load
// per higher class.
class PriorityGate {
 public:
  void Enter(Priority priority) {
    active_[static_cast<int>(priority)].fetch_add(1,
                                                  std::memory_order_relaxed);
  }
  void Leave(Priority priority) {
    active_[static_cast<int>(priority)].fetch_sub(1,
                                                  std::memory_order_relaxed);
  }
  // True while a query of a class strictly more urgent than `priority`
  // is executing.
  bool HigherActive(Priority priority) const {
    for (int c = 0; c < static_cast<int>(priority); ++c) {
      if (active_[c].load(std::memory_order_relaxed) > 0) return true;
    }
    return false;
  }
  int active(Priority priority) const {
    return active_[static_cast<int>(priority)].load(
        std::memory_order_relaxed);
  }

 private:
  std::atomic<int> active_[kPriorityClasses] = {};
};

// A cooperative cancel flag, shareable between the thread driving a query
// and any thread that wants to abandon it. Cancellation is level-
// triggered and sticky until Reset(): every QueryContext observing the
// token reports Cancelled from the moment Cancel() is called.
class CancellationToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  // Re-arms the token for the next query (serving loops reuse tokens).
  void Reset() { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

class QueryContext {
 public:
  QueryContext() = default;

  // A context whose deadline is `seconds` from now on the monotonic
  // timeline (<= 0 produces an already-expired deadline).
  static QueryContext WithDeadline(double seconds) {
    QueryContext ctx;
    ctx.set_deadline_nanos(
        seconds <= 0
            ? MonotonicNanos()
            : MonotonicNanos() + static_cast<std::uint64_t>(seconds * 1e9));
    return ctx;
  }

  // The token must outlive every Run using this context.
  void set_token(CancellationToken* token) { token_ = token; }
  CancellationToken* token() const { return token_; }

  // Absolute CLOCK_MONOTONIC_RAW deadline; 0 means "none".
  void set_deadline_nanos(std::uint64_t nanos) { deadline_nanos_ = nanos; }
  std::uint64_t deadline_nanos() const { return deadline_nanos_; }
  bool has_deadline() const { return deadline_nanos_ != 0; }

  // The hot-loop form: true once the query should stop (cancelled or past
  // deadline). Branch-only when neither a token nor a deadline is set.
  bool ShouldStop() const {
    if (token_ != nullptr && token_->cancelled()) return true;
    return deadline_nanos_ != 0 && MonotonicNanos() >= deadline_nanos_;
  }

  // OK, Cancelled, or DeadlineExceeded. Cancellation wins when both hold
  // (the caller asked first; the deadline merely passed meanwhile).
  Status Check() const;

  // Per-request trace id, carried into spans, the flight recorder, debug
  // endpoints and error Status messages. 0 means "not yet minted" — the
  // engines mint one (MintTraceId) on entry when the caller did not.
  void set_trace_id(std::uint64_t id) { trace_id_ = id; }
  std::uint64_t trace_id() const { return trace_id_; }

  // Priority class plus the server-wide gate this query yields through.
  // Without a gate (the default — benches, tests, direct Run calls) the
  // yield check is one null compare. The gate must outlive the run.
  void set_priority(Priority priority) { priority_ = priority; }
  Priority priority() const { return priority_; }
  void set_priority_gate(const PriorityGate* gate) { gate_ = gate; }
  const PriorityGate* priority_gate() const { return gate_; }

  // Hot-loop probe paired with YieldWhilePreempted(): true while a
  // strictly-higher-priority query is running under the attached gate.
  bool ShouldYield() const {
    return gate_ != nullptr && gate_->HigherActive(priority_);
  }

  // Parks this worker in short sleep slices until no higher-priority
  // query is active (or this query itself should stop — cancellation and
  // deadline stay honoured while yielding). Returns the number of slices
  // slept, which MorselCursor sums into exec.morsel_yields.
  std::uint64_t YieldWhilePreempted() const;

 private:
  CancellationToken* token_ = nullptr;
  std::uint64_t deadline_nanos_ = 0;
  std::uint64_t trace_id_ = 0;
  Priority priority_ = Priority::kNormal;
  const PriorityGate* gate_ = nullptr;
};

// Mints a process-unique, non-zero trace id: a counter mixed with a
// per-process salt so ids from concurrent processes (bench + serve on one
// host) do not collide in shared logs.
std::uint64_t MintTraceId();

}  // namespace hef::exec

#endif  // HEF_EXEC_QUERY_CONTEXT_H_
