// MorselCursor — the one place a query's blocks are handed out.
//
// A static contiguous split of the fact table per worker pins a skewed
// query on its slowest worker while the others idle — the static-split
// utilization gap the Xeon Phi MapReduce study (PAPERS.md) measures. Here
// the unit of dispatch is one pipeline block (EngineConfig::block_size or
// VoilaConfig::vector_size rows), and every executing thread claims the
// next one from a single shared atomic index: a worker stuck on an
// expensive block simply claims fewer blocks while the others drain the
// rest. The blocks are the query's *live* blocks only — chunk pruning
// (engine/scan.h) decides before dispatch which blocks run, so a pruned
// block is never claimed.
//
// Next() is also the query's only morsel boundary. Before handing out a
// block it parks while a higher-priority query runs and stops once the
// QueryContext reports cancellation or an expired deadline; every block it
// hands out passes the engine's `<engine>.morsel` fault site. The block
// already in flight finishes: one block is the cancellation and preemption
// granularity.
//
// Every block is claimed exactly once. Claimants only pick which private
// accumulator a block lands in, and group sums commute, so results do not
// depend on the claim order.

#ifndef HEF_EXEC_MORSEL_H_
#define HEF_EXEC_MORSEL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "exec/query_context.h"

namespace hef::exec {

class MorselCursor {
 public:
  // Hands out live_blocks[0, count) in order, or the blocks [0, count)
  // themselves when `live_blocks` is null. With a non-null `ctx`, Next()
  // yields and stops on it; with a non-null `fault_site`, every block it
  // hands out passes that fault point. All three must outlive the cursor.
  explicit MorselCursor(std::size_t count,
                        const std::uint32_t* live_blocks = nullptr,
                        const QueryContext* ctx = nullptr,
                        const char* fault_site = nullptr)
      : count_(count),
        live_(live_blocks),
        ctx_(ctx),
        fault_site_(fault_site) {}

  MorselCursor(const MorselCursor&) = delete;
  MorselCursor& operator=(const MorselCursor&) = delete;

  // Claims the next block into *block. Returns false once every block is
  // claimed, after Stop(), or once the context reports a stop.
  bool Next(std::size_t* block);

  // Makes every subsequent Next() return false on every thread — the
  // cooperative bail-out for cancellation, deadlines, and failed workers.
  void Stop() { stopped_.store(true, std::memory_order_relaxed); }

  // Blocks handed out so far.
  std::uint64_t dispatched() const {
    return std::min<std::uint64_t>(next_.load(std::memory_order_relaxed),
                                   count_);
  }
  // Sleep slices spent parked behind higher-priority queries (see
  // QueryContext::YieldWhilePreempted).
  std::uint64_t yields() const {
    return yields_.load(std::memory_order_relaxed);
  }

 private:
  // Lock-free: the shared members are atomics; the pointers are set at
  // construction and read-only during the run.
  const std::size_t count_;
  const std::uint32_t* const live_;
  const QueryContext* const ctx_;
  const char* const fault_site_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> yields_{0};
  std::atomic<bool> stopped_{false};
};

}  // namespace hef::exec

#endif  // HEF_EXEC_MORSEL_H_
