#include "exec/query_context.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

namespace hef::exec {

Result<Priority> ParsePriority(const std::string& name) {
  if (name == "high") return Priority::kHigh;
  if (name == "normal" || name.empty()) return Priority::kNormal;
  if (name == "low") return Priority::kLow;
  return Status::InvalidArgument("unknown priority '" + name +
                                 "' (want high|normal|low)");
}

std::uint64_t QueryContext::YieldWhilePreempted() const {
  // 200 µs slices: coarse enough that a yielding worker costs ~nothing,
  // fine enough that a preempted query resumes within a morsel's work of
  // the high-priority query finishing. Cancellation and deadline break
  // the park so a shed decision is never delayed by yielding.
  std::uint64_t slices = 0;
  while (ShouldYield() && !ShouldStop()) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    ++slices;
  }
  return slices;
}

std::uint64_t MintTraceId() {
  // Salt derived once from pid and startup time; the low counter bits keep
  // ids unique within the process, the salt keeps two processes started in
  // the same second distinguishable.
  static const std::uint64_t salt = [] {
    std::uint64_t s = MonotonicNanos() ^
                      (static_cast<std::uint64_t>(getpid()) << 32);
    // SplitMix64 finalizer: spread the salt across all bits.
    s += 0x9e3779b97f4a7c15ULL;
    s = (s ^ (s >> 30)) * 0xbf58476d1ce4e5b9ULL;
    s = (s ^ (s >> 27)) * 0x94d049bb133111ebULL;
    return s ^ (s >> 31);
  }();
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t id =
      salt ^ (counter.fetch_add(1, std::memory_order_relaxed) + 1);
  return id == 0 ? 1 : id;  // 0 is reserved for "untraced"
}

Status QueryContext::Check() const {
  if (token_ != nullptr && token_->cancelled()) {
    return Status::Cancelled("query cancelled");
  }
  if (deadline_nanos_ != 0) {
    const std::uint64_t now = MonotonicNanos();
    if (now >= deadline_nanos_) {
      return Status::DeadlineExceeded(
          "query deadline exceeded by " +
          std::to_string((now - deadline_nanos_) / 1000000) + " ms");
    }
  }
  return Status::OK();
}

}  // namespace hef::exec
