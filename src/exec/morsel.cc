#include "exec/morsel.h"

#include "common/macros.h"
#include "exec/fault_injection.h"

namespace hef::exec {

bool MorselCursor::Next(std::size_t* block) {
  // One relaxed load when nothing is attached. With a context, the first
  // thread to observe a stop trips the shared flag for every thread.
  if (HEF_UNLIKELY(stopped_.load(std::memory_order_relaxed))) return false;
  if (ctx_ != nullptr) {
    if (HEF_UNLIKELY(ctx_->ShouldYield())) {
      yields_.fetch_add(ctx_->YieldWhilePreempted(),
                        std::memory_order_relaxed);
    }
    if (HEF_UNLIKELY(ctx_->ShouldStop())) {
      Stop();
      return false;
    }
  }
  const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
  if (i >= count_) return false;
  if (fault_site_ != nullptr) HEF_FAULT_POINT(fault_site_);
  *block = live_ != nullptr ? live_[i] : i;
  return true;
}

}  // namespace hef::exec
