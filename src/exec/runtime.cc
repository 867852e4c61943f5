#include "exec/runtime.h"

#include <cstdlib>
#include <vector>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "telemetry/metrics.h"

namespace hef::exec {

int ResolveThreads(int configured) {
  HEF_CHECK_MSG(configured >= 0 && configured <= kMaxPoolThreads,
                "thread count %d out of range", configured);
  return configured == 0 ? TaskPool::HardwareThreads() : configured;
}

Result<int> ParseThreadsFlag(const std::string& text) {
  if (text == "auto" || text.empty()) return 0;
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || value < 0 ||
      value > kMaxPoolThreads) {
    return Status::InvalidArgument("--threads must be auto or 0.." +
                                   std::to_string(kMaxPoolThreads) +
                                   ", got '" + text + "'");
  }
  return static_cast<int>(value);
}

void RecordQueryOutcome(const Status& status) {
  if (status.ok()) return;
  auto& registry = telemetry::MetricsRegistry::Get();
  switch (status.code()) {
    case StatusCode::kCancelled:
      registry.counter("exec.queries_cancelled").Increment();
      break;
    case StatusCode::kDeadlineExceeded:
      registry.counter("exec.queries_deadline_exceeded").Increment();
      break;
    default:
      registry.counter("exec.queries_failed").Increment();
      break;
  }
}

}  // namespace hef::exec
