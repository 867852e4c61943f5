// Execution-runtime glue: thread-count resolution and serving-outcome
// accounting. Block dispatch itself is engine/query_shell.h's
// DispatchBlocks over one exec::MorselCursor (morsel.h) per query.

#ifndef HEF_EXEC_RUNTIME_H_
#define HEF_EXEC_RUNTIME_H_

#include <string>

#include "common/status.h"
#include "exec/query_context.h"
#include "exec/task_pool.h"

namespace hef::exec {

// Resolves an EngineConfig-style thread count: 0 ("auto") becomes the
// hardware concurrency, anything else passes through.
int ResolveThreads(int configured);

// Parses a --threads=auto|N flag value ("auto" -> 0). InvalidArgument on
// anything else that is not an integer in [0, kMaxPoolThreads].
Result<int> ParseThreadsFlag(const std::string& text);

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
