// Query result representation shared by all engines (scalar / SIMD /
// hybrid / Voila / reference), so results can be compared bit-exactly in
// tests.

#ifndef HEF_ENGINE_RESULT_H_
#define HEF_ENGINE_RESULT_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "perf/perf_counters.h"

namespace hef {

// Per-operator execution statistics, collected when
// EngineConfig::collect_stats is set. One entry per pipeline stage in
// execution order: the dimension build, each range filter, each join
// probe (bloom pre-filter included), and the group-by accumulate.
struct OperatorStats {
  std::string name;               // e.g. "filter.discount", "probe.partkey"
  std::uint64_t wall_nanos = 0;   // summed across blocks and workers
  std::uint64_t invocations = 0;  // block-level activations
  std::uint64_t rows_in = 0;
  std::uint64_t rows_out = 0;
  // PMU deltas attributed to this operator (collect_pmu); valid == false
  // when the PMU is unavailable.
  PerfReading perf;
  // Chunked-scan pruning verdicts attributed to this operator (filters
  // and probes only; both zero when pruning is off): chunks whose zone
  // map / histogram survived this operator's predicate, and chunks this
  // operator pruned (first pruning cause wins, so the counts of
  // successive operators nest).
  std::uint64_t chunks_scanned = 0;
  std::uint64_t chunks_pruned = 0;

  // Fraction of input rows surviving this operator; 1 when no rows seen.
  double Selectivity() const {
    return rows_in == 0 ? 1.0
                        : static_cast<double>(rows_out) /
                              static_cast<double>(rows_in);
  }
};

// One output group: up to three group-by key attributes (unused slots are
// zero) and the aggregated value. Q1.x produce a single row with no keys.
struct GroupRow {
  std::array<std::uint64_t, 3> keys{};
  std::uint64_t value = 0;

  bool operator==(const GroupRow& o) const {
    return keys == o.keys && value == o.value;
  }
  bool operator<(const GroupRow& o) const { return keys < o.keys; }
};

struct QueryResult {
  // Rows sorted by keys (deterministic across engines).
  std::vector<GroupRow> rows;
  // Fact rows that survived all predicates/joins (for selectivity checks).
  std::uint64_t qualifying_rows = 0;
  // Per-operator breakdown; empty unless EngineConfig::collect_stats.
  std::vector<OperatorStats> operator_stats;

  // --- Diagnostics envelope (does not participate in operator==, which
  // compares rows only, so bit-exactness tests stay engine-agnostic) ---
  std::uint64_t trace_id = 0;     // minted in QueryContext; 0 = untraced
  std::uint64_t wall_nanos = 0;   // end-to-end run wall time
  std::uint64_t morsels = 0;      // live blocks run (pruned blocks excluded)
  bool plan_cache_hit = false;    // plan came from the engine's plan cache
  // Chunked-scan envelope (all zero when the engine scans flat columns):
  // fact chunks per column, chunks dispatched to the pipeline, and chunks
  // skipped by the zone-map pruning pass.
  std::uint64_t chunks_total = 0;
  std::uint64_t chunks_scanned = 0;
  std::uint64_t chunks_pruned = 0;

  std::uint64_t TotalValue() const {
    std::uint64_t total = 0;
    for (const GroupRow& r : rows) total += r.value;
    return total;
  }

  bool operator==(const QueryResult& o) const { return rows == o.rows; }

  // Debug rendering: one "k1 k2 k3 -> value" line per row.
  std::string ToString() const;

  // Aligned per-operator table (wall time, rows, selectivity, PMU columns
  // when valid); empty string when no stats were collected.
  std::string StatsToString() const;
};

// JSON array of operator rows: [{"name":..,"ms":..,"invocations":..,
// "rows_in":..,"rows_out":..,"selectivity":..}, ...] with
// instructions/ipc/llc_misses/pmu_scaled added when the PMU reading is
// valid. Shared by `tools/hef query --json` and the bench reports.
std::string OperatorStatsToJson(const std::vector<OperatorStats>& stats);

}  // namespace hef

#endif  // HEF_ENGINE_RESULT_H_
