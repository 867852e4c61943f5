#include "tuner/query_tuner.h"

#include <algorithm>
#include <limits>

#include "analysis/register_pressure.h"
#include "common/stopwatch.h"
#include "procinfo/cpu_features.h"
#include "engine/engine.h"
#include "tuner/kernel_table.h"

namespace hef {

QueryTuneResult TuneQueriesProbe(const ssb::SsbDatabase& db,
                                 const std::vector<QueryId>& queries,
                                 const QueryTuneOptions& options) {
  HEF_CHECK_MSG(!queries.empty(), "no test queries given");
  const KernelEntry& probe = FindKernel("probe");
  auto supported = [&grid = probe.grid](const HybridConfig& cfg) {
    return std::find(grid.begin(), grid.end(), cfg) != grid.end();
  };

  HybridConfig initial = options.initial_probe;
  if (!supported(initial)) {
    initial = HybridConfig{1, 1, 1};
  }

  auto measure = [&](const HybridConfig& cfg) {
    EngineConfig config;
    config.flavor = Flavor::kHybrid;
    config.points.probe = cfg;
    config.points.gather = options.gather;
    config.block_size = options.block_size;
    // The tuner characterizes per-core kernel behaviour: one worker, and
    // plan reuse on so repeated Runs time the probe pipeline, not the
    // join build.
    config.threads = 1;
    config.plan_cache = true;
    SsbEngine engine(db, config);
    double total = 0;
    for (const QueryId id : queries) {
      engine.Run(id);  // warm-up (pages, caches, branch predictors)
      double best = std::numeric_limits<double>::max();
      for (int r = 0; r < options.repetitions; ++r) {
        Stopwatch sw;
        engine.Run(id);
        best = std::min(best, sw.ElapsedSeconds());
      }
      total += best;
    }
    return total;
  };

  TuneOptions tune;
  tune.is_supported = supported;
  tune.trials = options.trials;
  tune.watchdog_seconds = options.watchdog_seconds;
  if (options.static_pressure_check) {
    tune.static_check = analysis::MakePressureCheck(
        probe.pressure->live_values, probe.pressure->constants,
        CpuFeatures::Get().BestIsa());
  }
  TuneResult r = Tune(initial, measure, tune);

  QueryTuneResult out;
  out.probe = r.best;
  out.best_seconds = r.best_time;
  out.nodes_tested = r.nodes_tested;
  out.search = std::move(r);
  return out;
}

QueryTuneResult TuneQueryProbe(const ssb::SsbDatabase& db, QueryId id,
                               const QueryTuneOptions& options) {
  return TuneQueriesProbe(db, {id}, options);
}

}  // namespace hef
