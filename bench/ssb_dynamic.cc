// Ablation: static (globally tuned) versus dynamic per-query operator
// selection — the paper's §VII future-work extension, implemented in
// src/tuner/query_tuner. For each SSB query this harness compares
//
//   default   the EngineConfig default hybrid point (paper's SSB optimum),
//   global    one probe coordinate tuned on a standalone probe workload
//             (the paper's method),
//   dynamic   a probe coordinate tuned on the query itself.
//
// The paper predicts dynamic >= global ("it may not be the optimal
// implementation for the whole query").

#include <cstdio>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "common/text_table.h"
#include "engine/engine.h"
#include "exec/runtime.h"
#include "ssb/database.h"
#include "tuner/kernel_table.h"
#include "tuner/query_tuner.h"

namespace hef {
namespace {

int Main(int argc, char** argv) {
  FlagParser flags;
  flags.AddDouble("sf", 0.5, "SSB scale factor");
  flags.AddInt64("repetitions", 3, "measurement repetitions per query");
  flags.AddString("threads", "auto",
                  "worker threads per engine: auto (one per hardware "
                  "thread) or a count; the paper's per-core exhibits use 1");
  const Status st = flags.Parse(argc, argv);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  if (flags.HelpRequested()) {
    flags.PrintUsage(argv[0]);
    return 0;
  }
  const int repetitions = static_cast<int>(flags.GetInt64("repetitions"));
  const auto threads = exec::ParseThreadsFlag(flags.GetString("threads"));
  if (!threads.ok()) {
    std::fprintf(stderr, "%s\n", threads.status().ToString().c_str());
    return 1;
  }

  std::printf("== static vs dynamic operator selection (paper §VII) ==\n");
  const double sf = flags.GetDouble("sf");
  std::printf("scale factor %.2f — generating data...\n", sf);
  const ssb::SsbDatabase db = ssb::SsbDatabase::Generate(sf);

  // Global tuning (the paper's offline phase on a proxy workload).
  KernelTuneOptions topt;
  topt.repetitions = 5;
  topt.elements = 1 << 18;
  topt.probe_table_keys = db.part.n;
  topt.probe_hit_rate = 0.3;
  const HybridConfig global_probe =
      TuneKernel(FindKernel("probe"), topt).best;
  std::printf("globally tuned probe: %s\n\n",
              global_probe.ToString().c_str());

  PerfCounters counters;
  TextTable table;
  table.AddRow({"Query", "default (ms)", "global (ms)", "dynamic (ms)",
                "dynamic cfg", "nodes", "dyn/global"});

  for (const QueryId query : PaperFigureQueries()) {
    // Paper-exhibit timing: every repetition is a cold end-to-end run.
    EngineConfig default_cfg;
    default_cfg.flavor = Flavor::kHybrid;
    default_cfg.threads = threads.value();
    default_cfg.plan_cache = false;
    SsbEngine default_engine(db, default_cfg);

    EngineConfig global_cfg = default_cfg;
    global_cfg.probe_cfg = global_probe;
    SsbEngine global_engine(db, global_cfg);

    QueryTuneOptions qopt;
    qopt.initial_probe = global_probe;
    qopt.repetitions = repetitions;
    const QueryTuneResult dynamic = TuneQueryProbe(db, query, qopt);
    EngineConfig dynamic_cfg = default_cfg;
    dynamic_cfg.probe_cfg = dynamic.probe;
    SsbEngine dynamic_engine(db, dynamic_cfg);

    const auto d = bench::MeasureBest(
        [&] { default_engine.Run(query); }, repetitions, &counters);
    const auto g = bench::MeasureBest(
        [&] { global_engine.Run(query); }, repetitions, &counters);
    const auto y = bench::MeasureBest(
        [&] { dynamic_engine.Run(query); }, repetitions, &counters);

    table.AddRow({QueryName(query), TextTable::Num(d.ms, 1),
                  TextTable::Num(g.ms, 1), TextTable::Num(y.ms, 1),
                  dynamic.probe.ToString(),
                  std::to_string(dynamic.nodes_tested),
                  TextTable::Num(g.ms / y.ms, 2) + "x"});
    std::printf(".");
    std::fflush(stdout);
  }
  std::printf("\n\n%s\n", table.ToString().c_str());
  std::printf(
      "Expected shape: dynamic <= global on queries whose selectivity or "
      "table footprint differs from the proxy tuning workload.\n");
  return 0;
}

}  // namespace
}  // namespace hef

int main(int argc, char** argv) { return hef::Main(argc, argv); }
