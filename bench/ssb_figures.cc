// Reproduces Figures 8 / 9 / 10: SSB query execution times for the four
// implementations — purely scalar, purely SIMD, Voila, and HEF hybrid —
// at a chosen scale factor. The paper runs SF10 / SF20 / SF50 on two Xeon
// testbeds; this harness runs SF1 / SF2 / SF4 by default on the host (see
// DESIGN.md §5 for the substitution rationale) — pass --sf to change.
//
//   ssb_figures --sf=1              # Figure 8 analogue (small scale)
//   ssb_figures --sf=2              # Figure 9 analogue (medium scale)
//   ssb_figures --sf=4              # Figure 10 analogue (large scale)

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "common/text_table.h"
#include "engine/engine.h"
#include "engine/reference.h"
#include "exec/runtime.h"
#include "ssb/database.h"
#include "telemetry/bench_report.h"
#include "tuner/kernel_table.h"
#include "tuner/query_tuner.h"
#include "tuner/tune_trace.h"
#include "voila/voila_engine.h"

namespace hef {
namespace {

int Main(int argc, char** argv) {
  FlagParser flags;
  flags.AddDouble("sf", 1.0, "SSB scale factor");
  flags.AddInt64("repetitions", 3, "measurement repetitions per query");
  flags.AddBool("tune", true,
                "tune the hybrid kernel coordinates before measuring");
  flags.AddBool("csv", false, "emit CSV instead of an aligned table");
  flags.AddBool("all-queries", false,
                "include Q1.x (the paper's figures exclude them)");
  flags.AddBool("verify", true,
                "cross-check all engines against the reference executor");
  flags.AddString("threads", "auto",
                  "worker threads per engine: auto (one per hardware "
                  "thread) or a count; the paper's per-core exhibits use 1");
  flags.AddString("json", "",
                  "write a hef-bench-v1 JSON report to this path");
  const Status st = flags.Parse(argc, argv);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  if (flags.HelpRequested()) {
    flags.PrintUsage(argv[0]);
    return 0;
  }

  const double sf = flags.GetDouble("sf");
  const int repetitions = static_cast<int>(flags.GetInt64("repetitions"));
  const auto threads = exec::ParseThreadsFlag(flags.GetString("threads"));
  if (!threads.ok()) {
    std::fprintf(stderr, "%s\n", threads.status().ToString().c_str());
    return 1;
  }

  telemetry::BenchReport report("ssb_figures");
  report.SetConfig("scale_factor", sf);
  report.SetConfig("repetitions", repetitions);
  report.SetConfig("tuned", flags.GetBool("tune"));
  report.SetConfig("threads", static_cast<std::int64_t>(threads.value()));

  std::printf("== SSB figure harness (paper Figs. 8-10) ==\n");
  std::printf("scale factor %.2f — generating data...\n", sf);
  const ssb::SsbDatabase db = ssb::SsbDatabase::Generate(sf);
  std::printf("database resident size: %.1f MiB, %zu lineorder rows\n",
              static_cast<double>(db.TotalBytes()) / (1 << 20),
              db.lineorder.n);

  EngineConfig hybrid_cfg;
  hybrid_cfg.flavor = Flavor::kHybrid;
  if (flags.GetBool("tune")) {
    std::printf("tuning hybrid kernels (offline phase)...\n");
    // The paper's optimizer runs "predefined test queries" (§III-A), not
    // synthetic proxies: tune the probe coordinate on a representative
    // multi-join query end to end, and the gather on its standalone
    // workload (gathers are uniform across queries).
    QueryTuneOptions qopt;
    qopt.initial_probe = hybrid_cfg.probe_cfg;
    qopt.repetitions = 3;
    const QueryTuneResult probe = TuneQueriesProbe(
        db, {QueryId::kQ2_1, QueryId::kQ3_1, QueryId::kQ4_1}, qopt);
    report.AddSection("probe_tune_trace", TuneTraceToJson(probe.search));
    KernelTuneOptions gopt;
    gopt.repetitions = 7;
    gopt.elements = 1 << 18;
    const TuneResult gather = TuneKernel(FindKernel("gather"), gopt);
    hybrid_cfg.probe_cfg = probe.probe;
    hybrid_cfg.gather_cfg = gather.best;
    std::printf("  probe kernel:  %s (%d nodes, test queries "
                "Q2.1/Q3.1/Q4.1)\n",
                probe.probe.ToString().c_str(), probe.nodes_tested);
    std::printf("  gather kernel: %s (%d nodes tested)\n",
                gather.best.ToString().c_str(), gather.nodes_tested);
  } else {
    std::printf("using default hybrid coordinates %s\n",
                hybrid_cfg.probe_cfg.ToString().c_str());
  }

  EngineConfig scalar_cfg;
  scalar_cfg.flavor = Flavor::kScalar;
  EngineConfig simd_cfg;
  simd_cfg.flavor = Flavor::kSimd;

  // Paper-exhibit timing: every repetition is a cold end-to-end run
  // (join build + pipeline), so plan caching stays off here.
  VoilaConfig voila_cfg;
  voila_cfg.threads = threads.value();
  voila_cfg.plan_cache = false;
  for (EngineConfig* cfg : {&scalar_cfg, &simd_cfg, &hybrid_cfg}) {
    cfg->threads = threads.value();
    cfg->plan_cache = false;
  }

  SsbEngine scalar_engine(db, scalar_cfg);
  SsbEngine simd_engine(db, simd_cfg);
  SsbEngine hybrid_engine(db, hybrid_cfg);
  VoilaEngine voila_engine(db, voila_cfg);

  PerfCounters counters;
  TextTable table;
  table.AddRow({"Query", "Scalar (ms)", "SIMD (ms)", "Voila (ms)",
                "HEF (ms)", "HEF/Scalar", "HEF/SIMD", "HEF/Voila"});

  const auto& queries =
      flags.GetBool("all-queries") ? AllQueries() : PaperFigureQueries();
  for (const QueryId query : queries) {
    if (flags.GetBool("verify")) {
      const QueryResult want = RunReferenceQuery(db, query);
      HEF_CHECK_MSG(scalar_engine.Run(query) == want, "scalar mismatch");
      HEF_CHECK_MSG(simd_engine.Run(query) == want, "simd mismatch");
      HEF_CHECK_MSG(hybrid_engine.Run(query) == want, "hybrid mismatch");
      HEF_CHECK_MSG(voila_engine.Run(query) == want, "voila mismatch");
    }
    const auto scalar = bench::MeasureBest(
        [&] { scalar_engine.Run(query); }, repetitions, &counters);
    const auto simd = bench::MeasureBest(
        [&] { simd_engine.Run(query); }, repetitions, &counters);
    const auto voila = bench::MeasureBest(
        [&] { voila_engine.Run(query); }, repetitions, &counters);
    const auto hybrid = bench::MeasureBest(
        [&] { hybrid_engine.Run(query); }, repetitions, &counters);
    const std::pair<const char*, const bench::Measurement*> measured[] = {
        {"scalar", &scalar},
        {"simd", &simd},
        {"voila", &voila},
        {"hybrid", &hybrid}};
    for (const auto& [engine, m] : measured) {
      auto& row = report.AddResult();
      row.Set("query", QueryName(query))
          .Set("engine", engine)
          .Set("ms", m->ms)
          .Set("median_ms", m->median_ms);
      if (m->perf.valid) {
        row.Set("instructions", m->perf.instructions)
            .Set("ipc", m->perf.Ipc())
            .Set("llc_misses", m->perf.llc_misses)
            .Set("pmu_scaled", m->perf.scaled);
      }
    }
    table.AddRow({QueryName(query), TextTable::Num(scalar.ms, 1),
                  TextTable::Num(simd.ms, 1), TextTable::Num(voila.ms, 1),
                  TextTable::Num(hybrid.ms, 1),
                  TextTable::Num(scalar.ms / hybrid.ms, 2) + "x",
                  TextTable::Num(simd.ms / hybrid.ms, 2) + "x",
                  TextTable::Num(voila.ms / hybrid.ms, 2) + "x"});
    std::printf(".");
    std::fflush(stdout);
  }
  std::printf("\n\n%s\n", flags.GetBool("csv") ? table.ToCsv().c_str()
                                               : table.ToString().c_str());
  std::printf(
      "Paper shape (Figs. 8-10): HEF <= both pure flavours everywhere; "
      "HEF beats Voila at low selectivity (Q2.1, Q3.1, Q4.1/4.2), Voila "
      "competitive at very high selectivity (Q2.3, Q3.3, Q3.4).\n");

  const std::string json_path = flags.GetString("json");
  if (!json_path.empty()) {
    report.IncludeMetrics();
    const Status ws = report.WriteFile(json_path);
    if (!ws.ok()) {
      std::fprintf(stderr, "%s\n", ws.ToString().c_str());
      return 1;
    }
    std::printf("wrote JSON report to %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace hef

int main(int argc, char** argv) { return hef::Main(argc, argv); }
