// Reproduces Tables III / IV / V: detailed runtime information for one SSB
// query — instruction count, LLC misses, IPC, average frequency and time —
// for the Scalar / SIMD / Voila / Hybrid implementations.
//
//   ssb_counters --query=3.3 --sf=1     # Table III analogue
//   ssb_counters --query=2.3 --sf=2     # Table IV analogue
//   ssb_counters --query=2.1 --sf=4     # Table V analogue
//
// On hosts without PMU access (most VMs) the counter rows print n/a and
// the wall-clock row remains (see DESIGN.md §5).

#include <cstdio>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "common/text_table.h"
#include "engine/engine.h"
#include "exec/runtime.h"
#include "ssb/database.h"
#include "telemetry/bench_report.h"
#include "tuner/kernel_table.h"
#include "tuner/query_tuner.h"
#include "voila/voila_engine.h"

namespace hef {
namespace {

int Main(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("query", "3.3", "SSB query (e.g. 2.1)");
  flags.AddDouble("sf", 1.0, "SSB scale factor");
  flags.AddInt64("repetitions", 3, "measurement repetitions");
  flags.AddBool("tune", true, "tune hybrid kernels first");
  flags.AddBool("csv", false, "emit CSV");
  flags.AddString("threads", "1",
                  "worker threads per engine: auto or a count. Defaults "
                  "to 1 because the PMU group follows the measuring "
                  "thread — per-core counters (the Tables' subject) are "
                  "only attributable single-threaded");
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

  const auto query_r = ParseQueryId(flags.GetString("query"));
  if (!query_r.ok()) {
    std::fprintf(stderr, "%s\n", query_r.status().ToString().c_str());
    return 1;
  }
  const QueryId query = query_r.value();
  const double sf = flags.GetDouble("sf");
  const int repetitions = static_cast<int>(flags.GetInt64("repetitions"));
  const auto threads = exec::ParseThreadsFlag(flags.GetString("threads"));
  if (!threads.ok()) {
    std::fprintf(stderr, "%s\n", threads.status().ToString().c_str());
    return 1;
  }

  std::printf("== SSB counter harness (paper Tables III-V) ==\n");
  std::printf("query %s at SF %.2f — generating data...\n",
              QueryName(query), sf);
  const ssb::SsbDatabase db = ssb::SsbDatabase::Generate(sf);

  EngineConfig hybrid_cfg;
  hybrid_cfg.flavor = Flavor::kHybrid;
  if (flags.GetBool("tune")) {
    // Tune on a predefined test query (§III-A), as in ssb_figures.
    QueryTuneOptions qopt;
    qopt.initial_probe = hybrid_cfg.probe_cfg;
    qopt.repetitions = 3;
    hybrid_cfg.probe_cfg =
        TuneQueriesProbe(db, {QueryId::kQ2_1, QueryId::kQ3_1,
                              QueryId::kQ4_1},
                         qopt)
            .probe;
    KernelTuneOptions gopt;
    gopt.repetitions = 7;
    gopt.elements = 1 << 18;
    hybrid_cfg.gather_cfg = TuneKernel(FindKernel("gather"), gopt).best;
    std::printf("hybrid kernels: probe %s, gather %s\n",
                hybrid_cfg.probe_cfg.ToString().c_str(),
                hybrid_cfg.gather_cfg.ToString().c_str());
  }

  EngineConfig scalar_cfg;
  scalar_cfg.flavor = Flavor::kScalar;
  EngineConfig simd_cfg;
  simd_cfg.flavor = Flavor::kSimd;
  // Table-exhibit timing: every repetition is a cold end-to-end run.
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
  if (!counters.available()) {
    std::printf("note: %s\n", counters.error().c_str());
  }

  const auto scalar = bench::MeasureBest(
      [&] { scalar_engine.Run(query); }, repetitions, &counters);
  const auto simd = bench::MeasureBest([&] { simd_engine.Run(query); },
                                       repetitions, &counters);
  const auto voila = bench::MeasureBest([&] { voila_engine.Run(query); },
                                        repetitions, &counters);
  const auto hybrid = bench::MeasureBest(
      [&] { hybrid_engine.Run(query); }, repetitions, &counters);

  TextTable table;
  table.AddRow({"Attributes", "Scalar", "SIMD", "Voila", "Hybrid"});
  table.AddRow({"Instructions (10^8)",
                bench::CountScaled(scalar.perf, scalar.perf.instructions, 1e8),
                bench::CountScaled(simd.perf, simd.perf.instructions, 1e8),
                bench::CountScaled(voila.perf, voila.perf.instructions, 1e8),
                bench::CountScaled(hybrid.perf, hybrid.perf.instructions,
                                   1e8)});
  table.AddRow({"LLC-misses (10^6)",
                bench::CountScaled(scalar.perf, scalar.perf.llc_misses, 1e6,
                                   2),
                bench::CountScaled(simd.perf, simd.perf.llc_misses, 1e6, 2),
                bench::CountScaled(voila.perf, voila.perf.llc_misses, 1e6,
                                   2),
                bench::CountScaled(hybrid.perf, hybrid.perf.llc_misses, 1e6,
                                   2)});
  table.AddRow({"IPC", bench::PerfNum(scalar.perf, scalar.perf.Ipc(), 2),
                bench::PerfNum(simd.perf, simd.perf.Ipc(), 2),
                bench::PerfNum(voila.perf, voila.perf.Ipc(), 2),
                bench::PerfNum(hybrid.perf, hybrid.perf.Ipc(), 2)});
  table.AddRow(
      {"Frequency (GHz)",
       bench::PerfNum(scalar.perf, scalar.perf.FrequencyGhz(), 2),
       bench::PerfNum(simd.perf, simd.perf.FrequencyGhz(), 2),
       bench::PerfNum(voila.perf, voila.perf.FrequencyGhz(), 2),
       bench::PerfNum(hybrid.perf, hybrid.perf.FrequencyGhz(), 2)});
  table.AddRow({"Time (ms)", TextTable::Num(scalar.ms, 0),
                TextTable::Num(simd.ms, 0), TextTable::Num(voila.ms, 0),
                TextTable::Num(hybrid.ms, 0)});

  std::printf("\n%s\n", flags.GetBool("csv") ? table.ToCsv().c_str()
                                             : table.ToString().c_str());

  const std::string json_path = flags.GetString("json");
  if (!json_path.empty()) {
    telemetry::BenchReport report("ssb_counters");
    report.SetConfig("query", QueryName(query));
    report.SetConfig("scale_factor", sf);
    report.SetConfig("repetitions", repetitions);
    report.SetConfig("tuned", flags.GetBool("tune"));
    report.SetConfig("threads",
                     static_cast<std::int64_t>(threads.value()));
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
            .Set("frequency_ghz", m->perf.FrequencyGhz())
            .Set("pmu_scaled", m->perf.scaled);
      }
    }
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
