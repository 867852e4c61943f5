// Reproduces Tables VIII / IX: CRC64 execution time and IPC for the purely
// scalar, purely AVX-512 and HEF-tuned hybrid implementations. CRC64 is
// the paper's gather-bound workload: its inner loop is a chain of
// table lookups (vpgatherqq, latency 26 / throughput 5), so this benchmark
// isolates the pack optimization. Host table measured; both paper
// testbeds evaluated through the port model.

#include <cstdio>

#include "algo/crc64.h"
#include "bench/bench_util.h"
#include "common/aligned_buffer.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/text_table.h"
#include "portmodel/port_model.h"
#include "telemetry/bench_report.h"
#include "tuner/kernel_table.h"
#include "tuner/tune_trace.h"

namespace hef {
namespace {

void PrintModelTable(const char* name, const ProcessorModel& model,
                     const HybridConfig& hybrid) {
  const PortModel pm(model);
  TextTable table;
  table.AddRow({"Model " + std::string(name), "Scalar", "AVX-512", "Hybrid"});
  std::vector<std::string> cycles_row = {"cycles/elem"};
  std::vector<std::string> time_row = {"pred. ns/elem"};
  std::vector<std::string> ipc_row = {"model IPC"};
  for (const HybridConfig& cfg :
       {HybridConfig::PureScalar(), HybridConfig::PureSimd(), hybrid}) {
    const auto r = pm.Simulate(
        KernelTrace::Build(Crc64Kernel::Ops(), cfg, Isa::kAvx512), 64);
    cycles_row.push_back(TextTable::Num(r.CyclesPerElement(), 2));
    time_row.push_back(TextTable::Num(r.NanosPerElement(), 2));
    ipc_row.push_back(TextTable::Num(r.Ipc(), 2));
  }
  table.AddRow(cycles_row);
  table.AddRow(time_row);
  table.AddRow(ipc_row);
  std::printf("%s\n", table.ToString().c_str());
}

int Main(int argc, char** argv) {
  FlagParser flags;
  // CRC64 is gather-bound (~5-7 ns/element), far from DRAM bandwidth, so
  // a larger default than the Murmur bench is safe; still configurable.
  flags.AddInt64("elements", 1 << 22,
                 "64-bit elements checksummed per measurement");
  flags.AddInt64("repetitions", 7, "measurement repetitions");
  flags.AddBool("tune", true, "find the hybrid optimum with the tuner");
  flags.AddString("hybrid", "v8s0p1",
                  "hybrid coordinates when --tune=false (paper optimum)");
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

  const auto n = static_cast<std::size_t>(flags.GetInt64("elements"));
  const int repetitions = static_cast<int>(flags.GetInt64("repetitions"));

  std::printf("== CRC64 synthetic benchmark (paper Tables VIII/IX) ==\n");
  std::printf("checksumming %zu 64-bit elements per run\n\n", n);

  telemetry::BenchReport report("crc64_tables");
  report.SetConfig("elements", static_cast<std::int64_t>(n));
  report.SetConfig("repetitions", repetitions);
  report.SetConfig("tuned", flags.GetBool("tune"));

  HybridConfig hybrid{8, 0, 1};
  if (flags.GetBool("tune")) {
    const TuneResult tuned = TuneKernel(FindKernel("crc64"));
    report.AddSection("tune_trace", TuneTraceToJson(tuned));
    hybrid = tuned.best;
    std::printf("tuned hybrid optimum on this host: %s "
                "(%d nodes tested)\n\n",
                hybrid.ToString().c_str(), tuned.nodes_tested);
  } else {
    hybrid = HybridConfig::Parse(flags.GetString("hybrid")).value();
  }

  AlignedBuffer<std::uint64_t> in(n, 256), out(n, 256);
  Rng rng(2);
  for (std::size_t i = 0; i < n; ++i) in[i] = rng.Next();

  PerfCounters counters;
  if (!counters.available()) {
    std::printf("note: %s\n\n", counters.error().c_str());
  }

  TextTable table;
  table.AddRow({"Attributes", "Scalar", "AVX-512", "Hybrid"});
  std::vector<std::string> time_row = {"Time (ms)"};
  std::vector<std::string> ns_row = {"ns/elem"};
  std::vector<std::string> ipc_row = {"IPC"};
  const std::pair<const char*, HybridConfig> variants[] = {
      {"scalar", HybridConfig::PureScalar()},
      {"simd", HybridConfig::PureSimd()},
      {"hybrid", hybrid}};
  for (const auto& [label, cfg] : variants) {
    const auto m = bench::MeasureBest(
        [&] { Crc64Array(cfg, in.data(), out.data(), n); }, repetitions,
        &counters);
    time_row.push_back(TextTable::Num(m.ms, 2));
    ns_row.push_back(TextTable::Num(m.ms * 1e6 / static_cast<double>(n), 2));
    ipc_row.push_back(bench::PerfNum(m.perf, m.perf.Ipc(), 2));
    auto& row = report.AddResult();
    row.Set("kernel", "crc64")
        .Set("variant", label)
        .Set("config", cfg.ToString())
        .Set("ms", m.ms)
        .Set("median_ms", m.median_ms)
        .Set("ns_per_elem", m.ms * 1e6 / static_cast<double>(n));
    if (m.perf.valid) {
      row.Set("instructions", m.perf.instructions)
          .Set("ipc", m.perf.Ipc())
          .Set("llc_misses", m.perf.llc_misses)
          .Set("pmu_scaled", m.perf.scaled);
    }
  }
  table.AddRow(time_row);
  table.AddRow(ns_row);
  table.AddRow(ipc_row);
  std::printf("Host (measured):\n%s\n", table.ToString().c_str());

  PrintModelTable("silver4110 (Table VIII shape)",
                  ProcessorModel::Silver4110(), hybrid);
  PrintModelTable("gold6240r (Table IX shape)", ProcessorModel::Gold6240R(),
                  hybrid);
  std::printf(
      "Paper shape: packing independent gather chains cuts time well below "
      "both pure flavours (2.8x vs scalar on the Silver testbed).\n");

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
