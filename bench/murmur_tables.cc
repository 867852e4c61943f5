// Reproduces Tables VI / VII and the murmur columns of the synthetic
// evaluation (§V-C): MurmurHash execution time and IPC for the purely
// scalar, purely SIMD, and HEF-tuned hybrid implementations.
//
// The paper reports both Xeon testbeds; the host table is measured, and
// the two processor models are additionally evaluated through the
// issue-port simulator (cycles/element and predicted time) so both
// microarchitectures' shapes are reproduced on a single machine.

#include <cstdio>

#include "algo/murmur.h"
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
  table.AddRow({"Model " + std::string(name), "Scalar", "SIMD", "Hybrid"});
  std::vector<HybridConfig> configs = {HybridConfig::PureScalar(),
                                       HybridConfig::PureSimd(), hybrid};
  std::vector<std::string> cycles_row = {"cycles/elem"};
  std::vector<std::string> time_row = {"pred. ns/elem"};
  std::vector<std::string> ipc_row = {"model IPC"};
  for (const HybridConfig& cfg : configs) {
    const auto r = pm.Simulate(
        KernelTrace::Build(MurmurKernel::Ops(), cfg, Isa::kAvx512), 64);
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
  // Cache-resident by default: the paper's 10^9-element stream is
  // compute-bound on a server memory system, but saturates a single VM
  // core's DRAM bandwidth, which would mask the execution-unit effect
  // being measured. Pass a larger --elements to see the streaming regime.
  flags.AddInt64("elements", 1 << 19,
                 "64-bit elements hashed per measurement");
  flags.AddInt64("repetitions", 20, "measurement repetitions");
  flags.AddBool("tune", true, "find the hybrid optimum with the tuner");
  flags.AddString("hybrid", "v1s3p2",
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

  std::printf("== MurmurHash synthetic benchmark (paper Tables VI/VII) ==\n");
  std::printf("hashing %zu 64-bit elements per run\n\n", n);

  telemetry::BenchReport report("murmur_tables");
  report.SetConfig("elements", static_cast<std::int64_t>(n));
  report.SetConfig("repetitions", repetitions);
  report.SetConfig("tuned", flags.GetBool("tune"));

  HybridConfig hybrid{1, 3, 2};
  if (flags.GetBool("tune")) {
    const TuneResult tuned = TuneKernel(FindKernel("murmur"));
    report.AddSection("tune_trace", TuneTraceToJson(tuned));
    hybrid = tuned.best;
    std::printf("tuned hybrid optimum on this host: %s "
                "(%d nodes tested)\n\n",
                hybrid.ToString().c_str(), tuned.nodes_tested);
  } else {
    hybrid = HybridConfig::Parse(flags.GetString("hybrid")).value();
  }

  AlignedBuffer<std::uint64_t> in(n, 256), out(n, 256);
  Rng rng(1);
  for (std::size_t i = 0; i < n; ++i) in[i] = rng.Next();

  PerfCounters counters;
  if (!counters.available()) {
    std::printf("note: %s\n\n", counters.error().c_str());
  }

  TextTable table;
  table.AddRow({"Attributes", "Scalar", "SIMD", "Hybrid"});
  std::vector<std::string> time_row = {"Time (ms)"};
  std::vector<std::string> ns_row = {"ns/elem"};
  std::vector<std::string> ipc_row = {"IPC"};
  const std::pair<const char*, HybridConfig> variants[] = {
      {"scalar", HybridConfig::PureScalar()},
      {"simd", HybridConfig::PureSimd()},
      {"hybrid", hybrid}};
  for (const auto& [label, cfg] : variants) {
    const auto m = bench::MeasureBest(
        [&] { MurmurHashArray(cfg, in.data(), out.data(), n); },
        repetitions, &counters);
    time_row.push_back(TextTable::Num(m.ms, 2));
    ns_row.push_back(TextTable::Num(m.ms * 1e6 / static_cast<double>(n), 2));
    ipc_row.push_back(bench::PerfNum(m.perf, m.perf.Ipc(), 2));
    auto& row = report.AddResult();
    row.Set("kernel", "murmur")
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

  PrintModelTable("silver4110 (Table VI shape)",
                  ProcessorModel::Silver4110(), hybrid);
  PrintModelTable("gold6240r (Table VII shape)", ProcessorModel::Gold6240R(),
                  hybrid);
  std::printf(
      "Paper shape: hybrid < min(scalar, SIMD); scalar IPC > hybrid IPC > "
      "SIMD IPC.\n");

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
