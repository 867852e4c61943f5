// Reproduces the search-cost analysis (§II-C Eq. 1/2, §IV-A/IV-C): the
// size of the full (v, s, p) implementation space versus the nodes the
// pruning optimizer actually generates and tests, for each built-in
// operator, plus the candidate-generator seeds for each processor model.
//
// The paper's claim: the test-based approach with the two-stage initial
// candidate and pruning finds the optimum while testing a small fraction
// of the O(v*s*p) space.

#include <cstdio>
#include <vector>

#include "common/flags.h"
#include "common/text_table.h"
#include "telemetry/bench_report.h"
#include "tuner/candidate_generator.h"
#include "tuner/kernel_table.h"
#include "tuner/search_space.h"
#include "tuner/tune_trace.h"

namespace hef {
namespace {

int Main(int argc, char** argv) {
  FlagParser flags;
  flags.AddInt64("elements", 1 << 15, "elements per tuning measurement");
  flags.AddInt64("repetitions", 5, "repetitions per tuning measurement");
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
  if (flags.GetInt64("elements") < 1 || flags.GetInt64("repetitions") < 1) {
    std::fprintf(stderr, "--elements and --repetitions must be >= 1\n");
    return 1;
  }

  std::printf("== tuner search-cost harness (paper Eq. 1/2, Alg. 2) ==\n\n");

  // Every kernel with a standalone tuning workload.
  std::vector<const KernelEntry*> kernels;
  for (const KernelEntry& entry : KernelTable()) {
    if (entry.workload != nullptr) kernels.push_back(&entry);
  }

  // Candidate-generator seeds (the paper's two-stage model) per testbed.
  TextTable seeds;
  seeds.AddRow({"Operator", "silver4110 seed", "gold6240r seed"});
  for (const KernelEntry* k : kernels) {
    seeds.AddRow(
        {k->name,
         GenerateInitialCandidate(ProcessorModel::Silver4110(),
                                  {k->ops, Isa::kAvx512})
             .ToString(),
         GenerateInitialCandidate(ProcessorModel::Gold6240R(),
                                  {k->ops, Isa::kAvx512})
             .ToString()});
  }
  std::printf("Candidate-generator initial nodes (two-stage model):\n%s\n",
              seeds.ToString().c_str());

  // Pruning-search cost vs the full space, on the host.
  KernelTuneOptions topt;
  topt.elements = static_cast<std::size_t>(flags.GetInt64("elements"));
  topt.repetitions = static_cast<int>(flags.GetInt64("repetitions"));

  TextTable table;
  table.AddRow({"Operator", "grid size", "Eq.2 space", "nodes tested",
                "tested (%)", "optimum", "best (ms/1M elems)"});
  telemetry::BenchReport report("tuner_search");
  report.SetConfig("elements",
                   static_cast<std::int64_t>(topt.elements));
  report.SetConfig("repetitions", topt.repetitions);
  for (const KernelEntry* k : kernels) {
    const TuneResult result = TuneKernel(*k, topt);
    // Eq. 2 over the bounds the compiled grid spans.
    const HybridConfig bounds = GridBounds(k->grid);
    const std::uint64_t eq2 = SearchSpaceSize(bounds.v, bounds.s, bounds.p);
    const std::size_t grid = k->grid.size();
    const double pct =
        100.0 * result.nodes_tested / static_cast<double>(grid);
    const double ms_per_m =
        result.best_time * 1e3 / (static_cast<double>(topt.elements) / 1e6);
    table.AddRow({k->name, std::to_string(grid), std::to_string(eq2),
                  std::to_string(result.nodes_tested),
                  TextTable::Num(pct, 0) + "%", result.best.ToString(),
                  TextTable::Num(ms_per_m, 3)});
    report.AddResult()
        .Set("operator", k->name)
        .Set("grid_size", static_cast<std::uint64_t>(grid))
        .Set("eq2_space", eq2)
        .Set("nodes_tested", static_cast<std::int64_t>(result.nodes_tested))
        .Set("nodes_pruned", static_cast<std::int64_t>(result.nodes_pruned))
        .Set("tested_pct", pct)
        .Set("optimum", result.best.ToString())
        .Set("ms_per_million", ms_per_m);
    // The full winner/loser expansion tree of Algorithm 2, per operator.
    report.AddSection(k->name + "_tune_trace", TuneTraceToJson(result));
  }
  std::printf("Pruning search vs exhaustive (host measurements):\n%s\n",
              table.ToString().c_str());
  std::printf(
      "Paper shape: nodes tested is a small fraction of the space, and the "
      "optimum is a genuine hybrid/packed point for compute- and "
      "gather-bound operators.\n");

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
