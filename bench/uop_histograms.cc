// Reproduces Figures 11 / 12 / 13 / 14: the fraction of cycles in which at
// least N micro-operations executed, for the scalar / SIMD / hybrid
// implementations of MurmurHash (Figs. 11/12) and CRC64 (Figs. 13/14) on
// the Silver-4110 and Gold-6240R processor models.
//
// The paper collects these from PMU µop-threshold events; VM hosts rarely
// expose them, so this harness replays the kernels' micro-op streams
// through the issue-port simulator (src/portmodel), which reproduces the
// mechanism the figures illustrate (see DESIGN.md §5).
//
//   uop_histograms --kernel=murmur --model=silver4110   # Fig. 11
//   uop_histograms --kernel=murmur --model=gold6240r    # Fig. 12
//   uop_histograms --kernel=crc64  --model=silver4110   # Fig. 13
//   uop_histograms --kernel=crc64  --model=gold6240r    # Fig. 14

#include <cstdio>

#include "algo/crc64.h"
#include "algo/murmur.h"
#include "common/aligned_buffer.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/text_table.h"
#include "perf/uops_counters.h"
#include "portmodel/port_model.h"

namespace hef {
namespace {

int RunOne(const std::string& kernel, const std::string& model_name,
           const std::string& hybrid_text);

int Main(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("kernel", "all", "murmur | crc64 | all");
  flags.AddString("model", "all", "silver4110 | gold6240r | host | all");
  flags.AddString("hybrid", "",
                  "hybrid coordinates (defaults: murmur v1s3p2, crc64 "
                  "v8s0p1 — the paper's optima)");
  const Status st = flags.Parse(argc, argv);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  if (flags.HelpRequested()) {
    flags.PrintUsage(argv[0]);
    return 0;
  }

  const std::vector<std::string> kernels =
      flags.GetString("kernel") == "all"
          ? std::vector<std::string>{"murmur", "crc64"}
          : std::vector<std::string>{flags.GetString("kernel")};
  const std::vector<std::string> models =
      flags.GetString("model") == "all"
          ? std::vector<std::string>{"silver4110", "gold6240r"}
          : std::vector<std::string>{flags.GetString("model")};
  int rc = 0;
  for (const std::string& k : kernels) {
    for (const std::string& m : models) {
      rc |= RunOne(k, m, flags.GetString("hybrid"));
    }
  }
  return rc;
}

int RunOne(const std::string& kernel, const std::string& model_name,
           const std::string& hybrid_text) {
  std::vector<OpClass> ops;
  HybridConfig hybrid;
  if (kernel == "murmur") {
    ops = MurmurKernel::Ops();
    hybrid = {1, 3, 2};
  } else if (kernel == "crc64") {
    ops = Crc64Kernel::Ops();
    hybrid = {8, 0, 1};
  } else {
    std::fprintf(stderr, "unknown kernel '%s'\n", kernel.c_str());
    return 1;
  }
  if (!hybrid_text.empty()) {
    auto parsed = HybridConfig::Parse(hybrid_text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 1;
    }
    hybrid = parsed.value();
  }

  const auto model_r = ProcessorModel::ByName(model_name);
  if (!model_r.ok()) {
    std::fprintf(stderr, "%s\n", model_r.status().ToString().c_str());
    return 1;
  }
  const ProcessorModel model = model_r.value();
  const PortModel pm(model);

  std::printf("== micro-op parallelism histogram (paper Figs. 11-14) ==\n");
  std::printf("kernel %s on model %s; hybrid point %s\n\n", kernel.c_str(),
              model.name.c_str(), hybrid.ToString().c_str());
  std::printf("port topology:\n%s\n", pm.DescribePorts().c_str());

  TextTable table;
  table.AddRow({"Implementation", "GE1 (%)", "GE2 (%)", "GE3 (%)",
                "GE4 (%)", "uops/cycle", "cycles/elem"});
  struct Row {
    const char* name;
    HybridConfig cfg;
  };
  for (const Row& row : {Row{"Scalar", HybridConfig::PureScalar()},
                         Row{"SIMD", HybridConfig::PureSimd()},
                         Row{"Hybrid", hybrid}}) {
    const auto r =
        pm.Simulate(KernelTrace::Build(ops, row.cfg, Isa::kAvx512), 64);
    table.AddRow({row.name, TextTable::Num(r.FractionGe(1) * 100, 1),
                  TextTable::Num(r.FractionGe(2) * 100, 1),
                  TextTable::Num(r.FractionGe(3) * 100, 1),
                  TextTable::Num(r.FractionGe(4) * 100, 1),
                  TextTable::Num(r.UopsPerCycle(), 2),
                  TextTable::Num(r.CyclesPerElement(), 2)});
  }
  std::printf("%s\n", table.ToString().c_str());

  // When the PMU exposes raw UOPS_EXECUTED threshold events (bare-metal
  // Intel), also print measured histograms for the host.
  UopsCounters counters;
  if (counters.available() && model.name == "host") {
    const std::size_t n = 1 << 20;
    AlignedBuffer<std::uint64_t> in(n, 512), out(n, 512);
    Rng rng(77);
    for (std::size_t i = 0; i < n; ++i) in[i] = rng.Next();
    auto run = [&](const HybridConfig& cfg) {
      if (kernel == "murmur") {
        MurmurHashArray(cfg, in.data(), out.data(), n);
      } else {
        Crc64Array(cfg, in.data(), out.data(), n);
      }
    };
    TextTable measured;
    measured.AddRow({"Measured (PMU)", "GE1 (%)", "GE2 (%)", "GE3 (%)",
                     "GE4 (%)"});
    for (const Row& row : {Row{"Scalar", HybridConfig::PureScalar()},
                           Row{"SIMD", HybridConfig::PureSimd()},
                           Row{"Hybrid", hybrid}}) {
      run(row.cfg);  // warm-up
      counters.Start();
      run(row.cfg);
      const UopsReading r = counters.Stop();
      measured.AddRow({row.name, TextTable::Num(r.FractionGe(1) * 100, 1),
                       TextTable::Num(r.FractionGe(2) * 100, 1),
                       TextTable::Num(r.FractionGe(3) * 100, 1),
                       TextTable::Num(r.FractionGe(4) * 100, 1)});
    }
    std::printf("%s\n", measured.ToString().c_str());
  } else if (model.name == "host") {
    std::printf("(raw uops PMU events unavailable: %s)\n\n",
                counters.error().c_str());
  }

  std::printf(
      "Paper shape: the hybrid implementation executes >= 2 and >= 3 uops "
      "per cycle in a larger fraction of cycles than the purely SIMD "
      "implementation.\n");
  return 0;
}

}  // namespace
}  // namespace hef

int main(int argc, char** argv) { return hef::Main(argc, argv); }
