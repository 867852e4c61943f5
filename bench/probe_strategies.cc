// Probe-strategy comparison across table footprints: scalar, purely SIMD,
// HEF hybrid, and IMV-style interleaved probes on hash tables sweeping
// from L1-resident to DRAM-resident. Positions HEF against the related
// work the paper discusses ([11] IMV): hybrid execution targets
// execution-unit parallelism, IMV targets memory latency — so hybrid
// should win when the table is cache-resident and interleaving should
// catch up (or win) as misses dominate.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/aligned_buffer.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/text_table.h"
#include "table/linear_hash_table.h"
#include "table/probe.h"
#include "table/probe_interleaved.h"
#include "tuner/kernel_table.h"

namespace hef {
namespace {

int Main(int argc, char** argv) {
  FlagParser flags;
  flags.AddInt64("probes", 1 << 21, "keys probed per measurement");
  flags.AddInt64("repetitions", 5, "measurement repetitions");
  flags.AddInt64("depth", 4, "IMV interleave depth");
  const Status st = flags.Parse(argc, argv);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  if (flags.HelpRequested()) {
    flags.PrintUsage(argv[0]);
    return 0;
  }
  const auto n = static_cast<std::size_t>(flags.GetInt64("probes"));
  const int repetitions = static_cast<int>(flags.GetInt64("repetitions"));
  const int depth = static_cast<int>(flags.GetInt64("depth"));

  std::printf("== probe strategies vs table footprint ==\n");
  std::printf("%zu probes per run, ~50%% hit rate, IMV depth %d\n\n", n,
              depth);

  PerfCounters counters;
  TextTable table;
  table.AddRow({"table keys", "slab (MiB)", "scalar (ns)", "simd (ns)",
                "hybrid (ns)", "hybrid cfg", "imv (ns)"});

  for (std::size_t table_keys : {std::size_t{1} << 10, std::size_t{1} << 14,
                                 std::size_t{1} << 17, std::size_t{1} << 20,
                                 std::size_t{1} << 22}) {
    LinearHashTable ht(table_keys);
    for (std::uint64_t k = 0; k < table_keys; ++k) ht.Insert(k * 2 + 1, k);

    AlignedBuffer<std::uint64_t> keys(n, 256), out(n, 256);
    Rng rng(61);
    for (std::size_t i = 0; i < n; ++i) {
      keys[i] = rng.Uniform(0, table_keys * 2);
    }

    // Tune the hybrid probe at this footprint (the paper's point: the
    // optimum shifts with the cache level the table lands in).
    KernelTuneOptions topt;
    topt.elements = std::min<std::size_t>(n, 1 << 18);
    topt.probe_table_keys = table_keys;
    topt.repetitions = 3;
    const HybridConfig hybrid =
        TuneKernel(FindKernel("probe"), topt).best;

    auto measure = [&](auto&& fn) {
      return bench::MeasureBest(fn, repetitions, &counters).ms * 1e6 /
             static_cast<double>(n);
    };
    const double scalar_ns = measure([&] {
      ProbeArray(HybridConfig::PureScalar(), ht, keys.data(), out.data(), n);
    });
    const double simd_ns = measure([&] {
      ProbeArray(HybridConfig::PureSimd(), ht, keys.data(), out.data(), n);
    });
    const double hybrid_ns = measure(
        [&] { ProbeArray(hybrid, ht, keys.data(), out.data(), n); });
    const double imv_ns = measure([&] {
      ProbeArrayInterleaved(ht, keys.data(), out.data(), n, depth);
    });

    const double slab_mib =
        static_cast<double>(ht.capacity()) * 2 * 8 / (1 << 20);
    table.AddRow({std::to_string(table_keys), TextTable::Num(slab_mib, 1),
                  TextTable::Num(scalar_ns, 2), TextTable::Num(simd_ns, 2),
                  TextTable::Num(hybrid_ns, 2), hybrid.ToString(),
                  TextTable::Num(imv_ns, 2)});
    std::printf(".");
    std::fflush(stdout);
  }
  std::printf("\n\n%s\n", table.ToString().c_str());
  return 0;
}

}  // namespace
}  // namespace hef

int main(int argc, char** argv) { return hef::Main(argc, argv); }
