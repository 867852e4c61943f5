// Ablation of the Voila comparator's design knobs: vector size, software
// prefetching, and prefetch-group size (the FSM decoupling). The paper
// attributes Voila's behaviour to exactly these traits — prefetching buys
// the low LLC-miss counts (Tables III-V), and the vectorized interpreter's
// materialization costs the extra instructions at low selectivity — so
// this harness checks those attributions hold in the reproduction.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "common/text_table.h"
#include "exec/runtime.h"
#include "ssb/database.h"
#include "voila/voila_engine.h"

namespace hef {
namespace {

int Main(int argc, char** argv) {
  FlagParser flags;
  flags.AddDouble("sf", 1.0, "SSB scale factor");
  flags.AddString("query", "2.1", "SSB query");
  flags.AddInt64("repetitions", 3, "measurement repetitions");
  flags.AddString("threads", "1",
                  "worker threads: auto or a count. Defaults to 1 because "
                  "the LLC-miss columns attribute to the measuring thread "
                  "only");
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
  const int repetitions = static_cast<int>(flags.GetInt64("repetitions"));
  const auto threads = exec::ParseThreadsFlag(flags.GetString("threads"));
  if (!threads.ok()) {
    std::fprintf(stderr, "%s\n", threads.status().ToString().c_str());
    return 1;
  }

  std::printf("== Voila design-knob ablation ==\n");
  const double sf = flags.GetDouble("sf");
  std::printf("query %s at SF %.2f — generating data...\n\n",
              QueryName(query), sf);
  const ssb::SsbDatabase db = ssb::SsbDatabase::Generate(sf);

  PerfCounters counters;

  // Vector-size sweep (the paper runs vector(1024)).
  {
    TextTable table;
    table.AddRow({"vector size", "time (ms)", "LLC misses (10^6)"});
    for (int vec : {64, 256, 1024, 4096, 16384}) {
      VoilaConfig config;
      config.vector_size = vec;
      config.threads = threads.value();
      config.plan_cache = false;  // cold end-to-end runs
      VoilaEngine engine(db, config);
      const auto m = bench::MeasureBest([&] { engine.Run(query); },
                                        repetitions, &counters);
      table.AddRow({std::to_string(vec), TextTable::Num(m.ms, 1),
                    bench::PerfNum(m.perf, m.perf.llc_misses / 1e6, 2)});
    }
    std::printf("vector-size sweep:\n%s\n", table.ToString().c_str());
  }

  // Prefetch on/off and group-size sweep.
  {
    TextTable table;
    table.AddRow({"prefetch", "group", "time (ms)", "LLC misses (10^6)"});
    VoilaConfig off;
    off.prefetch = false;
    off.threads = threads.value();
    off.plan_cache = false;
    VoilaEngine engine_off(db, off);
    const auto m_off = bench::MeasureBest([&] { engine_off.Run(query); },
                                          repetitions, &counters);
    table.AddRow({"off", "-", TextTable::Num(m_off.ms, 1),
                  bench::PerfNum(m_off.perf, m_off.perf.llc_misses / 1e6,
                                 2)});
    for (int group : {4, 16, 64}) {
      VoilaConfig config;
      config.prefetch_group = group;
      config.threads = threads.value();
      config.plan_cache = false;
      VoilaEngine engine(db, config);
      const auto m = bench::MeasureBest([&] { engine.Run(query); },
                                        repetitions, &counters);
      table.AddRow({"on", std::to_string(group), TextTable::Num(m.ms, 1),
                    bench::PerfNum(m.perf, m.perf.llc_misses / 1e6, 2)});
    }
    std::printf("prefetch sweep:\n%s\n", table.ToString().c_str());
  }
  std::printf(
      "Expected shape: prefetching pays once dimension tables outgrow the "
      "LLC (raise --sf to see the crossover); tiny vectors lose to "
      "interpretation overhead, huge vectors to cache spill.\n");
  return 0;
}

}  // namespace
}  // namespace hef

int main(int argc, char** argv) { return hef::Main(argc, argv); }
