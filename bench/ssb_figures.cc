// The SSB exhibit harness: the paper's Figs. 8-10 (per-query time of the
// scalar, SIMD, Voila and HEF hybrid engines), Tables III-V (counters) and
// §VII (tuned points per query) from one interleaved measurement, at
// SF1/2/4 in place of the paper's SF10/20/50 (DESIGN.md §5).
//
//   ssb_figures --sf=1,2,4 --threads=1 --points=default,global,query
//
// A cell is one (sf, query, engine, point). Each cell runs once untimed
// (checked against the reference executor under --verify), then once per
// round. Each round visits every cell, starting at a query and an engine
// that rotate round by round, so drift on a shared host lands on every
// cell alike. A cell reports its median and quartiles over the rounds.
// Rounds run one scale factor at a time: one database is resident.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "common/text_table.h"
#include "engine/engine.h"
#include "engine/reference.h"
#include "exec/runtime.h"
#include "procinfo/cpu_features.h"
#include "ssb/database.h"
#include "telemetry/bench_report.h"
#include "tuner/kernel_table.h"
#include "tuner/query_tuner.h"
#include "tuner/tune_trace.h"
#include "voila/voila_engine.h"

namespace hef {
namespace {

// The hybrid rows' tuned points: the EngineConfig default (v1s1p3, the
// paper's SSB optimum); the offline phase's global point; and the global
// point with the probe re-tuned on each query (§VII).
const std::vector<std::string> kPoints = {"default", "global", "query"};

// One (sf, query, engine, point) cell: how to run it, its samples and
// their summary, which is the cell's report row.
struct Cell {
  double sf = 0;
  QueryId query{};
  std::string engine;  // scalar, simd, voila or hybrid
  std::string point;   // hybrid: one of kPoints; "none" otherwise
  std::string config;  // the kernel points the engine runs
  std::function<QueryResult()> run;
  std::vector<double> ms{};  // one per round
  std::vector<PerfReading> perf{};
  double median = 0, q1 = 0, q3 = 0;
  PerfReading counters{};  // those of the round at the (upper) median
};

// The global point: the paper's offline phase runs "predefined test
// queries" (§III-A), not synthetic proxies. The probe is tuned end to end
// on representative multi-join queries, the gather on its standalone
// workload (gathers are uniform across queries).
EngineConfig TuneGlobal(const ssb::SsbDatabase& db, EngineConfig cfg,
                        double sf, telemetry::BenchReport* report) {
  std::printf("tuning hybrid kernels (offline phase)...\n");
  QueryTuneOptions qopt;
  qopt.initial_probe = cfg.points.probe;
  qopt.repetitions = 3;
  const QueryTuneResult probe = TuneQueriesProbe(
      db, {QueryId::kQ2_1, QueryId::kQ3_1, QueryId::kQ4_1}, qopt);
  report->AddSection("probe_tune_trace_sf" + TextTable::Num(sf, 2),
                     TuneTraceToJson(probe.search));
  KernelTuneOptions gopt;
  gopt.repetitions = 7;
  gopt.elements = 1 << 18;
  const TuneResult gather = TuneKernel(FindKernel("gather"), gopt);
  cfg.points.probe = probe.probe;
  cfg.points.gather = gather.best;
  std::printf("  probe kernel:  %s (%d nodes, test queries "
              "Q2.1/Q3.1/Q4.1)\n  gather kernel: %s (%d nodes tested)\n",
              probe.probe.ToString().c_str(), probe.nodes_tested,
              gather.best.ToString().c_str(), gather.nodes_tested);
  return cfg;
}

// Runs every cell once untimed (checking it under `verify`), then
// `rounds` interleaved rounds. `cells` is query-major with `engines`
// cells per query. False on a result mismatch.
bool MeasureCells(const ssb::SsbDatabase& db, bool verify,
                  std::size_t rounds, std::size_t engines,
                  PerfCounters* counters, std::vector<Cell>* cells) {
  QueryResult want;
  for (std::size_t c = 0; c < cells->size(); ++c) {
    const Cell& cell = (*cells)[c];
    if (verify && c % engines == 0) want = RunReferenceQuery(db, cell.query);
    const QueryResult got = cell.run();
    if (verify && !(got == want)) {
      std::fprintf(stderr, "verification failed: %s %s (%s) at SF %g\n",
                   QueryName(cell.query), cell.engine.c_str(),
                   cell.point.c_str(), cell.sf);
      return false;
    }
  }
  const std::size_t queries = cells->size() / engines;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t qi = 0; qi < queries; ++qi) {
      for (std::size_t ei = 0; ei < engines; ++ei) {
        Cell& cell =
            (*cells)[(qi + r) % queries * engines + (ei + r) % engines];
        counters->Start();
        Stopwatch sw;
        cell.run();
        cell.ms.push_back(sw.ElapsedMillis());
        cell.perf.push_back(counters->Stop());
      }
    }
    std::printf(".");
    std::fflush(stdout);
  }
  for (Cell& cell : *cells) {
    std::vector<double> sorted = cell.ms;
    std::sort(sorted.begin(), sorted.end());
    cell.median = bench::Quantile(sorted, 0.5);
    cell.q1 = bench::Quantile(sorted, 0.25);
    cell.q3 = bench::Quantile(sorted, 0.75);
    const auto mid = std::find(cell.ms.begin(), cell.ms.end(),
                               sorted[sorted.size() / 2]);
    cell.counters = cell.perf[mid - cell.ms.begin()];
    cell.run = nullptr;  // its engines end with the scale factor
  }
  return true;
}

// Figs. 8-10 for one scale factor's query-major `cells`: each median with
// its interquartile range as a share of it. HEF in the ratio columns is
// the first point.
std::string FigureTable(const std::vector<Cell>& cells,
                        const std::vector<std::string>& points) {
  const std::size_t engines = 3 + points.size();
  std::vector<std::string> header = {"Query", "Scalar (ms)", "SIMD (ms)",
                                     "Voila (ms)"};
  for (const std::string& point : points) {
    header.push_back("HEF " + point + " (ms)");
  }
  header.insert(header.end(), {"HEF/Scalar", "HEF/SIMD", "HEF/Voila"});
  TextTable table;
  table.AddRow(header);
  for (std::size_t c = 0; c < cells.size(); c += engines) {
    const Cell* row = &cells[c];
    std::vector<std::string> text = {QueryName(row->query)};
    for (std::size_t e = 0; e < engines; ++e) {
      text.push_back(TextTable::Num(row[e].median, 1) + " (" +
                     TextTable::Num(100 * (row[e].q3 - row[e].q1) /
                                        row[e].median, 0) +
                     "%)");
    }
    for (std::size_t e = 0; e < 3; ++e) {
      text.push_back(TextTable::Num(row[e].median / row[3].median, 2) + "x");
    }
    table.AddRow(text);
  }
  return table.ToString();
}

// One scale factor's row of the scale trend (Figs. 8 -> 9 -> 10): the
// geomean speedups of the first hybrid point over each flavour, and on how
// many queries it is at or below both pure flavours.
std::vector<std::string> TrendRow(const std::vector<Cell>& cells,
                                  std::size_t engines) {
  double log_ratio[3] = {0, 0, 0};
  int wins = 0;
  for (std::size_t c = 0; c < cells.size(); c += engines) {
    const Cell* row = &cells[c];
    for (int e = 0; e < 3; ++e) {
      log_ratio[e] += std::log(row[e].median / row[3].median);
    }
    wins += row[3].median <= std::min(row[0].median, row[1].median);
  }
  const std::size_t queries = cells.size() / engines;
  std::vector<std::string> text = {TextTable::Num(cells[0].sf, 2)};
  for (const double l : log_ratio) {
    text.push_back(TextTable::Num(std::exp(l / queries), 2) + "x");
  }
  text.push_back(std::to_string(wins) + " of " + std::to_string(queries));
  return text;
}

// Tables III-V for one query: each engine's counters at its median round.
std::string CounterTable(const Cell* row, std::size_t engines) {
  std::vector<std::string> text[] = {
      {"Attributes"}, {"Instructions (10^8)"}, {"LLC-misses (10^6)"},
      {"IPC"},        {"Frequency (GHz)"},     {"Time (ms)"}};
  for (std::size_t e = 0; e < engines; ++e) {
    const PerfReading& p = row[e].counters;
    text[0].push_back(row[e].engine == "hybrid" ? "HEF " + row[e].point
                                                : row[e].engine);
    text[1].push_back(bench::PerfNum(p, p.instructions / 1e8, 1));
    text[2].push_back(bench::PerfNum(p, p.llc_misses / 1e6, 2));
    text[3].push_back(bench::PerfNum(p, p.Ipc(), 2));
    text[4].push_back(bench::PerfNum(p, p.FrequencyGhz(), 2));
    text[5].push_back(TextTable::Num(row[e].median, 1));
  }
  TextTable table;
  for (const std::vector<std::string>& line : text) table.AddRow(line);
  return table.ToString();
}

void ReportRow(const Cell& cell, telemetry::BenchReport* report) {
  auto& row = report->AddResult();
  row.Set("query", QueryName(cell.query))
      .Set("engine", cell.engine)
      .Set("ms", cell.median)
      .Set("sf", cell.sf)
      .Set("point", cell.point)
      .Set("config", cell.config)
      .Set("q1_ms", cell.q1)
      .Set("q3_ms", cell.q3)
      .Set("rounds", static_cast<std::int64_t>(cell.ms.size()));
  if (cell.counters.valid) {
    row.Set("instructions", cell.counters.instructions)
        .Set("ipc", cell.counters.Ipc())
        .Set("llc_misses", cell.counters.llc_misses)
        .Set("frequency_ghz", cell.counters.FrequencyGhz())
        .Set("pmu_scaled", cell.counters.scaled);
  }
}

int Main(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("sf", "1", "comma list of SSB scale factors");
  flags.AddString("queries", "figures",
                  "figures (the paper's ten, Q2.1-Q4.3), all, or a comma "
                  "list such as 2.1,4.3");
  flags.AddString("points", "global",
                  "comma list of hybrid tuned points: default (v1s1p3), "
                  "global (offline phase), query (probe tuned per query)");
  flags.AddInt64("repetitions", 5, "interleaved measurement rounds");
  flags.AddBool("verify", true,
                "cross-check every cell against the reference executor");
  flags.AddString("threads", "auto",
                  "worker threads per engine: auto or a count (the paper's "
                  "per-core exhibits use 1)");
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

  std::vector<double> sfs;
  std::vector<QueryId> queries;
  std::vector<std::string> points;
  const auto parse_sf = [](const std::string& item, double* out) {
    char* end = nullptr;
    *out = std::strtod(item.c_str(), &end);
    return !item.empty() && *end == '\0' && *out > 0 && std::isfinite(*out);
  };
  const auto parse_point = [](const std::string& item, std::string* out) {
    *out = item;
    return std::count(kPoints.begin(), kPoints.end(), item) != 0;
  };
  const std::string query_list = flags.GetString("queries");
  if (!bench::ParseQueries(query_list, &queries) ||
      !bench::ParseList("sf",
                        "a comma list of distinct positive finite scale "
                        "factors",
                        flags.GetString("sf"), parse_sf, &sfs) ||
      !bench::ParseList("points",
                        "a comma list of distinct points from default, "
                        "global, query",
                        flags.GetString("points"), parse_point, &points)) {
    return 1;
  }
  const std::int64_t rounds = flags.GetInt64("repetitions");
  if (rounds < 1 || rounds > 1000) {
    std::fprintf(stderr, "--repetitions must be in [1, 1000], got %lld\n",
                 static_cast<long long>(rounds));
    return 1;
  }
  const auto threads = exec::ParseThreadsFlag(flags.GetString("threads"));
  if (!threads.ok()) {
    std::fprintf(stderr, "%s\n", threads.status().ToString().c_str());
    return 1;
  }

  telemetry::BenchReport report("ssb_figures");
  report.SetConfig("scale_factors", flags.GetString("sf"));
  report.SetConfig("queries", query_list);
  report.SetConfig("points", flags.GetString("points"));
  report.SetConfig("rounds", rounds);
  report.SetConfig("threads", static_cast<std::int64_t>(threads.value()));
  report.SetConfig("verify", flags.GetBool("verify"));
  report.SetConfig("host", CpuFeatures::Get().brand);

  std::printf("== SSB exhibit harness (Figs. 8-10, Tables III-V, §VII) ==\n");
  const std::size_t engines = 3 + points.size();
  PerfCounters counters;
  std::vector<Cell> rows;
  TextTable trend;
  trend.AddRow({"SF", "HEF/Scalar", "HEF/SIMD", "HEF/Voila",
                "HEF <= min(Scalar, SIMD)"});
  for (const double sf : sfs) {
    std::printf("\nscale factor %.2f — generating data...\n", sf);
    const ssb::SsbDatabase db = ssb::SsbDatabase::Generate(sf);

    // Exhibit timing: every run is cold end to end (join build +
    // pipeline), so plan caching stays off.
    const auto config = [&](Flavor flavor) {
      EngineConfig cfg;
      cfg.flavor = flavor;
      cfg.threads = threads.value();
      cfg.plan_cache = false;
      return cfg;
    };
    const EngineConfig global_cfg =
        points == std::vector<std::string>{"default"}
            ? config(Flavor::kHybrid)
            : TuneGlobal(db, config(Flavor::kHybrid), sf, &report);
    VoilaConfig voila_cfg;
    voila_cfg.threads = threads.value();
    voila_cfg.plan_cache = false;
    SsbEngine scalar(db, config(Flavor::kScalar));
    SsbEngine simd(db, config(Flavor::kSimd));
    VoilaEngine voila(db, voila_cfg);
    std::vector<std::unique_ptr<SsbEngine>> hybrids;

    std::vector<Cell> cells;
    for (const QueryId query : queries) {
      const auto add = [&](const char* engine, const std::string& point,
                           SsbEngine* e) {
        const EngineConfig& cfg = e->config();
        cells.push_back({sf, query, engine, point,
                         "probe " +
                             cfg.PointFor(EngineKernel::kProbe).ToString() +
                             " gather " +
                             cfg.PointFor(EngineKernel::kGather).ToString(),
                         [e, query] { return e->Run(query); }});
      };
      add("scalar", "none", &scalar);
      add("simd", "none", &simd);
      cells.push_back({sf, query, "voila", "none", "none",
                       [&voila, query] { return voila.Run(query); }});
      for (const std::string& point : points) {
        EngineConfig cfg =
            point == "default" ? config(Flavor::kHybrid) : global_cfg;
        if (point == "query") {
          QueryTuneOptions qopt;
          qopt.initial_probe = global_cfg.points.probe;
          qopt.gather = global_cfg.points.gather;
          qopt.repetitions = 3;
          const QueryTuneResult tuned = TuneQueryProbe(db, query, qopt);
          cfg.points.probe = tuned.probe;
          std::printf("  %s query point: probe %s (%d nodes)\n",
                      QueryName(query), tuned.probe.ToString().c_str(),
                      tuned.nodes_tested);
        }
        hybrids.push_back(std::make_unique<SsbEngine>(db, cfg));
        add("hybrid", point, hybrids.back().get());
      }
    }
    std::printf("measuring %zu cells over %lld rounds", cells.size(),
                static_cast<long long>(rounds));
    if (!MeasureCells(db, flags.GetBool("verify"),
                      static_cast<std::size_t>(rounds), engines, &counters,
                      &cells)) {
      return 1;
    }
    std::printf("\n\nSF %.2f, median over %lld rounds, ms (interquartile "
                "range as a share of the median):\n%s\n",
                sf, static_cast<long long>(rounds),
                FigureTable(cells, points).c_str());
    trend.AddRow(TrendRow(cells, engines));
    rows.insert(rows.end(), cells.begin(), cells.end());
  }
  std::printf(
      "Paper shape (Figs. 8-10): HEF <= both pure flavours everywhere; "
      "HEF beats Voila at low selectivity (Q2.1, Q3.1, Q4.1/4.2), Voila "
      "competitive at very high selectivity (Q2.3, Q3.3, Q3.4).\n");
  if (sfs.size() > 1) {
    std::printf("\nScale trend (HEF = %s point, geomean over queries):\n%s\n",
                points[0].c_str(), trend.ToString().c_str());
  }
  if (rows.front().counters.valid) {
    for (std::size_t c = 0; c < rows.size(); c += engines) {
      std::printf("\nTables III-V, %s at SF %.2f (median counters):\n%s\n",
                  QueryName(rows[c].query), rows[c].sf,
                  CounterTable(&rows[c], engines).c_str());
    }
  } else {
    std::printf("\nTables III-V counters: n/a (%s)\n",
                counters.error().c_str());
  }
  for (const Cell& cell : rows) ReportRow(cell, &report);

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
