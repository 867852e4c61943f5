// Serving-throughput harness: replays an SSB query mix round-robin for a
// fixed wall-clock duration and reports queries/sec plus latency
// percentiles — the workload the execution runtime (persistent TaskPool,
// shared-cursor morsel dispatch, plan cache) exists for.
//
//   ssb_throughput --sf=1 --duration=10                  # warm plan cache
//   ssb_throughput --sf=1 --duration=10 --cold_plans     # rebuild per run
//   ssb_throughput --flavor=voila --threads=4 --json=out.json
//   ssb_throughput --deadline_ms=5 --max_retries=2       # serving limits
//   ssb_throughput --encoding=auto --pruning             # chunked storage
//   ssb_throughput --encoding=auto --drop_flat           # compressed RSS
//
// --cold_plans invalidates the plan cache before every query, reproducing
// the pre-runtime behaviour (every Run rebuilds dimension hash tables and
// Bloom filters); the warm/cold qps ratio is the plan cache's payoff.
// Scheduler counters (exec.morsels_dispatched, exec.morsel_yields, ...)
// land in the --json report's metrics dump.
//
// The replay loop exercises the serving contract: every query runs
// through the fallible Run overload under an optional per-query deadline
// (--deadline_ms), deadline-exceeded / cancelled / failed outcomes are
// counted per query and in total, and retryable failures (Internal,
// IoError — not deadline or cancellation) are retried up to --max_retries
// times with jittered exponential backoff. --flavor=auto picks the best
// flavour the host admits.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/macros.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/text_table.h"
#include "engine/engine.h"
#include "engine/reference.h"
#include "exec/fault_injection.h"
#include "exec/runtime.h"
#include "perf/drift_monitor.h"
#include "perf/pmu_sampler.h"
#include "ssb/chunked_fact.h"
#include "ssb/database.h"
#include "telemetry/bench_report.h"
#include "telemetry/diagnostics.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "telemetry/metrics_http.h"
#include "telemetry/profiler.h"
#include "telemetry/span.h"
#include "voila/voila_engine.h"

namespace hef {
namespace {

std::vector<QueryId> ParseMix(const std::string& text) {
  if (text == "all") return AllQueries();
  if (text == "figures") return PaperFigureQueries();
  std::vector<QueryId> mix;
  std::string item;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i < text.size() && text[i] != ',') {
      item += text[i];
      continue;
    }
    const auto id = ParseQueryId(item);
    HEF_CHECK_MSG(id.ok(), "bad query '%s' in --queries", item.c_str());
    mix.push_back(id.value());
    item.clear();
  }
  return mix;
}

// Latencies are recorded into log-linear histograms in microseconds
// (integer ticks fine enough that the <=6.25% bucket width dominates the
// error) and read back as milliseconds.
double HistQuantileMs(const telemetry::Histogram& hist, double q) {
  return hist.Quantile(q) * 1e-3;
}

double HistMeanMs(const telemetry::Histogram& hist) {
  return hist.Mean() * 1e-3;
}

// --fault_stall=point:stall_ms[:after_hit] — armed when measurement
// starts so warmup and the sealed drift baseline stay clean, then every
// pass through the point from `after_hit` on sleeps `stall_ms`. The
// drift-smoke CI job injects its mid-run slowdown this way.
struct StallFault {
  std::string point;
  int stall_ms = 0;
  int after_hit = 1;
};

bool ParseStallFault(const std::string& text, StallFault* out) {
  const std::size_t c1 = text.find(':');
  if (c1 == std::string::npos || c1 == 0) return false;
  const std::size_t c2 = text.find(':', c1 + 1);
  out->point = text.substr(0, c1);
  const std::string ms = c2 == std::string::npos
                             ? text.substr(c1 + 1)
                             : text.substr(c1 + 1, c2 - c1 - 1);
  char* end = nullptr;
  out->stall_ms = static_cast<int>(std::strtol(ms.c_str(), &end, 10));
  if (end == nullptr || *end != '\0' || out->stall_ms <= 0) return false;
  if (c2 != std::string::npos) {
    const std::string hit = text.substr(c2 + 1);
    out->after_hit =
        static_cast<int>(std::strtol(hit.c_str(), &end, 10));
    if (end == nullptr || *end != '\0' || out->after_hit < 1) return false;
  }
  return true;
}

// Only transient failures are worth retrying; a deadline or cancellation
// would just expire again, and InvalidArgument/Unsupported are
// deterministic.
bool IsRetryable(StatusCode code) {
  return code == StatusCode::kInternal || code == StatusCode::kIoError;
}

// Jittered exponential backoff before retry `attempt` (1-based): capped
// doubling scaled by U[0.5, 1.5) so a burst of failing replicas does not
// retry in lockstep.
void BackoffBeforeRetry(int attempt, Rng& rng) {
  const int exp = std::min(attempt - 1, 6);
  const double base_ms = 1.0 * static_cast<double>(1 << exp);
  const double jitter = 0.5 + rng.NextDouble();
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(base_ms * jitter));
}

int Main(int argc, char** argv) {
  FlagParser flags;
  flags.AddDouble("sf", 1.0, "SSB scale factor");
  flags.AddDouble("duration", 10.0, "measurement seconds");
  flags.AddInt64("warmup", 1, "untimed passes over the mix before timing");
  flags.AddString("flavor", "hybrid",
                  "scalar | simd | hybrid | voila | auto (best supported)");
  flags.AddDouble("deadline_ms", 0.0,
                  "per-query deadline in milliseconds (0 = none); "
                  "queries exceeding it stop cooperatively and count as "
                  "deadline_exceeded");
  flags.AddInt64("max_retries", 0,
                 "retries per query for transient failures (Internal / "
                 "IoError), with jittered exponential backoff");
  flags.AddString("queries", "all",
                  "query mix: all | figures | comma-separated ids");
  flags.AddString("threads", "auto",
                  "worker threads: auto (one per hardware thread) or a "
                  "count");
  flags.AddBool("cold_plans", false,
                "invalidate the plan cache before every query (the "
                "pre-runtime rebuild-per-Run baseline)");
  flags.AddString("encoding", "flat",
                  "fact-table storage: flat (plain arrays, the default) "
                  "or a chunked-shadow policy — auto | plain | dict | "
                  "for; any chunked policy scans through per-block "
                  "decode");
  flags.AddBool("pruning", false,
                "zone-map / histogram chunk pruning before morsel "
                "dispatch (requires a chunked --encoding)");
  flags.AddBool("drop_flat", false,
                "free the flat fact columns after verification so the "
                "resident fact footprint is the encoded one (requires a "
                "chunked --encoding)");
  flags.AddBool("verify", true,
                "cross-check one pass of the mix against the reference");
  flags.AddString("json", "",
                  "write a hef-bench-v1 JSON report to this path");
  flags.AddString("profile", "",
                  "sample the replay loop with the wall-clock profiler "
                  "and write collapsed stacks (flamegraph.pl format) to "
                  "this path");
  flags.AddString("trace", "",
                  "write a chrome://tracing trace-event file (spans plus "
                  "PMU counter tracks) to this path");
  flags.AddInt64("metrics_port", -1,
                 "serve Prometheus text metrics on "
                 "http://127.0.0.1:PORT/metrics while the bench runs "
                 "(0 = ephemeral port, -1 = off); the same server exposes "
                 "/healthz /statusz /tracez /flightz");
  flags.AddBool("stats", false,
                "collect per-operator stats on every replayed query so "
                "/tracez completions carry EXPLAIN trees (adds per-op "
                "timing overhead)");
  flags.AddString("slow_log", "",
                  "append slow/failed queries as JSONL to this path");
  flags.AddDouble("slow_ms", 100.0,
                  "slow-query threshold in milliseconds for --slow_log; "
                  "errors are always logged");
  flags.AddString("drift_advice", "",
                  "write the drift sentinel's hef-drift-v1 report "
                  "(profiles + retune advice) to this path after the "
                  "replay");
  flags.AddDouble("drift_slack", -1.0,
                  "drift CUSUM slack override: per-window residual "
                  "fraction tolerated before accumulation (<0 keeps "
                  "the built-in default)");
  flags.AddDouble("drift_threshold", -1.0,
                  "drift CUSUM firing threshold override (<0 keeps the "
                  "built-in default)");
  flags.AddString("fault_stall", "",
                  "arm a repeating stall fault point:stall_ms[:after_hit] "
                  "when measurement starts (e.g. engine.morsel:25) — "
                  "injects a mid-run slowdown the drift sentinel must "
                  "catch");
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
  const double duration = flags.GetDouble("duration");
  const auto warmup = static_cast<int>(flags.GetInt64("warmup"));
  const bool cold_plans = flags.GetBool("cold_plans");
  const double deadline_ms = flags.GetDouble("deadline_ms");
  const auto max_retries = static_cast<int>(flags.GetInt64("max_retries"));
  std::string flavor_name = flags.GetString("flavor");
  const std::vector<QueryId> mix = ParseMix(flags.GetString("queries"));
  const auto threads = exec::ParseThreadsFlag(flags.GetString("threads"));
  if (!threads.ok()) {
    std::fprintf(stderr, "%s\n", threads.status().ToString().c_str());
    return 1;
  }
  HEF_CHECK_MSG(!mix.empty(), "empty query mix");

  const std::string encoding = flags.GetString("encoding");
  const bool pruning = flags.GetBool("pruning");
  const bool drop_flat = flags.GetBool("drop_flat");
  if ((pruning || drop_flat) && encoding == "flat") {
    std::fprintf(stderr,
                 "--pruning / --drop_flat require a chunked --encoding\n");
    return 1;
  }
  const auto storage = ResolveStorageFlags(encoding, pruning);
  if (!storage.ok()) {
    std::fprintf(stderr, "%s\n", storage.status().message().c_str());
    return 1;
  }
  const bool chunked = storage.value().chunked;
  if (chunked && flags.GetString("flavor") == "voila") {
    std::fprintf(stderr, "--encoding: the voila flavor scans flat only\n");
    return 1;
  }
  StallFault stall;
  const std::string fault_stall = flags.GetString("fault_stall");
  if (!fault_stall.empty() && !ParseStallFault(fault_stall, &stall)) {
    std::fprintf(stderr,
                 "--fault_stall=%s: want point:stall_ms[:after_hit]\n",
                 fault_stall.c_str());
    return 1;
  }
  const double drift_slack = flags.GetDouble("drift_slack");
  const double drift_threshold = flags.GetDouble("drift_threshold");
  if (drift_slack >= 0 || drift_threshold >= 0) {
    DriftOptions drift_options = DriftMonitor::Get().options();
    if (drift_slack >= 0) drift_options.slack = drift_slack;
    if (drift_threshold >= 0) drift_options.threshold = drift_threshold;
    DriftMonitor::Get().Configure(drift_options);
  }

  // Observability side-channels: the debug HTTP server (Prometheus
  // scrape plus /statusz /tracez /flightz), the crash-time flight dump,
  // the slow-query JSONL log, and span tracing with PMU counter lanes.
  const char* flight_dir = std::getenv("HEF_FLIGHT_DIR");
  telemetry::FlightRecorder::InstallCrashHandler(
      flight_dir != nullptr ? flight_dir : "");
  const std::string slow_log = flags.GetString("slow_log");
  if (!slow_log.empty() &&
      !telemetry::Diagnostics::Get().SetSlowQueryLog(
          slow_log, flags.GetDouble("slow_ms"))) {
    std::fprintf(stderr, "slow_log: cannot open %s\n", slow_log.c_str());
    return 1;
  }
  telemetry::MetricsHttpServer metrics_server;
  const int metrics_port = static_cast<int>(flags.GetInt64("metrics_port"));
  if (metrics_port >= 0) {
    const Status ms = metrics_server.Start(metrics_port);
    if (!ms.ok()) {
      std::fprintf(stderr, "metrics: %s\n", ms.ToString().c_str());
      return 1;
    }
    std::printf("serving http://127.0.0.1:%d/{metrics,healthz,statusz,"
                "tracez,flightz,driftz,sloz}\n",
                metrics_server.port());
  }
  const std::string trace_path = flags.GetString("trace");
  PmuSampler pmu_sampler;
  if (!trace_path.empty()) {
    telemetry::SpanTracer::Get().SetEnabled(true);
    (void)pmu_sampler.Start();
  }

  std::printf("== SSB serving throughput ==\n");
  std::printf("flavor %s, %zu-query mix, %.1fs, threads=%s, plans %s\n",
              flavor_name.c_str(), mix.size(), duration,
              flags.GetString("threads").c_str(),
              cold_plans ? "cold" : "warm");
  std::printf("scale factor %.2f — generating data...\n", sf);
  ssb::SsbDatabase db = ssb::SsbDatabase::Generate(sf);
  double compression = 0.0;
  if (chunked) {
    Stopwatch encode_sw;
    storage.value().EnsureStorage(db);
    const std::size_t encoded = db.chunked->EncodedBytes();
    const std::size_t plain = db.chunked->PlainBytes();
    compression = static_cast<double>(plain) / static_cast<double>(encoded);
    std::printf("encoding %s: %zu chunks x %zu rows, %.1f MiB -> %.1f MiB "
                "(%.2fx) in %.0f ms, pruning %s\n",
                encoding.c_str(), db.chunked->num_chunks(),
                db.chunked->chunk_rows(),
                static_cast<double>(plain) / (1 << 20),
                static_cast<double>(encoded) / (1 << 20), compression,
                encode_sw.ElapsedMillis(), pruning ? "on" : "off");
  }

  // One engine, queried repeatedly — the serving shape. The voila flavor
  // exercises the interpreter comparator on the same runtime.
  std::unique_ptr<SsbEngine> hef_engine;
  std::unique_ptr<VoilaEngine> voila_engine;
  if (flavor_name == "voila") {
    VoilaConfig config;
    config.threads = threads.value();
    config.collect_stats = flags.GetBool("stats");
    voila_engine = std::make_unique<VoilaEngine>(db, config);
  } else {
    // Serving admission: a named flavour the host cannot run is an
    // error, "auto" falls back to the best supported one.
    const auto flavor = ResolveFlavorFlag(flavor_name);
    if (!flavor.ok()) {
      std::fprintf(stderr, "%s\n", flavor.status().ToString().c_str());
      return 1;
    }
    if (flavor_name == "auto" || flavor_name.empty()) {
      flavor_name = FlavorName(flavor.value());
      std::printf("flavor auto -> %s\n", flavor_name.c_str());
    }
    EngineConfig config;
    config.flavor = flavor.value();
    config.threads = threads.value();
    config.collect_stats = flags.GetBool("stats");
    storage.value().ApplyTo(&config);
    hef_engine = std::make_unique<SsbEngine>(db, config);
  }
  auto run = [&](QueryId id) {
    return hef_engine != nullptr ? hef_engine->Run(id)
                                 : voila_engine->Run(id);
  };
  auto run_ctx = [&](QueryId id, const exec::QueryContext& ctx) {
    return hef_engine != nullptr ? hef_engine->Run(id, ctx)
                                 : voila_engine->Run(id, ctx);
  };
  auto invalidate = [&] {
    if (hef_engine != nullptr) {
      hef_engine->InvalidatePlanCache();
    } else {
      voila_engine->InvalidatePlanCache();
    }
  };

  if (flags.GetBool("verify")) {
    for (const QueryId id : mix) {
      HEF_CHECK_MSG(run(id) == RunReferenceQuery(db, id), "%s mismatch",
                    QueryName(id));
    }
    if (cold_plans) invalidate();
  }
  if (drop_flat) {
    // Verification (reference engine) is done with the flat columns; from
    // here on every fact access decodes from the chunked shadow, so the
    // replay runs against the compressed footprint.
    ssb::DropFlatFact(db);
    std::printf("dropped flat fact columns; resident database %.1f MiB\n",
                static_cast<double>(db.TotalBytes()) / (1 << 20));
  }
  for (int w = 0; w < warmup; ++w) {
    // Warm passes after the first double as drift calibration: resetting
    // after the cold pass keeps plan-build cost out of the baseline (it
    // would make every warm replay look like "fast" drift), and every
    // later pass both warms caches and feeds calibration windows.
    // --warmup=1 therefore calibrates cold; use >=2 (CI uses 4) when
    // asserting on drift.
    if (w == 1) DriftMonitor::Get().Reset();
    for (const QueryId id : mix) {
      if (cold_plans) invalidate();
      run(id);
    }
  }
  // Sealing adopts the calibrated steady-state minimum as the predicted
  // cost for every key the tuner never covered, so the replay measures
  // residuals against this host's demonstrated baseline. Keys with tuner
  // predictions are untouched.
  DriftMonitor::Get().SealBaseline();
  if (!stall.point.empty()) {
    exec::FaultSpec spec;
    spec.action = exec::FaultAction::kStall;
    spec.trigger_hit = stall.after_hit;
    spec.repeat = true;
    spec.stall_ms = stall.stall_ms;
    exec::FaultRegistry::Get().Arm(stall.point, spec);
    std::printf("fault: stalling %s %d ms from hit %d (measurement only)\n",
                stall.point.c_str(), stall.stall_ms, stall.after_hit);
  }

  auto& registry = telemetry::MetricsRegistry::Get();
  const std::uint64_t morsels0 =
      registry.counter("exec.morsels_dispatched").value();

  const std::string profile_path = flags.GetString("profile");
  if (!profile_path.empty()) {
    // Cover only the measured replay loop, so samples attribute to the
    // engines' spans rather than generation or warmup.
    const Status ps = telemetry::Profiler::Get().Start();
    if (!ps.ok()) {
      std::fprintf(stderr, "profiler: %s\n", ps.ToString().c_str());
      return 1;
    }
  }

  // The replay loop: round-robin over the mix until the clock runs out,
  // one latency sample per successful query execution. Each attempt runs
  // under its own deadline context; transient failures retry with
  // backoff, terminal outcomes are counted and the loop moves on — a
  // serving process does not die because one request did.
  //
  // Latencies land in log-linear histograms (microsecond ticks): one per
  // query for the table rows, plus the process-wide hef.query_latency
  // registry histogram that the Prometheus endpoint and the report's
  // metrics dump (bucket bounds, counts, sum, quantiles) expose.
  std::vector<std::unique_ptr<telemetry::Histogram>> per_query_hist;
  for (std::size_t q = 0; q < mix.size(); ++q) {
    per_query_hist.push_back(std::make_unique<telemetry::Histogram>());
  }
  telemetry::Histogram& latency_hist =
      registry.histogram("hef.query_latency");
  std::vector<std::uint64_t> per_query_timeouts(mix.size(), 0);
  // Chunk-pruning effectiveness, captured from each query's first
  // successful result (the pruning pass runs at plan build, so the
  // scanned/total split is stable across replays).
  std::vector<std::uint64_t> per_query_chunks_scanned(mix.size(), 0);
  std::vector<std::uint64_t> per_query_chunks_total(mix.size(), 0);
  std::uint64_t n_ok = 0;
  std::uint64_t n_cancelled = 0, n_deadline = 0, n_failed = 0,
                n_retries = 0;
  Rng backoff_rng(0x5eedf00dULL);
  const std::uint64_t t_begin = MonotonicNanos();
  const auto t_end = t_begin + static_cast<std::uint64_t>(duration * 1e9);
  std::size_t next = 0;
  while (MonotonicNanos() < t_end) {
    const std::size_t qi = next % mix.size();
    const QueryId id = mix[qi];
    if (cold_plans) invalidate();
    const std::uint64_t q0 = MonotonicNanos();
    int attempt = 0;
    while (true) {
      exec::QueryContext ctx;
      if (deadline_ms > 0) {
        ctx = exec::QueryContext::WithDeadline(deadline_ms * 1e-3);
      }
      const Result<QueryResult> result = run_ctx(id, ctx);
      if (result.ok()) {
        const std::uint64_t micros = (MonotonicNanos() - q0) / 1000;
        per_query_hist[qi]->Observe(micros);
        latency_hist.Observe(micros);
        per_query_chunks_scanned[qi] = result.value().chunks_scanned;
        per_query_chunks_total[qi] = result.value().chunks_total;
        ++n_ok;
        break;
      }
      const StatusCode code = result.status().code();
      if (code == StatusCode::kDeadlineExceeded) {
        ++n_deadline;
        ++per_query_timeouts[qi];
        break;
      }
      if (code == StatusCode::kCancelled) {
        ++n_cancelled;
        break;
      }
      if (!IsRetryable(code) || attempt >= max_retries) {
        ++n_failed;
        if (n_failed <= 5) {
          std::fprintf(stderr, "%s failed: %s\n", QueryName(id),
                       result.status().ToString().c_str());
        }
        break;
      }
      ++attempt;
      ++n_retries;
      BackoffBeforeRetry(attempt, backoff_rng);
    }
    ++next;
  }
  const double elapsed =
      static_cast<double>(MonotonicNanos() - t_begin) * 1e-9;

  std::uint64_t stall_hits = 0;
  if (!stall.point.empty()) {
    stall_hits = exec::FaultRegistry::Get().hits(stall.point);
    exec::FaultRegistry::Get().DisarmAll();
  }

  std::vector<telemetry::ProfileSample> profile_samples;
  if (!profile_path.empty()) {
    telemetry::Profiler::Get().Stop();
    profile_samples = telemetry::Profiler::Get().TakeSamples();
  }

  const std::uint64_t morsels =
      registry.counter("exec.morsels_dispatched").value() - morsels0;
  const auto pool_threads =
      static_cast<int>(registry.gauge("exec.pool_threads").value());

  const double qps = static_cast<double>(n_ok) / elapsed;
  const double p50 = HistQuantileMs(latency_hist, 0.50);
  const double p95 = HistQuantileMs(latency_hist, 0.95);
  const double p99 = HistQuantileMs(latency_hist, 0.99);
  const double p999 = HistQuantileMs(latency_hist, 0.999);

  telemetry::BenchReport report("ssb_throughput");
  report.SetConfig("scale_factor", sf);
  report.SetConfig("duration_s", duration);
  report.SetConfig("flavor", flavor_name);
  report.SetConfig("queries", flags.GetString("queries"));
  report.SetConfig("threads", static_cast<std::int64_t>(threads.value()));
  report.SetConfig("resolved_threads", exec::ResolveThreads(threads.value()));
  report.SetConfig("cold_plans", cold_plans);
  report.SetConfig("deadline_ms", deadline_ms);
  report.SetConfig("max_retries", static_cast<std::int64_t>(max_retries));
  report.SetConfig("encoding", encoding);
  report.SetConfig("pruning", pruning);
  if (chunked) {
    report.SetConfig("compression_ratio", compression);
    report.SetConfig("drop_flat", drop_flat);
  }

  TextTable table;
  {
    std::vector<std::string> header = {"query",     "runs",     "timeouts",
                                       "mean (ms)", "p50 (ms)", "p99 (ms)"};
    if (chunked) header.push_back("chunks");
    table.AddRow(header);
  }
  for (std::size_t q = 0; q < mix.size(); ++q) {
    const telemetry::Histogram& hist = *per_query_hist[q];
    const std::uint64_t runs = hist.Count();
    if (runs == 0 && per_query_timeouts[q] == 0) continue;
    const double mean = HistMeanMs(hist);
    const double qp50 = HistQuantileMs(hist, 0.50);
    const double qp99 = HistQuantileMs(hist, 0.99);
    std::vector<std::string> row = {QueryName(mix[q]), std::to_string(runs),
                                    std::to_string(per_query_timeouts[q]),
                                    TextTable::Num(mean, 2),
                                    TextTable::Num(qp50, 2),
                                    TextTable::Num(qp99, 2)};
    if (chunked) {
      row.push_back(std::to_string(per_query_chunks_scanned[q]) + "/" +
                    std::to_string(per_query_chunks_total[q]));
    }
    table.AddRow(row);
    // The encoding/pruning cells make the row identity variant-aware, so
    // a merged multi-variant report diffs cleanly against a merged
    // baseline (and bench_diff --ignore can match across variants).
    auto& result_row = report.AddResult();
    result_row.Set("query", QueryName(mix[q]))
        .Set("encoding", encoding)
        .Set("pruning", pruning ? "on" : "off")
        .Set("runs", runs)
        .Set("timeouts", per_query_timeouts[q])
        .Set("mean_ms", mean)
        .Set("p50_ms", qp50)
        .Set("p99_ms", qp99);
    if (chunked) {
      result_row.Set("chunks_scanned", per_query_chunks_scanned[q])
          .Set("chunks_total", per_query_chunks_total[q]);
    }
  }
  report.AddResult()
      .Set("query", "TOTAL")
      .Set("encoding", encoding)
      .Set("pruning", pruning ? "on" : "off")
      .Set("runs", n_ok)
      .Set("qps", qps)
      .Set("p50_ms", p50)
      .Set("p95_ms", p95)
      .Set("p99_ms", p99)
      .Set("p999_ms", p999)
      .Set("elapsed_s", elapsed)
      .Set("cancelled", n_cancelled)
      .Set("deadline_exceeded", n_deadline)
      .Set("failed", n_failed)
      .Set("retries", n_retries)
      .Set("morsels_dispatched", morsels)
      .Set("pool_threads", pool_threads);

  std::printf("\n%s\n", table.ToString().c_str());
  std::printf("total: %llu ok queries in %.2fs -> %.1f queries/sec\n",
              static_cast<unsigned long long>(n_ok), elapsed, qps);
  std::printf("outcomes: %llu cancelled, %llu deadline_exceeded, "
              "%llu failed, %llu retries\n",
              static_cast<unsigned long long>(n_cancelled),
              static_cast<unsigned long long>(n_deadline),
              static_cast<unsigned long long>(n_failed),
              static_cast<unsigned long long>(n_retries));
  std::printf("latency: p50 %.2f ms, p95 %.2f ms, p99 %.2f ms, "
              "p999 %.2f ms\n",
              p50, p95, p99, p999);
  std::printf("scheduler: %llu morsels dispatched, %d pool threads\n",
              static_cast<unsigned long long>(morsels), pool_threads);
  {
    DriftMonitor& drift = DriftMonitor::Get();
    std::printf("drift: %llu detections, %llu keys currently drifted\n",
                static_cast<unsigned long long>(drift.drift_events()),
                static_cast<unsigned long long>(drift.drifted_keys()));
    for (const DriftAdvice& a : drift.Advice()) {
      std::printf("  %s %s @ %s: %.1f ns/row vs %.1f predicted "
                  "(%+.0f%%, %s) — retune from %s\n",
                  a.query.c_str(), a.kernel.c_str(), a.point.c_str(),
                  a.observed_ns_per_row, a.predicted_ns_per_row,
                  a.residual * 100.0, a.direction.c_str(),
                  a.suggested_initial.c_str());
    }
  }
  if (!stall.point.empty()) {
    std::printf("fault: %s hit %llu times during measurement\n",
                stall.point.c_str(),
                static_cast<unsigned long long>(stall_hits));
  }
  if (chunked) {
    std::uint64_t scanned = 0, total = 0;
    for (std::size_t q = 0; q < mix.size(); ++q) {
      scanned += per_query_chunks_scanned[q];
      total += per_query_chunks_total[q];
    }
    std::printf("storage: %s encoding %.2fx, pruning %s — %llu/%llu "
                "chunks scanned per mix pass (%.0f%% pruned)\n",
                encoding.c_str(), compression, pruning ? "on" : "off",
                static_cast<unsigned long long>(scanned),
                static_cast<unsigned long long>(total),
                total == 0 ? 0.0
                           : 100.0 * static_cast<double>(total - scanned) /
                                 static_cast<double>(total));
  }

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
  const std::string advice_path = flags.GetString("drift_advice");
  if (!advice_path.empty()) {
    const Status as = DriftMonitor::Get().WriteAdvice(advice_path);
    if (!as.ok()) {
      std::fprintf(stderr, "drift_advice: %s\n", as.ToString().c_str());
      return 1;
    }
    std::printf("wrote drift advice to %s\n", advice_path.c_str());
  }
  if (!profile_path.empty()) {
    const Status fs = telemetry::Profiler::WriteFoldedFile(profile_path,
                                                           profile_samples);
    if (!fs.ok()) {
      std::fprintf(stderr, "profiler: %s\n", fs.ToString().c_str());
      return 1;
    }
    std::printf("profile (%s):\n%s", profile_path.c_str(),
                telemetry::Profiler::SelfTimeTable(
                    profile_samples,
                    telemetry::Profiler::Get().period_nanos())
                    .c_str());
  }
  if (!trace_path.empty()) {
    pmu_sampler.Stop();
    const Status ts = telemetry::SpanTracer::Get().WriteTraceFile(trace_path);
    if (!ts.ok()) {
      std::fprintf(stderr, "trace: %s\n", ts.ToString().c_str());
      return 1;
    }
    std::printf("wrote trace to %s (open in chrome://tracing)\n",
                trace_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace hef

int main(int argc, char** argv) { return hef::Main(argc, argv); }
