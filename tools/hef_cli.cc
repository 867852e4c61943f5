// hef — command-line front door to the framework.
//
//   hef info                          host CPU, processor model, ports
//   hef tune [--cache=PATH]           tune the kernels the engine reads
//                                     (probe, gather), persist
//   hef query --query=2.1 --sf=0.1    run an SSB query (all engines)
//   hef sql --query=2.1               print the query's SQL
//   hef generate --config=v1s3p2      print translator output
//   hef lint a.hid b.hid [--json=..]  verify templates (HID001… rules)
//   hef lint --prove                  prove every registered kernel
//                                     semantically equivalent to its
//                                     template across its full grid
//   hef serve --port=8484 --sf=1      HTTP/JSON query endpoint with
//                                     admission control (docs/serving.md)
//
// Every subcommand accepts --help. The global --trace=PATH flag (or the
// HEF_TRACE environment variable) enables span tracing for the whole
// invocation and writes a chrome://tracing / Perfetto trace-event file
// on exit — including PMU counter tracks (IPC, LLC misses, GHz) sampled
// on a timeline while the command runs. The global --metrics_port=N flag
// serves the metrics registry at http://127.0.0.1:N/metrics in
// Prometheus text format for the duration of the command. `hef query
// --profile=out.folded` additionally runs the sampling profiler and
// writes collapsed stacks for flamegraph.pl / speedscope; see
// docs/observability.md.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/dependence_checker.h"
#include "analysis/hid_verifier.h"
#include "analysis/kernel_prover.h"
#include "analysis/register_pressure.h"
#include "codegen/description_table.h"
#include "codegen/operator_template.h"
#include "codegen/translator.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "common/text_table.h"
#include "engine/engine.h"
#include "engine/explain.h"
#include "engine/reference.h"
#include "exec/runtime.h"
#include "perf/drift_monitor.h"
#include "perf/pmu_sampler.h"
#include "portmodel/port_model.h"
#include "procinfo/cpu_features.h"
#include "serve/serve_server.h"
#include "ssb/chunked_fact.h"
#include "ssb/database.h"
#include "telemetry/bench_report.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/json_writer.h"
#include "telemetry/metrics.h"
#include "telemetry/metrics_http.h"
#include "telemetry/profiler.h"
#include "telemetry/span.h"
#include "tuner/kernel_table.h"
#include "tuner/tune_trace.h"
#include "tuner/tuning_cache.h"
#include "voila/voila_engine.h"

namespace hef {
namespace {

bool InRange(const char* flag, std::int64_t value, std::int64_t lo,
             std::int64_t hi) {
  if (value >= lo && value <= hi) return true;
  std::fprintf(stderr, "--%s must be in [%lld, %lld], got %lld\n", flag,
               static_cast<long long>(lo), static_cast<long long>(hi),
               static_cast<long long>(value));
  return false;
}

int CmdInfo(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("model", "host", "processor model to describe");
  if (!flags.Parse(argc, argv).ok() || flags.HelpRequested()) {
    flags.PrintUsage("hef info");
    return flags.HelpRequested() ? 0 : 1;
  }
  const CpuFeatures& f = CpuFeatures::Get();
  std::printf("CPU:      %s\n", f.brand.c_str());
  std::printf("vendor:   %s\n", f.vendor.c_str());
  std::printf("best ISA: %s (%d x 64-bit lanes)\n",
              IsaName(f.BestIsa()), IsaLanes64(f.BestIsa()));
  std::printf("features: avx2=%d avx512f=%d avx512dq=%d avx512bw=%d "
              "avx512vl=%d avx512cd=%d\n",
              f.avx2, f.avx512f, f.avx512dq, f.avx512bw, f.avx512vl,
              f.avx512cd);
  const auto model = ProcessorModel::ByName(flags.GetString("model"));
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }
  std::printf("\nmodel '%s': %d SIMD pipes, %d scalar ALUs (%d shared), "
              "%.1f/%.1f GHz base/AVX-512\n",
              model.value().name.c_str(), model.value().simd_pipes,
              model.value().scalar_alu_pipes, model.value().shared_pipes,
              model.value().base_ghz, model.value().avx512_ghz);
  std::printf("ports:\n%s", PortModel(model.value()).DescribePorts().c_str());
  return 0;
}

int CmdTune(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("cache", ".hef_tuning", "tuning cache file");
  flags.AddInt64("elements", 1 << 15, "elements per measurement");
  flags.AddInt64("repetitions", 9, "repetitions per measurement");
  flags.AddString("json", "",
                  "write a hef-bench-v1 JSON report (with full search "
                  "traces) to this path");
  if (!flags.Parse(argc, argv).ok() || flags.HelpRequested()) {
    flags.PrintUsage("hef tune");
    return flags.HelpRequested() ? 0 : 1;
  }
  if (flags.GetInt64("elements") < 1 || flags.GetInt64("repetitions") < 1) {
    std::fprintf(stderr, "--elements and --repetitions must be >= 1\n");
    return 1;
  }
  KernelTuneOptions options;
  options.elements = static_cast<std::size_t>(flags.GetInt64("elements"));
  options.repetitions = static_cast<int>(flags.GetInt64("repetitions"));

  TuningCache cache(flags.GetString("cache"));
  WarnTuningCache("load", cache.Load());
  const auto rows = TuneEnginePoints(options, &cache);
  TextTable table;
  table.AddRow({"operator", "optimum", "nodes tested", "best (ms)"});
  for (const auto& [entry, result] : rows) {
    table.AddRow({entry->name, result.best.ToString(),
                  std::to_string(result.nodes_tested),
                  TextTable::Num(result.best_time * 1e3, 3)});
  }
  const Status st = cache.Save();
  WarnTuningCache("save", st);
  std::printf("%s\n%s %s\n", table.ToString().c_str(),
              st.ok() ? "saved to" : "NOT saved to",
              cache.path().c_str());

  const std::string json_path = flags.GetString("json");
  if (!json_path.empty()) {
    telemetry::BenchReport report("hef_tune");
    report.SetConfig("elements",
                     static_cast<std::int64_t>(options.elements));
    report.SetConfig("repetitions", options.repetitions);
    for (const auto& [entry, result] : rows) {
      report.AddResult()
          .Set("operator", entry->name)
          .Set("optimum", result.best.ToString())
          .Set("nodes_tested",
               static_cast<std::int64_t>(result.nodes_tested))
          .Set("nodes_pruned",
               static_cast<std::int64_t>(result.nodes_pruned))
          .Set("best_ms", result.best_time * 1e3);
      report.AddSection(entry->name + "_tune_trace",
                        TuneTraceToJson(result));
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

int CmdQuery(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("query", "2.1", "SSB query");
  flags.AddDouble("sf", 0.1, "scale factor");
  flags.AddString("cache", ".hef_tuning", "tuning cache file (optional)");
  flags.AddInt64("rows", 8, "result rows to print");
  flags.AddBool("stats", false,
                "collect and print per-operator statistics (wall time, "
                "rows, selectivity, PMU counters when available)");
  flags.AddString("threads", "auto",
                  "worker threads per engine: auto (one per hardware "
                  "thread) or a count");
  flags.AddString("json", "",
                  "write a hef-bench-v1 JSON report (with per-operator "
                  "stats sections when --stats) to this path");
  flags.AddString("profile", "",
                  "sample the engine runs with the wall-clock profiler "
                  "and write collapsed stacks (flamegraph.pl format) to "
                  "this path");
  flags.AddBool("explain", false,
                "print an EXPLAIN ANALYZE plan tree per engine (operator, "
                "flavor, tuned point, rows, timings); implies stats "
                "collection");
  flags.AddString("explain_json", "",
                  "write the hybrid engine's hef-explain-v1 JSON document "
                  "to this path (- for stdout); implies stats collection");
  flags.AddString("encoding", "flat",
                  "fact-table storage for the hef engines: flat (plain "
                  "arrays) or a chunked-shadow policy — auto | plain | "
                  "dict | for (voila always scans flat)");
  flags.AddBool("pruning", false,
                "zone-map / histogram chunk pruning (requires a chunked "
                "--encoding); prune counts land in --explain output");
  if (!flags.Parse(argc, argv).ok() || flags.HelpRequested()) {
    flags.PrintUsage("hef query");
    return flags.HelpRequested() ? 0 : 1;
  }
  if (!PositiveFinite("sf", flags.GetDouble("sf"))) return 1;
  const auto query = ParseQueryId(flags.GetString("query"));
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }
  const auto threads = exec::ParseThreadsFlag(flags.GetString("threads"));
  if (!threads.ok()) {
    std::fprintf(stderr, "%s\n", threads.status().ToString().c_str());
    return 1;
  }
  const bool explain = flags.GetBool("explain");
  const std::string explain_json_path = flags.GetString("explain_json");
  // Explain renders from operator stats, so either explain form turns
  // stats collection on; --stats alone also prints the raw tables.
  const bool stats =
      flags.GetBool("stats") || explain || !explain_json_path.empty();
  const std::string json_path = flags.GetString("json");

  const std::string encoding = flags.GetString("encoding");
  const auto storage =
      ResolveStorageFlags(encoding, flags.GetBool("pruning"));
  if (!storage.ok()) {
    std::fprintf(stderr, "%s\n", storage.status().message().c_str());
    return 1;
  }

  std::printf("%s\n\n", QuerySql(query.value()));
  ssb::SsbDatabase db = ssb::SsbDatabase::Generate(flags.GetDouble("sf"));
  storage.value().EnsureStorage(db);
  if (storage.value().chunked) {
    std::printf("encoding %s: %zu chunks, %.2fx compression, pruning %s\n",
                encoding.c_str(), db.chunked->num_chunks(),
                static_cast<double>(db.chunked->PlainBytes()) /
                    static_cast<double>(db.chunked->EncodedBytes()),
                storage.value().pruning ? "on" : "off");
  }

  EngineConfig cached;  // the points the tuning cache sets, if any
  ApplyTuningCache(flags.GetString("cache"), &cached, stdout);

  telemetry::BenchReport report("hef_query");
  report.SetConfig("query", QueryName(query.value()));
  report.SetConfig("scale_factor", flags.GetDouble("sf"));
  report.SetConfig("stats", stats);
  report.SetConfig("threads",
                   static_cast<std::int64_t>(threads.value()));

  TextTable timings;
  timings.AddRow({"engine", "time (ms)", "rows"});
  QueryResult result;
  std::string stats_text;  // per-engine operator tables, printed at the end
  std::string explain_text;  // per-engine explain trees (--explain)
  std::string hybrid_explain_json;  // hef-explain-v1 (--explain_json)
  auto run = [&](const char* name, auto&& engine, ExplainMeta meta) {
    Stopwatch sw;
    result = engine.Run(query.value());
    const double ms = sw.ElapsedMillis();
    timings.AddRow({name, TextTable::Num(ms, 1),
                    std::to_string(result.rows.size())});
    auto& row = report.AddResult();
    row.Set("query", QueryName(query.value()))
        .Set("engine", name)
        .Set("ms", ms)
        .Set("rows", static_cast<std::uint64_t>(result.rows.size()))
        .Set("qualifying_rows", result.qualifying_rows);
    if (!result.operator_stats.empty()) {
      if (flags.GetBool("stats")) {
        stats_text += std::string("-- ") + name + "\n" +
                      result.StatsToString() + "\n";
      }
      report.AddSection(std::string(name) + "_operator_stats",
                        OperatorStatsToJson(result.operator_stats));
      if (explain) explain_text += ExplainToText(meta, result) + "\n";
      if (std::string(name) == "hybrid" && !explain_json_path.empty()) {
        hybrid_explain_json = ExplainToJson(meta, result);
      }
    }
  };
  const std::string profile_path = flags.GetString("profile");
  if (!profile_path.empty()) {
    // Cover only the engine runs (not data generation) so samples land
    // inside the engines' spans.
    const Status ps = telemetry::Profiler::Get().Start();
    if (!ps.ok()) {
      std::fprintf(stderr, "profiler: %s\n", ps.ToString().c_str());
      return 1;
    }
  }
  // The cached points apply to the hybrid flavour only (PointFor).
  for (const Flavor flavor :
       {Flavor::kScalar, Flavor::kSimd, Flavor::kHybrid}) {
    EngineConfig cfg = cached;
    cfg.flavor = flavor;
    cfg.collect_stats = stats;
    cfg.collect_pmu = stats;
    cfg.threads = threads.value();
    storage.value().ApplyTo(&cfg);
    SsbEngine engine(db, cfg);
    const char* name = FlavorName(flavor);
    run(name, engine, MakeExplainMeta(QueryName(query.value()), name, cfg));
  }
  VoilaConfig voila_cfg;
  voila_cfg.collect_stats = stats;
  voila_cfg.threads = threads.value();
  VoilaEngine voila(db, voila_cfg);
  run("voila", voila,
      {.query = QueryName(query.value()), .engine = "voila",
       .flavor = "voila"});
  if (!profile_path.empty()) {
    telemetry::Profiler& profiler = telemetry::Profiler::Get();
    profiler.Stop();
    const std::vector<telemetry::ProfileSample> samples =
        profiler.TakeSamples();
    const Status fs = telemetry::Profiler::WriteFoldedFile(profile_path,
                                                           samples);
    if (!fs.ok()) {
      std::fprintf(stderr, "profiler: %s\n", fs.ToString().c_str());
      return 1;
    }
    std::printf("\nprofile (%s):\n%s", profile_path.c_str(),
                telemetry::Profiler::SelfTimeTable(
                    samples, profiler.period_nanos())
                    .c_str());
  }
  std::printf("\n%s\n", timings.ToString().c_str());
  if (!stats_text.empty()) {
    std::printf("per-operator statistics:\n%s", stats_text.c_str());
  }
  if (!explain_text.empty()) {
    std::printf("explain:\n%s", explain_text.c_str());
  }
  if (!explain_json_path.empty()) {
    if (hybrid_explain_json.empty()) {
      std::fprintf(stderr, "explain_json: no hybrid stats collected\n");
      return 1;
    }
    if (explain_json_path == "-") {
      std::printf("%s\n", hybrid_explain_json.c_str());
    } else {
      std::ofstream out(explain_json_path, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n",
                     explain_json_path.c_str());
        return 1;
      }
      out << hybrid_explain_json << "\n";
      std::printf("wrote explain JSON to %s\n",
                  explain_json_path.c_str());
    }
  }

  const bool correct = result == RunReferenceQuery(db, query.value());
  std::printf("verification: %s\n\n", correct ? "OK" : "MISMATCH");
  if (!json_path.empty()) {
    report.SetConfig("verified", correct);
    report.IncludeMetrics();
    const Status ws = report.WriteFile(json_path);
    if (!ws.ok()) {
      std::fprintf(stderr, "%s\n", ws.ToString().c_str());
      return 1;
    }
    std::printf("wrote JSON report to %s\n", json_path.c_str());
  }
  const auto limit = std::min<std::size_t>(
      result.rows.size(), static_cast<std::size_t>(flags.GetInt64("rows")));
  for (std::size_t i = 0; i < limit; ++i) {
    const GroupRow& row = result.rows[i];
    std::printf("  %llu %llu %llu -> %llu\n",
                static_cast<unsigned long long>(row.keys[0]),
                static_cast<unsigned long long>(row.keys[1]),
                static_cast<unsigned long long>(row.keys[2]),
                static_cast<unsigned long long>(row.value));
  }
  if (result.rows.size() > limit) {
    std::printf("  ... %zu more rows\n", result.rows.size() - limit);
  }
  return correct ? 0 : 1;
}

int CmdSql(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("query", "", "SSB query (omit for all)");
  if (!flags.Parse(argc, argv).ok() || flags.HelpRequested()) {
    flags.PrintUsage("hef sql");
    return flags.HelpRequested() ? 0 : 1;
  }
  if (flags.GetString("query").empty()) {
    for (const QueryId id : AllQueries()) {
      std::printf("-- %s\n%s\n\n", QueryName(id), QuerySql(id));
    }
    return 0;
  }
  const auto query = ParseQueryId(flags.GetString("query"));
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", QuerySql(query.value()));
  return 0;
}

// The --isa flag of `hef generate` and `hef lint`: a usage error naming
// the flag, and false, for anything but avx512 | avx2.
bool ParseIsaFlag(const std::string& name, Isa* isa) {
  if (name != "avx512" && name != "avx2") {
    std::fprintf(stderr, "unknown --isa '%s' (avx512 | avx2)\n",
                 name.c_str());
    return false;
  }
  *isa = name == "avx2" ? Isa::kAvx2 : Isa::kAvx512;
  return true;
}

// The gate a template from outside the program passes before its kernel
// is printed: the HID verifier before expansion, the pack claim (§IV-B)
// on the emitted source after.
Result<std::string> TranslateVerified(const OperatorTemplate& op,
                                      const TranslateOptions& options) {
  const DescriptionTable& table = DescriptionTable::Builtin();
  analysis::VerifyOptions vopts;
  vopts.vector_isa = options.vector_isa;
  HEF_RETURN_NOT_OK(analysis::DiagnosticsToStatus(
      op.name, analysis::VerifyTemplate(op, table, vopts)));
  Result<std::string> source = TranslateOperator(op, table, options);
  HEF_RETURN_NOT_OK(source.status());
  const Result<analysis::DependenceReport> deps = analysis::CheckDependences(
      op, source.value(), table, options.config, options.vector_isa);
  HEF_RETURN_NOT_OK(deps.status());
  if (!deps.value().ProvesPackClaim()) {
    return Status::Internal(
        "translator emitted dependent adjacent statements for '" + op.name +
        "' at " + options.config.ToString() + ": min distance " +
        std::to_string(deps.value().min_distance) + " < pack width " +
        std::to_string(deps.value().pack_width));
  }
  return source;
}

int CmdGenerate(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("operator", "murmur", "murmur | crc64");
  flags.AddString("file", "", "template file (overrides --operator)");
  flags.AddString("config", "v1s3p2", "(v,s,p) coordinate");
  flags.AddString("isa", "avx512", "avx512 | avx2");
  flags.AddBool("asm", false,
                "compile the generated code and print its assembly (the "
                "paper's Fig. 7 exhibit)");
  if (!flags.Parse(argc, argv).ok() || flags.HelpRequested()) {
    flags.PrintUsage("hef generate");
    return flags.HelpRequested() ? 0 : 1;
  }
  const std::string which = flags.GetString("operator");
  if (which != "murmur" && which != "crc64") {
    std::fprintf(stderr, "unknown --operator '%s' (murmur | crc64)\n",
                 which.c_str());
    return 1;
  }
  TranslateOptions options;
  if (!ParseIsaFlag(flags.GetString("isa"), &options.vector_isa)) return 1;
  const std::string text = which == "crc64" ? BuiltinCrc64Template()
                                            : BuiltinMurmurTemplate();
  const auto op = flags.GetString("file").empty()
                      ? OperatorTemplate::Parse(text)
                      : OperatorTemplate::ParseFile(flags.GetString("file"));
  const auto cfg = HybridConfig::Parse(flags.GetString("config"));
  if (!op.ok() || !cfg.ok()) {
    std::fprintf(stderr, "%s\n",
                 (!op.ok() ? op.status() : cfg.status()).ToString().c_str());
    return 1;
  }
  options.config = cfg.value();
  const auto source = TranslateVerified(op.value(), options);
  if (!source.ok()) {
    std::fprintf(stderr, "%s\n", source.status().ToString().c_str());
    return 1;
  }
  if (!flags.GetBool("asm")) {
    std::printf("%s", source.value().c_str());
    return 0;
  }

  // Fig. 7 exhibit: compile with the paper's flags and show the assembly
  // the compiler actually schedules (it reorders the generated statements;
  // the paper measured < 2% difference vs hand-arranged code, §IV-B).
  const std::string base = "/tmp/hef_cli_asm";
  {
    std::FILE* f = std::fopen((base + ".cpp").c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s.cpp\n", base.c_str());
      return 1;
    }
    std::fputs(source.value().c_str(), f);
    std::fclose(f);
  }
  const std::string cmd =
      "g++ -std=c++20 -O3 -march=native -mavx512f -mavx512dq "
      "-fno-tree-vectorize -S -o " + base + ".s " + base + ".cpp" +
      " && grep -vE '^\\s*\\.' " + base + ".s";
  return std::system(cmd.c_str()) == 0 ? 0 : 1;
}

// `hef lint` — run the HID static verifier over template files and print
// every diagnostic as `file:line: severity [HIDxxx] message`. With no
// files, the built-in murmur and crc64 templates are linted (the CI smoke
// gate relies on them being clean). With --config, each clean template is
// additionally translated and its output proven independent (dependence
// distance >= pack width, §IV-B) and sized against the register file.
// With --prove, each template is put through the full proof stack
// (structural -> value ranges -> symbolic equivalence, docs/analysis.md)
// at every grid configuration; without files the kernel table's proof
// targets supply the templates and grids, so a bare `hef lint --prove`
// certifies every kernel the system ships. Unproven configurations count
// as errors and fail the exit code.
int CmdLint(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("isa", "avx512",
                  "avx512 | avx2 — description-table column the vector "
                  "statements must have");
  flags.AddString("config", "",
                  "(v,s,p) coordinate, e.g. v1s3p2: also translate each "
                  "clean template and run the dependence checker and "
                  "register-pressure estimate on the result");
  flags.AddBool("host-isa", false,
                "warn (HID011) when the requested ISA is not supported by "
                "this host's CPU");
  flags.AddBool("prove", false,
                "run the semantic proof stack (HID013-HID018) over every "
                "grid configuration; with no files, certify every "
                "template in the kernel table");
  flags.AddString("json", "",
                  "write machine-readable diagnostics (hef-lint-v1) to "
                  "this path");
  if (!flags.Parse(argc, argv).ok() || flags.HelpRequested()) {
    flags.PrintUsage("hef lint [template.hid ...]");
    return flags.HelpRequested() ? 0 : 1;
  }
  const std::string isa_name = flags.GetString("isa");
  analysis::VerifyOptions verify;
  if (!ParseIsaFlag(isa_name, &verify.vector_isa)) return 1;
  verify.check_host_isa = flags.GetBool("host-isa");
  const bool prove = flags.GetBool("prove");
  // The prove tier insists every gather has a provable bound (HID017).
  verify.require_bounded_gathers = prove;

  HybridConfig config{0, 0, 0};
  const bool deep = !flags.GetString("config").empty();
  if (deep) {
    const auto parsed = HybridConfig::Parse(flags.GetString("config"));
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 1;
    }
    config = parsed.value();
  }

  struct LintInput {
    std::string name;
    std::string text;
    std::vector<HybridConfig> grid;  // configurations to prove at
  };
  // Grid for templates that arrive without one (files): the --config
  // coordinate when given, otherwise a compact sweep of the search space.
  std::vector<HybridConfig> file_grid;
  if (deep) {
    file_grid.push_back(config);
  } else {
    for (int v = 0; v <= 2; ++v) {
      for (int s = 0; s <= 3; ++s) {
        for (int p = 1; p <= 2; ++p) {
          const HybridConfig c{v, s, p};
          if (c.valid()) file_grid.push_back(c);
        }
      }
    }
  }

  std::vector<LintInput> inputs;
  if (flags.positional().empty()) {
    if (prove) {
      // The kernel table's templates and per-query aliases, each with
      // the grid its runtime actually compiles.
      for (const ProofTarget& t : ProofTargets()) {
        inputs.push_back({"<builtin " + t.name + ">",
                          t.entry->template_text, t.entry->grid});
      }
    } else {
      inputs.push_back({"<builtin murmur>", BuiltinMurmurTemplate(),
                        file_grid});
      inputs.push_back({"<builtin crc64>", BuiltinCrc64Template(),
                        file_grid});
    }
  }
  for (const std::string& path : flags.positional()) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "%s: cannot read\n", path.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    inputs.push_back({path, text.str(), file_grid});
  }

  const DescriptionTable& table = DescriptionTable::Builtin();
  telemetry::JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("hef-lint-v1");
  w.Key("isa").String(isa_name);
  if (deep) w.Key("config").String(config.ToString());
  if (prove) w.Key("prove").Bool(true);
  w.Key("templates").BeginArray();

  int errors_total = 0;
  int warnings_total = 0;
  for (const auto& [name, text, grid] : inputs) {
    OperatorTemplate op;
    const std::vector<analysis::Diagnostic> diags =
        analysis::LintTemplateText(text, table, verify, &op);
    w.BeginObject();
    w.Key("file").String(name);
    w.Key("operator").String(op.name);
    int errors = 0, warnings = 0;
    w.Key("diagnostics").BeginArray();
    for (const analysis::Diagnostic& d : diags) {
      std::printf("%s:%d: %s [%s] %s\n", name.c_str(), d.line,
                  analysis::SeverityName(d.severity), d.rule_id.c_str(),
                  d.message.c_str());
      (d.severity == analysis::Severity::kError ? errors : warnings)++;
      w.BeginObject();
      w.Key("file").String(name);  // self-contained for flat consumers
      w.Key("rule").String(d.rule_id);
      w.Key("severity").String(analysis::SeverityName(d.severity));
      w.Key("line").Int(d.line);
      w.Key("message").String(d.message);
      w.EndObject();
    }
    w.EndArray();
    w.Key("errors").Int(errors);
    w.Key("warnings").Int(warnings);
    errors_total += errors;
    warnings_total += warnings;

    if (prove && errors == 0) {
      int proven = 0;
      w.Key("proof").BeginObject();
      w.Key("configs").BeginArray();
      for (const HybridConfig& cfg : grid) {
        analysis::ProveOptions popts;
        popts.config = cfg;
        popts.vector_isa = verify.vector_isa;
        const analysis::KernelProof proof =
            analysis::ProveKernel(op, table, popts);
        w.BeginObject();
        w.Key("config").String(cfg.ToString());
        w.Key("proven").Bool(proof.proven());
        if (proof.pack_claim.statements > 0) {
          w.Key("pack_claim").BeginObject();
          w.Key("min_distance").Int(proof.pack_claim.min_distance);
          w.Key("pack_width").Int(proof.pack_claim.pack_width);
          w.Key("proven").Bool(proof.pack_claim.ProvesPackClaim());
          w.EndObject();
        }
        if (proof.proven()) {
          ++proven;
        } else {
          std::string detail = proof.translate_error;
          for (const analysis::Diagnostic& d : proof.diagnostics) {
            if (d.severity == analysis::Severity::kError) {
              detail = "[" + d.rule_id + "] " + d.message;
              break;
            }
          }
          w.Key("detail").String(detail);
          std::printf("%s: error [prove] %s unproven at %s: %s\n",
                      name.c_str(), op.name.c_str(),
                      cfg.ToString().c_str(), detail.c_str());
          ++errors_total;
        }
        w.EndObject();
      }
      w.EndArray();
      w.Key("configs_total").Int(static_cast<int>(grid.size()));
      w.Key("configs_proven").Int(proven);
      w.Key("proven").Bool(proven == static_cast<int>(grid.size()));
      w.EndObject();
      if (proven == static_cast<int>(grid.size())) {
        std::printf("%s: PROVEN at all %zu configuration(s)\n",
                    name.c_str(), grid.size());
      }
    }

    if (deep && errors == 0) {
      TranslateOptions topts;
      topts.config = config;
      topts.vector_isa = verify.vector_isa;
      const auto source = TranslateOperator(op, table, topts);
      if (!source.ok()) {
        std::printf("%s: error [translate] %s\n", name.c_str(),
                    source.status().ToString().c_str());
        ++errors_total;
        w.Key("translate_error").String(source.status().ToString());
      } else {
        const auto report = analysis::CheckDependences(
            op, source.value(), table, config, verify.vector_isa);
        if (!report.ok()) {
          std::printf("%s: error [deps] %s\n", name.c_str(),
                      report.status().ToString().c_str());
          ++errors_total;
          w.Key("dependence_error").String(report.status().ToString());
        } else {
          const analysis::DependenceReport& r = report.value();
          const analysis::RegisterPressure pressure =
              analysis::EstimatePressure(op, config, verify.vector_isa);
          std::printf(
              "%s: %s: %d statements, min dependence distance %d "
              "(pack width %d) — pack claim %s; pressure %s%s\n",
              name.c_str(), config.ToString().c_str(), r.statements,
              r.min_distance, r.pack_width,
              r.ProvesPackClaim() ? "PROVEN" : "VIOLATED",
              pressure.ToString().c_str(),
              pressure.fits() ? "" : " (exceeds register file)");
          if (!r.ProvesPackClaim()) ++errors_total;
          w.Key("dependence").BeginObject();
          w.Key("statements").Int(r.statements);
          w.Key("pack_width").Int(r.pack_width);
          w.Key("instances_per_line").Int(r.instances_per_line);
          w.Key("min_distance").Int(r.min_distance);
          w.Key("has_dependence").Bool(r.has_dependence);
          w.Key("pack_claim_proven").Bool(r.ProvesPackClaim());
          w.EndObject();
          w.Key("pressure").BeginObject();
          w.Key("scalar_live").Int(pressure.scalar_live);
          w.Key("scalar_limit").Int(pressure.scalar_limit);
          w.Key("vector_live").Int(pressure.vector_live);
          w.Key("vector_limit").Int(pressure.vector_limit);
          w.Key("fits").Bool(pressure.fits());
          w.EndObject();
        }
      }
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("errors_total").Int(errors_total);
  w.Key("warnings_total").Int(warnings_total);
  w.EndObject();

  const std::string json_path = flags.GetString("json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << w.Take() << "\n";
    std::printf("wrote lint report to %s\n", json_path.c_str());
  }
  std::printf("%d error(s), %d warning(s) across %zu template(s)\n",
              errors_total, warnings_total, inputs.size());
  return errors_total == 0 ? 0 : 1;
}

// `hef serve` — the query-serving front end (docs/serving.md). Runs until
// SIGTERM/SIGINT, then drains gracefully: admission stops (new queries
// get 503), the admitted backlog finishes or is cancelled against
// --drain_ms, and the flight recorder + metrics are flushed before exit.
std::atomic<int> g_serve_signal{0};

void OnServeSignal(int sig) {
  g_serve_signal.store(sig, std::memory_order_relaxed);
}

int CmdServe(int argc, char** argv) {
  FlagParser flags;
  flags.AddInt64("port", 8484, "listen port on 127.0.0.1 (0 = ephemeral)");
  flags.AddDouble("sf", 0.1, "scale factor of the generated database");
  flags.AddString("flavor", "auto",
                  "engine flavour: auto | scalar | simd | hybrid (auto "
                  "picks the best this host admits)");
  flags.AddString("threads", "1",
                  "morsel workers per running query (auto or a count); "
                  "the default of 1 leaves parallelism to concurrent "
                  "queries");
  flags.AddInt64("executors", 4,
                 "query executor threads == maximum queries in flight");
  flags.AddInt64("queue_limit", 64, "admission queue bound");
  flags.AddString("tenants", "",
                  "per-tenant quotas, name:rate:burst[:inflight] comma-"
                  "separated; entry named 'default' governs unlisted "
                  "tenants; empty = no quotas");
  flags.AddString("slos", "",
                  "per-tenant SLOs, name:p99_ms:target comma-separated "
                  "(e.g. gold:50:0.99,default:250:0.95); tracked on /sloz "
                  "with 5m/1h burn rates; empty = no SLO accounting");
  flags.AddString("cache", ".hef_tuning",
                  "tuning cache file; tuned probe/gather points configure "
                  "the engines and their predicted costs arm the drift "
                  "sentinel (/driftz)");
  flags.AddString("drift_advice", "",
                  "write the drift sentinel's retune advice (hef-drift-v1 "
                  "JSON) here after drain");
  flags.AddDouble("default_deadline_ms", 1000,
                  "deadline applied when a request names none");
  flags.AddDouble("max_deadline_ms", 10000, "largest accepted deadline");
  flags.AddDouble("drain_ms", 5000,
                  "graceful-drain budget after SIGTERM before in-flight "
                  "queries are cancelled");
  flags.AddInt64("http_workers", 0,
                 "HTTP handler threads (0 = auto: executors + queue_limit "
                 "+ 8, so the admission queue — not the HTTP pool — is "
                 "what saturates under overload)");
  flags.AddInt64("http_backlog", 128,
                 "accepted-connection backlog; beyond it connections get "
                 "503 + Retry-After inline");
  flags.AddString("encoding", "flat",
                  "fact-table storage: flat or a chunked-shadow policy "
                  "(auto | plain | dict | for)");
  flags.AddBool("pruning", false,
                "zone-map / histogram chunk pruning (chunked encodings)");
  flags.AddString("flight_dump", "",
                  "write the flight-recorder ring (hef-flight-v1 JSON) "
                  "here after drain");
  flags.AddString("metrics_dump", "",
                  "write the final metrics registry (Prometheus text) "
                  "here after drain");
  if (!flags.Parse(argc, argv).ok() || flags.HelpRequested()) {
    flags.PrintUsage("hef serve");
    return flags.HelpRequested() ? 0 : 1;
  }
  // The executor bound is the admission controller's; the queue bound
  // keeps the default HTTP pool size (executors + queue_limit + 8) an int.
  if (!PositiveFinite("sf", flags.GetDouble("sf")) ||
      !InRange("executors", flags.GetInt64("executors"), 1, 256) ||
      !InRange("queue_limit", flags.GetInt64("queue_limit"), 1, 1 << 20)) {
    return 1;
  }

  const auto flavor = ResolveFlavorFlag(flags.GetString("flavor"));
  if (!flavor.ok()) {
    std::fprintf(stderr, "%s\n", flavor.status().ToString().c_str());
    return 1;
  }
  const auto threads = exec::ParseThreadsFlag(flags.GetString("threads"));
  if (!threads.ok()) {
    std::fprintf(stderr, "%s\n", threads.status().ToString().c_str());
    return 1;
  }
  const auto storage = ResolveStorageFlags(flags.GetString("encoding"),
                                           flags.GetBool("pruning"));
  if (!storage.ok()) {
    std::fprintf(stderr, "%s\n", storage.status().message().c_str());
    return 1;
  }

  std::fprintf(stderr, "generating SSB database at sf=%g...\n",
               flags.GetDouble("sf"));
  ssb::SsbDatabase db = ssb::SsbDatabase::Generate(flags.GetDouble("sf"));
  storage.value().EnsureStorage(db);

  serve::ServeConfig config;
  config.engine.flavor = flavor.value();
  config.engine.threads = threads.value();
  storage.value().ApplyTo(&config.engine);
  config.admission.executors =
      static_cast<int>(flags.GetInt64("executors"));
  config.admission.queue_limit =
      static_cast<int>(flags.GetInt64("queue_limit"));
  config.admission.default_deadline_ms =
      flags.GetDouble("default_deadline_ms");
  config.admission.max_deadline_ms = flags.GetDouble("max_deadline_ms");
  config.admission.drain_deadline_ms = flags.GetDouble("drain_ms");
  config.tenants_spec = flags.GetString("tenants");
  config.slos_spec = flags.GetString("slos");
  // Tuned points from the cache configure every executor's engine, and
  // their predicted costs become the drift sentinel's references — a
  // serve process then reports residuals on /driftz exactly like the
  // bench harnesses.
  ApplyTuningCache(flags.GetString("cache"), &config.engine, stderr);
  config.http_workers = static_cast<int>(flags.GetInt64("http_workers"));
  if (config.http_workers <= 0) {
    // A worker blocks for the whole admitted lifetime of its request, so
    // admission only ever sees min(workers, clients) concurrency. Size
    // the pool past executors + queue so overload reaches the shedding
    // logic instead of invisibly queueing on the socket backlog.
    config.http_workers =
        config.admission.executors + config.admission.queue_limit + 8;
  }
  config.http_backlog = static_cast<int>(flags.GetInt64("http_backlog"));

  serve::ServeServer server(db, config);
  const Status st = server.Start(static_cast<int>(flags.GetInt64("port")));
  if (!st.ok()) {
    std::fprintf(stderr, "serve: %s\n", st.ToString().c_str());
    return 1;
  }
  // Readiness line on stdout (flushed) — harnesses wait for it, then hit
  // /healthz.
  std::printf("serving http://127.0.0.1:%d (flavor=%s executors=%d "
              "queue_limit=%d)\n",
              server.port(), FlavorName(flavor.value()),
              config.admission.executors, config.admission.queue_limit);
  std::fflush(stdout);

  std::signal(SIGTERM, OnServeSignal);
  std::signal(SIGINT, OnServeSignal);
  while (g_serve_signal.load(std::memory_order_relaxed) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const int sig = g_serve_signal.load(std::memory_order_relaxed);
  std::fprintf(stderr, "signal %d: draining (budget %.0f ms)...\n", sig,
               config.admission.drain_deadline_ms);
  Stopwatch drain_watch;
  server.Drain();
  std::fprintf(stderr, "drained in %.1f ms (late deadline sheds: %llu)\n",
               drain_watch.ElapsedMillis(),
               static_cast<unsigned long long>(
                   server.admission().late_deadline_sheds()));

  const std::string flight_dump = flags.GetString("flight_dump");
  if (!flight_dump.empty()) {
    const Status fs =
        telemetry::FlightRecorder::Get().DumpToFile(flight_dump);
    if (!fs.ok()) {
      std::fprintf(stderr, "flight dump: %s\n", fs.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote flight ring to %s\n", flight_dump.c_str());
  }
  const std::string metrics_dump = flags.GetString("metrics_dump");
  if (!metrics_dump.empty()) {
    std::ofstream out(metrics_dump, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", metrics_dump.c_str());
      return 1;
    }
    out << telemetry::MetricsRegistry::Get().ToPrometheusText();
    std::fprintf(stderr, "wrote metrics to %s\n", metrics_dump.c_str());
  }
  const std::string drift_advice = flags.GetString("drift_advice");
  if (!drift_advice.empty()) {
    const Status ds = DriftMonitor::Get().WriteAdvice(drift_advice);
    if (!ds.ok()) {
      std::fprintf(stderr, "drift advice: %s\n", ds.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote drift advice to %s\n", drift_advice.c_str());
  }
  return 0;
}

int Dispatch(const std::string& cmd, int argc, char** argv) {
  if (cmd == "info") return CmdInfo(argc, argv);
  if (cmd == "tune") return CmdTune(argc, argv);
  if (cmd == "query") return CmdQuery(argc, argv);
  if (cmd == "sql") return CmdSql(argc, argv);
  if (cmd == "generate") return CmdGenerate(argc, argv);
  if (cmd == "lint") return CmdLint(argc, argv);
  if (cmd == "serve") return CmdServe(argc, argv);
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 1;
}

int Main(int argc, char** argv) {
  // Crash diagnostics from the very start: ring + backtrace to stderr,
  // and to $HEF_FLIGHT_DIR when set (CI uploads those as artifacts).
  {
    const char* flight_dir = std::getenv("HEF_FLIGHT_DIR");
    telemetry::FlightRecorder::InstallCrashHandler(
        flight_dir == nullptr ? "" : flight_dir);
  }
  // The global --trace flag may appear anywhere on the command line; strip
  // it before subcommand flag parsing. HEF_TRACE=<path> is the env-var
  // equivalent (the flag wins when both are given).
  std::string trace_path;
  if (const char* env = std::getenv("HEF_TRACE");
      env != nullptr && env[0] != '\0') {
    trace_path = env;
  }
  int metrics_port = -1;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(std::strlen("--trace="));
      continue;
    }
    if (arg.rfind("--metrics_port=", 0) == 0) {
      metrics_port =
          std::atoi(arg.c_str() + std::strlen("--metrics_port="));
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;

  if (argc < 2 || std::strcmp(argv[1], "--help") == 0 ||
      std::strcmp(argv[1], "-h") == 0) {
    std::fprintf(stderr,
                 "usage: hef [--trace=PATH] [--metrics_port=N] "
                 "<info|tune|query|sql|generate|lint|serve> [flags]\n");
    return argc < 2 ? 1 : 0;
  }
  const std::string cmd = argv[1];
  // Shift argv so subcommand flag parsing starts after the verb.
  argv[1] = argv[0];

  telemetry::MetricsHttpServer metrics_server;
  if (metrics_port >= 0) {
    const Status ms = metrics_server.Start(metrics_port);
    if (!ms.ok()) {
      std::fprintf(stderr, "metrics: %s\n", ms.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "serving http://127.0.0.1:%d/metrics\n",
                 metrics_server.port());
  }
  // While tracing, sample the PMU on a timeline so the trace file gains
  // IPC / LLC-miss / GHz counter lanes under the span tracks.
  PmuSampler pmu_sampler;
  if (!trace_path.empty()) {
    telemetry::SpanTracer::Get().SetEnabled(true);
    (void)pmu_sampler.Start();
  }
  const int rc = Dispatch(cmd, argc - 1, argv + 1);
  pmu_sampler.Stop();
  metrics_server.Stop();
  if (!trace_path.empty()) {
    const Status st =
        telemetry::SpanTracer::Get().WriteTraceFile(trace_path);
    if (!st.ok()) {
      std::fprintf(stderr, "trace: %s\n", st.ToString().c_str());
      return rc == 0 ? 1 : rc;
    }
    std::fprintf(stderr, "wrote trace to %s (open in chrome://tracing)\n",
                 trace_path.c_str());
  }
  return rc;
}

}  // namespace
}  // namespace hef

int main(int argc, char** argv) { return hef::Main(argc, argv); }
