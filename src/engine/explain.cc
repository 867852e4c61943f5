#include "engine/explain.h"

#include <cstdio>
#include <string>
#include <vector>

#include "telemetry/diagnostics.h"
#include "telemetry/json_writer.h"

namespace hef {

namespace {

// Operator kind, classified from the stats-row naming convention the
// engines share ("build", "decode", "filter.<col>", "probe.<col>",
// "groupby").
const char* OperatorKind(const std::string& name) {
  if (name == "groupby") return "aggregate";
  if (name == "decode") return "decode";
  if (name == "build") return "build";
  if (name.rfind("filter.", 0) == 0) return "filter";
  if (name.rfind("probe.", 0) == 0) return "probe";
  return "op";
}

// The (v, s, p) object of one point.
void WritePoint(const HybridConfig& cfg, telemetry::JsonWriter& w) {
  w.BeginObject();
  w.Key("v").Int(cfg.v);
  w.Key("s").Int(cfg.s);
  w.Key("p").Int(cfg.p);
  w.EndObject();
}

std::string FormatMs(std::uint64_t nanos) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(nanos) / 1e6);
  return buf;
}

std::string FormatRows(std::uint64_t rows) {
  char buf[32];
  if (rows >= 10'000'000) {
    std::snprintf(buf, sizeof(buf), "%.1fM",
                  static_cast<double>(rows) / 1e6);
  } else if (rows >= 10'000) {
    std::snprintf(buf, sizeof(buf), "%.1fk",
                  static_cast<double>(rows) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(rows));
  }
  return buf;
}

}  // namespace

ExplainMeta MakeExplainMeta(const std::string& query,
                            const std::string& engine,
                            const EngineConfig& config) {
  ExplainMeta meta;
  meta.query = query;
  meta.engine = engine;
  meta.flavor = FlavorName(config.flavor);
  meta.tuned = config.flavor == Flavor::kHybrid;
  for (const EngineKernel kernel : kEngineKernels) {
    meta.points[static_cast<std::size_t>(kernel)] = config.PointFor(kernel);
  }
  return meta;
}

std::string ExplainToText(const ExplainMeta& meta,
                          const QueryResult& result) {
  std::string out;
  out += meta.query;
  out += " [";
  out += meta.engine;
  if (meta.flavor != meta.engine) {
    out += "/";
    out += meta.flavor;
  }
  out += "]";
  if (result.trace_id != 0) {
    out += " trace=";
    out += telemetry::FormatTraceId(result.trace_id);
  }
  out += " wall=" + FormatMs(result.wall_nanos) + "ms";
  if (result.morsels != 0) {
    out += " morsels=" + std::to_string(result.morsels);
  }
  out += result.plan_cache_hit ? " plan=cached" : " plan=built";
  if (result.chunks_total != 0) {
    out += " chunks=" + std::to_string(result.chunks_scanned) + "/" +
           std::to_string(result.chunks_total);
    if (result.chunks_pruned != 0) {
      out += " pruned=" + std::to_string(result.chunks_pruned);
    }
  }
  out += "\n";
  if (result.operator_stats.empty()) {
    out += "  (no operator stats; run with --stats / collect_stats)\n";
    return out;
  }

  // Sink at the root, build at the leaf: walk the execution order
  // backwards, indenting one level per operator.
  const auto& ops = result.operator_stats;
  for (std::size_t i = ops.size(); i-- > 0;) {
    const OperatorStats& op = ops[i];
    const std::size_t depth = ops.size() - 1 - i;
    for (std::size_t d = 0; d < depth; ++d) out += "  ";
    out += depth == 0 ? "" : "`- ";
    out += op.name;
    const std::string kind = OperatorKind(op.name);
    if (meta.tuned && op.kernels != 0) {
      // The kernels this row called, each at the point it ran.
      const char* sep = " (";
      for (const EngineKernel kernel : kEngineKernels) {
        if ((op.kernels & KernelBit(kernel)) == 0) continue;
        out += sep + std::string(EngineKernelName(kernel)) + " " +
               meta.PointFor(kernel).ToString();
        sep = ", ";
      }
      out += ")";
    }
    out += "  self=" + FormatMs(op.wall_nanos) + "ms";
    if (kind == "decode") {
      // One row per value read out of encoded storage: filter codes
      // unpacked, and columns decoded whole or at their survivors.
      out += "  values=" + FormatRows(op.rows_out);
    } else if (op.rows_in != 0 || op.rows_out != 0) {
      out += "  rows " + FormatRows(op.rows_in) + " -> " +
             FormatRows(op.rows_out);
      if (op.rows_in != 0 && kind != "build" && kind != "aggregate") {
        char sel[24];
        std::snprintf(sel, sizeof(sel), "  sel=%.2f%%",
                      op.Selectivity() * 100.0);
        out += sel;
      }
    }
    if (op.chunks_scanned != 0 || op.chunks_pruned != 0) {
      // scanned / reached for this stage (first pruning cause wins).
      out += "  chunks=" + std::to_string(op.chunks_scanned) + "/" +
             std::to_string(op.chunks_scanned + op.chunks_pruned);
    }
    if (op.invocations > 1) {
      out += "  calls=" + std::to_string(op.invocations);
    }
    if (op.perf.valid && op.perf.cycles > 0) {
      char ipc[24];
      std::snprintf(ipc, sizeof(ipc), "  ipc=%.2f",
                    static_cast<double>(op.perf.instructions) /
                        static_cast<double>(op.perf.cycles));
      out += ipc;
    }
    out += "\n";
  }
  return out;
}

std::string ExplainToJson(const ExplainMeta& meta,
                          const QueryResult& result) {
  telemetry::JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("hef-explain-v1");
  w.Key("query").String(meta.query);
  w.Key("engine").String(meta.engine);
  w.Key("flavor").String(meta.flavor);
  if (result.trace_id != 0) {
    w.Key("trace").String(telemetry::FormatTraceId(result.trace_id));
  }
  w.Key("wall_ms").Double(static_cast<double>(result.wall_nanos) / 1e6);
  w.Key("morsels").UInt(result.morsels);
  w.Key("plan_cache_hit").Bool(result.plan_cache_hit);
  w.Key("qualifying_rows").UInt(result.qualifying_rows);
  if (result.chunks_total != 0) {
    w.Key("chunks_total").UInt(result.chunks_total);
    w.Key("chunks_scanned").UInt(result.chunks_scanned);
    w.Key("chunks_pruned").UInt(result.chunks_pruned);
  }
  w.Key("output_rows")
      .UInt(static_cast<std::uint64_t>(result.rows.size()));
  if (meta.tuned) {
    w.Key("tuned").BeginObject();
    w.Key("probe");
    WritePoint(meta.PointFor(EngineKernel::kProbe), w);
    w.Key("gather");
    WritePoint(meta.PointFor(EngineKernel::kGather), w);
    w.EndObject();
  }
  w.Key("operators").BeginArray();
  for (const OperatorStats& op : result.operator_stats) {
    const std::string kind = OperatorKind(op.name);
    w.BeginObject();
    w.Key("name").String(op.name);
    w.Key("kind").String(kind);
    w.Key("self_ms").Double(static_cast<double>(op.wall_nanos) / 1e6);
    w.Key("invocations").UInt(op.invocations);
    w.Key("rows_in").UInt(op.rows_in);
    w.Key("rows_out").UInt(op.rows_out);
    w.Key("selectivity").Double(op.Selectivity());
    if (kind == "decode") w.Key("values_decoded").UInt(op.rows_out);
    if (op.chunks_scanned != 0 || op.chunks_pruned != 0) {
      w.Key("chunks_scanned").UInt(op.chunks_scanned);
      w.Key("chunks_pruned").UInt(op.chunks_pruned);
    }
    if (meta.tuned && op.kernels != 0) {
      w.Key("tuned").BeginObject();
      for (const EngineKernel kernel : kEngineKernels) {
        if ((op.kernels & KernelBit(kernel)) == 0) continue;
        w.Key(EngineKernelName(kernel));
        WritePoint(meta.PointFor(kernel), w);
      }
      w.EndObject();
    }
    if (op.perf.valid) {
      w.Key("instructions").UInt(op.perf.instructions);
      w.Key("cycles").UInt(op.perf.cycles);
      w.Key("llc_misses").UInt(op.perf.llc_misses);
      if (op.perf.scaled) w.Key("pmu_scaled").Bool(true);
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

}  // namespace hef
