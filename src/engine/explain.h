// EXPLAIN ANALYZE for hef queries: renders the per-operator statistics a
// stats-collecting Run accumulated (QueryResult::operator_stats plus the
// diagnostics envelope) as a plan tree — which operator, which kernel
// flavor, which tuned (v,s,p) point, how many rows survived, how long it
// took, whether the plan came from cache. A hybrid row lists the engine
// kernels it called, each at the point it ran. A chunked scan adds a
// decode row: the values it read out of encoded storage, the decode
// kernels, and the time and PMU deltas that cost, taken out of the
// operator rows that asked for them.
//
// Two renderings share one traversal: a human text tree (`hef query
// --explain`) and the machine-readable `hef-explain-v1` JSON document
// (`--explain_json`, the /tracez exemplar payload, CI schema checks).
// The SSB star plans are linear pipelines, so the "tree" is a chain:
// the sink (group-by) at the root, the build at the leaf, rendered
// bottom-up the way the rows flow.

#ifndef HEF_ENGINE_EXPLAIN_H_
#define HEF_ENGINE_EXPLAIN_H_

#include <array>
#include <string>

#include "engine/flavor.h"
#include "engine/result.h"
#include "hybrid/hybrid_config.h"

namespace hef {

// Context the stats rows alone cannot carry. `tuned` marks the kernel
// points as meaningful (the hybrid flavor); Voila and the pure flavors
// leave it false and the renderings omit (v,s,p) annotations.
struct ExplainMeta {
  std::string query;   // e.g. "Q2.1"
  std::string engine;  // e.g. "hybrid", "voila"
  std::string flavor;  // kernel flavor name; may equal engine
  bool tuned = false;
  // The point each EngineKernel runs at, indexed by the kernel.
  std::array<HybridConfig, kEngineKernels.size()> points{};
  const HybridConfig& PointFor(EngineKernel kernel) const {
    return points[static_cast<std::size_t>(kernel)];
  }
};

// Meta for an SsbEngine run: the flavor and the point of every kernel
// (EngineConfig::PointFor) come from the engine config.
ExplainMeta MakeExplainMeta(const std::string& query,
                            const std::string& engine,
                            const EngineConfig& config);

// Human-readable plan tree. Requires a Run with collect_stats; renders a
// one-line note when the result carries no operator stats.
std::string ExplainToText(const ExplainMeta& meta,
                          const QueryResult& result);

// {"schema":"hef-explain-v1",...} with the same information.
std::string ExplainToJson(const ExplainMeta& meta,
                          const QueryResult& result);

}  // namespace hef

#endif  // HEF_ENGINE_EXPLAIN_H_
