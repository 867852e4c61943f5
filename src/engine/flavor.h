// Execution flavours of the SSB pipelines.
//
// The paper compares four implementations of every query: purely scalar,
// purely SIMD (the VIP-style vectorized pipeline), HEF hybrid, and Voila.
// The first three share one pipeline structure ("we adopt the same
// [operator, pipeline, materialization] configuration for queries
// implemented with HEF") and differ only in the kernels' (v, s, p)
// coordinates; Voila is a separate engine (src/voila).

#ifndef HEF_ENGINE_FLAVOR_H_
#define HEF_ENGINE_FLAVOR_H_

#include <array>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "hybrid/hybrid_config.h"
#include "storage/encoding.h"

namespace hef {

namespace ssb {
struct SsbDatabase;
}  // namespace ssb

enum class Flavor {
  kScalar,  // every kernel at v0 s1 p1
  kSimd,    // every kernel at v1 s0 p1
  kHybrid,  // kernels at the tuned (v, s, p) coordinates
};

const char* FlavorName(Flavor flavor);
Result<Flavor> FlavorByName(const std::string& name);

// Serving-path admission: OK when this host can actually run `flavor`,
// Unsupported when it cannot (simd/hybrid need an AVX2-or-better
// lowering; scalar always admits). The kernels would otherwise degrade
// to their scalar paths silently — acceptable for exploratory CLI use,
// wrong for a server that advertised a SIMD flavour.
Status CheckFlavorSupported(Flavor flavor);

// Parses a --flavor flag for serving binaries: "auto" resolves to the
// best flavour the host admits (hybrid with any vector ISA, scalar
// otherwise); a named flavour must pass CheckFlavorSupported. Errors are
// InvalidArgument (unknown name) or Unsupported (host cannot run it).
Result<Flavor> ResolveFlavorFlag(const std::string& name);

// The kernels the SSB engine calls, each named as its kernel-table entry
// (tuner/kernel_table.h), in the order a probe stage calls them.
enum class EngineKernel : std::uint8_t {
  kBloom, kProbe, kGather, kUnpackBits, kForAdd, kDictGather
};
inline constexpr std::array<EngineKernel, 6> kEngineKernels = {
    EngineKernel::kBloom,      EngineKernel::kProbe,
    EngineKernel::kGather,     EngineKernel::kUnpackBits,
    EngineKernel::kForAdd,     EngineKernel::kDictGather};

inline const char* EngineKernelName(EngineKernel kernel) {
  constexpr const char* kNames[] = {"bloom",       "probe",   "gather",
                                    "unpack_bits", "for_add", "dict_gather"};
  return kNames[static_cast<int>(kernel)];
}

// A set of EngineKernels: bit k is set when kernel k is in the set.
using KernelSet = std::uint32_t;
constexpr KernelSet KernelBit(EngineKernel kernel) {
  return KernelSet{1} << static_cast<int>(kernel);
}

// The points the tuning cache may set, keyed by kernel-table name.
struct TunedPoints {
  HybridConfig probe{1, 1, 3};
  HybridConfig gather{1, 1, 3};
  // The point of the kernel named `name`; null for any other name.
  HybridConfig* Find(const std::string& name) {
    if (name == "probe") return &probe;
    if (name == "gather") return &gather;
    return nullptr;
  }
};

// Per-engine configuration. The hybrid kernel coordinates default to the
// paper's SSB optimum (one SIMD + one scalar statement, pack of three,
// §V-B); the tuner can override them per host. The filter strategy follows
// the flavour: the vector flavours evaluate multi-predicate WHERE clauses
// as bitmap scans + one conjunction (Zhou & Ross selection scans), the
// scalar flavour compacts after every predicate (EXPERIMENTS.md §7).
struct EngineConfig {
  Flavor flavor = Flavor::kSimd;
  // Coordinates used when flavor == kHybrid.
  TunedPoints points;
  // Rows per pipeline block (the vectorized engine's vector size).
  int block_size = 4096;
  // Collect per-operator statistics (wall time, row counts, selectivity)
  // into QueryResult::operator_stats. Adds two clock reads per operator
  // per block, so it is off by default and benchmark timings should keep
  // it off.
  bool collect_stats = false;
  // Additionally attribute PMU deltas (instructions / cycles / LLC
  // misses) to each operator via one group read(2) per operator boundary.
  // Only meaningful with collect_stats; silently degrades to wall-clock
  // stats when the PMU is unavailable.
  bool collect_pmu = false;
  // Worker threads for the fact scan (morsel parallelism over blocks,
  // claimed one at a time from one shared cursor by workers on the
  // persistent exec::TaskPool). 0 means "auto": one worker per hardware
  // thread. Results are bit-identical for any thread count (group sums
  // are commutative). The paper measures per-core behaviour, so the
  // paper-exhibit benchmarks pin this to 1.
  int threads = 0;
  // Reuse built plans (filtered dimension hash tables + Bloom filters)
  // across repeated Run() calls on the same engine, keyed by QueryId.
  // Serving workloads want this on; paper-exhibit benchmarks that report
  // end-to-end per-query time (build included) turn it off.
  bool plan_cache = true;
  // Scan the fact table through the chunked, per-chunk-encoded shadow
  // (ssb::EnsureChunked) instead of the flat columns. Filters compare
  // codes as stored and other columns decode only the rows that survive
  // to them (SsbEngine::ExecuteBlock). Requires db.chunked to be built with
  // chunk_rows a multiple of block_size; Run() rejects the query
  // otherwise.
  bool chunked_scan = false;
  // With chunked_scan: evaluate every chunk's zone map + histogram
  // against the plan's range filters and join key ranges at plan build,
  // and dispatch only the blocks of chunks not proven empty. Results are
  // bit-identical with pruning on or off.
  bool scan_pruning = false;

  // The point `kernel` runs at, and the only map from a kernel to its
  // point. The pure flavours pin every kernel. Hybrid runs the Bloom probe
  // at the hash probe's point and the three chunk-decode kernels at the
  // paper's SSB optimum (one point: ChunkedColumn takes one for all three).
  HybridConfig PointFor(EngineKernel kernel) const {
    if (flavor == Flavor::kScalar) return HybridConfig::PureScalar();
    if (flavor == Flavor::kSimd) return HybridConfig::PureSimd();
    if (kernel == EngineKernel::kBloom || kernel == EngineKernel::kProbe) {
      return points.probe;
    }
    if (kernel == EngineKernel::kGather) return points.gather;
    return {1, 1, 3};  // unpack_bits, for_add, dict_gather
  }

  // Views for hef_bench's layer replay, which predates PointFor.
  HybridConfig ProbeConfig() const { return PointFor(EngineKernel::kProbe); }
  HybridConfig GatherConfig() const { return PointFor(EngineKernel::kGather); }
  HybridConfig DecodeConfig() const {
    return PointFor(EngineKernel::kUnpackBits);
  }
};

// The fact-table storage chosen by a serving binary's --encoding and
// --pruning flags.
struct StorageFlags {
  bool chunked = false;  // any --encoding but "flat"
  bool pruning = false;
  storage::EncodingPolicy policy = storage::EncodingPolicy::kAuto;

  // Builds db's chunked shadow when chunked (a no-op for flat storage or
  // when the shadow already exists).
  void EnsureStorage(ssb::SsbDatabase& db) const;
  // Sets config's chunked_scan and scan_pruning.
  void ApplyTo(EngineConfig* config) const {
    config->chunked_scan = chunked;
    config->scan_pruning = pruning;
  }
};

// Parses --encoding (flat | auto | plain | dict | for) and validates
// --pruning against it. Errors are InvalidArgument whose message is the
// text to print: "--encoding=X: want flat | auto | plain | dict | for" or
// "--pruning requires a chunked --encoding".
Result<StorageFlags> ResolveStorageFlags(const std::string& encoding,
                                         bool pruning);

}  // namespace hef

#endif  // HEF_ENGINE_FLAVOR_H_
