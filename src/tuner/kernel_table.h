// Kernel table — one description per built-in kernel, driving everything
// the offline phase (paper §IV, Algorithm 2) does with it.
//
// Each entry carries the facts the paper's loop needs for one operator:
// the HID template that models it (proved at every grid point by
// `hef lint --prove` and used as the tuner's semantic admission), the
// (v, s, p) grid its runtime precompiles, the op mix that seeds the
// candidate generator, the register-pressure profile for static
// admission, and the standalone tuning workload. `TuneKernel` runs
// Algorithm 2 over any entry; `hef tune` persists the entries whose point
// the engine reads from EngineConfig::points (TunedPoints::Find) and
// `ApplyTuningCache` loads them back "without further training"
// (§III-A).

#ifndef HEF_TUNER_KERNEL_TABLE_H_
#define HEF_TUNER_KERNEL_TABLE_H_

#include <cstddef>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/flavor.h"
#include "procinfo/instruction_table.h"
#include "procinfo/processor_model.h"
#include "tuner/optimizer.h"
#include "tuner/tuning_cache.h"

namespace hef {

struct KernelTuneOptions {
  // Elements per measurement run; sized to be compute-bound (L2-resident)
  // by default, as the paper's operators are.
  std::size_t elements = 1 << 15;
  // Repetitions per measurement; the minimum over repetitions is used
  // (robust against scheduling noise).
  int repetitions = 9;
  // Processor model feeding the candidate generator.
  ProcessorModel model = ProcessorModel::Host();
  // Keys in the hash table (or Bloom filter) the probe workloads build.
  // The tuning workload must resemble the deployment workload (the paper
  // tunes against "predefined test queries"); SSB harnesses size this
  // like their dimension tables so the tuned point carries over.
  std::size_t probe_table_keys = 1 << 13;
  // Fraction of probe keys that hit the table.
  double probe_hit_rate = 0.5;
};

// Live values per statement instance and shared constants, for static
// register-pressure admission (analysis::MakePressureCheck) and the
// pressure-aware candidate seed.
struct PressureProfile {
  int live_values = 0;
  int constants = 0;
};

struct KernelEntry {
  std::string name;  // "murmur", "probe", "unpack_bits", ...
  // HID template text modelling the kernel; empty when none does.
  std::string template_text;
  // The (v, s, p) grid the kernel's runtime precompiles: every point the
  // tuner may pick, and every point the prover certifies.
  std::vector<HybridConfig> grid;
  // Op mix of one statement instance (candidate-generator input).
  std::vector<OpClass> ops;
  // Absent: no static admission, and the seed ignores pressure.
  std::optional<PressureProfile> pressure;
  // Builds the standalone tuning inputs and returns the min-of-repetitions
  // wall-clock measurement over them; null when the kernel has none.
  MeasureFn (*workload)(const KernelTuneOptions&) = nullptr;
};

// Every built-in kernel, in a fixed order.
const std::vector<KernelEntry>& KernelTable();

// The entry named `name`; aborts when there is none.
const KernelEntry& FindKernel(const std::string& name);

// One name `hef lint --prove` certifies, with the entry whose template
// and grid it proves.
struct ProofTarget {
  std::string name;
  const KernelEntry* entry = nullptr;
};

// The template entries, then one `ssb_q*` alias per SSB query: Q1.x are
// scan-bound and map to `for_add`, Q2–Q4 are join-bound and map to
// `probe`. The probe entry is certified only under those ten aliases.
std::vector<ProofTarget> ProofTargets();

// Algorithm 2 over one entry: seeds the search with the candidate
// generator clamped into the grid, admits statically by the entry's
// pressure profile and semantically by proof of its template, measures
// with its workload, and stamps the winner's ns per element (the drift
// sentinel's prediction). The entry must have a workload.
TuneResult TuneKernel(const KernelEntry& entry,
                      const KernelTuneOptions& options = {});

// Tunes every entry TunedPoints::Find names, in table order, and records
// each winner in `cache` (the caller saves it).
std::vector<std::pair<const KernelEntry*, TuneResult>> TuneEnginePoints(
    const KernelTuneOptions& options, TuningCache* cache);

// The one loader of tuned points. Loads the cache at `path` and, for
// every entry TunedPoints::Find names, validates the cached point against
// the entry's grid, sets it in engine->points and registers the point's
// predicted cost with the drift sentinel. A bad cache line or an
// out-of-grid point is warned about on stderr and leaves that point's
// default (a bad header drops the whole file); the applied points are
// listed on `out` ("using cached tuning: probe v1s1p3, gather v1s0p1").
void ApplyTuningCache(const std::string& path, EngineConfig* engine,
                      std::FILE* out);

}  // namespace hef

#endif  // HEF_TUNER_KERNEL_TABLE_H_
