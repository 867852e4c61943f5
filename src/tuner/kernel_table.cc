#include "tuner/kernel_table.h"

#include <algorithm>
#include <cctype>
#include <limits>
#include <memory>

#include "algo/crc64.h"
#include "algo/murmur.h"
#include "algo/reduce.h"
#include "analysis/kernel_prover.h"
#include "analysis/register_pressure.h"
#include "codegen/description_table.h"
#include "codegen/operator_template.h"
#include "common/aligned_buffer.h"
#include "common/macros.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "engine/primitives.h"
#include "engine/query_id.h"
#include "perf/drift_monitor.h"
#include "procinfo/cpu_features.h"
#include "storage/decode.h"
#include "storage/decode_templates.h"
#include "storage/encoding.h"
#include "table/bloom_filter.h"
#include "table/linear_hash_table.h"
#include "table/probe.h"
#include "tuner/candidate_generator.h"
#include "tuner/search_space.h"

namespace hef {

namespace {

// The SplitMix64-style finalizer example; pure register pipeline, same
// tuning space shape as murmur (examples/templates/mix64.hid is the
// file-based twin).
constexpr char kMix64Template[] =
    "operator mix64\n"
    "const c1 = 0xbf58476d1ce4e5b9\n"
    "const c2 = 0x94d049bb133111eb\n"
    "var x\n"
    "var t\n"
    "body:\n"
    "x = hi_load_epi64(IN)\n"
    "t = hi_srli_epi64(x, 30)\n"
    "x = hi_xor_epi64(x, t)\n"
    "x = hi_mullo_epi64(x, c1)\n"
    "t = hi_srli_epi64(x, 27)\n"
    "x = hi_xor_epi64(x, t)\n"
    "x = hi_mullo_epi64(x, c2)\n"
    "t = hi_srli_epi64(x, 31)\n"
    "x = hi_xor_epi64(x, t)\n"
    "hi_store_epi64(OUT, x)\n";

// The hash-probe pipeline every SSB join runs (table/probe.h Compute):
// the murmur finalizer chain, then the bucket-mask and the bucket-array
// gather. The mask constant makes the gather bounds-provable — the index
// is h & 0xffff < 65536 by construction, which HID013 verifies against
// the declared extent.
constexpr char kProbeHashTemplate[] =
    "operator probe_hash\n"
    "ptr buckets [65536]\n"
    "const m = 0xc6a4a7935bd1e995\n"
    "const h0 = 0xb160ea8090f805ba\n"
    "const mask = 0xffff\n"
    "var data\n"
    "var k\n"
    "var h\n"
    "var slot\n"
    "body:\n"
    "data = hi_load_epi64(IN)\n"
    "k = hi_mullo_epi64(data, m)\n"
    "data = hi_srli_epi64(k, 47)\n"
    "k = hi_xor_epi64(data, k)\n"
    "k = hi_mullo_epi64(k, m)\n"
    "h = hi_xor_epi64(h0, k)\n"
    "h = hi_mullo_epi64(h, m)\n"
    "data = hi_srli_epi64(h, 47)\n"
    "h = hi_xor_epi64(h, data)\n"
    "h = hi_mullo_epi64(h, m)\n"
    "data = hi_srli_epi64(h, 47)\n"
    "h = hi_xor_epi64(h, data)\n"
    "slot = hi_and_epi64(h, mask)\n"
    "slot = hi_gather_epi64(buckets, slot)\n"
    "hi_store_epi64(OUT, slot)\n";

// Frame-of-reference base of the for_add template and workload: the SSB
// date epoch.
constexpr std::uint64_t kForBase = 19920101;
// Packed width the unpack_bits template and workload use: the modal SSB
// fact width (orderdate/custkey/suppkey all land there).
constexpr std::uint8_t kUnpackWidth = 16;

bool InGrid(const std::vector<HybridConfig>& grid, const HybridConfig& cfg) {
  return std::find(grid.begin(), grid.end(), cfg) != grid.end();
}

// ---------------------------------------------------------------------------
// Tuning workloads. Buffers are shared with the returned MeasureFn, which
// outlives the builder.

using Buffer = std::shared_ptr<AlignedBuffer<std::uint64_t>>;

Buffer NewBuffer(std::size_t n) {
  return std::make_shared<AlignedBuffer<std::uint64_t>>(n, 256);
}

Buffer RandomBuffer(std::size_t n, std::uint64_t seed) {
  Buffer b = NewBuffer(n);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) (*b)[i] = rng.Next();
  return b;
}

// Min-of-repetitions wall-clock measurement of one pass of `run`.
template <typename Run>
MeasureFn Timed(const KernelTuneOptions& options, Run run) {
  return [run, repetitions = options.repetitions](const HybridConfig& cfg) {
    run(cfg);  // warm-up: page in buffers, prime caches and branch predictors
    double best = std::numeric_limits<double>::max();
    for (int r = 0; r < repetitions; ++r) {
      Stopwatch sw;
      run(cfg);
      best = std::min(best, sw.ElapsedSeconds());
    }
    return best;
  };
}

MeasureFn MurmurWorkload(const KernelTuneOptions& o) {
  Buffer in = RandomBuffer(o.elements, 11), out = NewBuffer(o.elements);
  return Timed(o, [in, out](const HybridConfig& cfg) {
    MurmurHashArray(cfg, in->data(), out->data(), in->size());
  });
}

MeasureFn Crc64Workload(const KernelTuneOptions& o) {
  Buffer in = RandomBuffer(o.elements, 13), out = NewBuffer(o.elements);
  return Timed(o, [in, out](const HybridConfig& cfg) {
    Crc64Array(cfg, in->data(), out->data(), in->size());
  });
}

MeasureFn ProbeWorkload(const KernelTuneOptions& o) {
  // Table sized by the caller (SSB harnesses pass their dimension-table
  // cardinality); key stream mixed to the requested hit rate.
  const std::size_t table_keys = std::max<std::size_t>(o.probe_table_keys, 1);
  auto table = std::make_shared<LinearHashTable>(table_keys);
  for (std::uint64_t k = 0; k < table_keys; ++k) table->Insert(k * 2 + 1, k);
  Buffer keys = NewBuffer(o.elements), out = NewBuffer(o.elements);
  Rng rng(17);
  for (std::size_t i = 0; i < o.elements; ++i) {
    const bool hit = rng.Bernoulli(o.probe_hit_rate);
    (*keys)[i] = rng.Uniform(0, table_keys - 1) * 2 + (hit ? 1 : 0);
  }
  return Timed(o, [table, keys, out](const HybridConfig& cfg) {
    ProbeArray(cfg, *table, keys->data(), out->data(), keys->size());
  });
}

MeasureFn GatherWorkload(const KernelTuneOptions& o) {
  Buffer base = NewBuffer(o.elements), idx = NewBuffer(o.elements),
         out = NewBuffer(o.elements);
  Rng rng(19);
  for (std::size_t i = 0; i < o.elements; ++i) (*base)[i] = rng.Next();
  for (std::size_t i = 0; i < o.elements; ++i) {
    (*idx)[i] = rng.Uniform(0, o.elements - 1);
  }
  return Timed(o, [base, idx, out](const HybridConfig& cfg) {
    GatherArray(cfg, base->data(), idx->data(), out->data(), idx->size());
  });
}

MeasureFn BloomWorkload(const KernelTuneOptions& o) {
  const std::size_t keys_in = o.probe_table_keys;
  auto filter =
      std::make_shared<BloomFilter>(std::max<std::size_t>(keys_in, 1));
  Rng rng(23);
  for (std::size_t k = 0; k < keys_in; ++k) {
    filter->Insert(rng.Uniform(0, keys_in * 4));
  }
  Buffer keys = NewBuffer(o.elements), out = NewBuffer(o.elements);
  for (std::size_t i = 0; i < o.elements; ++i) {
    (*keys)[i] = rng.Uniform(0, keys_in * 4);
  }
  return Timed(o, [filter, keys, out](const HybridConfig& cfg) {
    BloomProbeArray(cfg, *filter, keys->data(), out->data(), keys->size());
  });
}

MeasureFn SumWorkload(const KernelTuneOptions& o) {
  Buffer in = RandomBuffer(o.elements, 29);
  return Timed(o, [in](const HybridConfig& cfg) {
    DoNotOptimize(SumArray(cfg, in->data(), in->size()));
  });
}

MeasureFn UnpackBitsWorkload(const KernelTuneOptions& o) {
  // Unpacked from the front of the chunk, the way DecodeRange drives the
  // kernel.
  AlignedBuffer<std::uint64_t> values(o.elements, 256);
  Rng rng(31);
  for (std::size_t i = 0; i < o.elements; ++i) {
    values[i] = rng.Uniform(0, (1ULL << kUnpackWidth) - 1);
  }
  auto words = std::make_shared<AlignedBuffer<std::uint64_t>>(
      storage::PackedWords(o.elements, kUnpackWidth), 8);
  storage::PackBits(values.data(), o.elements, kUnpackWidth, words->data());
  auto scratch = std::make_shared<storage::DecodeScratch>();
  scratch->EnsureCapacity(o.elements);
  Buffer out = NewBuffer(o.elements);
  return Timed(o, [words, scratch, out](const HybridConfig& cfg) {
    storage::UnpackBitsArray(cfg, words->data(), kUnpackWidth, /*first=*/0,
                             scratch->iota(), out->data(), out->size());
  });
}

MeasureFn ForAddWorkload(const KernelTuneOptions& o) {
  Buffer in = NewBuffer(o.elements), out = NewBuffer(o.elements);
  Rng rng(37);
  for (std::size_t i = 0; i < o.elements; ++i) {
    (*in)[i] = rng.Uniform(0, 1 << 16);
  }
  return Timed(o, [in, out](const HybridConfig& cfg) {
    storage::ForAddArray(cfg, kForBase, in->data(), out->data(), in->size());
  });
}

MeasureFn DictGatherWorkload(const KernelTuneOptions& o) {
  // Dictionary sized at the encoder's distinct-value cap: the worst
  // (most cache-hungry) dictionary a chunk can carry.
  const std::size_t dict_size = storage::kDictDistinctCap;
  Buffer dict = NewBuffer(dict_size), codes = NewBuffer(o.elements),
         out = NewBuffer(o.elements);
  Rng rng(41);
  for (std::size_t i = 0; i < dict_size; ++i) (*dict)[i] = rng.Next();
  for (std::size_t i = 0; i < o.elements; ++i) {
    (*codes)[i] = rng.Uniform(0, dict_size - 1);
  }
  return Timed(o, [dict, codes, out](const HybridConfig& cfg) {
    storage::DictGatherArray(cfg, dict->data(), codes->data(), out->data(),
                             codes->size());
  });
}

// ---------------------------------------------------------------------------

// The live-variable and constant counts straight off a HID template, so
// the tuner and the translator reason from the same model.
PressureProfile ProfileOf(const std::string& template_text) {
  const OperatorTemplate op = OperatorTemplate::Parse(template_text).value();
  return {analysis::MaxLiveTemplateVars(op),
          static_cast<int>(op.constants.size())};
}

std::vector<KernelEntry> BuildTable() {
  // Gather kernels keep the index and the loaded value live.
  constexpr PressureProfile kGatherProfile{2, 0};
  std::vector<KernelEntry> table;
  table.push_back({"murmur", BuiltinMurmurTemplate(), MurmurSupportedConfigs(),
                   MurmurKernel::Ops(), ProfileOf(BuiltinMurmurTemplate()),
                   MurmurWorkload});
  table.push_back({"crc64", BuiltinCrc64Template(), Crc64SupportedConfigs(),
                   Crc64Kernel::Ops(), ProfileOf(BuiltinCrc64Template()),
                   Crc64Workload});
  table.push_back({"mix64", kMix64Template, MurmurSupportedConfigs()});
  // Each probe instance keeps the key, the hash-chain temporary and the
  // probe result live, over three shared constants (murmur multiplier,
  // seed fold, slot mask).
  table.push_back({"probe", kProbeHashTemplate, ProbeSupportedConfigs(),
                   ProbeKernel::Ops(), PressureProfile{3, 3}, ProbeWorkload});
  table.push_back({"gather", "", GatherSupportedConfigs(), GatherKernelOps(),
                   kGatherProfile, GatherWorkload});
  // Probe rounds of a filter at the default bits per key, as the
  // workload builds it.
  table.push_back({"bloom", "", BloomProbeSupportedConfigs(),
                   BloomProbeKernel::Ops(BloomFilter(1).num_probes()),
                   std::nullopt, BloomWorkload});
  table.push_back({"sum", "", ReduceSupportedConfigs(), SumKernel::Ops(),
                   std::nullopt, SumWorkload});
  // The chunk-decode kernels (storage/decode.h). The engine decodes at the
  // fixed point EngineConfig::PointFor gives them, so the cache sets none.
  table.push_back({"unpack_bits", storage::UnpackBitsTemplateText(kUnpackWidth),
                   storage::UnpackBitsSupportedConfigs(),
                   storage::UnpackBitsKernelOps(),
                   PressureProfile{storage::kUnpackBitsLiveValues,
                                   storage::kUnpackBitsConstants},
                   UnpackBitsWorkload});
  // FoR reconstruction over 32-bit deltas (the widest packed width) —
  // wraparound-free by HID014 given these ranges.
  table.push_back({"for_add",
                   storage::ForAddTemplateText(kForBase, 0xffffffffULL),
                   storage::ForAddSupportedConfigs(),
                   storage::ForAddKernelOps(), std::nullopt, ForAddWorkload});
  table.push_back({"dict_gather", storage::DictGatherTemplateText(),
                   storage::DictGatherSupportedConfigs(),
                   storage::DictGatherKernelOps(), kGatherProfile,
                   DictGatherWorkload});
  return table;
}

// Clamps the candidate generator's seed into the compiled grid so the
// search always has a valid starting node.
HybridConfig ClampToGrid(HybridConfig cfg,
                         const std::vector<HybridConfig>& grid) {
  const HybridConfig max = GridBounds(grid);
  cfg.v = std::min(cfg.v, max.v);
  cfg.s = std::min(cfg.s, max.s);
  cfg.p = std::min(cfg.p, max.p);
  if (cfg.v + cfg.s == 0) cfg.s = std::min(1, max.s);
  return cfg;
}

}  // namespace

const std::vector<KernelEntry>& KernelTable() {
  static const std::vector<KernelEntry> table = BuildTable();
  return table;
}

const KernelEntry& FindKernel(const std::string& name) {
  for (const KernelEntry& entry : KernelTable()) {
    if (entry.name == name) return entry;
  }
  HEF_CHECK_MSG(false, "no kernel '%s' in the kernel table", name.c_str());
  return KernelTable().front();
}

std::vector<ProofTarget> ProofTargets() {
  std::vector<ProofTarget> targets;
  for (const KernelEntry& entry : KernelTable()) {
    if (!entry.template_text.empty() && entry.name != "probe") {
      targets.push_back({entry.name, &entry});
    }
  }
  for (QueryId id : AllQueries()) {
    std::string name = QueryName(id);  // "Q2.1"
    for (char& c : name) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    const bool scan_bound = name.compare(0, 2, "q1") == 0;
    targets.push_back(
        {"ssb_" + name, &FindKernel(scan_bound ? "for_add" : "probe")});
  }
  return targets;
}

TuneResult TuneKernel(const KernelEntry& entry,
                      const KernelTuneOptions& options) {
  HEF_CHECK_MSG(entry.workload != nullptr, "kernel '%s' has no workload",
                entry.name.c_str());
  const Isa isa = CpuFeatures::Get().BestIsa();
  const OperatorTraits traits{entry.ops, isa};
  TuneOptions tune;
  tune.is_supported = [&grid = entry.grid](const HybridConfig& cfg) {
    return InGrid(grid, cfg);
  };
  HybridConfig seed;
  if (entry.pressure) {
    const PressureProfile& p = *entry.pressure;
    seed = GenerateInitialCandidate(options.model, traits, p.live_values,
                                    p.constants);
    tune.static_check =
        analysis::MakePressureCheck(p.live_values, p.constants, isa);
  } else {
    seed = GenerateInitialCandidate(options.model, traits);
  }
  // Equivalence-failing candidates are never benchmarked; the check
  // memoizes per config, so the cost is one proof per visited node.
  if (!entry.template_text.empty()) {
    tune.semantic_check = analysis::MakeSemanticCheck(
        OperatorTemplate::Parse(entry.template_text).value(),
        DescriptionTable::Builtin(), isa);
  }
  TuneResult result = Tune(ClampToGrid(seed, entry.grid),
                           entry.workload(options), tune);
  if (options.elements > 0 && result.best_time > 0) {
    result.ns_per_element =
        result.best_time * 1e9 / static_cast<double>(options.elements);
  }
  return result;
}

std::vector<std::pair<const KernelEntry*, TuneResult>> TuneEnginePoints(
    const KernelTuneOptions& options, TuningCache* cache) {
  std::vector<std::pair<const KernelEntry*, TuneResult>> tuned;
  TunedPoints settable;
  for (const KernelEntry& entry : KernelTable()) {
    if (settable.Find(entry.name) == nullptr) continue;
    TuneResult r = TuneKernel(entry, options);
    cache->Put(entry.name, r.best, r.best_time, r.ns_per_element);
    tuned.emplace_back(&entry, std::move(r));
  }
  return tuned;
}

void ApplyTuningCache(const std::string& path, EngineConfig* engine,
                      std::FILE* out) {
  TuningCache cache(path);
  const Status loaded = cache.Load();
  WarnTuningCache("load", loaded);
  // A bad line drops only itself, so apply whatever loaded. Nothing to
  // apply: leave the table (and the kernel grids it pulls in) unbuilt.
  if (cache.size() == 0) return;
  std::string applied;
  for (const KernelEntry& entry : KernelTable()) {
    HybridConfig* field = engine->points.Find(entry.name);
    if (field == nullptr) continue;
    const Result<TuningCache::Entry> point = cache.Get(entry.name);
    if (!point.ok()) continue;
    const HybridConfig& cfg = point.value().config;
    if (!InGrid(entry.grid, cfg)) {
      WarnTuningCache("apply", Status::InvalidArgument(
                                   entry.name + " " + cfg.ToString() +
                                   " is outside its compiled grid; keeping " +
                                   field->ToString()));
      continue;
    }
    *field = cfg;
    DriftMonitor::Get().SetPrediction(entry.name, cfg.ToString(),
                                      point.value().ns_per_row);
    applied += (applied.empty() ? "" : ", ") + entry.name + " " +
               cfg.ToString();
  }
  if (!applied.empty()) {
    std::fprintf(out, "using cached tuning: %s\n", applied.c_str());
  }
}

}  // namespace hef
