// Google-benchmark microbenchmarks for every kernel flavour: per-element
// cost of MurmurHash, CRC64, hash probe and gather across (v, s, p)
// coordinates. Complements the paper-exhibit harnesses with
// statistically-managed measurements.

#include <benchmark/benchmark.h>

#include "algo/crc64.h"
#include "algo/murmur.h"
#include "common/aligned_buffer.h"
#include "common/rng.h"
#include "algo/fmix32.h"
#include "engine/flavor.h"
#include "engine/primitives.h"
#include "engine/scan.h"
#include "storage/chunked_column.h"
#include "table/bloom_filter.h"
#include "table/group_agg.h"
#include "table/linear_hash_table.h"
#include "table/probe.h"

namespace hef {
namespace {

constexpr std::size_t kElements = 1 << 16;  // L2-resident: compute-bound

// Encodes (v, s, p) into benchmark args.
void KernelConfigs(benchmark::internal::Benchmark* b) {
  for (const HybridConfig cfg :
       {HybridConfig{0, 1, 1}, HybridConfig{0, 3, 2}, HybridConfig{1, 0, 1},
        HybridConfig{1, 0, 3}, HybridConfig{1, 3, 2}, HybridConfig{2, 2, 2},
        HybridConfig{2, 0, 2}}) {
    b->Args({cfg.v, cfg.s, cfg.p});
  }
}

HybridConfig ArgConfig(const benchmark::State& state) {
  return HybridConfig{static_cast<int>(state.range(0)),
                      static_cast<int>(state.range(1)),
                      static_cast<int>(state.range(2))};
}

void BM_Murmur(benchmark::State& state) {
  const HybridConfig cfg = ArgConfig(state);
  AlignedBuffer<std::uint64_t> in(kElements, 256), out(kElements, 256);
  Rng rng(1);
  for (std::size_t i = 0; i < kElements; ++i) in[i] = rng.Next();
  for (auto _ : state) {
    MurmurHashArray(cfg, in.data(), out.data(), kElements);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kElements);
  state.SetLabel(cfg.ToString());
}
BENCHMARK(BM_Murmur)->Apply(KernelConfigs);

void BM_Crc64(benchmark::State& state) {
  const HybridConfig cfg = ArgConfig(state);
  AlignedBuffer<std::uint64_t> in(kElements, 256), out(kElements, 256);
  Rng rng(2);
  for (std::size_t i = 0; i < kElements; ++i) in[i] = rng.Next();
  for (auto _ : state) {
    Crc64Array(cfg, in.data(), out.data(), kElements);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kElements);
  state.SetLabel(cfg.ToString());
}
BENCHMARK(BM_Crc64)->Apply(KernelConfigs);

void BM_Crc64Pack(benchmark::State& state) {
  // Pure-SIMD pack sweep: the Fig. 3 mechanism in isolation.
  const HybridConfig cfg{static_cast<int>(state.range(0)), 0, 1};
  AlignedBuffer<std::uint64_t> in(kElements, 512), out(kElements, 512);
  Rng rng(3);
  for (std::size_t i = 0; i < kElements; ++i) in[i] = rng.Next();
  for (auto _ : state) {
    Crc64Array(cfg, in.data(), out.data(), kElements);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kElements);
  state.SetLabel(cfg.ToString());
}
BENCHMARK(BM_Crc64Pack)->DenseRange(1, 8, 1);

void BM_Probe(benchmark::State& state) {
  const HybridConfig cfg = ArgConfig(state);
  const std::size_t table_keys = kElements / 4;
  LinearHashTable table(table_keys);
  for (std::uint64_t k = 0; k < table_keys; ++k) table.Insert(k * 2 + 1, k);
  AlignedBuffer<std::uint64_t> keys(kElements, 256), out(kElements, 256);
  Rng rng(4);
  for (std::size_t i = 0; i < kElements; ++i) {
    keys[i] = rng.Uniform(0, table_keys * 2);
  }
  for (auto _ : state) {
    ProbeArray(cfg, table, keys.data(), out.data(), kElements);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kElements);
  state.SetLabel(cfg.ToString());
}
BENCHMARK(BM_Probe)->Apply(KernelConfigs);

void BM_Gather(benchmark::State& state) {
  const HybridConfig cfg = ArgConfig(state);
  AlignedBuffer<std::uint64_t> base(kElements, 256), idx(kElements, 256),
      out(kElements, 256);
  Rng rng(5);
  for (std::size_t i = 0; i < kElements; ++i) {
    base[i] = rng.Next();
    idx[i] = rng.Uniform(0, kElements - 1);
  }
  for (auto _ : state) {
    GatherArray(cfg, base.data(), idx.data(), out.data(), kElements);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kElements);
  state.SetLabel(cfg.ToString());
}
BENCHMARK(BM_Gather)->Apply(KernelConfigs);

void BM_BloomProbe(benchmark::State& state) {
  const HybridConfig cfg = ArgConfig(state);
  BloomFilter filter(kElements / 4);
  Rng rng(6);
  for (std::size_t i = 0; i < kElements / 4; ++i) {
    filter.Insert(rng.Uniform(0, 1 << 22));
  }
  AlignedBuffer<std::uint64_t> keys(kElements, 256), out(kElements, 256);
  for (std::size_t i = 0; i < kElements; ++i) {
    keys[i] = rng.Uniform(0, 1 << 22);
  }
  for (auto _ : state) {
    BloomProbeArray(cfg, filter, keys.data(), out.data(), kElements);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kElements);
  state.SetLabel(cfg.ToString());
}
BENCHMARK(BM_BloomProbe)->Apply(KernelConfigs);

void BM_GroupAgg(benchmark::State& state) {
  // Scalar loop vs conflict-detected vector accumulate; arg = group count
  // (small domains conflict often, large domains rarely).
  const bool use_simd = state.range(0) != 0;
  const auto groups = static_cast<std::size_t>(state.range(1));
  AlignedBuffer<std::uint64_t> gids(kElements, 64), vals(kElements, 64);
  Rng rng(8);
  for (std::size_t i = 0; i < kElements; ++i) {
    gids[i] = rng.Uniform(0, groups - 1);
    vals[i] = rng.Uniform(0, 100);
  }
  std::vector<std::uint64_t> agg(groups), cnt(groups);
  for (auto _ : state) {
    GroupSumAdd(use_simd, gids.data(), vals.data(), kElements, agg.data(),
                cnt.data());
    benchmark::DoNotOptimize(agg.data());
  }
  state.SetItemsProcessed(state.iterations() * kElements);
  state.SetLabel(use_simd ? "simd" : "scalar");
}
BENCHMARK(BM_GroupAgg)
    ->Args({0, 16})
    ->Args({1, 16})
    ->Args({0, 4096})
    ->Args({1, 4096});

void BM_ScanRangeBitmap(benchmark::State& state) {
  const Flavor flavor =
      state.range(0) == 0 ? Flavor::kScalar : Flavor::kSimd;
  AlignedBuffer<std::uint64_t> col(kElements, 64);
  AlignedBuffer<std::uint64_t> bitmap(BitmapWords(kElements), 8);
  Rng rng(10);
  for (std::size_t i = 0; i < kElements; ++i) col[i] = rng.Uniform(0, 99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScanRangeBitmap(flavor, col.data(), kElements,
                                             25, 74, bitmap.data()));
  }
  state.SetItemsProcessed(state.iterations() * kElements);
  state.SetLabel(FlavorName(flavor));
}
BENCHMARK(BM_ScanRangeBitmap)->Arg(0)->Arg(1);

// Late materialization crossover: one 4096-row engine block of a 16-bit
// FoR, a dictionary, or a plain chunk, with survivors at a given density
// (percent). Mode 0 decodes only the survivors (DecodeAt); mode 1 decodes
// the whole block and gathers the survivors (DecodeRange + GatherArray),
// as the chunked scan did before. The last argument picks the engine
// flavour whose kernel coordinates run (0 hybrid, 1 scalar). Items are
// survivors, so ns/item compares the two modes at equal output.
void BM_LateDecode(benchmark::State& state) {
  constexpr std::size_t kBlock = 4096;
  static const char* const kEncodings[] = {"for", "dict", "plain"};
  const auto encoding = static_cast<std::size_t>(state.range(0));
  const auto density = static_cast<std::uint64_t>(state.range(1));
  const bool survivors_only = state.range(2) == 0;
  Rng rng(11);
  std::vector<std::uint64_t> values(storage::kDefaultChunkRows);
  for (auto& v : values) {
    v = encoding == 1 ? 1000 + 7 * rng.Uniform(0, 199)
                      : 19920101 + rng.Uniform(0, 60000);
  }
  storage::EncodingPolicy policy = storage::EncodingPolicy::kFor;
  if (encoding == 1) policy = storage::EncodingPolicy::kDict;
  if (encoding == 2) policy = storage::EncodingPolicy::kPlain;
  const storage::ChunkedColumn col = storage::ChunkedColumn::Encode(
      values.data(), values.size(), values.size(), policy);
  AlignedBuffer<std::uint64_t> pos(kBlock, 64), block(kBlock, 64),
      out(kBlock, 64);
  std::size_t n = 0;
  for (std::size_t i = 0; i < kBlock; ++i) {
    if (rng.Uniform(0, 99) < density) pos[n++] = i;
  }
  storage::DecodeScratch scratch;
  scratch.EnsureCapacity(kBlock);
  EngineConfig config;
  config.flavor = state.range(3) == 0 ? Flavor::kHybrid : Flavor::kScalar;
  const HybridConfig decode = config.PointFor(EngineKernel::kUnpackBits);
  const HybridConfig gather = config.PointFor(EngineKernel::kGather);
  const std::size_t b0 = 8 * kBlock;  // mid-chunk
  for (auto _ : state) {
    if (survivors_only) {
      col.DecodeAt(decode, b0, pos.data(), n, scratch, out.data());
    } else {
      col.DecodeRange(decode, b0, kBlock, scratch, block.data());
      GatherArray(gather, block.data(), pos.data(), out.data(), n);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.SetLabel(std::string(kEncodings[encoding]) +
                 (survivors_only ? " decode_at " : " range+gather ") +
                 FlavorName(config.flavor));
}
BENCHMARK(BM_LateDecode)
    ->ArgsProduct({{0, 1, 2}, {1, 10, 50, 90}, {0, 1}, {0, 1}});

void BM_Fmix32(benchmark::State& state) {
  // 32-bit-lane kernel (Table II vint32): sixteen lanes per zmm.
  const HybridConfig cfg = ArgConfig(state);
  AlignedBuffer<std::uint32_t> in(kElements, 512), out(kElements, 512);
  Rng rng(7);
  for (std::size_t i = 0; i < kElements; ++i) {
    in[i] = static_cast<std::uint32_t>(rng.Next());
  }
  for (auto _ : state) {
    Fmix32Array(cfg, in.data(), out.data(), kElements);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kElements);
  state.SetLabel(cfg.ToString());
}
BENCHMARK(BM_Fmix32)->Apply(KernelConfigs);

}  // namespace
}  // namespace hef

BENCHMARK_MAIN();
