#include "engine/primitives.h"

#include "common/macros.h"
#include "hybrid/hybrid_grid.h"
#include "procinfo/cpu_features.h"
#include "ssb/chunked_fact.h"
#include "table/linear_hash_table.h"

namespace hef {

namespace {

// Map kernel: out[i] = base[in[i]].
struct GatherKernel {
  const std::uint64_t* base = nullptr;

  template <typename B>
  struct State {
    typename B::Reg idx;
  };

  template <typename B>
  HEF_INLINE void Load(State<B>& st, const std::uint64_t* in) const {
    st.idx = B::LoadU(in);
  }
  template <typename B>
  HEF_INLINE void Compute(State<B>& st) const {
    st.idx = B::Gather(base, st.idx);
  }
  template <typename B>
  HEF_INLINE void Store(std::uint64_t* out, const State<B>& st) const {
    B::StoreU(out, st.idx);
  }
};

using GatherGrid = HybridGrid<GatherKernel, /*MaxV=*/2, /*MaxS=*/4,
                              /*MaxP=*/3>;

}  // namespace

void GatherArray(const HybridConfig& cfg, const std::uint64_t* base,
                 const std::uint64_t* idx, std::uint64_t* out,
                 std::size_t n) {
  GatherKernel kernel;
  kernel.base = base;
  GatherGrid::Run(cfg, kernel, idx, out, n);
}

const std::vector<HybridConfig>& GatherSupportedConfigs() {
  static const std::vector<HybridConfig>* configs =
      new std::vector<HybridConfig>(GatherGrid::Supported());
  return *configs;
}

std::vector<OpClass> GatherKernelOps() {
  return {OpClass::kLoad, OpClass::kGather, OpClass::kStore};
}

namespace {

std::size_t CompactInRangeScalar(const std::uint64_t* values, std::size_t n,
                                 std::uint64_t lo, std::uint64_t hi,
                                 std::uint64_t* positions_out) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    positions_out[count] = i;
    count += (values[i] >= lo) & (values[i] <= hi);
  }
  return count;
}

#if HEF_HAVE_AVX512
std::size_t CompactInRangeSimd(const std::uint64_t* values, std::size_t n,
                               std::uint64_t lo, std::uint64_t hi,
                               std::uint64_t* positions_out) {
  using B = Avx512Backend;
  const auto vlo = B::Set1(lo);
  const auto vhi = B::Set1(hi);
  alignas(64) static constexpr std::uint64_t kIota[8] = {0, 1, 2, 3,
                                                         4, 5, 6, 7};
  auto iota = B::LoadU(kIota);
  const auto step = B::Set1(8);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const auto v = B::LoadU(values + i);
    // lo <= v && v <= hi  ==  !(lo > v) && !(v > hi)
    const auto ge_lo = B::MaskNot(B::CmpGt(vlo, v));
    const auto le_hi = B::MaskNot(B::CmpGt(v, vhi));
    const auto m = B::MaskAnd(ge_lo, le_hi);
    count += static_cast<std::size_t>(
        B::CompressStoreU(positions_out + count, m, iota));
    iota = B::Add(iota, step);
  }
  for (; i < n; ++i) {
    positions_out[count] = i;
    count += (values[i] >= lo) & (values[i] <= hi);
  }
  return count;
}
#endif

}  // namespace

std::size_t CompactInRange(Flavor flavor, const std::uint64_t* values,
                           std::size_t n, std::uint64_t lo, std::uint64_t hi,
                           std::uint64_t* positions_out) {
#if HEF_HAVE_AVX512
  if (flavor != Flavor::kScalar) {
    return CompactInRangeSimd(values, n, lo, hi, positions_out);
  }
#endif
  return CompactInRangeScalar(values, n, lo, hi, positions_out);
}

std::size_t CompactHits(Flavor flavor, const std::uint64_t* values,
                        std::size_t n, std::uint64_t* positions_out) {
  return CompactInRange(flavor, values, n, 0, kMissValue - 1, positions_out);
}

const char* FlavorName(Flavor flavor) {
  switch (flavor) {
    case Flavor::kScalar:
      return "scalar";
    case Flavor::kSimd:
      return "simd";
    case Flavor::kHybrid:
      return "hybrid";
  }
  return "unknown";
}

Result<Flavor> FlavorByName(const std::string& name) {
  if (name == "scalar") return Flavor::kScalar;
  if (name == "simd") return Flavor::kSimd;
  if (name == "hybrid") return Flavor::kHybrid;
  return Status::InvalidArgument("unknown flavor '" + name +
                                 "' (expected scalar|simd|hybrid)");
}

Status CheckFlavorSupported(Flavor flavor) {
  if (flavor == Flavor::kScalar) return Status::OK();
  const CpuFeatures& cpu = CpuFeatures::Get();
  if (cpu.BestIsa() == Isa::kScalar) {
    return Status::Unsupported(
        std::string("flavor '") + FlavorName(flavor) +
        "' needs a vector ISA but this host has none usable (cpu: " +
        (cpu.brand.empty() ? "unknown" : cpu.brand) + ")");
  }
  return Status::OK();
}

Result<Flavor> ResolveFlavorFlag(const std::string& name) {
  if (name == "auto" || name.empty()) {
    return CpuFeatures::Get().BestIsa() == Isa::kScalar ? Flavor::kScalar
                                                        : Flavor::kHybrid;
  }
  Result<Flavor> parsed = FlavorByName(name);
  HEF_RETURN_NOT_OK(parsed.status());
  HEF_RETURN_NOT_OK(CheckFlavorSupported(parsed.value()));
  return parsed;
}

Result<StorageFlags> ResolveStorageFlags(const std::string& encoding,
                                         bool pruning) {
  StorageFlags flags;
  flags.chunked = encoding != "flat";
  flags.pruning = pruning;
  if (flags.chunked &&
      !storage::EncodingPolicyByName(encoding.c_str(), &flags.policy)) {
    return Status::InvalidArgument("--encoding=" + encoding +
                                   ": want flat | auto | plain | dict | for");
  }
  if (pruning && !flags.chunked) {
    return Status::InvalidArgument(
        "--pruning requires a chunked --encoding");
  }
  return flags;
}

void StorageFlags::EnsureStorage(ssb::SsbDatabase& db) const {
  ssb::ChunkedFactOptions options;
  options.policy = policy;
  if (chunked) ssb::EnsureChunked(db, options);
}

}  // namespace hef
