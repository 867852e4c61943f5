#include "procinfo/instruction_table.h"

#include "common/macros.h"

namespace hef {

const char* OpClassName(OpClass op) {
  switch (op) {
    case OpClass::kAdd: return "add";
    case OpClass::kSub: return "sub";
    case OpClass::kMul: return "mul";
    case OpClass::kAnd: return "and";
    case OpClass::kOr: return "or";
    case OpClass::kXor: return "xor";
    case OpClass::kShiftLeft: return "sll";
    case OpClass::kShiftRight: return "srl";
    case OpClass::kLoad: return "load";
    case OpClass::kStore: return "store";
    case OpClass::kGather: return "gather";
    case OpClass::kCmpEq: return "cmpeq";
    case OpClass::kCmpGt: return "cmpgt";
    case OpClass::kCompress: return "compress";
    case OpClass::kBlend: return "blend";
    case OpClass::kSet1: return "set1";
  }
  return "unknown";
}

namespace {

// Shorthand builders keep the table readable.
constexpr InstructionInfo S(OpClass op, double lat, double tp, int uops,
                            PortKind port, int argc = 3) {
  return InstructionInfo{op, Isa::kScalar, lat, tp, uops, port, argc};
}
constexpr InstructionInfo V2(OpClass op, double lat, double tp, int uops,
                             PortKind port, int argc = 3) {
  return InstructionInfo{op, Isa::kAvx2, lat, tp, uops, port, argc};
}
constexpr InstructionInfo V5(OpClass op, double lat, double tp, int uops,
                             PortKind port, int argc = 3) {
  return InstructionInfo{op, Isa::kAvx512, lat, tp, uops, port, argc};
}

}  // namespace

InstructionTable::InstructionTable() {
  // Skylake-SP reference numbers (Intel intrinsics guide / optimization
  // manual, the paper's sources). Latency = cycles to a dependent use with
  // L1-resident data; throughput = reciprocal throughput in cycles.
  entries_ = {
      // --- scalar (64-bit GPR) ---
      S(OpClass::kAdd, 1, 0.25, 1, PortKind::kScalarAlu),
      S(OpClass::kSub, 1, 0.25, 1, PortKind::kScalarAlu),
      S(OpClass::kMul, 3, 1.0, 1, PortKind::kScalarMul),
      S(OpClass::kAnd, 1, 0.25, 1, PortKind::kScalarAlu),
      S(OpClass::kOr, 1, 0.25, 1, PortKind::kScalarAlu),
      S(OpClass::kXor, 1, 0.25, 1, PortKind::kScalarAlu),
      S(OpClass::kShiftLeft, 1, 0.5, 1, PortKind::kScalarAlu),
      S(OpClass::kShiftRight, 1, 0.5, 1, PortKind::kScalarAlu),
      S(OpClass::kLoad, 4, 0.5, 1, PortKind::kLoad, 2),
      S(OpClass::kStore, 4, 1.0, 1, PortKind::kStore, 2),
      // A scalar "gather" is simply an indexed load.
      S(OpClass::kGather, 4, 0.5, 1, PortKind::kLoad, 2),
      S(OpClass::kCmpEq, 1, 0.25, 1, PortKind::kScalarAlu),
      S(OpClass::kCmpGt, 1, 0.25, 1, PortKind::kScalarAlu),
      // Scalar compress = compare + conditional store + cursor bump.
      S(OpClass::kCompress, 2, 1.0, 2, PortKind::kStore, 3),
      S(OpClass::kBlend, 1, 0.5, 1, PortKind::kScalarAlu),
      S(OpClass::kSet1, 1, 0.25, 1, PortKind::kScalarAlu, 1),

      // --- AVX2 (ymm, 4x64) ---
      V2(OpClass::kAdd, 1, 0.33, 1, PortKind::kSimdAlu),
      V2(OpClass::kSub, 1, 0.33, 1, PortKind::kSimdAlu),
      // No vpmullq below AVX-512DQ: emulated with 3 vpmuludq + shifts/adds.
      V2(OpClass::kMul, 10, 3.0, 5, PortKind::kSimdMul),
      V2(OpClass::kAnd, 1, 0.33, 1, PortKind::kSimdAlu),
      V2(OpClass::kOr, 1, 0.33, 1, PortKind::kSimdAlu),
      V2(OpClass::kXor, 1, 0.33, 1, PortKind::kSimdAlu),
      V2(OpClass::kShiftLeft, 1, 0.5, 1, PortKind::kSimdAlu),
      V2(OpClass::kShiftRight, 1, 0.5, 1, PortKind::kSimdAlu),
      V2(OpClass::kLoad, 7, 0.5, 1, PortKind::kLoad, 2),
      V2(OpClass::kStore, 5, 1.0, 1, PortKind::kStore, 2),
      V2(OpClass::kGather, 22, 5.0, 4, PortKind::kLoad, 3),
      V2(OpClass::kCmpEq, 1, 0.5, 1, PortKind::kSimdAlu),
      V2(OpClass::kCmpGt, 1, 0.5, 1, PortKind::kSimdAlu),
      // No compress instruction in AVX2: shuffle-table emulation.
      V2(OpClass::kCompress, 6, 2.0, 4, PortKind::kSimdAlu, 3),
      V2(OpClass::kBlend, 1, 0.33, 1, PortKind::kSimdAlu),
      V2(OpClass::kSet1, 3, 1.0, 1, PortKind::kSimdAlu, 1),

      // --- AVX-512 (zmm, 8x64) ---
      V5(OpClass::kAdd, 1, 0.5, 1, PortKind::kSimdAlu),
      V5(OpClass::kSub, 1, 0.5, 1, PortKind::kSimdAlu),
      // vpmullq zmm: 3 uops on the FMA pipes, latency 15, rtp 1.5.
      V5(OpClass::kMul, 15, 1.5, 3, PortKind::kSimdMul),
      V5(OpClass::kAnd, 1, 0.5, 1, PortKind::kSimdAlu),
      V5(OpClass::kOr, 1, 0.5, 1, PortKind::kSimdAlu),
      V5(OpClass::kXor, 1, 0.5, 1, PortKind::kSimdAlu),
      V5(OpClass::kShiftLeft, 1, 1.0, 1, PortKind::kSimdAlu),
      V5(OpClass::kShiftRight, 1, 1.0, 1, PortKind::kSimdAlu),
      V5(OpClass::kLoad, 8, 0.5, 1, PortKind::kLoad, 2),
      V5(OpClass::kStore, 5, 1.0, 1, PortKind::kStore, 2),
      // vpgatherqq zmm: the paper's flagship example — latency 26, rtp 5.
      V5(OpClass::kGather, 26, 5.0, 5, PortKind::kLoad, 4),
      V5(OpClass::kCmpEq, 3, 1.0, 1, PortKind::kSimdAlu),
      V5(OpClass::kCmpGt, 3, 1.0, 1, PortKind::kSimdAlu),
      // vpcompressq + store.
      V5(OpClass::kCompress, 6, 2.0, 2, PortKind::kStore, 3),
      V5(OpClass::kBlend, 1, 0.5, 1, PortKind::kSimdAlu),
      V5(OpClass::kSet1, 3, 1.0, 1, PortKind::kSimdAlu, 1),
  };
}

const InstructionTable& InstructionTable::Get() {
  static const InstructionTable* table = new InstructionTable();
  return *table;
}

const InstructionInfo& InstructionTable::Lookup(OpClass op, Isa isa) const {
  for (const auto& e : entries_) {
    if (e.op == op && e.isa == isa) return e;
  }
  HEF_CHECK_MSG(false, "no instruction table entry for %s/%s",
                OpClassName(op), IsaName(isa));
  __builtin_unreachable();
}

const InstructionInfo& InstructionTable::MaxLatencyOverThroughput(
    const std::vector<OpClass>& ops, Isa isa) const {
  HEF_CHECK_MSG(!ops.empty(), "empty op list");
  const InstructionInfo* best = &Lookup(ops[0], isa);
  double best_ratio = best->latency / best->throughput;
  for (std::size_t i = 1; i < ops.size(); ++i) {
    const InstructionInfo& info = Lookup(ops[i], isa);
    const double ratio = info.latency / info.throughput;
    if (ratio > best_ratio) {
      best = &info;
      best_ratio = ratio;
    }
  }
  return *best;
}

}  // namespace hef
