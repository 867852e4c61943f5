// Instruction latency / throughput tables.
//
// The paper's candidate generator picks the initial pack size from the
// instruction with the largest latency/throughput ratio in an operator
// template (§IV-A), quoting the Intel intrinsics guide numbers (e.g.
// vpgatherqq: latency 26, reciprocal throughput 5). This table records
// those reference numbers for every operation class the hybrid intermediate
// description can emit, per ISA, together with the issue-port class the
// port-model simulator schedules them on.

#ifndef HEF_PROCINFO_INSTRUCTION_TABLE_H_
#define HEF_PROCINFO_INSTRUCTION_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "procinfo/cpu_features.h"

namespace hef {

// Operation classes of the hybrid intermediate description (paper Table I,
// extended with the comparison/compress ops the SSB pipelines need).
enum class OpClass {
  kAdd,       // hi_add_epi64 / scalar add
  kSub,       // hi_sub_epi64
  kMul,       // hi_mullo_epi64 / imul (vpmullq on AVX-512DQ)
  kAnd,       // hi_and_epi64
  kOr,        // hi_or_epi64
  kXor,       // hi_xor_epi64
  kShiftLeft,   // hi_slli_epi64
  kShiftRight,  // hi_srli_epi64
  kLoad,      // hi_load_epi64 (contiguous)
  kStore,     // hi_store_epi64
  kGather,    // hi_gather_epi64 (indexed load)
  kCmpEq,     // hi_cmpeq_epi64 -> mask
  kCmpGt,     // hi_cmpgt_epi64 -> mask
  kCompress,  // hi_compressstore (AVX-512) / branchy append (scalar)
  kBlend,     // hi_blend (mask select)
  kSet1,      // hi_set1_epi64 (broadcast constant)
};

const char* OpClassName(OpClass op);

// Which execution-pipe family the uop issues to. The port model maps these
// onto ProcessorModel pipe counts.
enum class PortKind {
  kSimdAlu,    // vector ALU (add/logic/shift/compare/blend)
  kSimdMul,    // vector multiply-capable pipe
  kScalarAlu,  // scalar integer ALU
  kScalarMul,  // scalar integer multiply pipe
  kLoad,       // load AGU+data port
  kStore,      // store port
};

struct InstructionInfo {
  OpClass op;
  Isa isa;
  // Cycles until the result is consumable by a dependent instruction.
  double latency = 1.0;
  // Reciprocal throughput: cycles between issues of this instruction on the
  // same pipe when independent instances are available.
  double throughput = 1.0;
  // Micro-operations the instruction decodes into.
  int uops = 1;
  PortKind port = PortKind::kSimdAlu;
  // Number of register operands consumed/produced — the `argc` of the
  // paper's pack formula (gather on AVX-512 takes base+index+mask+dest).
  int argc = 3;
};

// Read-only view of the built-in description table (Skylake-SP reference
// numbers, matching the figures quoted in the paper).
class InstructionTable {
 public:
  // Singleton accessor for the built-in table.
  static const InstructionTable& Get();

  // Lookup; aborts on unknown (op, isa) pairs — every HID op must be
  // covered for every ISA by construction, and the unit tests enforce it.
  const InstructionInfo& Lookup(OpClass op, Isa isa) const;

  // All entries (for iteration in tests/benches).
  const std::vector<InstructionInfo>& entries() const { return entries_; }

  // The entry with the maximum latency/throughput ratio among `ops` for
  // `isa` — the pack-size driver of the candidate generator.
  const InstructionInfo& MaxLatencyOverThroughput(
      const std::vector<OpClass>& ops, Isa isa) const;

 private:
  InstructionTable();
  std::vector<InstructionInfo> entries_;
};

}  // namespace hef

#endif  // HEF_PROCINFO_INSTRUCTION_TABLE_H_
