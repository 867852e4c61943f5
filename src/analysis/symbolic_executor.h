// Symbolic executor — translation validation for the HID translator
// (Algorithm 1). Instead of trusting the expansion, it proves each
// emitted kernel equivalent to its scalar template:
//
//   1. *Recover* the instance program: every statement of the emitted
//      chunk loop (and scalar tail) is matched back to the template
//      statement + instance coordinates (vector/scalar, lane group,
//      pack) that must have produced it, by re-instantiating the
//      description-table patterns. A line the translator could not have
//      emitted refutes the kernel instead of being guessed at.
//   2. *Execute symbolically*: the recovered program runs over symbolic
//      lanes (symbolic_expr DAGs), vector statements evaluating
//      `lanes` elements at a time, producing the expression each chunk
//      element's output stores.
//   3. *Compare* lane-by-lane against the scalar reference semantics of
//      the template, one iteration-space slice per element: proven means
//      every out[k] of one chunk (plus the tail) normalizes to the same
//      DAG node as the scalar program's out[k].
//
// The trusted base is the description table's op semantics (Table I):
// `hi_add_epi64` is assumed to mean 64-bit wrapping addition in all three
// lowerings, etc. Everything *above* that — unrolling, instance naming,
// offsets, constant broadcast, statement scheduling — is proven, which is
// exactly the part Algorithm 1 can get wrong.

#ifndef HEF_ANALYSIS_SYMBOLIC_EXECUTOR_H_
#define HEF_ANALYSIS_SYMBOLIC_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/symbolic_expr.h"
#include "codegen/description_table.h"
#include "codegen/operator_template.h"
#include "common/status.h"
#include "hybrid/hybrid_config.h"

namespace hef {
namespace analysis {

// One recovered statement instance of the emitted kernel, in emitted
// order. `stmt_index` points into the template body; tail instances are
// the scalar remainder loop (one element per iteration).
struct InstanceStatement {
  int stmt_index = 0;
  bool vector = false;
  int lane_group = 0;  // v index (vector) or s index (scalar)
  int pack = 0;
  bool tail = false;
};

struct InstanceProgram {
  std::vector<InstanceStatement> chunk;  // chunk-loop body, emitted order
  std::vector<InstanceStatement> tail;   // tail-loop body, emitted order
};

// Matches every emitted chunk/tail statement of `generated_source` back
// to (template statement, instance). Fails (InvalidArgument) when a line
// is not a possible instantiation for `op` at `config` — the refutation
// path of the validator.
Result<InstanceProgram> RecoverInstanceProgram(
    const OperatorTemplate& op, const std::string& generated_source,
    const DescriptionTable& table, const HybridConfig& config,
    Isa vector_isa);

// Symbolic value of out[k] under the template's scalar reference
// semantics, with in[k] = arena.Input(element_offset). Fails if the body
// never stores (unverified template).
Result<const Expr*> EvalScalarReference(const OperatorTemplate& op,
                                        ExprArena& arena,
                                        int element_offset);

struct EquivalenceReport {
  bool proven = false;
  int elements = 0;        // chunk elements compared lane-by-lane
  int statements = 0;      // recovered chunk-loop statement instances
  bool tail_checked = false;
  int mismatch_offset = -1;  // first differing chunk element, -1 if none
  std::string detail;        // refutation explanation ("" when proven)
};

// Proves `program` (recovered from the translator's output for
// `translated` at `config`) equivalent to the scalar semantics of
// `reference`, lane-by-lane over one chunk slice plus the tail. Callers
// validating the translator pass the same template twice; mutation tests
// pass the original as `reference` and the mutant as `translated`.
EquivalenceReport ProveEquivalence(const OperatorTemplate& reference,
                                   const OperatorTemplate& translated,
                                   const InstanceProgram& program,
                                   const HybridConfig& config,
                                   Isa vector_isa);

// Recovers the instance program of `generated_source` and proves it. A
// source that is not an instantiation of `translated` (no chunk loop, a
// foreign line) is refuted: proven=false with the recovery error as
// detail.
Result<EquivalenceReport> ProveEquivalence(
    const OperatorTemplate& reference, const OperatorTemplate& translated,
    const std::string& generated_source, const DescriptionTable& table,
    const HybridConfig& config, Isa vector_isa);

// Self-equivalence convenience (reference == translated).
Result<EquivalenceReport> ProveEquivalence(
    const OperatorTemplate& op, const std::string& generated_source,
    const DescriptionTable& table, const HybridConfig& config,
    Isa vector_isa);

// Concrete twin of the symbolic run, for differential testing: executes
// the recovered instance program (chunk loops + tail) over real inputs
// with the same op semantics the symbolic executor axiomatizes. `aux`
// backs the template's ptr parameter; out-of-bounds gather indices fail.
Result<std::vector<std::uint64_t>> ExecuteTranslatedConcrete(
    const OperatorTemplate& op, const std::string& generated_source,
    const DescriptionTable& table, const HybridConfig& config,
    Isa vector_isa, const std::vector<std::uint64_t>& in,
    const std::vector<std::uint64_t>& aux);

// Concrete scalar reference semantics over a whole array (ground truth
// for the differential fuzz test).
Result<std::vector<std::uint64_t>> ExecuteReferenceConcrete(
    const OperatorTemplate& op, const std::vector<std::uint64_t>& in,
    const std::vector<std::uint64_t>& aux);

}  // namespace analysis
}  // namespace hef

#endif  // HEF_ANALYSIS_SYMBOLIC_EXECUTOR_H_
