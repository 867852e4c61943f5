// Kernel prover — the one-call semantic verification entry point that the
// CLI (`hef lint --prove`), the tuner's candidate admission, and the
// future JIT path share. ProveKernel() stacks all three proof tiers over
// a template at one (v, s, p) configuration:
//
//   structural   HID001–HID012  (hid_verifier)
//   ranges       HID013–HID017  (value_range abstract interpreter, with
//                               require_bounded_gathers on: the prove
//                               tier insists every gather is provable)
//   semantic     HID018         (the emitted kernel's instance program,
//                               recovered once: dependent statements at
//                               least a pack apart (dependence_checker),
//                               and per-element expressions normalizing
//                               to the scalar template's (symbolic
//                               executor))
//
// The result is a KernelProof carrying every diagnostic plus the pack
// claim and equivalence reports; proven() is the single bit downstream
// admission gates on. MakeSemanticCheck() adapts the prover to the tuner's
// static-check slot so equivalence-failing candidates are rejected
// before they are ever benchmarked.

#ifndef HEF_ANALYSIS_KERNEL_PROVER_H_
#define HEF_ANALYSIS_KERNEL_PROVER_H_

#include <functional>
#include <string>
#include <vector>

#include "analysis/dependence_checker.h"
#include "analysis/hid_verifier.h"
#include "analysis/symbolic_executor.h"
#include "codegen/description_table.h"
#include "codegen/operator_template.h"
#include "common/status.h"
#include "hybrid/hybrid_config.h"

namespace hef {
namespace analysis {

struct ProveOptions {
  HybridConfig config{1, 0, 1};
  Isa vector_isa = Isa::kAvx512;
  // Forwarded to the structural verifier (HID011); off keeps proofs
  // host-independent, which CI and golden tests want.
  bool check_host_isa = false;
};

struct KernelProof {
  // Structural + range diagnostics, plus one HID018 error per refutation.
  std::vector<Diagnostic> diagnostics;
  // The emitted kernel source (empty when translation failed).
  std::string translated;
  // Non-empty when TranslateOperator itself failed (bad config, op
  // without a lowering). Recorded verbatim; also mirrored into
  // `diagnostics` as an HID018 error so JSON consumers see one list.
  std::string translate_error;
  // The §IV-B pack claim on the recovered chunk loop (statements == 0
  // when no instance program was recovered).
  DependenceReport pack_claim;
  // The symbolic equivalence verdict (default-initialized, proven=false,
  // when earlier tiers already failed).
  EquivalenceReport equivalence;

  bool proven() const {
    return translate_error.empty() && pack_claim.ProvesPackClaim() &&
           equivalence.proven && !HasErrors(diagnostics);
  }
};

// Runs all tiers. Never returns a Status error: every failure mode is a
// refutation recorded in the proof (callers decide whether an unproven
// kernel is fatal). Metrics: analysis.kernels_proven / _refuted.
KernelProof ProveKernel(const OperatorTemplate& op,
                        const DescriptionTable& table,
                        const ProveOptions& options);

// The source-level gate ProveKernel applies after translating: recovers
// the instance program of `source` (a kernel emitted for `op` at
// options.config) once, then checks the pack claim and equivalence on
// it. Each refutation is an HID018 error in the returned proof.
KernelProof ProveSource(const OperatorTemplate& op, const std::string& source,
                        const DescriptionTable& table,
                        const ProveOptions& options);

// Admission filter for TuneOptions::semantic_check: OK when ProveKernel
// proves the template at the candidate config, InvalidArgument naming the
// first failure otherwise. Proofs are memoized per config (the search
// revisits neighbours). A scalar-only `vector_isa` is upgraded to AVX-512
// for the proof model — the proof is about the translation scheme, not
// the host, and must not reject v > 0 candidates on scalar hosts.
std::function<Status(const HybridConfig&)> MakeSemanticCheck(
    const OperatorTemplate& op, const DescriptionTable& table,
    Isa vector_isa);

}  // namespace analysis
}  // namespace hef

#endif  // HEF_ANALYSIS_KERNEL_PROVER_H_
