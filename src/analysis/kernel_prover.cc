#include "analysis/kernel_prover.h"

#include <map>
#include <memory>

#include "codegen/translator.h"
#include "telemetry/metrics.h"

namespace hef {
namespace analysis {

KernelProof ProveKernel(const OperatorTemplate& op,
                        const DescriptionTable& table,
                        const ProveOptions& options) {
  // Tier 1 + 2: structural rules, then the range interpreter (HID017 on:
  // the prove tier has no notion of an unprovable-but-fine gather).
  VerifyOptions vopts;
  vopts.vector_isa = options.vector_isa;
  vopts.check_host_isa = options.check_host_isa;
  vopts.require_bounded_gathers = true;
  std::vector<Diagnostic> verified = VerifyTemplate(op, table, vopts);

  // Tier 3: translate for real and prove the emitted source.
  KernelProof proof;
  if (!HasErrors(verified)) {
    TranslateOptions topts;
    topts.config = options.config;
    topts.vector_isa = options.vector_isa;
    Result<std::string> translated = TranslateOperator(op, table, topts);
    if (translated.ok()) {
      proof = ProveSource(op, translated.value(), table, options);
    } else {
      proof.translate_error = translated.status().message();
      proof.diagnostics.push_back(
          Diagnostic{"HID018", Severity::kError, 0,
                     "translation failed: " + proof.translate_error});
    }
  }
  proof.diagnostics.insert(proof.diagnostics.begin(), verified.begin(),
                           verified.end());
  telemetry::MetricsRegistry::Get()
      .counter(proof.proven() ? "analysis.kernels_proven"
                              : "analysis.kernels_refuted")
      .Increment();
  return proof;
}

KernelProof ProveSource(const OperatorTemplate& op, const std::string& source,
                        const DescriptionTable& table,
                        const ProveOptions& options) {
  KernelProof proof;
  proof.translated = source;
  const std::string at = "kernel at " + options.config.ToString();
  auto refute = [&proof](const std::string& message) {
    proof.diagnostics.push_back(
        Diagnostic{"HID018", Severity::kError, 0, message});
  };

  Result<InstanceProgram> program = RecoverInstanceProgram(
      op, source, table, options.config, options.vector_isa);
  if (!program.ok()) {
    proof.equivalence.detail = program.status().message();
    refute(at + " is not an instantiation of its template: " +
           proof.equivalence.detail);
    return proof;
  }

  proof.pack_claim = CheckDependences(op, program.value(), options.config);
  if (!proof.pack_claim.ProvesPackClaim()) {
    refute(at + " breaks the pack claim: min dependence distance " +
           std::to_string(proof.pack_claim.min_distance) +
           " < pack width " + std::to_string(proof.pack_claim.pack_width));
  }

  proof.equivalence = ProveEquivalence(op, op, program.value(),
                                       options.config, options.vector_isa);
  if (!proof.equivalence.proven) {
    std::string msg = at + " is not equivalent to its template";
    if (proof.equivalence.mismatch_offset >= 0) {
      msg += " (first mismatch at chunk element " +
             std::to_string(proof.equivalence.mismatch_offset) + ")";
    }
    if (!proof.equivalence.detail.empty()) {
      msg += ": " + proof.equivalence.detail;
    }
    refute(msg);
  }
  return proof;
}

std::function<Status(const HybridConfig&)> MakeSemanticCheck(
    const OperatorTemplate& op, const DescriptionTable& table,
    Isa vector_isa) {
  // The proof models the translation scheme, not the host: scalar-only
  // hosts still tune v > 0 candidates against a compiled grid, and the
  // scheme is ISA-uniform, so prove against AVX-512's column.
  const Isa proof_isa =
      vector_isa == Isa::kScalar ? Isa::kAvx512 : vector_isa;
  // The closure outlives this frame and the search revisits neighbours:
  // memoize verdicts per config behind a shared cache. The template and
  // table are copied in — callers pass temporaries.
  auto cache = std::make_shared<std::map<HybridConfig, Status>>();
  return [op, table, proof_isa, cache](const HybridConfig& config) {
    auto it = cache->find(config);
    if (it != cache->end()) return it->second;
    ProveOptions popts;
    popts.config = config;
    popts.vector_isa = proof_isa;
    const KernelProof proof = ProveKernel(op, table, popts);
    Status verdict = Status::OK();
    if (!proof.proven()) {
      std::string first = "unproven";
      for (const Diagnostic& d : proof.diagnostics) {
        if (d.severity == Severity::kError) {
          first = "[" + d.rule_id + "] " + d.message;
          break;
        }
      }
      verdict = Status::InvalidArgument(
          "semantic check rejected " + config.ToString() + ": " + first);
    }
    cache->emplace(config, verdict);
    return verdict;
  };
}

}  // namespace analysis
}  // namespace hef
