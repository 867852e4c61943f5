// Translator — the literal implementation of paper Algorithm 1: expands an
// operator template (hybrid intermediate description) into a concrete C++
// source file with `v` SIMD statements and `s` scalar statements per pack,
// replicated `p` times, using the description tables to lower each HID op
// per ISA. Variable instances follow the Fig. 6 naming scheme
// (`data_v0_p0`, `data_s2_p1`, ...); constants unroll to one scalar and
// one SIMD copy; statements expand line-major, so all instances of
// template line k precede any instance of line k+1 — adjacent generated
// statements are data-independent, which is the whole point of pack.

#ifndef HEF_CODEGEN_TRANSLATOR_H_
#define HEF_CODEGEN_TRANSLATOR_H_

#include <string>

#include "codegen/description_table.h"
#include "codegen/operator_template.h"
#include "hybrid/hybrid_config.h"

namespace hef {

struct TranslateOptions {
  HybridConfig config{1, 0, 1};
  // ISA of the vector statements; scalar statements always use the scalar
  // column of the description table.
  Isa vector_isa = Isa::kAvx512;
};

// Every generated kernel exports this fixed entry point so the offline
// driver can dlsym it regardless of configuration:
//   extern "C" void hef_generated_kernel(const uint64_t* in, uint64_t* out,
//                                        size_t n, const uint64_t* aux);
// `aux` carries the template's single ptr parameter (nullptr if none).
inline constexpr char kGeneratedEntryPoint[] = "hef_generated_kernel";

// Translates the template to a complete, self-contained C++ source string.
// Fails if an op is missing from the description table or the config is
// invalid. The template is not verified here and the output is not
// checked: analysis::ProveKernel (src/analysis) is the gate that runs the
// HID verifier, the pack-claim check and the equivalence proof.
Result<std::string> TranslateOperator(const OperatorTemplate& op,
                                      const DescriptionTable& table,
                                      const TranslateOptions& options);

}  // namespace hef

#endif  // HEF_CODEGEN_TRANSLATOR_H_
