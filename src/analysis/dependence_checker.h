// Dependence checker — statically proves the paper's pack claim (§IV-B)
// on the translator's actual output instead of trusting the comment in
// translator.h. It reads the instance program the symbolic executor
// recovers from the emitted C++ (statement i is program.chunk[i]; its def
// is the destination instance variable, its uses are its variable
// operands at that instance), then checks that every read-after-write
// pair inside the main chunk loop is at least a pack width apart: with
// line-major expansion, all p*(v+s) instances of template line k are
// emitted before any instance of line k+1, so the processor always has a
// full pack of independent statements in flight and the
// inter-instruction interval drops from latency to throughput.
//
// Only the chunk loop is analyzed — the scalar tail processes one element
// at a time and is sequential by design — and only register dependences
// are tracked: in/out/aux never alias by the kernel contract
// (hef_generated_kernel reads in, writes out, gathers through aux), and
// constants and pointers are loop-invariant.

#ifndef HEF_ANALYSIS_DEPENDENCE_CHECKER_H_
#define HEF_ANALYSIS_DEPENDENCE_CHECKER_H_

#include <string>
#include <utility>
#include <vector>

#include "analysis/symbolic_executor.h"
#include "codegen/description_table.h"
#include "codegen/operator_template.h"
#include "common/status.h"
#include "hybrid/hybrid_config.h"

namespace hef {
namespace analysis {

struct DependenceReport {
  int statements = 0;         // statements in the unrolled chunk body
  int pack_width = 0;         // v + s: statements per pack
  int instances_per_line = 0;  // p * (v + s): the translator's spacing
  // Minimum distance over all read-after-write pairs (0 when the body has
  // no register dependence at all, e.g. a single-statement template).
  int min_distance = 0;
  bool has_dependence = false;
  // (def statement, use statement) index pairs closer than pack_width.
  std::vector<std::pair<int, int>> violations;

  // The pack claim: every dependent pair is at least a pack apart.
  bool ProvesPackClaim() const {
    return !has_dependence || (violations.empty() &&
                               min_distance >= pack_width);
  }
};

// Checks the pack claim on `program`, recovered from the kernel emitted
// for `op` at `config`.
DependenceReport CheckDependences(const OperatorTemplate& op,
                                  const InstanceProgram& program,
                                  const HybridConfig& config);

// Recovers the instance program of `generated_source` (the string
// TranslateOperator emitted for `op` at `config`) and checks it. Fails
// when the source is not an instantiation of `op`.
Result<DependenceReport> CheckDependences(
    const OperatorTemplate& op, const std::string& generated_source,
    const DescriptionTable& table, const HybridConfig& config,
    Isa vector_isa);

}  // namespace analysis
}  // namespace hef

#endif  // HEF_ANALYSIS_DEPENDENCE_CHECKER_H_
