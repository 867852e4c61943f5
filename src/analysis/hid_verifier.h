// HID static verifier — the semantic pass over an OperatorTemplate +
// DescriptionTable that proves a template legal *before* the translator
// (Algorithm 1) expands it. Every rule has a stable ID (HID001…,
// catalogued in docs/analysis.md) so diagnostics are machine-checkable:
// `hef lint` emits them as JSON, golden tests pin each rule to a minimal
// bad template, and ProveKernel and `hef generate` refuse templates with
// errors before the translator expands them.
//
// The verifier deliberately re-checks properties the strict template
// parser also enforces (def-before-use, stream discipline, gather
// shapes): Parse() stops at the first violation, while lint wants every
// diagnostic with a line and a rule ID. ParseSyntaxOnly() feeds it
// templates that are grammatically well formed but semantically unproven.

#ifndef HEF_ANALYSIS_HID_VERIFIER_H_
#define HEF_ANALYSIS_HID_VERIFIER_H_

#include <string>
#include <vector>

#include "codegen/description_table.h"
#include "codegen/operator_template.h"
#include "common/status.h"
#include "procinfo/cpu_features.h"

namespace hef {
namespace analysis {

enum class Severity { kError, kWarning };

// "error" / "warning".
const char* SeverityName(Severity severity);

struct Diagnostic {
  std::string rule_id;  // "HID001", ... ("HID000" for grammar errors)
  Severity severity = Severity::kError;
  int line = 0;  // 1-based template line; 0 for template-wide findings
  std::string message;

  // "line 4: error [HID001] ..." (lint's text output form).
  std::string ToString() const;
};

struct VerifyOptions {
  // ISA whose description-table column the vector statements will use;
  // HID007 requires a non-empty pattern for it (and for scalar, which the
  // tail loop always needs).
  Isa vector_isa = Isa::kAvx512;
  // When set, additionally warn (HID011) if the requested vector ISA is
  // not supported by the host CPU (cpu_features gate). Off by default so
  // lint output is host-independent.
  bool check_host_isa = false;
  // When set, a gather through a ptr with no declared extent warns
  // (HID017): its indices cannot be bounds-proven. Off by default — only
  // the prove tier (`hef lint --prove`, ProveKernel) insists every
  // gather be provable.
  bool require_bounded_gathers = false;
};

// Runs every rule over the template; returns all diagnostics in source
// order. An empty vector means the template is legal.
std::vector<Diagnostic> VerifyTemplate(const OperatorTemplate& op,
                                       const DescriptionTable& table,
                                       const VerifyOptions& options);

// Lenient-parses `text` and verifies it. A grammar failure surfaces as a
// single HID000 diagnostic carrying the parser's message. When `parsed`
// is non-null and parsing succeeded, the template is copied out (for
// follow-on translation / dependence checks).
std::vector<Diagnostic> LintTemplateText(const std::string& text,
                                         const DescriptionTable& table,
                                         const VerifyOptions& options,
                                         OperatorTemplate* parsed = nullptr);

// True if any diagnostic is an error (warnings alone keep a template
// usable).
bool HasErrors(const std::vector<Diagnostic>& diagnostics);

// OK when no errors; otherwise InvalidArgument summarizing the first
// error (count included), for callers that propagate Status.
Status DiagnosticsToStatus(const std::string& operator_name,
                           const std::vector<Diagnostic>& diagnostics);

}  // namespace analysis
}  // namespace hef

#endif  // HEF_ANALYSIS_HID_VERIFIER_H_
