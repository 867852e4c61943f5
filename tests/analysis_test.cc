// Tests for src/analysis: one failing golden template per HID rule, clean
// bills of health for the shipped templates, dependence proofs of the
// §IV-B pack claim on real translator output (including the probe shape
// every SSB query kernel runs), and the register-pressure model the tuner
// prunes with.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "algo/crc64.h"
#include "algo/murmur.h"
#include "analysis/dependence_checker.h"
#include "analysis/hid_verifier.h"
#include "analysis/kernel_prover.h"
#include "analysis/register_pressure.h"
#include "analysis/symbolic_executor.h"
#include "codegen/description_table.h"
#include "codegen/operator_template.h"
#include "codegen/translator.h"
#include "engine/flavor.h"
#include "engine/query_id.h"
#include "procinfo/cpu_features.h"
#include "table/probe.h"

namespace hef {
namespace {

using analysis::Diagnostic;
using analysis::Severity;

std::vector<Diagnostic> Lint(const std::string& text,
                             Isa isa = Isa::kAvx512) {
  analysis::VerifyOptions options;
  options.vector_isa = isa;
  return analysis::LintTemplateText(text, DescriptionTable::Builtin(),
                                    options);
}

bool HasRule(const std::vector<Diagnostic>& diags, const std::string& id) {
  return std::any_of(diags.begin(), diags.end(), [&](const Diagnostic& d) {
    return d.rule_id == id;
  });
}

int LineOfRule(const std::vector<Diagnostic>& diags,
               const std::string& id) {
  for (const Diagnostic& d : diags) {
    if (d.rule_id == id) return d.line;
  }
  return -1;
}

// A minimal legal template all the golden tests below perturb.
constexpr char kClean[] =
    "operator t\n"
    "const c = 3\n"
    "var a\n"
    "var b\n"
    "body:\n"
    "a = hi_load_epi64(IN)\n"
    "b = hi_mullo_epi64(a, c)\n"
    "b = hi_xor_epi64(b, a)\n"
    "hi_store_epi64(OUT, b)\n";

// --- rule catalogue: every ID has a failing golden template -----------

TEST(HidVerifierTest, CleanTemplateHasNoDiagnostics) {
  EXPECT_TRUE(Lint(kClean).empty());
}

TEST(HidVerifierTest, Hid000GrammarError) {
  const auto diags = Lint("operator t\nbody:\nnot a statement\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule_id, "HID000");
  EXPECT_EQ(diags[0].severity, Severity::kError);
}

TEST(HidVerifierTest, Hid001ReadBeforeAssignment) {
  const auto diags = Lint(
      "operator t\n"
      "var a\n"
      "var b\n"
      "body:\n"
      "a = hi_load_epi64(IN)\n"
      "a = hi_xor_epi64(a, b)\n"  // b never assigned
      "hi_store_epi64(OUT, a)\n");
  EXPECT_TRUE(HasRule(diags, "HID001"));
  EXPECT_EQ(LineOfRule(diags, "HID001"), 6);
}

TEST(HidVerifierTest, Hid002UndeclaredDestination) {
  const auto diags = Lint(
      "operator t\n"
      "var a\n"
      "body:\n"
      "a = hi_load_epi64(IN)\n"
      "z = hi_xor_epi64(a, a)\n"  // z is not a declared var
      "hi_store_epi64(OUT, a)\n");
  EXPECT_TRUE(HasRule(diags, "HID002"));
  EXPECT_EQ(LineOfRule(diags, "HID002"), 5);
}

TEST(HidVerifierTest, Hid002StoreMustNotAssign) {
  const auto diags = Lint(
      "operator t\n"
      "var a\n"
      "body:\n"
      "a = hi_load_epi64(IN)\n"
      "a = hi_store_epi64(OUT, a)\n");
  EXPECT_TRUE(HasRule(diags, "HID002"));
}

TEST(HidVerifierTest, Hid003UndeclaredName) {
  const auto diags = Lint(
      "operator t\n"
      "var a\n"
      "body:\n"
      "a = hi_load_epi64(IN)\n"
      "a = hi_xor_epi64(a, mystery)\n"
      "hi_store_epi64(OUT, a)\n");
  EXPECT_TRUE(HasRule(diags, "HID003"));
  EXPECT_EQ(LineOfRule(diags, "HID003"), 5);
}

TEST(HidVerifierTest, Hid004StreamDiscipline) {
  // IN as a computational operand.
  EXPECT_TRUE(HasRule(Lint("operator t\n"
                           "var a\n"
                           "body:\n"
                           "a = hi_load_epi64(IN)\n"
                           "a = hi_xor_epi64(IN, a)\n"
                           "hi_store_epi64(OUT, a)\n"),
                      "HID004"));
  // Load not reading IN.
  EXPECT_TRUE(HasRule(Lint("operator t\n"
                           "var a\n"
                           "body:\n"
                           "a = hi_load_epi64(a)\n"
                           "hi_store_epi64(OUT, a)\n"),
                      "HID004"));
}

TEST(HidVerifierTest, Hid005GatherDiscipline) {
  // Gather base must be the declared ptr...
  EXPECT_TRUE(HasRule(Lint("operator t\n"
                           "ptr lut\n"
                           "var a\n"
                           "body:\n"
                           "a = hi_load_epi64(IN)\n"
                           "a = hi_gather_epi64(a, a)\n"
                           "hi_store_epi64(OUT, a)\n"),
                      "HID005"));
  // ...and the ptr may appear nowhere else.
  EXPECT_TRUE(HasRule(Lint("operator t\n"
                           "ptr lut\n"
                           "var a\n"
                           "body:\n"
                           "a = hi_load_epi64(IN)\n"
                           "a = hi_add_epi64(a, lut)\n"
                           "hi_store_epi64(OUT, a)\n"),
                      "HID005"));
}

TEST(HidVerifierTest, Hid006ArityAndImmediateMismatch) {
  // hi_add takes two operands.
  EXPECT_TRUE(HasRule(Lint("operator t\n"
                           "var a\n"
                           "body:\n"
                           "a = hi_load_epi64(IN)\n"
                           "a = hi_add_epi64(a)\n"
                           "hi_store_epi64(OUT, a)\n"),
                      "HID006"));
  // A shift requires its immediate.
  EXPECT_TRUE(HasRule(Lint("operator t\n"
                           "var a\n"
                           "var b\n"
                           "body:\n"
                           "a = hi_load_epi64(IN)\n"
                           "b = hi_xor_epi64(a, a)\n"
                           "a = hi_srli_epi64(a, b)\n"
                           "hi_store_epi64(OUT, a)\n"),
                      "HID006"));
  // And xor must not get one.
  EXPECT_TRUE(HasRule(Lint("operator t\n"
                           "var a\n"
                           "body:\n"
                           "a = hi_load_epi64(IN)\n"
                           "a = hi_xor_epi64(a, 5)\n"
                           "hi_store_epi64(OUT, a)\n"),
                      "HID006"));
}

TEST(HidVerifierTest, Hid007UnknownOp) {
  const auto diags = Lint(
      "operator t\n"
      "var a\n"
      "body:\n"
      "a = hi_load_epi64(IN)\n"
      "a = hi_rotl_epi64(a, a)\n"
      "hi_store_epi64(OUT, a)\n");
  EXPECT_TRUE(HasRule(diags, "HID007"));
  EXPECT_EQ(LineOfRule(diags, "HID007"), 5);
}

TEST(HidVerifierTest, Hid007EmptyIsaColumn) {
  // A custom table whose op lowers for scalar but not the requested
  // vector ISA: legal per-op, illegal for an avx512 translation.
  DescriptionTable table = DescriptionTable::Builtin();
  OpPattern scalar_only;
  scalar_only.arity = 2;
  scalar_only.scalar = "{dst} = {a} + {b};";
  table.AddOp("hi_scalaronly_epi64", scalar_only);
  analysis::VerifyOptions options;
  options.vector_isa = Isa::kAvx512;
  const auto diags = analysis::LintTemplateText(
      "operator t\n"
      "var a\n"
      "body:\n"
      "a = hi_load_epi64(IN)\n"
      "a = hi_scalaronly_epi64(a, a)\n"
      "hi_store_epi64(OUT, a)\n",
      table, options);
  EXPECT_TRUE(HasRule(diags, "HID007"));
}

TEST(HidVerifierTest, Hid008UnusedVarIsWarning) {
  const auto diags = Lint(
      "operator t\n"
      "var a\n"
      "var spare\n"
      "body:\n"
      "a = hi_load_epi64(IN)\n"
      "hi_store_epi64(OUT, a)\n");
  ASSERT_TRUE(HasRule(diags, "HID008"));
  EXPECT_EQ(LineOfRule(diags, "HID008"), 3);  // the declaration line
  for (const Diagnostic& d : diags) {
    if (d.rule_id == "HID008") {
      EXPECT_EQ(d.severity, Severity::kWarning);
    }
  }
  // Warnings alone do not make the template illegal.
  EXPECT_FALSE(analysis::HasErrors(diags));
  EXPECT_TRUE(analysis::DiagnosticsToStatus("t", diags).ok());
}

TEST(HidVerifierTest, Hid009ShiftImmediateOutOfRange) {
  const auto diags = Lint(
      "operator t\n"
      "var a\n"
      "body:\n"
      "a = hi_load_epi64(IN)\n"
      "a = hi_srli_epi64(a, 64)\n"
      "hi_store_epi64(OUT, a)\n");
  EXPECT_TRUE(HasRule(diags, "HID009"));
  // 63 is the last legal count.
  EXPECT_FALSE(HasRule(Lint("operator t\n"
                            "var a\n"
                            "body:\n"
                            "a = hi_load_epi64(IN)\n"
                            "a = hi_srli_epi64(a, 63)\n"
                            "hi_store_epi64(OUT, a)\n"),
                       "HID009"));
}

TEST(HidVerifierTest, Hid010MissingStreamTraffic) {
  // No store.
  auto diags = Lint(
      "operator t\n"
      "var a\n"
      "body:\n"
      "a = hi_load_epi64(IN)\n");
  EXPECT_TRUE(HasRule(diags, "HID010"));
  EXPECT_EQ(LineOfRule(diags, "HID010"), 0);  // template-wide
  // No load.
  EXPECT_TRUE(HasRule(Lint("operator t\n"
                           "var a\n"
                           "var b\n"
                           "body:\n"
                           "b = hi_xor_epi64(a, a)\n"
                           "hi_store_epi64(OUT, b)\n"),
                      "HID010"));
}

TEST(HidVerifierTest, Hid011HostIsaGate) {
  // Host-dependent by nature: the warning must fire exactly when the
  // host cannot run the requested ISA, and only when opted in.
  analysis::VerifyOptions options;
  options.vector_isa = Isa::kAvx512;
  options.check_host_isa = true;
  const auto diags = analysis::LintTemplateText(
      kClean, DescriptionTable::Builtin(), options);
  const bool host_has_avx512 =
      CpuFeatures::Get().BestIsa() == Isa::kAvx512;
  EXPECT_EQ(HasRule(diags, "HID011"), !host_has_avx512);
  // Off by default, so lint output stays host-independent.
  EXPECT_FALSE(HasRule(Lint(kClean), "HID011"));
}

TEST(HidVerifierTest, Hid012InconsistentTablePattern) {
  DescriptionTable table = DescriptionTable::Builtin();
  OpPattern broken;
  broken.arity = 2;
  broken.scalar = "{dst} = {a};";  // never references {b}
  broken.avx512 = "{dst} = {a};";
  broken.avx2 = "{dst} = {a};";
  table.AddOp("hi_broken_epi64", broken);  // unchecked registration
  analysis::VerifyOptions options;
  const auto diags = analysis::LintTemplateText(
      "operator t\n"
      "var a\n"
      "body:\n"
      "a = hi_load_epi64(IN)\n"
      "a = hi_broken_epi64(a, a)\n"
      "hi_store_epi64(OUT, a)\n",
      table, options);
  EXPECT_TRUE(HasRule(diags, "HID012"));
}

TEST(HidVerifierTest, Hid013GatherIndexExceedsDeclaredExtent) {
  // Declared IN range can index up to 4095 but the table holds 2048.
  const auto diags = Lint(
      "operator t\n"
      "ptr dict [2048]\n"
      "range IN 0..4095\n"
      "var code\n"
      "var val\n"
      "body:\n"
      "code = hi_load_epi64(IN)\n"
      "val = hi_gather_epi64(dict, code)\n"
      "hi_store_epi64(OUT, val)\n");
  ASSERT_TRUE(HasRule(diags, "HID013"));
  EXPECT_EQ(LineOfRule(diags, "HID013"), 8);  // the gather statement
  EXPECT_TRUE(analysis::HasErrors(diags));
  // Growing the extent to cover the range clears the finding.
  EXPECT_FALSE(HasRule(Lint("operator t\n"
                            "ptr dict [4096]\n"
                            "range IN 0..4095\n"
                            "var code\n"
                            "var val\n"
                            "body:\n"
                            "code = hi_load_epi64(IN)\n"
                            "val = hi_gather_epi64(dict, code)\n"
                            "hi_store_epi64(OUT, val)\n"),
                       "HID013"));
}

TEST(HidVerifierTest, Hid014UnsignedWrapUnderNowrap) {
  // Full-range input plus a constant can wrap; `nowrap` promises it
  // cannot, so the verifier must object.
  const auto diags = Lint(
      "operator t\n"
      "range IN 0..18446744073709551615\n"
      "nowrap\n"
      "const base = 19920101\n"
      "var d\n"
      "body:\n"
      "d = hi_load_epi64(IN)\n"
      "d = hi_add_epi64(d, base)\n"
      "hi_store_epi64(OUT, d)\n");
  EXPECT_TRUE(HasRule(diags, "HID014"));
  // Without the nowrap promise, wrapping is defined behaviour: silent.
  EXPECT_FALSE(HasRule(Lint("operator t\n"
                            "range IN 0..18446744073709551615\n"
                            "const base = 19920101\n"
                            "var d\n"
                            "body:\n"
                            "d = hi_load_epi64(IN)\n"
                            "d = hi_add_epi64(d, base)\n"
                            "hi_store_epi64(OUT, d)\n"),
                       "HID014"));
}

TEST(HidVerifierTest, Hid015StoredValueEscapesDeclaredOutputRange) {
  const auto diags = Lint(
      "operator t\n"
      "range IN 0..65535\n"
      "range OUT 0..15\n"
      "const mask = 255\n"
      "var x\n"
      "body:\n"
      "x = hi_load_epi64(IN)\n"
      "x = hi_and_epi64(x, mask)\n"  // [0, 255] does not fit [0, 15]
      "hi_store_epi64(OUT, x)\n");
  EXPECT_TRUE(HasRule(diags, "HID015"));
  EXPECT_FALSE(HasRule(Lint("operator t\n"
                            "range IN 0..65535\n"
                            "range OUT 0..255\n"
                            "const mask = 255\n"
                            "var x\n"
                            "body:\n"
                            "x = hi_load_epi64(IN)\n"
                            "x = hi_and_epi64(x, mask)\n"
                            "hi_store_epi64(OUT, x)\n"),
                       "HID015"));
}

TEST(HidVerifierTest, Hid016VariableShiftCountMayReach64) {
  // Scalar `>>` is UB at 64 while the intrinsic zeroes: the lowering
  // diverges, so an unbounded count is an error.
  const auto diags = Lint(
      "operator t\n"
      "var x\n"
      "var sh\n"
      "body:\n"
      "x = hi_load_epi64(IN)\n"
      "sh = hi_xor_epi64(x, x)\n"
      "sh = hi_add_epi64(sh, x)\n"
      "x = hi_srlv_epi64(x, sh)\n"
      "hi_store_epi64(OUT, x)\n");
  EXPECT_TRUE(HasRule(diags, "HID016"));
  // A provably sub-64 count is fine.
  EXPECT_FALSE(HasRule(Lint("operator t\n"
                            "const c63 = 63\n"
                            "var x\n"
                            "var sh\n"
                            "body:\n"
                            "x = hi_load_epi64(IN)\n"
                            "sh = hi_and_epi64(x, c63)\n"
                            "x = hi_srlv_epi64(x, sh)\n"
                            "hi_store_epi64(OUT, x)\n"),
                       "HID016"));
}

TEST(HidVerifierTest, Hid017OnlyFiresUnderProveTier) {
  // An extent-less gather is merely unprovable, not wrong: silent by
  // default, a warning when the prove tier demands bounded gathers.
  constexpr char kUnbounded[] =
      "operator t\n"
      "ptr dict\n"
      "var code\n"
      "var val\n"
      "body:\n"
      "code = hi_load_epi64(IN)\n"
      "val = hi_gather_epi64(dict, code)\n"
      "hi_store_epi64(OUT, val)\n";
  EXPECT_FALSE(HasRule(Lint(kUnbounded), "HID017"));
  analysis::VerifyOptions prove;
  prove.require_bounded_gathers = true;
  const auto diags = analysis::LintTemplateText(
      kUnbounded, DescriptionTable::Builtin(), prove);
  ASSERT_TRUE(HasRule(diags, "HID017"));
  EXPECT_FALSE(analysis::HasErrors(diags));  // warning, not error
}

TEST(HidVerifierTest, Hid000CarriesTheOffendingLine) {
  // The parser names "template line N" in its message; the diagnostic
  // must surface N, not 0, so multi-file lint output is attributable.
  const auto diags = Lint(
      "operator t\n"
      "var a\n"
      "body:\n"
      "a = hi_load_epi64(IN)\n"
      "this is not a statement\n");
  ASSERT_TRUE(HasRule(diags, "HID000"));
  EXPECT_EQ(LineOfRule(diags, "HID000"), 5);
}

TEST(HidVerifierTest, DiagnosticFormatting) {
  const Diagnostic d{"HID001", Severity::kError, 4, "var 'b' is bad"};
  EXPECT_EQ(d.ToString(), "line 4: error [HID001] var 'b' is bad");
  const Status st = analysis::DiagnosticsToStatus("op", {d});
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("HID001"), std::string::npos);
  EXPECT_NE(st.message().find("'op'"), std::string::npos);
}

// --- shipped templates are clean --------------------------------------

TEST(HidVerifierTest, BuiltinTemplatesLintClean) {
  for (const std::string& text :
       {BuiltinMurmurTemplate(), BuiltinCrc64Template()}) {
    for (const Isa isa : {Isa::kAvx512, Isa::kAvx2}) {
      EXPECT_TRUE(Lint(text, isa).empty());
    }
  }
}

// --- the verifier gates templates before expansion ---------------------

TEST(HidVerifierTest, Hid007RejectsTemplateBeforeExpansion) {
  // The gate `hef generate` applies to a template from outside the
  // program: the verifier's status names the rule before any line is
  // generated.
  const auto op = OperatorTemplate::ParseSyntaxOnly(
      "operator t\n"
      "var a\n"
      "body:\n"
      "a = hi_load_epi64(IN)\n"
      "a = hi_rotl_epi64(a, a)\n"
      "hi_store_epi64(OUT, a)\n");
  ASSERT_TRUE(op.ok());
  const Status gate = analysis::DiagnosticsToStatus(
      op.value().name,
      analysis::VerifyTemplate(op.value(), DescriptionTable::Builtin(),
                               analysis::VerifyOptions{}));
  ASSERT_FALSE(gate.ok());
  EXPECT_NE(gate.message().find("HID007"), std::string::npos);
}

// --- dependence checker on real translator output ---------------------

analysis::DependenceReport CheckTemplate(const std::string& text,
                                         const HybridConfig& cfg) {
  const auto op = OperatorTemplate::Parse(text);
  EXPECT_TRUE(op.ok()) << op.status().ToString();
  TranslateOptions options;
  options.config = cfg;
  const auto source = TranslateOperator(
      op.value(), DescriptionTable::Builtin(), options);
  EXPECT_TRUE(source.ok()) << source.status().ToString();
  const auto report = analysis::CheckDependences(
      op.value(), source.value(), DescriptionTable::Builtin(), cfg,
      options.vector_isa);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.value();
}

TEST(DependenceCheckerTest, SyntheticKernelsProvenAtEveryGridPoint) {
  // The paper's two template-backed kernels: the §IV-B claim must hold
  // at every coordinate the tuner can visit, not just the optimum.
  for (const HybridConfig& cfg : MurmurSupportedConfigs()) {
    const auto r = CheckTemplate(BuiltinMurmurTemplate(), cfg);
    EXPECT_TRUE(r.ProvesPackClaim()) << cfg.ToString();
    EXPECT_EQ(r.pack_width, cfg.v + cfg.s) << cfg.ToString();
    EXPECT_EQ(r.instances_per_line, cfg.p * (cfg.v + cfg.s))
        << cfg.ToString();
    if (r.has_dependence) {
      // Line-major expansion spaces dependent statements a full
      // p * (v + s) apart — stronger than the pack-width requirement.
      EXPECT_EQ(r.min_distance, r.instances_per_line) << cfg.ToString();
    }
  }
  for (const HybridConfig& cfg : Crc64SupportedConfigs()) {
    EXPECT_TRUE(CheckTemplate(BuiltinCrc64Template(), cfg)
                    .ProvesPackClaim())
        << cfg.ToString();
  }
}

// The probe pipeline shape every SSB query kernel runs: hash the key,
// mask into the table, gather the payload, combine. Written in HID so the
// checker can prove the same claim the hand-written engine kernels rely
// on.
constexpr char kProbeShape[] =
    "operator probe_shape\n"
    "ptr table\n"
    "const m = 0xc6a4a7935bd1e995\n"
    "const mask = 0x1fff\n"
    "var k\n"
    "var h\n"
    "var r\n"
    "body:\n"
    "k = hi_load_epi64(IN)\n"
    "h = hi_mullo_epi64(k, m)\n"
    "h = hi_xor_epi64(h, k)\n"
    "h = hi_and_epi64(h, mask)\n"
    "r = hi_gather_epi64(table, h)\n"
    "r = hi_add_epi64(r, k)\n"
    "hi_store_epi64(OUT, r)\n";

TEST(DependenceCheckerTest, AllSsbQueryKernelsProvenIndependent) {
  // For each of the 13 queries: the probe config its hybrid engine
  // deploys (EngineConfig's tuned default) plus a query-specific grid
  // point, proven on the probe-shaped pipeline above.
  const auto& grid = ProbeSupportedConfigs();
  const EngineConfig deployed;
  int i = 0;
  for (const QueryId id : AllQueries()) {
    const HybridConfig tuned = deployed.points.probe;
    const HybridConfig extra = grid[i++ % grid.size()];
    for (const HybridConfig& cfg : {tuned, extra}) {
      const auto r = CheckTemplate(kProbeShape, cfg);
      EXPECT_TRUE(r.ProvesPackClaim())
          << QueryName(id) << " at " << cfg.ToString();
      EXPECT_GE(r.min_distance, r.pack_width)
          << QueryName(id) << " at " << cfg.ToString();
    }
  }
  EXPECT_EQ(i, 13);
}

// Reorders the chunk loop of a v0 s2 p1 kernel to instance-major order:
// every statement of lane group s0 first, then every statement of s1.
// Each instance still computes the same values, but dependent statements
// become adjacent.
std::string InstanceMajor(const std::string& source) {
  std::istringstream in(source);
  std::string out, line, s1_lines;
  bool in_chunk = false;
  while (std::getline(in, line)) {
    if (line.find("for (; ofs + ") != std::string::npos) {
      in_chunk = true;
    } else if (in_chunk && line == "  }") {
      out += s1_lines;
      in_chunk = false;
    } else if (in_chunk && line.find("_s1_p0") != std::string::npos) {
      s1_lines += line + "\n";
      continue;
    }
    out += line + "\n";
  }
  return out;
}

TEST(DependenceCheckerTest, FlagsArtificiallyDependentLoop) {
  // Real translator output for murmur, reordered so adjacent statements
  // form a RAW chain: the per-element values are unchanged, so
  // equivalence alone proves it, but with pack width 2 the pack claim
  // fails — and the source-level gate ProveKernel uses must refute it.
  const DescriptionTable& table = DescriptionTable::Builtin();
  const OperatorTemplate op =
      OperatorTemplate::Parse(BuiltinMurmurTemplate()).value();
  TranslateOptions options;
  options.config = HybridConfig{0, 2, 1};
  const auto translated = TranslateOperator(op, table, options);
  ASSERT_TRUE(translated.ok()) << translated.status().ToString();
  const std::string reordered = InstanceMajor(translated.value());
  ASSERT_NE(reordered, translated.value());

  const auto equivalence = analysis::ProveEquivalence(
      op, reordered, table, options.config, options.vector_isa);
  ASSERT_TRUE(equivalence.ok());
  EXPECT_TRUE(equivalence.value().proven) << equivalence.value().detail;

  const auto report = analysis::CheckDependences(
      op, reordered, table, options.config, options.vector_isa);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().has_dependence);
  EXPECT_EQ(report.value().min_distance, 1);
  EXPECT_FALSE(report.value().ProvesPackClaim());
  EXPECT_FALSE(report.value().violations.empty());

  analysis::ProveOptions popts;
  popts.config = options.config;
  const analysis::KernelProof proof =
      analysis::ProveSource(op, reordered, table, popts);
  EXPECT_FALSE(proof.proven());
  EXPECT_TRUE(proof.equivalence.proven);
  EXPECT_TRUE(HasRule(proof.diagnostics, "HID018"));
  // The unmodified output passes the same gate.
  EXPECT_TRUE(
      analysis::ProveSource(op, translated.value(), table, popts).proven());
}

TEST(DependenceCheckerTest, RejectsSourceWithoutChunkLoop) {
  const OperatorTemplate op =
      OperatorTemplate::Parse(BuiltinMurmurTemplate()).value();
  const auto program = analysis::RecoverInstanceProgram(
      op, "int main() { return 0; }", DescriptionTable::Builtin(),
      HybridConfig{0, 2, 1}, Isa::kAvx512);
  ASSERT_FALSE(program.ok());
  EXPECT_NE(program.status().message().find("no chunk loop"),
            std::string::npos);
}

// --- register pressure -------------------------------------------------

TEST(RegisterPressureTest, MaxLiveMatchesHandCount) {
  const auto murmur =
      OperatorTemplate::Parse(BuiltinMurmurTemplate()).value();
  const auto crc = OperatorTemplate::Parse(BuiltinCrc64Template()).value();
  EXPECT_EQ(analysis::MaxLiveTemplateVars(murmur), 2);
  EXPECT_EQ(analysis::MaxLiveTemplateVars(crc), 3);
}

TEST(RegisterPressureTest, EstimateFormulaAndLimits) {
  // scalar = p*s*live + consts; vector = p*v*live + consts (v > 0).
  const auto p = analysis::EstimatePressure(3, 2, HybridConfig{2, 1, 2},
                                            Isa::kAvx512);
  EXPECT_EQ(p.scalar_live, 2 * 1 * 3 + 2);
  EXPECT_EQ(p.vector_live, 2 * 2 * 3 + 2);
  EXPECT_EQ(p.scalar_limit, analysis::kScalarRegisterLimit);
  EXPECT_EQ(p.vector_limit, analysis::kZmmRegisterLimit);
  EXPECT_TRUE(p.fits());
  // AVX2 has half the vector registers.
  EXPECT_EQ(analysis::EstimatePressure(3, 2, HybridConfig{2, 1, 2},
                                       Isa::kAvx2)
                .vector_limit,
            analysis::kYmmRegisterLimit);
  // A scalar-only config holds no vector values at all.
  EXPECT_EQ(analysis::EstimatePressure(3, 2, HybridConfig{0, 2, 2},
                                       Isa::kAvx512)
                .vector_live,
            0);
}

TEST(RegisterPressureTest, OverPressureConfigsFlagged) {
  // 3 live * 3 scalar * 2 packs + 3 consts = 21 > 16 GPRs.
  const auto over = analysis::EstimatePressure(3, 3, HybridConfig{0, 3, 2},
                                               Isa::kAvx512);
  EXPECT_FALSE(over.fits());
  const auto check =
      analysis::MakePressureCheck(3, 3, Isa::kAvx512);
  const Status st = check(HybridConfig{0, 3, 2});
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("register file"), std::string::npos);
  EXPECT_TRUE(check(HybridConfig{0, 1, 2}).ok());
}

TEST(RegisterPressureTest, TemplateOverloadMatchesManualCounts) {
  const auto murmur =
      OperatorTemplate::Parse(BuiltinMurmurTemplate()).value();
  const HybridConfig cfg{1, 3, 2};
  const auto from_template =
      analysis::EstimatePressure(murmur, cfg, Isa::kAvx512);
  const auto manual = analysis::EstimatePressure(
      2, static_cast<int>(murmur.constants.size()), cfg, Isa::kAvx512);
  EXPECT_EQ(from_template.scalar_live, manual.scalar_live);
  EXPECT_EQ(from_template.vector_live, manual.vector_live);
}

// --- description-table load validation (the satellite bugfix) ----------

TEST(DescriptionTableTest, BuiltinIsSelfConsistent) {
  EXPECT_TRUE(DescriptionTable::Builtin().Validate().ok());
}

TEST(DescriptionTableTest, AddOpCheckedRejectsInconsistentPattern) {
  DescriptionTable table;
  OpPattern missing_b;
  missing_b.arity = 2;
  missing_b.scalar = "{dst} = {a};";  // arity-2 op that never reads {b}
  const Status st = table.AddOpChecked("hi_bogus_epi64", missing_b);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("hi_bogus_epi64"), std::string::npos);
  EXPECT_FALSE(table.Contains("hi_bogus_epi64"));
}

TEST(DescriptionTableTest, AddOpCheckedAcceptsValidPattern) {
  DescriptionTable table;
  OpPattern rot;
  rot.arity = 1;
  rot.has_immediate = true;
  rot.scalar = "{dst} = ({a} << {imm}) | ({a} >> (64 - {imm}));";
  EXPECT_TRUE(table.AddOpChecked("hi_rotl_epi64", rot).ok());
  EXPECT_TRUE(table.Contains("hi_rotl_epi64"));
}

TEST(DescriptionTableTest, ValidatePatternCatalogue) {
  OpPattern p;
  p.arity = 1;
  p.scalar = "{dst} = {a};";
  EXPECT_TRUE(DescriptionTable::ValidatePattern("op", p).ok());
  // No pattern at all.
  EXPECT_FALSE(
      DescriptionTable::ValidatePattern("op", OpPattern{1, false, "", "",
                                                        ""})
          .ok());
  // Unknown placeholder.
  OpPattern unk = p;
  unk.scalar = "{dst} = {what};";
  EXPECT_FALSE(DescriptionTable::ValidatePattern("op", unk).ok());
  // {imm} without has_immediate.
  OpPattern imm = p;
  imm.scalar = "{dst} = {a} >> {imm};";
  EXPECT_FALSE(DescriptionTable::ValidatePattern("op", imm).ok());
  // Arity out of range.
  OpPattern bad_arity = p;
  bad_arity.arity = 3;
  EXPECT_FALSE(DescriptionTable::ValidatePattern("op", bad_arity).ok());
  // {dst} disagreement across ISA columns.
  OpPattern dst_mismatch = p;
  dst_mismatch.avx512 = "sink({a});";
  EXPECT_FALSE(DescriptionTable::ValidatePattern("op", dst_mismatch).ok());
}

}  // namespace
}  // namespace hef
