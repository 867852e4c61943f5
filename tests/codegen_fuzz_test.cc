// Differential fuzzing of the translator: random HID operator templates
// are translated at random (v, s, p) coordinates, compiled with the real
// compiler, executed, and compared element-by-element against a direct
// interpreter of the template. Any divergence means the translator's
// unrolling / naming / offset arithmetic is wrong for that shape.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/dependence_checker.h"
#include "analysis/hid_verifier.h"
#include "analysis/kernel_prover.h"
#include "codegen/description_table.h"
#include "codegen/offline_driver.h"
#include "codegen/operator_template.h"
#include "codegen/translator.h"
#include "common/aligned_buffer.h"
#include "common/rng.h"

namespace hef {
namespace {

// Direct elementwise interpreter of a template (the semantic ground
// truth; deliberately naive).
std::uint64_t Interpret(const OperatorTemplate& t, std::uint64_t x,
                        const std::uint64_t* table) {
  std::map<std::string, std::uint64_t> env;
  auto value = [&](const std::string& name) -> std::uint64_t {
    if (t.IsConstant(name)) return t.constants.at(name);
    return env.at(name);
  };
  for (const TemplateStatement& st : t.body) {
    if (st.op == "hi_load_epi64") {
      env[st.dst] = x;
    } else if (st.op == "hi_store_epi64") {
      return value(st.args[1]);
    } else if (st.op == "hi_gather_epi64") {
      env[st.dst] = table[value(st.args[1])];
    } else if (st.op == "hi_add_epi64") {
      env[st.dst] = value(st.args[0]) + value(st.args[1]);
    } else if (st.op == "hi_sub_epi64") {
      env[st.dst] = value(st.args[0]) - value(st.args[1]);
    } else if (st.op == "hi_mullo_epi64") {
      env[st.dst] = value(st.args[0]) * value(st.args[1]);
    } else if (st.op == "hi_and_epi64") {
      env[st.dst] = value(st.args[0]) & value(st.args[1]);
    } else if (st.op == "hi_or_epi64") {
      env[st.dst] = value(st.args[0]) | value(st.args[1]);
    } else if (st.op == "hi_xor_epi64") {
      env[st.dst] = value(st.args[0]) ^ value(st.args[1]);
    } else if (st.op == "hi_srli_epi64") {
      env[st.dst] = value(st.args[0]) >> st.immediate;
    } else if (st.op == "hi_slli_epi64") {
      env[st.dst] = value(st.args[0]) << st.immediate;
    } else {
      ADD_FAILURE() << "interpreter missing op " << st.op;
    }
  }
  ADD_FAILURE() << "template had no store";
  return 0;
}

// Random valid template: a def-before-use-correct chain of binary ops,
// shifts and (optionally) byte-masked gathers over three variables.
std::string RandomTemplate(Rng& rng, bool with_gather) {
  const char* binops[] = {"hi_add_epi64",   "hi_sub_epi64",
                          "hi_mullo_epi64", "hi_and_epi64",
                          "hi_or_epi64",    "hi_xor_epi64"};
  std::string t = "operator fuzz\n";
  if (with_gather) t += "ptr table\n";
  t += "const c0 = " + std::to_string(rng.Next() | 1) + "\n";
  t += "const c1 = " + std::to_string(rng.Next() | 1) + "\n";
  t += "const bytemask = 255\n";
  t += "var a\nvar b\nvar c\nbody:\n";
  t += "a = hi_load_epi64(IN)\n";
  t += "b = hi_xor_epi64(a, c0)\n";
  t += "c = hi_add_epi64(a, c1)\n";
  const std::vector<std::string> vars = {"a", "b", "c"};
  const int steps = 3 + static_cast<int>(rng.Uniform(0, 8));
  for (int s = 0; s < steps; ++s) {
    const std::string dst = vars[rng.Uniform(0, 2)];
    const int kind = static_cast<int>(rng.Uniform(0, with_gather ? 3 : 2));
    if (kind == 0) {  // binary op over variables/constants
      const std::string lhs = vars[rng.Uniform(0, 2)];
      const std::string rhs =
          rng.Bernoulli(0.3) ? (rng.Bernoulli(0.5) ? "c0" : "c1")
                             : vars[rng.Uniform(0, 2)];
      t += dst + " = " + binops[rng.Uniform(0, 5)] + "(" + lhs + ", " +
           rhs + ")\n";
    } else if (kind == 1) {  // shift by immediate
      const std::string lhs = vars[rng.Uniform(0, 2)];
      const auto imm = std::to_string(rng.Uniform(1, 63));
      t += dst + (rng.Bernoulli(0.5)
                      ? " = hi_srli_epi64(" + lhs + ", " + imm + ")\n"
                      : " = hi_slli_epi64(" + lhs + ", " + imm + ")\n");
    } else {  // byte-masked gather
      const std::string lhs = vars[rng.Uniform(0, 2)];
      t += dst + " = hi_and_epi64(" + lhs + ", bytemask)\n";
      t += dst + " = hi_gather_epi64(table, " + dst + ")\n";
    }
  }
  t += "hi_store_epi64(OUT, " + vars[rng.Uniform(0, 2)] + ")\n";
  return t;
}

TEST(CodegenFuzzTest, RandomTemplatesMatchInterpreter) {
  Rng rng(0xF022);
  OfflineDriver driver("/tmp/hef_codegen_fuzz");
  const DescriptionTable table = DescriptionTable::Builtin();

  // Byte-indexed lookup table for gather statements.
  AlignedBuffer<std::uint64_t> lut(256, 8);
  for (int i = 0; i < 256; ++i) lut[i] = rng.Next();

  const std::vector<HybridConfig> configs = {
      {0, 1, 1}, {1, 0, 1}, {1, 3, 2}, {2, 2, 3}};

  for (int round = 0; round < 3; ++round) {
    const bool with_gather = round != 0;
    const std::string text = RandomTemplate(rng, with_gather);
    SCOPED_TRACE(text);
    const auto op = OperatorTemplate::Parse(text);
    ASSERT_TRUE(op.ok()) << op.status().ToString();

    const HybridConfig cfg = configs[rng.Uniform(0, configs.size() - 1)];
    TranslateOptions options;
    options.config = cfg;
    const auto source = TranslateOperator(op.value(), table, options);
    ASSERT_TRUE(source.ok()) << source.status().ToString();

    auto kernel = driver.Compile(
        source.value(), "fuzz_r" + std::to_string(round) + cfg.ToString());
    ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();

    const std::size_t n = 517;  // bulk + tail for every chunk width
    AlignedBuffer<std::uint64_t> in(n, 64), out(n, 64);
    for (std::size_t i = 0; i < n; ++i) in[i] = rng.Next();
    kernel.value().Run(in.data(), out.data(), n,
                       with_gather ? lut.data() : nullptr);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], Interpret(op.value(), in[i], lut.data()))
          << "round " << round << " config " << cfg.ToString()
          << " element " << i;
    }
  }
}

// Replaces the first occurrence of `from` in `text`.
std::string ReplaceFirst(std::string text, const std::string& from,
                         const std::string& to) {
  const auto at = text.find(from);
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

// Deterministic corruptions of a valid fuzzer template. Every mutation
// produces a template the verifier must reject (each maps to a rule ID).
std::string Mutate(const std::string& text, int kind) {
  switch (kind % 6) {
    case 0:  // undeclared destination/use (HID002/HID003)
      return ReplaceFirst(text, "var b\n", "");
    case 1:  // unknown op (HID007)
      return ReplaceFirst(text, "hi_xor_epi64", "hi_rotl_epi64");
    case 2:  // load not reading IN (HID004)
      return ReplaceFirst(text, "hi_load_epi64(IN)", "hi_load_epi64(c0)");
    case 3:  // no OUT store (HID010)
      return ReplaceFirst(text, "hi_store_epi64(OUT, ", "b = hi_xor_epi64(b, ");
    case 4:  // out-of-range shift (HID009)
      return text + "a = hi_srli_epi64(a, 64)\nhi_store_epi64(OUT, a)\n";
    default:  // wrong arity (HID006)
      return ReplaceFirst(text, "hi_xor_epi64(a, c0)", "hi_xor_epi64(a)");
  }
}

// The static-analysis closure property: every template the fuzzer can
// produce either fails verification, or its translation provably keeps
// adjacent emitted statements a full pack apart (§IV-B). There is no
// third outcome — no template may verify clean and then translate into a
// dependent chunk loop.
TEST(CodegenFuzzTest, VerifiedTemplatesTranslateToProvenLoops) {
  Rng rng(0xA11A);
  const DescriptionTable table = DescriptionTable::Builtin();
  const std::vector<HybridConfig> configs = {
      {0, 1, 1}, {1, 0, 1}, {1, 3, 2}, {2, 2, 3}, {0, 4, 2}};
  int verified = 0;
  int rejected = 0;
  for (int round = 0; round < 36; ++round) {
    std::string text = RandomTemplate(rng, round % 2 == 1);
    const bool mutated = round % 3 == 0;
    if (mutated) text = Mutate(text, round / 3);
    SCOPED_TRACE(text);

    analysis::VerifyOptions vopts;
    OperatorTemplate op;
    const auto diags =
        analysis::LintTemplateText(text, table, vopts, &op);
    if (analysis::HasErrors(diags)) {
      ++rejected;
      // ProveKernel must refuse what the verifier refused.
      if (OperatorTemplate::ParseSyntaxOnly(text).ok()) {
        analysis::ProveOptions popts;
        popts.config = configs[round % configs.size()];
        EXPECT_FALSE(analysis::ProveKernel(op, table, popts).proven());
      }
      continue;
    }
    EXPECT_FALSE(mutated) << "mutation escaped the verifier";
    ++verified;

    const HybridConfig cfg = configs[round % configs.size()];
    TranslateOptions options;
    options.config = cfg;
    const auto source = TranslateOperator(op, table, options);
    ASSERT_TRUE(source.ok()) << source.status().ToString();
    const auto report = analysis::CheckDependences(
        op, source.value(), table, cfg, options.vector_isa);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report.value().ProvesPackClaim()) << cfg.ToString();
    EXPECT_EQ(report.value().instances_per_line,
              cfg.p * (cfg.v + cfg.s));
  }
  EXPECT_GT(verified, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace hef
