// Differential fuzzing of the *symbolic* verifier: random HID templates
// are translated at random (v, s, p) coordinates, the symbolic executor
// renders a proven/refuted verdict, and concrete execution arbitrates in
// both directions — a proven kernel must be bit-identical to the scalar
// reference on every tested input, and a mutant whose concrete output
// diverges from the reference must be refuted. A verdict that crosses
// either line is a soundness bug in the prover, not in the translator.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/symbolic_executor.h"
#include "codegen/description_table.h"
#include "codegen/operator_template.h"
#include "codegen/translator.h"
#include "common/rng.h"

namespace hef {
namespace {

struct FuzzOp {
  const char* name;
  bool immediate;
};

constexpr FuzzOp kComputeOps[] = {
    {"hi_add_epi64", false}, {"hi_sub_epi64", false},
    {"hi_mullo_epi64", false}, {"hi_and_epi64", false},
    {"hi_or_epi64", false}, {"hi_xor_epi64", false},
    {"hi_srli_epi64", true}, {"hi_slli_epi64", true},
    {"hi_srlv_epi64", false}, {"hi_sllv_epi64", false},
};

// A random straight-line template: load, `length` compute statements over
// three vars and two constants (def-before-use by construction), store.
std::string RandomTemplate(Rng& rng, int length) {
  const char* vars[] = {"a", "b", "c"};
  std::string text = "operator fuzz\n";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "const k1 = 0x%llx\nconst k2 = 0x%llx\n",
                static_cast<unsigned long long>(rng.Next()),
                static_cast<unsigned long long>(rng.Next()));
  text += buf;
  text += "var a\nvar b\nvar c\nbody:\na = hi_load_epi64(IN)\n";
  std::vector<std::string> assigned = {"a"};
  auto operand = [&]() -> std::string {
    const std::uint64_t pick = rng.Uniform(0, assigned.size() + 1);
    if (pick < assigned.size()) return assigned[pick];
    return pick == assigned.size() ? "k1" : "k2";
  };
  for (int i = 0; i < length; ++i) {
    const FuzzOp& op = kComputeOps[rng.Uniform(0, 9)];
    const std::string dst = vars[rng.Uniform(0, 2)];
    text += dst + " = " + op.name + "(" + operand();
    if (op.immediate) {
      text += ", " + std::to_string(rng.Uniform(0, 63));
    } else {
      text += ", " + operand();
    }
    text += ")\n";
    if (std::find(assigned.begin(), assigned.end(), dst) ==
        assigned.end()) {
      assigned.push_back(dst);
    }
  }
  text += "hi_store_epi64(OUT, " + assigned[rng.Uniform(
                                       0, assigned.size() - 1)] + ")\n";
  return text;
}

// Perturbs one byte-level aspect of the template: a constant value or an
// immediate. May or may not change semantics — the test only requires
// verdict/behaviour *consistency*, not a particular verdict.
std::string Mutate(Rng& rng, const std::string& text) {
  std::string mutated = text;
  if (rng.Uniform(0, 1) == 0) {
    const std::size_t at = mutated.find("const k1 = 0x");
    if (at != std::string::npos) {
      char& digit = mutated[at + 13];
      digit = digit == '7' ? '8' : '7';
      return mutated;
    }
  }
  const std::size_t at = mutated.find(", 1)");
  if (at != std::string::npos) {
    mutated[at + 2] = '2';
    return mutated;
  }
  return mutated;  // nothing recognizable; identical text stays proven
}

TEST(SemanticFuzz, SymbolicVerdictMatchesConcreteExecutionBothWays) {
  const DescriptionTable table = DescriptionTable::Builtin();
  Rng rng(0xF00D);
  int proven_count = 0;
  int refuted_count = 0;
  for (int round = 0; round < 200; ++round) {
    const std::string reference_text =
        RandomTemplate(rng, 2 + static_cast<int>(rng.Uniform(0, 6)));
    Result<OperatorTemplate> reference =
        OperatorTemplate::Parse(reference_text);
    ASSERT_TRUE(reference.ok()) << reference_text;

    const std::string candidate_text =
        round % 2 == 0 ? reference_text : Mutate(rng, reference_text);
    Result<OperatorTemplate> candidate =
        OperatorTemplate::Parse(candidate_text);
    ASSERT_TRUE(candidate.ok()) << candidate_text;

    const HybridConfig cfg{static_cast<int>(rng.Uniform(0, 2)),
                           static_cast<int>(rng.Uniform(0, 3)),
                           1 + static_cast<int>(rng.Uniform(0, 2))};
    if (!cfg.valid()) continue;

    // The fuzz pool freely emits unbounded variable shifts, which the
    // range tier rightly rejects (HID016); this test targets the
    // *equivalence* tier, whose op semantics (shifts >= 64 yield 0) both
    // executors share, so it translates and proves without ProveKernel.
    TranslateOptions topts;
    topts.config = cfg;
    Result<std::string> src =
        TranslateOperator(candidate.value(), table, topts);
    ASSERT_TRUE(src.ok()) << src.status().message() << "\n"
                          << candidate_text;

    Result<analysis::EquivalenceReport> verdict =
        analysis::ProveEquivalence(reference.value(), candidate.value(),
                                   src.value(), table, cfg, Isa::kAvx512);
    ASSERT_TRUE(verdict.ok()) << verdict.status().message();

    // Concrete arbitration: enough elements for two chunks plus a ragged
    // tail at every config in the fuzzed range.
    std::vector<std::uint64_t> in(67);
    for (auto& v : in) v = rng.Next();
    Result<std::vector<std::uint64_t>> expected =
        analysis::ExecuteReferenceConcrete(reference.value(), in, {});
    ASSERT_TRUE(expected.ok());
    Result<std::vector<std::uint64_t>> actual =
        analysis::ExecuteTranslatedConcrete(candidate.value(), src.value(),
                                            table, cfg, Isa::kAvx512, in,
                                            {});
    ASSERT_TRUE(actual.ok()) << actual.status().message();

    const bool identical = expected.value() == actual.value();
    if (verdict.value().proven) {
      ++proven_count;
      EXPECT_TRUE(identical)
          << "proven kernel diverges concretely\n"
          << candidate_text << "config " << cfg.ToString();
    }
    if (!identical) {
      ++refuted_count;
      EXPECT_FALSE(verdict.value().proven)
          << "concretely diverging kernel was proven\n"
          << reference_text << "-- vs --\n"
          << candidate_text << "config " << cfg.ToString();
    }
  }
  // The fuzz distribution must exercise both directions to mean anything.
  EXPECT_GT(proven_count, 10);
  EXPECT_GT(refuted_count, 5);
}

}  // namespace
}  // namespace hef
