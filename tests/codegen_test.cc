// Tests for the translator pipeline: template parsing, Algorithm-1 code
// generation (Fig. 6 naming and layout), and the full offline
// generate-compile-load-run loop validated against the library kernels.

#include <gtest/gtest.h>

#include <string>

#include "algo/crc64.h"
#include "algo/murmur.h"
#include "codegen/description_table.h"
#include "codegen/offline_driver.h"
#include "codegen/operator_template.h"
#include "codegen/translator.h"
#include "common/aligned_buffer.h"
#include "common/rng.h"

namespace hef {
namespace {

TEST(DescriptionTableTest, BuiltinCoversTemplateOps) {
  const DescriptionTable table = DescriptionTable::Builtin();
  for (const char* op :
       {"hi_add_epi64", "hi_mullo_epi64", "hi_xor_epi64", "hi_and_epi64",
        "hi_srli_epi64", "hi_load_epi64", "hi_store_epi64",
        "hi_gather_epi64"}) {
    EXPECT_TRUE(table.Contains(op)) << op;
    const OpPattern pattern = table.Lookup(op).value();
    EXPECT_FALSE(pattern.scalar.empty());
    EXPECT_FALSE(pattern.avx2.empty());
    EXPECT_FALSE(pattern.avx512.empty());
  }
  EXPECT_FALSE(table.Lookup("hi_made_up").ok());
}

TEST(DescriptionTableTest, UserExtension) {
  DescriptionTable table = DescriptionTable::Builtin();
  table.AddOp("hi_min_epu64",
              {2, false, "{dst} = {a} < {b} ? {a} : {b};",
               "{dst} = _mm256_min_epu64({a}, {b});",
               "{dst} = _mm512_min_epu64({a}, {b});"});
  EXPECT_TRUE(table.Contains("hi_min_epu64"));
}

TEST(OperatorTemplateTest, ParsesBuiltinMurmur) {
  auto parsed = OperatorTemplate::Parse(BuiltinMurmurTemplate());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const OperatorTemplate& t = parsed.value();
  EXPECT_EQ(t.name, "murmur");
  EXPECT_EQ(t.variables.size(), 3u);
  EXPECT_EQ(t.constants.count("m"), 1u);
  EXPECT_EQ(t.constants.at("m"), kMurmurM);
  EXPECT_TRUE(t.pointer_params.empty());
  EXPECT_EQ(t.body.front().op, "hi_load_epi64");
  EXPECT_EQ(t.body.back().op, "hi_store_epi64");
}

TEST(OperatorTemplateTest, ParsesBuiltinCrc64) {
  auto parsed = OperatorTemplate::Parse(BuiltinCrc64Template());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().pointer_params.size(), 1u);
  // 8 rounds of 6 statements plus load, zero and store.
  EXPECT_EQ(parsed.value().body.size(), 8u * 6 + 3);
}

TEST(OperatorTemplateTest, ParseFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/hef_tmpl_test.hid";
  {
    FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(BuiltinMurmurTemplate().c_str(), f);
    std::fclose(f);
  }
  auto parsed = OperatorTemplate::ParseFile(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().name, "murmur");
  std::remove(path.c_str());
  EXPECT_FALSE(OperatorTemplate::ParseFile("/nonexistent/tmpl").ok());
}

TEST(OperatorTemplateTest, RejectsMalformedTemplates) {
  EXPECT_FALSE(OperatorTemplate::Parse("").ok());
  EXPECT_FALSE(OperatorTemplate::Parse("operator x\nbody:\n").ok());
  // Assignment to undeclared variable.
  EXPECT_FALSE(OperatorTemplate::Parse("operator x\nbody:\n"
                                       "y = hi_load_epi64(IN)\n"
                                       "hi_store_epi64(OUT, y)\n")
                   .ok());
  // Missing store.
  EXPECT_FALSE(OperatorTemplate::Parse("operator x\nvar y\nbody:\n"
                                       "y = hi_load_epi64(IN)\n")
                   .ok());
  // Unknown operand.
  EXPECT_FALSE(OperatorTemplate::Parse("operator x\nvar y\nbody:\n"
                                       "y = hi_load_epi64(IN)\n"
                                       "y = hi_add_epi64(y, zz)\n"
                                       "hi_store_epi64(OUT, y)\n")
                   .ok());
  // Two pointer parameters.
  EXPECT_FALSE(OperatorTemplate::Parse("operator x\nptr a\nptr b\nvar y\n"
                                       "body:\ny = hi_load_epi64(IN)\n"
                                       "hi_store_epi64(OUT, y)\n")
                   .ok());
  // Variable read before assignment (would generate UB C++).
  const auto use_before_def =
      OperatorTemplate::Parse("operator x\nvar y\nvar z\nbody:\n"
                              "y = hi_load_epi64(IN)\n"
                              "y = hi_add_epi64(y, z)\n"
                              "hi_store_epi64(OUT, y)\n");
  ASSERT_FALSE(use_before_def.ok());
  EXPECT_NE(use_before_def.status().message().find("before assignment"),
            std::string::npos);
}

TEST(TranslatorTest, Fig6NamingAndLayout) {
  const auto t = OperatorTemplate::Parse(BuiltinMurmurTemplate()).value();
  TranslateOptions options;
  options.config = {1, 3, 2};
  options.vector_isa = Isa::kAvx512;
  const std::string source =
      TranslateOperator(t, DescriptionTable::Builtin(), options).value();

  // Fig. 6(b): instance variables data_v0_p0 / data_s2_p1 etc.
  EXPECT_NE(source.find("data_v0_p0"), std::string::npos);
  EXPECT_NE(source.find("data_s2_p1"), std::string::npos);
  EXPECT_EQ(source.find("data_v1_p0"), std::string::npos);  // v = 1
  // Offsets: pack 1's vector load starts at 8 + 3 = 11 (Fig. 6(b)).
  EXPECT_NE(source.find("in + ofs + 11"), std::string::npos);
  // Chunk: 2 * (8 + 3) = 22.
  EXPECT_NE(source.find("ofs += 22"), std::string::npos);
  // Constants unroll to one scalar and one vector copy.
  EXPECT_NE(source.find("m_sc"), std::string::npos);
  EXPECT_NE(source.find("m_vc"), std::string::npos);
  // Line-major: all loads precede the first multiply.
  EXPECT_LT(source.find("in + ofs + 11"), source.find("_mm512_mullo_epi64"));
}

TEST(TranslatorTest, TwoVectorStatementLayout) {
  // Fig. 6(c): v2 s3 p2 — pack 1 vector loads at 19 and 27.
  const auto t = OperatorTemplate::Parse(BuiltinMurmurTemplate()).value();
  TranslateOptions options;
  options.config = {2, 3, 2};
  const std::string source =
      TranslateOperator(t, DescriptionTable::Builtin(), options).value();
  EXPECT_NE(source.find("in + ofs + 8"), std::string::npos);   // v1_p0
  EXPECT_NE(source.find("in + ofs + 16"), std::string::npos);  // s0_p0
  EXPECT_NE(source.find("in + ofs + 19"), std::string::npos);  // v0_p1
  EXPECT_NE(source.find("in + ofs + 27"), std::string::npos);  // v1_p1
}

TEST(TranslatorTest, PureScalarHasNoVectorCode) {
  const auto t = OperatorTemplate::Parse(BuiltinMurmurTemplate()).value();
  TranslateOptions options;
  options.config = HybridConfig::PureScalar();
  const std::string source =
      TranslateOperator(t, DescriptionTable::Builtin(), options).value();
  EXPECT_EQ(source.find("_mm512"), std::string::npos);
  EXPECT_NE(source.find("data_s0_p0"), std::string::npos);
}

TEST(TranslatorTest, RejectsInvalidConfig) {
  const auto t = OperatorTemplate::Parse(BuiltinMurmurTemplate()).value();
  TranslateOptions options;
  options.config = {0, 0, 1};
  EXPECT_FALSE(
      TranslateOperator(t, DescriptionTable::Builtin(), options).ok());
}

TEST(TranslatorTest, UnknownOpFailsTableLookup) {
  // The translator does not verify: an op without a lowering fails its
  // description-table lookup, not a verifier rule.
  const auto op = OperatorTemplate::ParseSyntaxOnly(
      "operator t\n"
      "var a\n"
      "body:\n"
      "a = hi_load_epi64(IN)\n"
      "a = hi_rotl_epi64(a, a)\n"
      "hi_store_epi64(OUT, a)\n");
  ASSERT_TRUE(op.ok());
  TranslateOptions options;
  options.config = HybridConfig{1, 1, 1};
  const auto source = TranslateOperator(
      op.value(), DescriptionTable::Builtin(), options);
  ASSERT_FALSE(source.ok());
  EXPECT_NE(source.status().message().find("no description table entry"),
            std::string::npos);
  EXPECT_EQ(source.status().message().find("HID007"), std::string::npos);
}

class OfflineDriverTest : public ::testing::Test {
 protected:
  // Generates, compiles, loads and runs one configuration of `tmpl`,
  // checking `n` outputs against `expect`.
  void RunGenerated(const std::string& tmpl, const HybridConfig& cfg,
                    const std::uint64_t* aux,
                    std::uint64_t (*expect)(std::uint64_t)) {
    const auto op = OperatorTemplate::Parse(tmpl);
    ASSERT_TRUE(op.ok()) << op.status().ToString();
    TranslateOptions options;
    options.config = cfg;
    const auto source = TranslateOperator(
        op.value(), DescriptionTable::Builtin(), options);
    ASSERT_TRUE(source.ok()) << source.status().ToString();

    OfflineDriver driver("/tmp/hef_codegen_test");
    auto kernel = driver.Compile(source.value(),
                                 op.value().name + "_" + cfg.ToString());
    ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();

    const std::size_t n = 301;  // bulk + tail
    AlignedBuffer<std::uint64_t> in(n, 64), out(n, 64);
    Rng rng(5);
    for (std::size_t i = 0; i < n; ++i) in[i] = rng.Next();
    kernel.value().Run(in.data(), out.data(), n, aux);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], expect(in[i])) << cfg.ToString() << " elem " << i;
    }
  }
};

std::uint64_t MurmurExpect(std::uint64_t x) { return Murmur64(x); }
std::uint64_t CrcExpect(std::uint64_t x) { return Crc64(x); }

TEST_F(OfflineDriverTest, GeneratedMurmurMatchesLibrary) {
  for (const HybridConfig cfg :
       {HybridConfig{0, 1, 1}, HybridConfig{1, 0, 1}, HybridConfig{1, 3, 2}}) {
    RunGenerated(BuiltinMurmurTemplate(), cfg, nullptr, MurmurExpect);
  }
}

TEST_F(OfflineDriverTest, GeneratedCrc64MatchesLibrary) {
  for (const HybridConfig cfg :
       {HybridConfig{1, 1, 2}, HybridConfig{2, 0, 1}}) {
    RunGenerated(BuiltinCrc64Template(), cfg, Crc64Table(), CrcExpect);
  }
}

TEST_F(OfflineDriverTest, GeneratedAvx2MurmurMatchesLibrary) {
  // The AVX2 column of the description tables, including the emulated
  // 64-bit multiply helper the translator emits.
  const auto op = OperatorTemplate::Parse(BuiltinMurmurTemplate());
  ASSERT_TRUE(op.ok());
  TranslateOptions options;
  options.config = {1, 2, 2};
  options.vector_isa = Isa::kAvx2;
  const auto source =
      TranslateOperator(op.value(), DescriptionTable::Builtin(), options);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_NE(source.value().find("hef_mullo_epi64_avx2"), std::string::npos);
  EXPECT_NE(source.value().find("_mm256_loadu_si256"), std::string::npos);
  EXPECT_EQ(source.value().find("_mm512"), std::string::npos);

  OfflineDriver driver("/tmp/hef_codegen_test");
  auto kernel = driver.Compile(source.value(), "murmur_avx2_v1s2p2");
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  const std::size_t n = 123;
  AlignedBuffer<std::uint64_t> in(n, 64), out(n, 64);
  Rng rng(6);
  for (std::size_t i = 0; i < n; ++i) in[i] = rng.Next();
  kernel.value().Run(in.data(), out.data(), n, nullptr);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(out[i], Murmur64(in[i])) << i;
  }
}

TEST(TranslatorTest, Avx2ChunkUsesFourLanes) {
  const auto op = OperatorTemplate::Parse(BuiltinMurmurTemplate());
  TranslateOptions options;
  options.config = {1, 3, 2};
  options.vector_isa = Isa::kAvx2;
  const std::string source =
      TranslateOperator(op.value(), DescriptionTable::Builtin(), options)
          .value();
  // Chunk = 2 * (4 + 3) = 14 with 4-lane ymm registers.
  EXPECT_NE(source.find("ofs += 14"), std::string::npos);
}

TEST(OfflineDriverErrorsTest, CompileFailureIsIoError) {
  OfflineDriver driver("/tmp/hef_codegen_test");
  auto result = driver.Compile("this is not C++", "broken");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_EQ(driver.compile_count(), 1);
}

}  // namespace
}  // namespace hef
