// Serving-path robustness tests: fault injection, query cancellation and
// deadlines, exception-safe TaskPool behaviour, and the error contract of
// the fallible engine entry points (a bad query returns Status; the
// process, the pool, and the plan cache keep serving).

#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/stopwatch.h"
#include "engine/engine.h"
#include "engine/reference.h"
#include "exec/fault_injection.h"
#include "exec/query_context.h"
#include "exec/task_pool.h"
#include "ssb/database.h"
#include "telemetry/metrics.h"
#include "voila/voila_engine.h"

namespace hef {
namespace {

std::uint64_t Counter(const char* name) {
  return telemetry::MetricsRegistry::Get().counter(name).value();
}

// Every test disarms on exit so a failing assertion cannot leak an armed
// fault into later tests (or later suites in the same binary).
class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override { exec::FaultRegistry::Get().DisarmAll(); }
};

// --- FaultRegistry semantics ------------------------------------------

TEST_F(FaultTest, UnarmedPointsAreFreeAndUncounted) {
  EXPECT_FALSE(exec::FaultRegistry::AnyArmed());
  HEF_FAULT_POINT("fault_test.unarmed");  // must be a no-op
  EXPECT_EQ(exec::FaultRegistry::Get().hits("fault_test.unarmed"), 0u);
}

TEST_F(FaultTest, TriggerHitIsOneBasedAndCounted) {
  auto& reg = exec::FaultRegistry::Get();
  exec::FaultSpec spec;
  spec.action = exec::FaultAction::kThrow;
  spec.trigger_hit = 3;
  reg.Arm("fault_test.p", spec);
  EXPECT_TRUE(exec::FaultRegistry::AnyArmed());

  EXPECT_TRUE(reg.OnPoint("fault_test.p").ok());  // hit 1
  EXPECT_TRUE(reg.OnPoint("fault_test.p").ok());  // hit 2
  EXPECT_THROW(reg.OnPoint("fault_test.p"), exec::FaultInjectedError);
  // Without repeat, later hits pass again.
  EXPECT_TRUE(reg.OnPoint("fault_test.p").ok());  // hit 4
  EXPECT_EQ(reg.hits("fault_test.p"), 4u);

  reg.Disarm("fault_test.p");
  EXPECT_FALSE(exec::FaultRegistry::AnyArmed());
  EXPECT_EQ(reg.hits("fault_test.p"), 0u);
}

TEST_F(FaultTest, RepeatFiresOnEveryHitFromTrigger) {
  auto& reg = exec::FaultRegistry::Get();
  exec::FaultSpec spec;
  spec.action = exec::FaultAction::kError;
  spec.status = Status::IoError("disk on fire");
  spec.trigger_hit = 2;
  spec.repeat = true;
  reg.Arm("fault_test.r", spec);

  EXPECT_TRUE(reg.OnPoint("fault_test.r").ok());
  for (int i = 0; i < 3; ++i) {
    const Status st = reg.OnPoint("fault_test.r");
    EXPECT_EQ(st.code(), StatusCode::kIoError) << i;
  }
}

TEST_F(FaultTest, CancelActionTripsToken) {
  exec::CancellationToken token;
  exec::FaultSpec spec;
  spec.action = exec::FaultAction::kCancel;
  spec.token = &token;
  exec::FaultRegistry::Get().Arm("fault_test.c", spec);

  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(exec::FaultRegistry::Get().OnPoint("fault_test.c").ok());
  EXPECT_TRUE(token.cancelled());
}

// --- QueryContext -----------------------------------------------------

TEST_F(FaultTest, QueryContextDefaultNeverStops) {
  exec::QueryContext ctx;
  EXPECT_FALSE(ctx.ShouldStop());
  EXPECT_TRUE(ctx.Check().ok());
}

TEST_F(FaultTest, QueryContextCancellationIsStickyUntilReset) {
  exec::CancellationToken token;
  exec::QueryContext ctx;
  ctx.set_token(&token);
  EXPECT_FALSE(ctx.ShouldStop());
  token.Cancel();
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.Check().code(), StatusCode::kCancelled);
  token.Reset();
  EXPECT_TRUE(ctx.Check().ok());
}

TEST_F(FaultTest, QueryContextExpiredDeadline) {
  const exec::QueryContext ctx = exec::QueryContext::WithDeadline(0);
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(FaultTest, CancellationWinsOverDeadline) {
  exec::CancellationToken token;
  token.Cancel();
  exec::QueryContext ctx = exec::QueryContext::WithDeadline(0);
  ctx.set_token(&token);
  EXPECT_EQ(ctx.Check().code(), StatusCode::kCancelled);
}

// --- TaskPool exception safety ----------------------------------------

TEST_F(FaultTest, PoolRethrowsFirstExceptionOnCaller) {
  const std::uint64_t exceptions0 = Counter("exec.task_exceptions");
  EXPECT_THROW(
      exec::TaskPool::Get().Run(
          4, [](int) { throw std::runtime_error("task boom"); }),
      std::runtime_error);
  EXPECT_GE(Counter("exec.task_exceptions"), exceptions0 + 1);
}

TEST_F(FaultTest, PoolSurvivesRepeatedThrowingTasks) {
  auto& pool = exec::TaskPool::Get();
  pool.Run(4, [](int) {});  // make sure threads exist before counting
  const int spawned = pool.spawned_threads();
  constexpr int kFaultyRuns = 25;
  for (int i = 0; i < kFaultyRuns; ++i) {
    EXPECT_THROW(
        pool.Run(4,
                 [&](int w) {
                   if (w == i % 4) throw std::runtime_error("boom");
                 }),
        std::runtime_error);
  }
  // No pool thread died (std::terminate would have killed the process
  // long before this line) and no replacement threads were spawned.
  EXPECT_EQ(pool.spawned_threads(), spawned);
  // The pool is immediately serviceable.
  std::atomic<int> ran{0};
  pool.Run(4, [&](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 4);
}

TEST_F(FaultTest, PoolRunsEveryWorkerEvenWhenOneThrows) {
  std::atomic<int> ran{0};
  EXPECT_THROW(exec::TaskPool::Get().Run(8,
                                         [&](int w) {
                                           ran.fetch_add(1);
                                           if (w == 3) {
                                             throw std::runtime_error("w3");
                                           }
                                         }),
               std::runtime_error);
  // A throwing body must not abandon its siblings mid-run.
  EXPECT_EQ(ran.load(), 8);
}

// --- engine serving contract under faults -----------------------------

class EngineFaultTest : public FaultTest {
 protected:
  // SF 0.02 -> 120k lineorder rows (~30 execution blocks): enough blocks
  // for mid-query faults to land mid-scan, small enough to stay fast.
  static void SetUpTestSuite() {
    db_ = new ssb::SsbDatabase(ssb::SsbDatabase::Generate(0.02));
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static EngineConfig SingleThreadConfig() {
    EngineConfig cfg;
    cfg.threads = 1;
    return cfg;
  }

  static ssb::SsbDatabase* db_;
};

ssb::SsbDatabase* EngineFaultTest::db_ = nullptr;

TEST_F(EngineFaultTest, InjectedTaskExceptionReturnsInternalStatus) {
  const std::uint64_t failed0 = Counter("exec.queries_failed");
  SsbEngine engine(*db_, SingleThreadConfig());
  exec::FaultSpec spec;
  spec.action = exec::FaultAction::kThrow;
  exec::FaultRegistry::Get().Arm("engine.morsel", spec);

  const Result<QueryResult> r =
      engine.Run(QueryId::kQ1_1, exec::QueryContext());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_NE(r.status().ToString().find("Q1.1"), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("injected fault"), std::string::npos)
      << r.status().ToString();
  EXPECT_EQ(Counter("exec.queries_failed"), failed0 + 1);

  // The engine keeps serving: disarmed, the same query runs correctly.
  exec::FaultRegistry::Get().DisarmAll();
  const Result<QueryResult> ok = engine.Run(QueryId::kQ1_1,
                                            exec::QueryContext());
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(ok.value() == RunReferenceQuery(*db_, QueryId::kQ1_1));
}

TEST_F(EngineFaultTest, ParallelWorkersSurviveInjectedException) {
  EngineConfig cfg;
  cfg.threads = 4;
  SsbEngine engine(*db_, cfg);
  exec::FaultSpec spec;
  spec.action = exec::FaultAction::kThrow;
  spec.trigger_hit = 2;
  exec::FaultRegistry::Get().Arm("engine.morsel", spec);

  const Result<QueryResult> r =
      engine.Run(QueryId::kQ2_1, exec::QueryContext());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);

  exec::FaultRegistry::Get().DisarmAll();
  const Result<QueryResult> ok = engine.Run(QueryId::kQ2_1,
                                            exec::QueryContext());
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(ok.value() == RunReferenceQuery(*db_, QueryId::kQ2_1));
}

TEST_F(EngineFaultTest, DeadlineHonouredWithinTwiceTheBudget) {
  const std::uint64_t deadline0 = Counter("exec.queries_deadline_exceeded");
  SsbEngine engine(*db_, SingleThreadConfig());
  engine.Run(QueryId::kQ1_1);  // warm the plan cache; time only execution

  // Stall every block so the unbounded query would take ~30 * 25ms —
  // far beyond the deadline. The engine must notice the deadline at a
  // block boundary and give up within 2x the budget.
  exec::FaultSpec spec;
  spec.action = exec::FaultAction::kStall;
  spec.stall_ms = 25;
  spec.repeat = true;
  exec::FaultRegistry::Get().Arm("engine.morsel", spec);

  constexpr double kDeadlineSeconds = 0.2;
  const std::uint64_t t0 = MonotonicNanos();
  const Result<QueryResult> r = engine.Run(
      QueryId::kQ1_1, exec::QueryContext::WithDeadline(kDeadlineSeconds));
  const double elapsed =
      static_cast<double>(MonotonicNanos() - t0) * 1e-9;

  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, 2 * kDeadlineSeconds);
  EXPECT_EQ(Counter("exec.queries_deadline_exceeded"), deadline0 + 1);
}

TEST_F(EngineFaultTest, LegacyRunUnaffectedByDisarmedRegistry) {
  // The abort-on-error wrapper still works after a fault storm.
  SsbEngine engine(*db_, SingleThreadConfig());
  const QueryResult r = engine.Run(QueryId::kQ2_3);
  EXPECT_TRUE(r == RunReferenceQuery(*db_, QueryId::kQ2_3));
}

// --- the shared query shell's contract, on both engines ----------------

template <typename Engine>
struct EngineKind;
template <>
struct EngineKind<SsbEngine> {
  using Config = EngineConfig;
  static constexpr const char* kBuildSite = "engine.build";
  static constexpr const char* kMorselSite = "engine.morsel";
};
template <>
struct EngineKind<VoilaEngine> {
  using Config = VoilaConfig;
  static constexpr const char* kBuildSite = "voila.build";
  static constexpr const char* kMorselSite = "voila.morsel";
};

template <typename Engine>
std::unique_ptr<Engine> SingleThreadEngine(const ssb::SsbDatabase& db) {
  typename EngineKind<Engine>::Config cfg;
  cfg.threads = 1;
  return std::make_unique<Engine>(db, cfg);
}

template <typename Engine>
void CheckBuildErrorPropagatesAndCacheRetries(const ssb::SsbDatabase& db) {
  auto engine = SingleThreadEngine<Engine>(db);
  const char* site = EngineKind<Engine>::kBuildSite;
  exec::FaultSpec spec;
  spec.action = exec::FaultAction::kError;
  spec.status = Status::IoError("injected build failure");
  exec::FaultRegistry::Get().Arm(site, spec);

  // The armed Status comes back with its code intact (not wrapped in
  // Internal) because the build site is a HEF_FAULT_POINT_STATUS.
  const Result<QueryResult> r =
      engine->Run(QueryId::kQ3_2, exec::QueryContext());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);

  // The failed build must not be cached: with the fault armed but past
  // its trigger hit, the next Run rebuilds the plan and succeeds.
  const Result<QueryResult> ok =
      engine->Run(QueryId::kQ3_2, exec::QueryContext());
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(ok.value() == RunReferenceQuery(db, QueryId::kQ3_2));
  EXPECT_GE(exec::FaultRegistry::Get().hits(site), 2u);
}

template <typename Engine>
void CheckMidQueryCancelLeavesPlanCacheConsistent(
    const ssb::SsbDatabase& db) {
  const std::uint64_t cancelled0 = Counter("exec.queries_cancelled");
  auto engine = SingleThreadEngine<Engine>(db);
  exec::CancellationToken token;
  exec::FaultSpec spec;
  spec.action = exec::FaultAction::kCancel;
  spec.token = &token;
  spec.trigger_hit = 2;  // cancel after the scan is already under way
  exec::FaultRegistry::Get().Arm(EngineKind<Engine>::kMorselSite, spec);

  exec::QueryContext ctx;
  ctx.set_token(&token);
  const Result<QueryResult> r = engine->Run(QueryId::kQ4_1, ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(Counter("exec.queries_cancelled"), cancelled0 + 1);

  // The plan cached by the cancelled run must serve the retry with a
  // bit-identical full result — no partial state leaked into the entry.
  exec::FaultRegistry::Get().DisarmAll();
  token.Reset();
  const Result<QueryResult> retry = engine->Run(QueryId::kQ4_1, ctx);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_TRUE(retry.value().plan_cache_hit);
  EXPECT_TRUE(retry.value() == RunReferenceQuery(db, QueryId::kQ4_1));
}

template <typename Engine>
void CheckPreCancelledContextRejectedBeforeExecution(
    const ssb::SsbDatabase& db) {
  auto engine = SingleThreadEngine<Engine>(db);
  exec::CancellationToken token;
  token.Cancel();
  exec::QueryContext ctx;
  ctx.set_token(&token);
  const Result<QueryResult> r = engine->Run(QueryId::kQ1_2, ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

template <typename Engine>
void CheckRetryAfterFaultIsBitIdentical(const ssb::SsbDatabase& db) {
  auto engine = SingleThreadEngine<Engine>(db);
  const QueryResult want = RunReferenceQuery(db, QueryId::kQ3_1);

  exec::FaultSpec spec;
  spec.action = exec::FaultAction::kThrow;
  spec.trigger_hit = 3;
  exec::FaultRegistry::Get().Arm(EngineKind<Engine>::kMorselSite, spec);
  const Result<QueryResult> failed =
      engine->Run(QueryId::kQ3_1, exec::QueryContext());
  ASSERT_FALSE(failed.ok());

  exec::FaultRegistry::Get().DisarmAll();
  const Result<QueryResult> a =
      engine->Run(QueryId::kQ3_1, exec::QueryContext());
  const Result<QueryResult> b =
      engine->Run(QueryId::kQ3_1, exec::QueryContext());
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(a.value() == want);
  EXPECT_TRUE(b.value() == want);
}

// Every error carries " [trace=<16 hex>]", naming the caller's trace id
// when it supplied one.
template <typename Engine>
void CheckErrorCarriesTraceSuffix(const ssb::SsbDatabase& db) {
  auto engine = SingleThreadEngine<Engine>(db);
  exec::QueryContext ctx = exec::QueryContext::WithDeadline(0);
  ctx.set_trace_id(0x5EED);
  const Result<QueryResult> r = engine->Run(QueryId::kQ2_1, ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  const std::string suffix = " [trace=0000000000005eed]";
  const std::string& message = r.status().message();
  ASSERT_GE(message.size(), suffix.size()) << message;
  EXPECT_EQ(message.substr(message.size() - suffix.size()), suffix)
      << message;
}

TEST_F(EngineFaultTest, BuildErrorPropagatesAndCacheRetries) {
  CheckBuildErrorPropagatesAndCacheRetries<SsbEngine>(*db_);
}

TEST_F(EngineFaultTest, VoilaBuildErrorPropagatesAndCacheRetries) {
  CheckBuildErrorPropagatesAndCacheRetries<VoilaEngine>(*db_);
}

TEST_F(EngineFaultTest, MidQueryCancelLeavesPlanCacheConsistent) {
  CheckMidQueryCancelLeavesPlanCacheConsistent<SsbEngine>(*db_);
}

TEST_F(EngineFaultTest, VoilaMidQueryCancelLeavesPlanCacheConsistent) {
  CheckMidQueryCancelLeavesPlanCacheConsistent<VoilaEngine>(*db_);
}

TEST_F(EngineFaultTest, PreCancelledContextRejectedBeforeExecution) {
  CheckPreCancelledContextRejectedBeforeExecution<SsbEngine>(*db_);
}

TEST_F(EngineFaultTest, VoilaPreCancelledContextRejectedBeforeExecution) {
  CheckPreCancelledContextRejectedBeforeExecution<VoilaEngine>(*db_);
}

TEST_F(EngineFaultTest, RetryAfterFaultIsBitIdentical) {
  CheckRetryAfterFaultIsBitIdentical<SsbEngine>(*db_);
}

TEST_F(EngineFaultTest, VoilaRetryAfterFaultIsBitIdentical) {
  CheckRetryAfterFaultIsBitIdentical<VoilaEngine>(*db_);
}

TEST_F(EngineFaultTest, ErrorCarriesTraceSuffix) {
  CheckErrorCarriesTraceSuffix<SsbEngine>(*db_);
}

TEST_F(EngineFaultTest, VoilaErrorCarriesTraceSuffix) {
  CheckErrorCarriesTraceSuffix<VoilaEngine>(*db_);
}

// --- voila engine mirrors the contract --------------------------------

TEST_F(EngineFaultTest, VoilaInjectedExceptionReturnsStatus) {
  VoilaConfig cfg;
  cfg.threads = 1;
  VoilaEngine engine(*db_, cfg);
  exec::FaultSpec spec;
  spec.action = exec::FaultAction::kThrow;
  exec::FaultRegistry::Get().Arm("voila.morsel", spec);

  const Result<QueryResult> r =
      engine.Run(QueryId::kQ1_1, exec::QueryContext());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);

  exec::FaultRegistry::Get().DisarmAll();
  const Result<QueryResult> ok = engine.Run(QueryId::kQ1_1,
                                            exec::QueryContext());
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(ok.value() == RunReferenceQuery(*db_, QueryId::kQ1_1));
}

TEST_F(EngineFaultTest, VoilaBuildErrorPropagates) {
  VoilaConfig cfg;
  cfg.threads = 1;
  VoilaEngine engine(*db_, cfg);
  exec::FaultSpec spec;
  spec.action = exec::FaultAction::kError;
  spec.status = Status::Unsupported("injected");
  exec::FaultRegistry::Get().Arm("voila.build", spec);

  const Result<QueryResult> r =
      engine.Run(QueryId::kQ2_2, exec::QueryContext());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);

  const Result<QueryResult> ok = engine.Run(QueryId::kQ2_2,
                                            exec::QueryContext());
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(ok.value() == RunReferenceQuery(*db_, QueryId::kQ2_2));
}

TEST_F(EngineFaultTest, VoilaDeadlineExceededMidQuery) {
  VoilaConfig cfg;
  cfg.threads = 1;
  VoilaEngine engine(*db_, cfg);
  engine.Run(QueryId::kQ1_1);  // warm the plan cache

  exec::FaultSpec spec;
  spec.action = exec::FaultAction::kStall;
  spec.stall_ms = 25;
  spec.repeat = true;
  exec::FaultRegistry::Get().Arm("voila.morsel", spec);

  constexpr double kDeadlineSeconds = 0.2;
  const std::uint64_t t0 = MonotonicNanos();
  const Result<QueryResult> r = engine.Run(
      QueryId::kQ1_1, exec::QueryContext::WithDeadline(kDeadlineSeconds));
  const double elapsed =
      static_cast<double>(MonotonicNanos() - t0) * 1e-9;
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, 2 * kDeadlineSeconds);
}

// --- flavor admission -------------------------------------------------

TEST_F(FaultTest, ScalarFlavorAlwaysAdmitted) {
  EXPECT_TRUE(CheckFlavorSupported(Flavor::kScalar).ok());
}

TEST_F(FaultTest, FlavorAutoResolvesToSupportedFlavor) {
  const Result<Flavor> flavor = ResolveFlavorFlag("auto");
  ASSERT_TRUE(flavor.ok()) << flavor.status().ToString();
  EXPECT_TRUE(CheckFlavorSupported(flavor.value()).ok());
  // The empty string (unset flag) means auto too.
  ASSERT_TRUE(ResolveFlavorFlag("").ok());
}

TEST_F(FaultTest, UnknownFlavorNameRejected) {
  EXPECT_FALSE(ResolveFlavorFlag("warp-drive").ok());
}

}  // namespace
}  // namespace hef
