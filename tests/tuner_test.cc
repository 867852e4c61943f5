// Tests for the tuner: Eq. 1/2 search-space arithmetic, the two-stage
// candidate generator, and the pruning optimizer (on synthetic cost
// surfaces where the true optimum is known, plus one real kernel).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <set>
#include <thread>

#include "algo/murmur.h"
#include "tuner/candidate_generator.h"
#include "tuner/kernel_table.h"
#include "tuner/optimizer.h"
#include "tuner/search_space.h"
#include "tuner/tune_trace.h"

namespace hef {
namespace {

TEST(SearchSpaceTest, Eq2Formula) {
  // Eq. 2: space = v*s*(p-1) + v + s - 1.
  EXPECT_EQ(SearchSpaceSize(1, 0, 1), 0u + 1 + 0 - 1);
  EXPECT_EQ(SearchSpaceSize(0, 3, 1), 2u);
  EXPECT_EQ(SearchSpaceSize(2, 3, 4), 2u * 3 * 3 + 2 + 3 - 1);
  EXPECT_EQ(SearchSpaceSize(8, 4, 4), 8u * 4 * 3 + 8 + 4 - 1);
}

TEST(SearchSpaceTest, ComplexityIsCubic) {
  // O(v*s*p): doubling every bound scales the size by ~8.
  const auto small = SearchSpaceSize(4, 4, 4);
  const auto big = SearchSpaceSize(8, 8, 8);
  EXPECT_GT(big, small * 6);
  EXPECT_LT(big, small * 10);
}

TEST(SearchSpaceTest, EnumerationMatchesGrid) {
  const auto space = EnumerateSearchSpace(2, 3, 4);
  // (v+1)*(s+1)*p minus the p invalid (0,0,p) nodes.
  EXPECT_EQ(space.size(), 3u * 4 * 4 - 4);
  std::set<HybridConfig> unique(space.begin(), space.end());
  EXPECT_EQ(unique.size(), space.size());
  for (const auto& cfg : space) {
    EXPECT_TRUE(cfg.valid());
  }
  EXPECT_EQ(GridBounds(space), (HybridConfig{2, 3, 4}));
  EXPECT_EQ(GridBounds({}), (HybridConfig{0, 0, 1}));
}

TEST(CandidateGeneratorTest, Silver4110MurmurSeed) {
  // §IV-A worked through for Murmur on the Silver 4110: stage 1 gives
  // v = 1 (one fused AVX-512 pipe), s = 3 (four scalar pipes, one shared).
  const HybridConfig cfg = GenerateInitialCandidate(
      ProcessorModel::Silver4110(), {MurmurKernel::Ops(), Isa::kAvx512});
  EXPECT_EQ(cfg.v, 1);
  EXPECT_EQ(cfg.s, 3);
  // Stage 2: dominant instruction is vpmullq (15/1.5 = 10); argc max = 3;
  // p = min(32/1.5, 32/max(9, 3)) = min(21, 3) = 3.
  EXPECT_EQ(cfg.p, 3);
  EXPECT_TRUE(cfg.valid());
}

TEST(CandidateGeneratorTest, Gold6240RGivesTwoVectorStatements) {
  const HybridConfig cfg = GenerateInitialCandidate(
      ProcessorModel::Gold6240R(), {MurmurKernel::Ops(), Isa::kAvx512});
  EXPECT_EQ(cfg.v, 2);
  EXPECT_EQ(cfg.s, 2);
  EXPECT_GE(cfg.p, 1);
}

TEST(CandidateGeneratorTest, GatherDominatedTemplate) {
  // CRC64: gather dominates; p = min(32/5, 32/max(9, 4)) = min(6, 3) = 3.
  const HybridConfig cfg = GenerateInitialCandidate(
      ProcessorModel::Silver4110(),
      {{OpClass::kGather, OpClass::kXor, OpClass::kShiftRight},
       Isa::kAvx512});
  EXPECT_EQ(cfg.p, 3);
}

TEST(CandidateGeneratorTest, DegenerateModelStillValid) {
  ProcessorModel m = ProcessorModel::Silver4110();
  m.simd_pipes = 0;
  m.scalar_alu_pipes = 1;
  m.shared_pipes = 1;
  const HybridConfig cfg =
      GenerateInitialCandidate(m, {MurmurKernel::Ops(), Isa::kScalar});
  EXPECT_TRUE(cfg.valid());
}

// Synthetic convex cost surface with optimum at (1, 3, 2).
double ConvexCost(const HybridConfig& cfg) {
  const double dv = cfg.v - 1.0;
  const double ds = cfg.s - 3.0;
  const double dp = cfg.p - 2.0;
  return 1.0 + dv * dv + 0.5 * ds * ds + 0.25 * dp * dp;
}

TEST(OptimizerTest, FindsConvexOptimumFromAnywhere) {
  const auto space = EnumerateSearchSpace(4, 6, 5);
  TuneOptions options;
  options.is_supported = [&](const HybridConfig& cfg) {
    return cfg.v <= 4 && cfg.s <= 6 && cfg.p <= 5;
  };
  for (const HybridConfig start :
       {HybridConfig{4, 6, 5}, HybridConfig{0, 1, 1}, HybridConfig{1, 3, 2},
        HybridConfig{4, 0, 1}}) {
    const TuneResult r = Tune(start, ConvexCost, options);
    EXPECT_EQ(r.best, (HybridConfig{1, 3, 2})) << start.ToString();
    EXPECT_DOUBLE_EQ(r.best_time, 1.0);
    // Pruning: strictly fewer measurements than exhaustive search.
    EXPECT_LT(r.nodes_tested, static_cast<int>(space.size()))
        << start.ToString();
  }
}

TEST(OptimizerTest, NeverMeasuresSameNodeTwice) {
  TuneOptions options;
  options.is_supported = [](const HybridConfig& cfg) {
    return cfg.v <= 3 && cfg.s <= 3 && cfg.p <= 3;
  };
  const TuneResult r = Tune(HybridConfig{2, 2, 2}, ConvexCost, options);
  std::set<HybridConfig> seen;
  for (const auto& [cfg, t] : r.history) {
    EXPECT_TRUE(seen.insert(cfg).second) << cfg.ToString();
  }
  EXPECT_EQ(static_cast<int>(r.history.size()), r.nodes_tested);
}

TEST(OptimizerTest, EscapesPrunedRidges) {
  // The paper's n_132 -> n_113 example: the direct edge toward the optimum
  // (raising p at s = 3) is pruned by a ridge, but a monotone winning path
  // around it — <n132, n122, n112, n113> — exists and must be taken.
  // Optimum at (1, 1, 3), start at (1, 3, 2).
  auto ridge = [](const HybridConfig& cfg) {
    const double base = std::abs(cfg.v - 1) * 2.0 + std::abs(cfg.s - 1) +
                        std::abs(cfg.p - 3) * 0.5;
    const double ridge_penalty = (cfg.s >= 3 && cfg.p >= 3) ? 10.0 : 0.0;
    return base + ridge_penalty;
  };
  TuneOptions options;
  options.is_supported = [](const HybridConfig& cfg) {
    return cfg.v <= 3 && cfg.s <= 4 && cfg.p <= 4;
  };
  const TuneResult r = Tune(HybridConfig{1, 3, 2}, ridge, options);
  EXPECT_EQ(r.best, (HybridConfig{1, 1, 3}));
}

TEST(OptimizerTest, RespectsMeasurementBudget) {
  TuneOptions options;
  options.is_supported = [](const HybridConfig& cfg) {
    return cfg.v <= 8 && cfg.s <= 8 && cfg.p <= 8;
  };
  options.max_measurements = 5;
  const TuneResult r = Tune(HybridConfig{4, 4, 4}, ConvexCost, options);
  EXPECT_LE(r.nodes_tested, 5 + 6);  // budget checked per expansion round
}

TEST(OptimizerTest, TraceReconstructsExpansionTree) {
  TuneOptions options;
  options.is_supported = [](const HybridConfig& cfg) {
    return cfg.v <= 4 && cfg.s <= 6 && cfg.p <= 5;
  };
  const HybridConfig start{4, 6, 5};
  const TuneResult r = Tune(start, ConvexCost, options);
  ASSERT_EQ(static_cast<int>(r.trace.size()), r.nodes_tested);

  // The root is its own parent and always classified a winner.
  EXPECT_EQ(r.trace.front().config, start);
  EXPECT_EQ(r.trace.front().parent, start);
  EXPECT_TRUE(r.trace.front().winner);

  int winners = 0;
  for (std::size_t i = 0; i < r.trace.size(); ++i) {
    const TuneStep& step = r.trace[i];
    if (step.winner) ++winners;
    if (i == 0) continue;
    // Every expansion edge leaves a previously-tested *winner*, and spans
    // exactly one coordinate step (Algorithm 2's neighbour set).
    bool parent_found = false;
    for (std::size_t j = 0; j < i; ++j) {
      if (r.trace[j].config == step.parent) {
        parent_found = true;
        EXPECT_TRUE(r.trace[j].winner) << step.parent.ToString();
        // A non-root winner beat the node it was expanded from.
        if (step.winner) EXPECT_LT(step.seconds, r.trace[j].seconds);
        break;
      }
    }
    EXPECT_TRUE(parent_found) << step.parent.ToString();
    const int dist = std::abs(step.config.v - step.parent.v) +
                     std::abs(step.config.s - step.parent.s) +
                     std::abs(step.config.p - step.parent.p);
    EXPECT_EQ(dist, 1) << step.config.ToString();
  }
  // Losers are exactly the pruned nodes (end_list of Algorithm 2).
  EXPECT_EQ(r.nodes_pruned, static_cast<int>(r.trace.size()) - winners);
  // The recorded optimum is the fastest step in the trace.
  double fastest = r.trace.front().seconds;
  for (const TuneStep& step : r.trace) {
    fastest = std::min(fastest, step.seconds);
  }
  EXPECT_DOUBLE_EQ(fastest, r.best_time);
}

TEST(OptimizerTest, ExhaustiveTraceMarksRunningOptima) {
  const auto space = EnumerateSearchSpace(2, 2, 2);
  const TuneResult r = TuneExhaustive(space, ConvexCost);
  ASSERT_EQ(static_cast<int>(r.trace.size()), r.nodes_tested);
  EXPECT_EQ(r.nodes_pruned, 0);
  double best = 0;
  for (std::size_t i = 0; i < r.trace.size(); ++i) {
    EXPECT_EQ(r.trace[i].parent, r.trace[i].config);  // no expansion tree
    if (i == 0) {
      EXPECT_TRUE(r.trace[i].winner);
      best = r.trace[i].seconds;
    } else if (r.trace[i].winner) {
      EXPECT_LT(r.trace[i].seconds, best);
      best = r.trace[i].seconds;
    } else {
      EXPECT_GE(r.trace[i].seconds, best);
    }
  }
  EXPECT_DOUBLE_EQ(best, r.best_time);
}

TEST(TuneTraceTest, JsonGolden) {
  TuneResult r;
  r.best = HybridConfig{1, 3, 2};
  r.best_time = 0.5;
  r.nodes_tested = 2;
  r.nodes_pruned = 1;
  r.trace.push_back(TuneStep{HybridConfig{1, 3, 2}, 0.5,
                             HybridConfig{1, 3, 2}, true});
  r.trace.push_back(TuneStep{HybridConfig{2, 3, 2}, 0.75,
                             HybridConfig{1, 3, 2}, false});
  EXPECT_EQ(TuneTraceToJson(r),
            "{\"best\":{\"v\":1,\"s\":3,\"p\":2},"
            "\"best_seconds\":0.5,\"nodes_tested\":2,\"nodes_pruned\":1,"
            "\"nodes_timed_out\":0,\"nodes_rejected_static\":0,"
            "\"nodes_rejected_semantic\":0,\"steps\":["
            "{\"v\":1,\"s\":3,\"p\":2,\"seconds\":0.5,"
            "\"parent\":{\"v\":1,\"s\":3,\"p\":2},\"winner\":true,"
            "\"timed_out\":false,\"rejected_static\":false,"
            "\"rejected_semantic\":false},"
            "{\"v\":2,\"s\":3,\"p\":2,\"seconds\":0.75,"
            "\"parent\":{\"v\":1,\"s\":3,\"p\":2},\"winner\":false,"
            "\"timed_out\":false,\"rejected_static\":false,"
            "\"rejected_semantic\":false}]}");
}

// --- measurement hardening: trials / median / watchdog ----------------

TEST(OptimizerTest, SingleTrialRemainsOneMeasurementPerNode) {
  int calls = 0;
  TuneOptions options;
  options.is_supported = [](const HybridConfig& cfg) {
    return cfg.v <= 3 && cfg.s <= 3 && cfg.p <= 3;
  };
  const TuneResult r = Tune(
      HybridConfig{2, 2, 2},
      [&](const HybridConfig& cfg) {
        ++calls;
        return ConvexCost(cfg);
      },
      options);
  EXPECT_EQ(calls, r.nodes_tested);  // trials defaults to 1
  EXPECT_EQ(r.nodes_timed_out, 0);
}

TEST(OptimizerTest, MedianOfTrialsRejectsOutliers) {
  // Every third measurement of a node is wildly slow (a preempted trial).
  // With trials = 3 the median throws the outlier away and the search
  // still scores every node at its true cost, finding the true optimum.
  int calls = 0;
  auto noisy = [&](const HybridConfig& cfg) {
    const int trial = calls++ % 3;
    return ConvexCost(cfg) + (trial == 2 ? 1000.0 : 0.0);
  };
  TuneOptions options;
  options.is_supported = [](const HybridConfig& cfg) {
    return cfg.v <= 4 && cfg.s <= 6 && cfg.p <= 5;
  };
  options.trials = 3;
  const TuneResult r = Tune(HybridConfig{4, 6, 5}, noisy, options);
  EXPECT_EQ(r.best, (HybridConfig{1, 3, 2}));
  EXPECT_DOUBLE_EQ(r.best_time, 1.0);
  EXPECT_EQ(calls, r.nodes_tested * 3);
  for (const TuneStep& step : r.trace) {
    EXPECT_DOUBLE_EQ(step.seconds, ConvexCost(step.config))
        << step.config.ToString();
  }
}

TEST(OptimizerTest, WatchdogForcePrunesStalledCandidate) {
  // One pathological node reports the fastest time but takes forever to
  // measure; the watchdog must flag it and the search must not crown it.
  const HybridConfig slow{2, 2, 2};
  auto measure = [&](const HybridConfig& cfg) {
    if (cfg == slow) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      return 0.001;  // would win every comparison if admitted
    }
    return ConvexCost(cfg);
  };
  TuneOptions options;
  options.is_supported = [](const HybridConfig& cfg) {
    return cfg.v <= 3 && cfg.s <= 4 && cfg.p <= 3;
  };
  options.trials = 2;
  options.watchdog_seconds = 0.005;
  // Start adjacent to the pathological node so it is generated and
  // measured in the first expansion round.
  const TuneResult r = Tune(HybridConfig{2, 2, 1}, measure, options);
  EXPECT_EQ(r.best, (HybridConfig{1, 3, 2}));
  EXPECT_DOUBLE_EQ(r.best_time, 1.0);
  EXPECT_EQ(r.nodes_timed_out, 1);
  bool flagged = false;
  for (const TuneStep& step : r.trace) {
    if (step.config == slow) {
      EXPECT_TRUE(step.timed_out);
      EXPECT_FALSE(step.winner);
      flagged = true;
    } else {
      EXPECT_FALSE(step.timed_out) << step.config.ToString();
    }
  }
  EXPECT_TRUE(flagged);
}

TEST(OptimizerTest, ExhaustiveWithOptionsAppliesWatchdog) {
  const auto space = EnumerateSearchSpace(2, 2, 2);
  const HybridConfig slow = space.front();
  auto measure = [&](const HybridConfig& cfg) {
    if (cfg == slow) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      return 0.0;
    }
    return ConvexCost(cfg);
  };
  TuneOptions options;
  options.trials = 2;
  options.watchdog_seconds = 0.005;
  const TuneResult r = TuneExhaustive(space, measure, options);
  EXPECT_EQ(r.nodes_timed_out, 1);
  EXPECT_NE(r.best, slow);
  // The winner is the cheapest node in the space other than the
  // timed-out one (which reported the smallest time of all).
  HybridConfig want = slow;
  double want_cost = 0;
  for (const HybridConfig& cfg : space) {
    if (cfg == slow) continue;
    if (want == slow || ConvexCost(cfg) < want_cost) {
      want = cfg;
      want_cost = ConvexCost(cfg);
    }
  }
  EXPECT_EQ(r.best, want);
  EXPECT_DOUBLE_EQ(r.best_time, want_cost);
}

// --- static admission (src/analysis register-pressure pruning) --------

TEST(OptimizerTest, StaticallyRejectedNodesAreNeverMeasured) {
  std::set<HybridConfig> measured;
  TuneOptions options;
  options.is_supported = [](const HybridConfig& cfg) {
    return cfg.v <= 3 && cfg.s <= 4 && cfg.p <= 3;
  };
  // Reject everything with p >= 2 — the kind of cut the register-pressure
  // model makes — and prove no such node ever reaches the measure fn.
  options.static_check = [](const HybridConfig& cfg) {
    return cfg.p >= 2 ? Status::InvalidArgument("over pressure")
                      : Status::OK();
  };
  const TuneResult r = Tune(
      HybridConfig{2, 2, 1},
      [&](const HybridConfig& cfg) {
        measured.insert(cfg);
        return ConvexCost(cfg);
      },
      options);
  EXPECT_GT(r.nodes_rejected_static, 0);
  for (const HybridConfig& cfg : measured) {
    EXPECT_LT(cfg.p, 2) << cfg.ToString();
  }
  for (const auto& [cfg, t] : r.history) {
    EXPECT_LT(cfg.p, 2) << cfg.ToString();
    (void)t;
  }
  int flagged = 0;
  for (const TuneStep& step : r.trace) {
    if (step.rejected_static) {
      ++flagged;
      EXPECT_GE(step.config.p, 2) << step.config.ToString();
      EXPECT_FALSE(step.winner);
      EXPECT_EQ(measured.count(step.config), 0u) << step.config.ToString();
    }
  }
  EXPECT_EQ(flagged, r.nodes_rejected_static);
  // The best is found within the admitted subspace.
  EXPECT_EQ(r.best.p, 1);
}

TEST(OptimizerTest, SearchRootIsExemptFromStaticCheck) {
  // Callers clamp fall-back roots into the grid; the root must always be
  // measured even if the static model would reject it, or the search has
  // nowhere to start.
  int root_measured = 0;
  TuneOptions options;
  options.is_supported = [](const HybridConfig& cfg) {
    return cfg.v <= 2 && cfg.s <= 2 && cfg.p <= 2;
  };
  options.static_check = [](const HybridConfig&) {
    return Status::InvalidArgument("rejects everything");
  };
  const HybridConfig root{1, 1, 1};
  const TuneResult r = Tune(
      root,
      [&](const HybridConfig& cfg) {
        if (cfg == root) ++root_measured;
        return ConvexCost(cfg);
      },
      options);
  EXPECT_EQ(root_measured, 1);
  EXPECT_EQ(r.best, root);
  EXPECT_EQ(r.nodes_tested, 1);
  EXPECT_GT(r.nodes_rejected_static, 0);  // every neighbour was rejected
}

TEST(OptimizerTest, ExhaustiveAppliesStaticCheck) {
  const auto space = EnumerateSearchSpace(2, 2, 2);
  std::set<HybridConfig> measured;
  TuneOptions options;
  options.static_check = [](const HybridConfig& cfg) {
    return cfg.p == 2 ? Status::InvalidArgument("over pressure")
                      : Status::OK();
  };
  const TuneResult r = TuneExhaustive(
      space,
      [&](const HybridConfig& cfg) {
        measured.insert(cfg);
        return ConvexCost(cfg);
      },
      options);
  EXPECT_GT(r.nodes_rejected_static, 0);
  for (const HybridConfig& cfg : measured) {
    EXPECT_NE(cfg.p, 2) << cfg.ToString();
  }
  EXPECT_NE(r.best.p, 2);
}

TEST(KernelTunersTest, AllKernelTunersProduceValidOptima) {
  KernelTuneOptions options;
  options.elements = 1 << 11;
  options.repetitions = 2;
  options.probe_table_keys = 1 << 9;
  for (const char* name : {"crc64", "probe", "gather", "bloom", "sum"}) {
    const TuneResult r = TuneKernel(FindKernel(name), options);
    EXPECT_TRUE(r.best.valid()) << name;
    EXPECT_GT(r.best_time, 0.0) << name;
    EXPECT_GE(r.nodes_tested, 1) << name;
  }
}

TEST(KernelTunersTest, MurmurTuneProducesValidOptimum) {
  KernelTuneOptions options;
  options.elements = 1 << 12;
  options.repetitions = 3;
  const TuneResult r = TuneKernel(FindKernel("murmur"), options);
  EXPECT_TRUE(r.best.valid());
  EXPECT_GT(r.best_time, 0.0);
  EXPECT_GE(r.nodes_tested, 1);
  // The tuned point must not lose to the pure baselines it was compared
  // against during the search (they are its neighbours or ancestors).
  for (const auto& [cfg, t] : r.history) {
    EXPECT_LE(r.best_time, t) << cfg.ToString();
  }
}

TEST(KernelTableTest, EveryWorkloadTunesToAnInGridOptimum) {
  KernelTuneOptions options;
  options.elements = 1 << 11;
  options.repetitions = 2;
  options.probe_table_keys = 1 << 9;
  int tuned = 0;
  for (const KernelEntry& entry : KernelTable()) {
    if (entry.workload == nullptr) continue;
    ++tuned;
    const TuneResult r = TuneKernel(entry, options);
    EXPECT_NE(std::find(entry.grid.begin(), entry.grid.end(), r.best),
              entry.grid.end())
        << entry.name << " picked " << r.best.ToString();
    EXPECT_TRUE(std::isfinite(r.best_time)) << entry.name;
    EXPECT_GT(r.best_time, 0.0) << entry.name;
    EXPECT_GE(r.nodes_tested, 1) << entry.name;
    // The tuned point never loses to a node the search measured.
    for (const auto& [cfg, t] : r.history) {
      EXPECT_LE(r.best_time, t) << entry.name << " vs " << cfg.ToString();
    }
  }
  // murmur, crc64, probe, gather, bloom, sum and the three decode kernels.
  EXPECT_EQ(tuned, 9);
}

}  // namespace
}  // namespace hef
