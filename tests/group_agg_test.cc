// Tests for the conflict-detected vectorized group-by accumulate: results
// must be identical to the scalar loop for every group-id distribution,
// especially heavy intra-vector duplication (the case vpconflictq exists
// for). The engine case pins the vector flavours' aggregation results.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "engine/reference.h"
#include "ssb/database.h"
#include "table/group_agg.h"

namespace hef {
namespace {

void CheckAgainstScalar(const std::vector<std::uint64_t>& gids,
                        const std::vector<std::uint64_t>& values,
                        std::size_t domain) {
  AlignedBuffer<std::uint64_t> g(gids.size(), 64), v(values.size(), 64);
  for (std::size_t i = 0; i < gids.size(); ++i) {
    g[i] = gids[i];
    v[i] = values[i];
  }
  std::vector<std::uint64_t> agg_s(domain, 0), cnt_s(domain, 0);
  std::vector<std::uint64_t> agg_v(domain, 0), cnt_v(domain, 0);
  GroupSumAdd(false, g.data(), v.data(), gids.size(), agg_s.data(),
              cnt_s.data());
  GroupSumAdd(true, g.data(), v.data(), gids.size(), agg_v.data(),
              cnt_v.data());
  EXPECT_EQ(agg_s, agg_v);
  EXPECT_EQ(cnt_s, cnt_v);
}

TEST(GroupAggTest, UniformRandomGroups) {
  Rng rng(71);
  std::vector<std::uint64_t> gids, values;
  for (int i = 0; i < 5000; ++i) {
    gids.push_back(rng.Uniform(0, 99));
    values.push_back(rng.Uniform(0, 1000));
  }
  CheckAgainstScalar(gids, values, 100);
}

TEST(GroupAggTest, AllSameGroupMaximalConflicts) {
  // Every vector is 8 duplicates of one gid: the pure slow path.
  std::vector<std::uint64_t> gids(1000, 3), values(1000, 7);
  CheckAgainstScalar(gids, values, 8);
}

TEST(GroupAggTest, PairwiseDuplicatesWithinVectors) {
  std::vector<std::uint64_t> gids, values;
  Rng rng(72);
  for (int i = 0; i < 2048; ++i) {
    gids.push_back(static_cast<std::uint64_t>(i / 2 % 16));  // aabbccdd...
    values.push_back(rng.Uniform(1, 9));
  }
  CheckAgainstScalar(gids, values, 16);
}

TEST(GroupAggTest, TinyAndTailSizes) {
  Rng rng(73);
  for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 15u, 17u}) {
    std::vector<std::uint64_t> gids, values;
    for (std::size_t i = 0; i < n; ++i) {
      gids.push_back(rng.Uniform(0, 3));
      values.push_back(i);
    }
    CheckAgainstScalar(gids, values, 4);
  }
}

TEST(GroupAggTest, SingleHotGroupAmongMany) {
  Rng rng(74);
  std::vector<std::uint64_t> gids, values;
  for (int i = 0; i < 4096; ++i) {
    gids.push_back(rng.Bernoulli(0.8) ? 42 : rng.Uniform(0, 255));
    values.push_back(rng.Uniform(0, 100));
  }
  CheckAgainstScalar(gids, values, 256);
}

TEST(GroupAggEngineTest, VectorizedAggPreservesResults) {
  // The engine accumulates with the scalar loop on every flavour (the
  // vector kernel measured slower there, EXPERIMENTS.md §7).
  const ssb::SsbDatabase db = ssb::SsbDatabase::Generate(0.02, 7);
  for (const QueryId query :
       {QueryId::kQ1_1, QueryId::kQ2_1, QueryId::kQ3_1, QueryId::kQ4_2}) {
    const QueryResult want = RunReferenceQuery(db, query);
    for (Flavor flavor : {Flavor::kSimd, Flavor::kHybrid}) {
      EngineConfig config;
      config.flavor = flavor;
      SsbEngine engine(db, config);
      EXPECT_EQ(engine.Run(query), want)
          << QueryName(query) << " " << FlavorName(flavor);
    }
  }
}

}  // namespace
}  // namespace hef
