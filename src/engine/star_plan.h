// Star-plan representation of the 13 SSB queries, shared by the vectorized
// engine (src/engine/engine.cc) and the Voila comparator (src/voila). A
// BoundPlan owns the filtered dimension hash tables and their Bloom
// filters and binds fact columns, join order, measure expression and
// group-by mapping for one query.

#ifndef HEF_ENGINE_STAR_PLAN_H_
#define HEF_ENGINE_STAR_PLAN_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "engine/query_id.h"
#include "ssb/database.h"
#include "table/bloom_filter.h"
#include "table/linear_hash_table.h"

namespace hef {

// How the two value columns combine into the aggregated measure.
enum class ValueOp {
  kSum,         // sum(a)
  kSumProduct,  // sum(a * b)   (Q1.x: extendedprice * discount)
  kSumDiff,     // sum(a - b)   (Q4.x: revenue - supplycost)
};

struct RangeFilter {
  const ssb::Column* col;
  std::uint64_t lo;
  std::uint64_t hi;
};

struct JoinStage {
  const ssb::Column* fact_key;
  const LinearHashTable* table;
  // Bloom filter over the keys in `table`, built in the same pass; the
  // SSB engine probes it before `table` to drop definite misses. Null when
  // the dimension predicate keeps every row: under foreign-key integrity
  // every fact key is then in the table, so a filter could reject nothing.
  const BloomFilter* bloom = nullptr;
  // Estimated fraction of fact rows surviving this join: dimension rows
  // passing the filter / dimension cardinality (fact foreign keys are
  // uniform over the dimension, so this is exact in expectation).
  double selectivity = 1.0;
  // Payload slot this join's probe results occupy in the gid mapping's
  // argument array. Assigned in schema order at plan build, BEFORE the
  // selectivity sort, so `gid`/`decode` are independent of probe order.
  int payload_slot = -1;
  // Smallest and largest key present in `table` (after the dimension
  // filter), for zone-map join pruning: a fact chunk whose key range
  // misses [key_lo, key_hi] cannot produce a hit in this join. An empty
  // table keeps the initial key_lo > key_hi state (prunes everything).
  std::uint64_t key_lo = ~0ULL;
  std::uint64_t key_hi = 0;
};

// A fully-bound star query plan. `gid` maps the join payloads of one
// surviving row (indexed by payload slot) to a dense group id; `decode`
// maps a group id back to the output key attributes.
//
// The group-key layout is framed at plan build: each join's payload is
// either a marker (1 on every hit, no output key) or one of the three
// output keys, and the plan records the frame [lo, hi] of the payloads
// the dimension rows passing its predicate carry. Group ids are a mixed
// radix over those frames, key 0 most significant: gid(p) is the sum of
// (p[slot] - lo) * stride over the keyed joins and decode(g)[k] is
// lo + (g / stride) % width. `gid_domain` is the product of the frame
// widths — the groups that can occur — and at least 1 (an empty frame,
// or a key no join fills, has width 1). Keys no join fills decode to 0.
// The defaults lay out the single group of a plan with no keyed join.
struct StarPlan {
  std::vector<RangeFilter> filters;
  std::vector<JoinStage> joins;  // probe order: most selective first
  const ssb::Column* value_a = nullptr;
  const ssb::Column* value_b = nullptr;
  ValueOp value_op = ValueOp::kSum;
  std::size_t gid_domain = 1;
  // Per payload slot, the stride of the key its join fills (0 for markers
  // and unused slots), and the sum of lo * stride over the keyed joins.
  std::array<std::uint64_t, 4> slot_stride{};
  std::uint64_t base = 0;
  // Per output key, its frame's lo, its stride and its width.
  std::array<std::uint64_t, 3> lo{};
  std::array<std::uint64_t, 3> stride{1, 1, 1};
  std::array<std::uint64_t, 3> width{1, 1, 1};

  // Four fixed multiplies per row cost less than a loop over the keyed
  // slots. Wraps modulo 2^64 exactly: every payload is at least its
  // frame's lo.
  std::uint64_t gid(const std::array<std::uint64_t, 4>& p) const {
    return p[0] * slot_stride[0] + p[1] * slot_stride[1] +
           p[2] * slot_stride[2] + p[3] * slot_stride[3] - base;
  }
  std::array<std::uint64_t, 3> decode(std::uint64_t g) const {
    std::array<std::uint64_t, 3> keys{};
    for (std::size_t k = 0; k < keys.size(); ++k) {
      keys[k] = lo[k] + g / stride[k] % width[k];
    }
    return keys;
  }
};

// A StarPlan plus ownership of its dimension hash tables and Bloom filters.
struct BoundPlan {
  std::vector<std::unique_ptr<LinearHashTable>> tables;
  std::vector<std::unique_ptr<BloomFilter>> blooms;
  StarPlan plan;
};

// Stats/trace label for a lineorder column ("discount", "partkey", ...);
// "column" for pointers outside the fact table. Used to name operator
// rows like "filter.discount" and "probe.partkey".
const char* FactColumnName(const ssb::LineorderFact& lo,
                           const ssb::Column* col);

// Options for the join build phase. `parallel_for` (when non-null) runs
// fn(p) for p in [0, parts), possibly concurrently — the execution runtime
// passes one backed by its worker pool so large dimension hash tables
// build with partitioned parallel inserts (LinearHashTable::InsertBatch).
// The produced plan is identical either way.
struct PlanBuildOptions {
  LinearHashTable::ParallelFor parallel_for;
};

// Builds the plan (including filtered dimension hash tables and their
// Bloom filters — the join build phase) for one SSB query. Join stages are ordered most selective
// first using the estimated selectivities (stable sort, so equal-estimate
// stages keep schema order). Deterministic; build cost is part of query
// execution time, as in the paper's measurements (engines amortize it
// across repeated runs through the exec::PlanCache).
BoundPlan BuildQueryPlan(const ssb::SsbDatabase& db, QueryId id);
BoundPlan BuildQueryPlan(const ssb::SsbDatabase& db, QueryId id,
                         const PlanBuildOptions& options);

}  // namespace hef

#endif  // HEF_ENGINE_STAR_PLAN_H_
