#include "engine/star_plan.h"

#include <algorithm>
#include <vector>

#include "common/macros.h"
#include "ssb/schema.h"

namespace hef {

namespace {

using ssb::SsbDatabase;
using RowPred = std::function<bool(std::size_t)>;
using RowValue = std::function<std::uint64_t(std::size_t)>;

// The parallel runner of the BuildQueryPlan call currently executing on
// this thread (null -> serial builds). Thread-local so the recursive
// builder helpers need no signature plumbing and concurrent
// BuildQueryPlan calls on different threads stay independent.
thread_local const LinearHashTable::ParallelFor* g_parallel_for = nullptr;

// Output group key a join's payload fills: 0, 1 or 2 (key 0 is the most
// significant digit of the group id), or kMarker when the payload (1)
// only marks a hit.
constexpr int kMarker = -1;
constexpr int kGroupKeys = 3;

// The payloads of one join's qualifying dimension rows lie in [lo, hi]
// (lo > hi: no row qualified) — the frame-of-reference idea the storage
// layer uses, applied to group keys.
struct PayloadFrame {
  int group_key = kMarker;
  std::uint64_t lo = ~0ULL;
  std::uint64_t hi = 0;
};

// A plan under construction: joins in schema order, with one payload
// frame per join.
struct PlanBuilder {
  BoundPlan bound;
  std::vector<PayloadFrame> frames;
};

// Dimension row accessors. Customer, supplier and part rows are keyed by
// their 1-based position; dates by their datekey column.
std::uint64_t RowKey(std::size_t i) { return i + 1; }
RowValue Col(const ssb::Column& col) {
  return [&col](std::size_t i) { return col[i]; };
}
RowPred Between(const ssb::Column& col, std::uint64_t lo, std::uint64_t hi) {
  return [&col, lo, hi](std::size_t i) { return col[i] >= lo && col[i] <= hi; };
}
bool AllRows(std::size_t) { return true; }

// Joins `fact_key` against a dimension of `n` rows keyed by key_of(row):
// builds the hash table over the rows passing `pred`, with payload
// payload_of(row) for a group key and 1 for a marker. The one pass over
// the qualifying rows also records the join's key range (zone-map join
// pruning), its payload frame and its selectivity estimate, qualifying
// rows / n (fact foreign keys are uniform over the dimension, so this is
// exact in expectation). The pairs are bulk-inserted, so large builds can
// use the partitioned parallel path of LinearHashTable::InsertBatch. The
// collected keys also fill the join's Bloom filter unless every row
// qualified.
void AddJoin(PlanBuilder& b, const ssb::Column& fact_key, std::size_t n,
             const RowValue& key_of, const RowPred& pred,
             int group_key = kMarker, const RowValue& payload_of = nullptr) {
  JoinStage join{&fact_key, nullptr};
  PayloadFrame frame{group_key};
  std::vector<std::uint64_t> keys, payloads;
  for (std::size_t i = 0; i < n; ++i) {
    if (!pred(i)) continue;
    const std::uint64_t key = key_of(i);
    const std::uint64_t payload = group_key == kMarker ? 1 : payload_of(i);
    join.key_lo = std::min(join.key_lo, key);
    join.key_hi = std::max(join.key_hi, key);
    frame.lo = std::min(frame.lo, payload);
    frame.hi = std::max(frame.hi, payload);
    keys.push_back(key);
    payloads.push_back(payload);
  }
  auto table =
      std::make_unique<LinearHashTable>(keys.empty() ? 1 : keys.size());
  table->InsertBatch(
      keys.data(), payloads.data(), keys.size(),
      g_parallel_for == nullptr ? nullptr : *g_parallel_for);
  join.table = table.get();
  join.selectivity =
      static_cast<double>(keys.size()) / static_cast<double>(n);
  b.bound.tables.push_back(std::move(table));
  if (keys.size() < n) {
    auto bloom = std::make_unique<BloomFilter>(keys.size());
    for (const std::uint64_t key : keys) bloom->Insert(key);
    join.bloom = bloom.get();
    b.bound.blooms.push_back(std::move(bloom));
  }
  b.bound.plan.joins.push_back(join);
  b.frames.push_back(frame);
}

void BuildQ1(const SsbDatabase& db, QueryId id, PlanBuilder& b) {
  const auto& lo = db.lineorder;
  StarPlan& plan = b.bound.plan;
  plan.value_a = &lo.extendedprice;
  plan.value_b = &lo.discount;
  plan.value_op = ValueOp::kSumProduct;

  switch (id) {
    case QueryId::kQ1_1:
      plan.filters = {{&lo.orderdate, 19930101, 19931231},
                      {&lo.discount, 1, 3},
                      {&lo.quantity, 0, 24}};
      break;
    case QueryId::kQ1_2:
      plan.filters = {{&lo.orderdate, 19940101, 19940131},
                      {&lo.discount, 4, 6},
                      {&lo.quantity, 26, 35}};
      break;
    case QueryId::kQ1_3:
      // The week predicate needs the date dimension: join instead of a
      // datekey range.
      plan.filters = {{&lo.discount, 5, 7}, {&lo.quantity, 26, 35}};
      AddJoin(b, lo.orderdate, db.date.n, Col(db.date.datekey),
              [&db](std::size_t i) {
                return db.date.weeknuminyear[i] == 6 &&
                       db.date.year[i] == 1994;
              });
      break;
    default:
      HEF_CHECK_MSG(false, "not a Q1 query");
  }
}

// Group by d_year, p_brand1.
void BuildQ2(const SsbDatabase& db, QueryId id, PlanBuilder& b) {
  const auto& lo = db.lineorder;
  RowPred part_pred;
  std::uint64_t supp_region = 0;
  switch (id) {
    case QueryId::kQ2_1:
      // p_category = 'MFGR#12', s_region = 'AMERICA'.
      part_pred = Between(db.part.category, 12, 12);
      supp_region = ssb::kAmerica;
      break;
    case QueryId::kQ2_2:
      // p_brand1 between 'MFGR#2221' and 'MFGR#2228', s_region = 'ASIA'.
      part_pred = Between(db.part.brand1, 2221, 2228);
      supp_region = ssb::kAsia;
      break;
    case QueryId::kQ2_3:
      // p_brand1 = 'MFGR#2221', s_region = 'EUROPE'.
      part_pred = Between(db.part.brand1, 2221, 2221);
      supp_region = ssb::kEurope;
      break;
    default:
      HEF_CHECK_MSG(false, "not a Q2 query");
  }

  AddJoin(b, lo.partkey, db.part.n, RowKey, part_pred, 1,
          Col(db.part.brand1));
  AddJoin(b, lo.suppkey, db.supplier.n, RowKey,
          Between(db.supplier.region, supp_region, supp_region));
  AddJoin(b, lo.orderdate, db.date.n, Col(db.date.datekey), AllRows, 0,
          Col(db.date.year));
  b.bound.plan.value_a = &lo.revenue;
  b.bound.plan.value_op = ValueOp::kSum;
}

// Group by customer geo, supplier geo, d_year.
void BuildQ3(const SsbDatabase& db, QueryId id, PlanBuilder& b) {
  const auto& lo = db.lineorder;
  RowPred cust_pred, supp_pred;
  RowPred date_pred = [&db](std::size_t i) { return db.date.year[i] <= 1997; };
  const ssb::Column* cust_geo = &db.customer.city;
  const ssb::Column* supp_geo = &db.supplier.city;

  switch (id) {
    case QueryId::kQ3_1:
      // c_region = s_region = 'ASIA', d_year 1992..1997; group by
      // c_nation, s_nation, d_year.
      cust_pred = Between(db.customer.region, ssb::kAsia, ssb::kAsia);
      supp_pred = Between(db.supplier.region, ssb::kAsia, ssb::kAsia);
      cust_geo = &db.customer.nation;
      supp_geo = &db.supplier.nation;
      break;
    case QueryId::kQ3_2:
      // c_nation = s_nation = 'UNITED STATES'; group by cities.
      cust_pred = Between(db.customer.nation, ssb::kNationUnitedStates,
                          ssb::kNationUnitedStates);
      supp_pred = Between(db.supplier.nation, ssb::kNationUnitedStates,
                          ssb::kNationUnitedStates);
      break;
    case QueryId::kQ3_3:
    case QueryId::kQ3_4: {
      // Cities 'UNITED KI1' / 'UNITED KI5' on both sides.
      auto city_pred = [](std::uint64_t city) {
        return city == ssb::kCityUnitedKi1 || city == ssb::kCityUnitedKi5;
      };
      cust_pred = [&db, city_pred](std::size_t i) {
        return city_pred(db.customer.city[i]);
      };
      supp_pred = [&db, city_pred](std::size_t i) {
        return city_pred(db.supplier.city[i]);
      };
      if (id == QueryId::kQ3_4) {
        // d_yearmonth = 'Dec1997'.
        date_pred = Between(db.date.yearmonthnum, 199712, 199712);
      }
      break;
    }
    default:
      HEF_CHECK_MSG(false, "not a Q3 query");
  }

  AddJoin(b, lo.custkey, db.customer.n, RowKey, cust_pred, 0, Col(*cust_geo));
  AddJoin(b, lo.suppkey, db.supplier.n, RowKey, supp_pred, 1, Col(*supp_geo));
  AddJoin(b, lo.orderdate, db.date.n, Col(db.date.datekey), date_pred, 2,
          Col(db.date.year));
  b.bound.plan.value_a = &lo.revenue;
  b.bound.plan.value_op = ValueOp::kSum;
}

void BuildQ4(const SsbDatabase& db, QueryId id, PlanBuilder& b) {
  const auto& lo = db.lineorder;
  StarPlan& plan = b.bound.plan;
  plan.value_a = &lo.revenue;
  plan.value_b = &lo.supplycost;
  plan.value_op = ValueOp::kSumDiff;
  const RowPred cust_america =
      Between(db.customer.region, ssb::kAmerica, ssb::kAmerica);
  const RowPred mfgr_1_2 = [&db](std::size_t i) {
    return db.part.mfgr[i] <= 2;
  };
  const RowPred years_97_98 = [&db](std::size_t i) {
    return db.date.year[i] >= 1997;
  };

  switch (id) {
    case QueryId::kQ4_1:
      // c_region = s_region = 'AMERICA', p_mfgr in {1, 2};
      // group by d_year, c_nation.
      AddJoin(b, lo.custkey, db.customer.n, RowKey, cust_america, 1,
              Col(db.customer.nation));
      AddJoin(b, lo.suppkey, db.supplier.n, RowKey,
              Between(db.supplier.region, ssb::kAmerica, ssb::kAmerica));
      AddJoin(b, lo.partkey, db.part.n, RowKey, mfgr_1_2);
      AddJoin(b, lo.orderdate, db.date.n, Col(db.date.datekey), AllRows, 0,
              Col(db.date.year));
      break;
    case QueryId::kQ4_2:
      // + d_year in {1997, 1998}; group by d_year, s_nation, p_category.
      AddJoin(b, lo.custkey, db.customer.n, RowKey, cust_america);
      AddJoin(b, lo.suppkey, db.supplier.n, RowKey,
              Between(db.supplier.region, ssb::kAmerica, ssb::kAmerica), 1,
              Col(db.supplier.nation));
      AddJoin(b, lo.partkey, db.part.n, RowKey, mfgr_1_2, 2,
              Col(db.part.category));
      AddJoin(b, lo.orderdate, db.date.n, Col(db.date.datekey), years_97_98,
              0, Col(db.date.year));
      break;
    case QueryId::kQ4_3:
      // s_nation = 'UNITED STATES', p_category = 'MFGR#14',
      // c_region = 'AMERICA', d_year in {1997, 1998};
      // group by d_year, s_city, p_brand1.
      AddJoin(b, lo.suppkey, db.supplier.n, RowKey,
              Between(db.supplier.nation, ssb::kNationUnitedStates,
                      ssb::kNationUnitedStates),
              1, Col(db.supplier.city));
      AddJoin(b, lo.partkey, db.part.n, RowKey,
              Between(db.part.category, 14, 14), 2, Col(db.part.brand1));
      AddJoin(b, lo.custkey, db.customer.n, RowKey, cust_america);
      AddJoin(b, lo.orderdate, db.date.n, Col(db.date.datekey), years_97_98,
              0, Col(db.date.year));
      break;
    default:
      HEF_CHECK_MSG(false, "not a Q4 query");
  }
}

void BuildQuery(const SsbDatabase& db, QueryId id, PlanBuilder& b) {
  switch (id) {
    case QueryId::kQ1_1:
    case QueryId::kQ1_2:
    case QueryId::kQ1_3:
      return BuildQ1(db, id, b);
    case QueryId::kQ2_1:
    case QueryId::kQ2_2:
    case QueryId::kQ2_3:
      return BuildQ2(db, id, b);
    case QueryId::kQ3_1:
    case QueryId::kQ3_2:
    case QueryId::kQ3_3:
    case QueryId::kQ3_4:
      return BuildQ3(db, id, b);
    case QueryId::kQ4_1:
    case QueryId::kQ4_2:
    case QueryId::kQ4_3:
      return BuildQ4(db, id, b);
  }
  HEF_CHECK_MSG(false, "unknown query id");
}

// The one group-key layout: a mixed radix over the payload frames, key 0
// most significant, so gid order is key-tuple order and gid_domain is the
// product of the frame widths. The digit of a key is its join's payload
// minus the frame's lo; a marker join has stride 0. A key no join fills,
// or whose frame is empty, has width 1 and decodes to its lo (0 when
// empty, never rendered: no row reaches that group).
void SetGroupLayout(const std::vector<PayloadFrame>& frames,
                    StarPlan* plan) {
  for (const PayloadFrame& f : frames) {
    if (f.group_key == kMarker || f.lo > f.hi) continue;
    plan->lo[f.group_key] = f.lo;
    plan->width[f.group_key] = f.hi - f.lo + 1;
  }
  std::uint64_t domain = 1;
  for (int k = kGroupKeys - 1; k >= 0; --k) {
    plan->stride[k] = domain;
    domain *= plan->width[k];
  }
  HEF_CHECK(frames.size() <= plan->slot_stride.size());
  std::array<bool, kGroupKeys> filled{};
  for (std::size_t j = 0; j < frames.size(); ++j) {
    const int k = frames[j].group_key;
    if (k == kMarker) continue;
    HEF_CHECK_MSG(!filled[k], "two joins fill one group key");
    filled[k] = true;
    plan->slot_stride[j] = plan->stride[k];
    plan->base += plan->lo[k] * plan->stride[k];
  }
  plan->gid_domain = domain;
}

}  // namespace

const char* FactColumnName(const ssb::LineorderFact& lo,
                           const ssb::Column* col) {
  if (col == &lo.orderdate) return "orderdate";
  if (col == &lo.custkey) return "custkey";
  if (col == &lo.suppkey) return "suppkey";
  if (col == &lo.partkey) return "partkey";
  if (col == &lo.quantity) return "quantity";
  if (col == &lo.discount) return "discount";
  if (col == &lo.extendedprice) return "extendedprice";
  if (col == &lo.revenue) return "revenue";
  if (col == &lo.supplycost) return "supplycost";
  return "column";
}

BoundPlan BuildQueryPlan(const SsbDatabase& db, QueryId id) {
  return BuildQueryPlan(db, id, PlanBuildOptions{});
}

BoundPlan BuildQueryPlan(const SsbDatabase& db, QueryId id,
                         const PlanBuildOptions& options) {
  g_parallel_for =
      options.parallel_for == nullptr ? nullptr : &options.parallel_for;
  PlanBuilder builder;
  BuildQuery(db, id, builder);
  g_parallel_for = nullptr;
  StarPlan& plan = builder.bound.plan;
  // Fix payload slots to schema order before any reordering: the plan's
  // group layout addresses payloads by these slots.
  for (std::size_t j = 0; j < plan.joins.size(); ++j) {
    plan.joins[j].payload_slot = static_cast<int>(j);
  }
  SetGroupLayout(builder.frames, &plan);
  // Selectivity-based probe ordering: most selective join first minimizes
  // the rows every later probe touches.
  std::stable_sort(plan.joins.begin(), plan.joins.end(),
                   [](const JoinStage& a, const JoinStage& b) {
                     return a.selectivity < b.selectivity;
                   });
  return std::move(builder.bound);
}

}  // namespace hef
