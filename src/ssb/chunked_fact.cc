#include "ssb/chunked_fact.h"

#include <algorithm>
#include <numeric>

#include "common/macros.h"

namespace hef::ssb {

namespace {

// The nine fact columns in schema order, paired with their names.
struct FactColumn {
  const char* name;
  const Column LineorderFact::* member;
};

constexpr FactColumn kFactColumns[] = {
    {"lo_orderdate", &LineorderFact::orderdate},
    {"lo_custkey", &LineorderFact::custkey},
    {"lo_suppkey", &LineorderFact::suppkey},
    {"lo_partkey", &LineorderFact::partkey},
    {"lo_quantity", &LineorderFact::quantity},
    {"lo_discount", &LineorderFact::discount},
    {"lo_extendedprice", &LineorderFact::extendedprice},
    {"lo_revenue", &LineorderFact::revenue},
    {"lo_supplycost", &LineorderFact::supplycost},
};

}  // namespace

ChunkedFact ChunkedFact::Build(const LineorderFact& lineorder,
                               const ChunkedFactOptions& options) {
  HEF_CHECK(options.chunk_rows > 0);
  ChunkedFact fact;
  fact.rows_ = lineorder.n;
  fact.options_ = options;

  // Cluster by orderdate (see the file comment in chunked_fact.h).
  std::vector<std::uint64_t> perm(lineorder.n);
  std::iota(perm.begin(), perm.end(), 0);
  const std::uint64_t* dates = lineorder.orderdate.data();
  std::stable_sort(perm.begin(), perm.end(),
                   [dates](std::uint64_t a, std::uint64_t b) {
                     return dates[a] < dates[b];
                   });

  AlignedBuffer<std::uint64_t> reordered(lineorder.n);
  fact.columns_.reserve(std::size(kFactColumns));
  for (const FactColumn& fc : kFactColumns) {
    const Column& flat = lineorder.*fc.member;
    for (std::size_t i = 0; i < lineorder.n; ++i) {
      reordered[i] = flat[perm[i]];
    }
    fact.columns_.push_back(
        {fc.name, &flat,
         storage::ChunkedColumn::Encode(reordered.data(), lineorder.n,
                                        options.chunk_rows, options.policy)});
  }
  return fact;
}

const storage::ChunkedColumn* ChunkedFact::Find(const Column* flat) const {
  for (const ColumnEntry& entry : columns_) {
    if (entry.flat == flat) return &entry.data;
  }
  return nullptr;
}

std::size_t ChunkedFact::EncodedBytes() const {
  std::size_t bytes = 0;
  for (const ColumnEntry& entry : columns_) {
    bytes += entry.data.EncodedBytes();
  }
  return bytes;
}

void EnsureChunked(SsbDatabase& db, const ChunkedFactOptions& options) {
  if (db.chunked != nullptr) return;
  db.chunked =
      std::make_shared<const ChunkedFact>(ChunkedFact::Build(db.lineorder,
                                                             options));
}

void DropFlatFact(SsbDatabase& db) {
  HEF_CHECK_MSG(db.chunked != nullptr,
                "DropFlatFact requires a built chunked fact");
  LineorderFact& lo = db.lineorder;
  for (Column* col : {&lo.orderdate, &lo.custkey, &lo.suppkey, &lo.partkey,
                      &lo.quantity, &lo.discount, &lo.extendedprice,
                      &lo.revenue, &lo.supplycost}) {
    *col = Column();
  }
}

}  // namespace hef::ssb
