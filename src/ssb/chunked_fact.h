// Chunked, encoded shadow of the LINEORDER fact table.
//
// ChunkedFact re-stores the nine fact columns through the storage layer
// (src/storage): fixed-size chunks, per-chunk {plain, dict, FoR} encoding,
// zone maps and histograms for scan pruning. The flat columns stay in
// place as the compatibility shim — plans keep pointing at the same
// ssb::Column objects, and ChunkedFact::Find maps those pointers to their
// chunked shadows — so both engines run unchanged queries whether or not
// the chunked path is enabled. Once a bench has no further use for the
// flat arrays (e.g. SF 1 under the compressed footprint criterion),
// DropFlatFact frees their payloads while keeping the Column objects (and
// thus plan pointer identity) alive.
//
// SSB's generator draws orderdate uniformly per row, which defeats zone
// maps: every chunk spans the full date range. Build therefore clusters
// the chunked representation by orderdate (a stable sort applied to all
// nine columns; the flat columns are untouched). Group-by aggregates are
// order-independent, so query results are unchanged.

#ifndef HEF_SSB_CHUNKED_FACT_H_
#define HEF_SSB_CHUNKED_FACT_H_

#include <cstddef>
#include <vector>

#include "ssb/database.h"
#include "storage/chunked_column.h"

namespace hef::ssb {

struct ChunkedFactOptions {
  std::size_t chunk_rows = storage::kDefaultChunkRows;
  storage::EncodingPolicy policy = storage::EncodingPolicy::kAuto;
};

class ChunkedFact {
 public:
  struct ColumnEntry {
    const char* name;         // schema column name ("lo_orderdate", ...)
    const Column* flat;       // the flat column this entry shadows
    storage::ChunkedColumn data;
  };

  static ChunkedFact Build(const LineorderFact& lineorder,
                           const ChunkedFactOptions& options);

  std::size_t rows() const { return rows_; }
  std::size_t chunk_rows() const { return options_.chunk_rows; }
  std::size_t num_chunks() const {
    return columns_.empty() ? 0 : columns_.front().data.num_chunks();
  }
  const ChunkedFactOptions& options() const { return options_; }
  const std::vector<ColumnEntry>& columns() const { return columns_; }

  // The chunked shadow of a flat fact column (by pointer identity), or
  // nullptr for anything that is not a LINEORDER column.
  const storage::ChunkedColumn* Find(const Column* flat) const;

  std::size_t EncodedBytes() const;
  std::size_t PlainBytes() const {
    return rows_ * columns_.size() * sizeof(std::uint64_t);
  }

 private:
  std::size_t rows_ = 0;
  ChunkedFactOptions options_;
  std::vector<ColumnEntry> columns_;
};

// Builds db.chunked from db.lineorder if not already built (no-op
// otherwise — callers that need different options must reset db.chunked
// first).
void EnsureChunked(SsbDatabase& db, const ChunkedFactOptions& options = {});

// Frees the flat LINEORDER column payloads, keeping the Column objects
// (and plan pointer identity) alive. Only legal once db.chunked is built;
// afterwards only the chunked engine path can run fact scans.
void DropFlatFact(SsbDatabase& db);

}  // namespace hef::ssb

#endif  // HEF_SSB_CHUNKED_FACT_H_
