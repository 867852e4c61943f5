// A column stored as independently encoded fixed-size chunks.

#ifndef HEF_STORAGE_CHUNKED_COLUMN_H_
#define HEF_STORAGE_CHUNKED_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hybrid/hybrid_config.h"
#include "storage/chunk.h"
#include "storage/decode.h"
#include "storage/encoding.h"

namespace hef::storage {

class ChunkedColumn {
 public:
  ChunkedColumn() = default;

  // Encodes values[0..n) into chunks of chunk_rows values each (the last
  // chunk may be short). chunk_rows must be > 0.
  static ChunkedColumn Encode(const std::uint64_t* values, std::size_t n,
                              std::size_t chunk_rows, EncodingPolicy policy);

  std::size_t size() const { return size_; }
  std::size_t chunk_rows() const { return chunk_rows_; }
  std::size_t num_chunks() const { return chunks_.size(); }
  const ColumnChunk& chunk(std::size_t c) const { return chunks_[c]; }

  // Decodes rows [begin, begin + count) into out, crossing chunk
  // boundaries as needed. `scratch` supplies the iota stream and staging
  // buffer; it must not be shared across threads.
  void DecodeRange(const HybridConfig& cfg, std::size_t begin,
                   std::size_t count, DecodeScratch& scratch,
                   std::uint64_t* out) const;

  // Late materialization: decodes only the rows block_begin + pos[i],
  // i in [0, n), into out[i]. Positions ascend, and every such row must
  // lie in the chunk that holds block_begin (an engine block never
  // straddles chunks). The positions are the unpack kernel's index
  // stream, then for_add or dict_gather runs over the n codes; a plain
  // chunk is gathered from directly. `scratch` stages the codes (it grows
  // to n if needed).
  void DecodeAt(const HybridConfig& cfg, std::size_t block_begin,
                const std::uint64_t* pos, std::size_t n,
                DecodeScratch& scratch, std::uint64_t* out) const;

  // As DecodeAt, but stops at the codes as stored: FoR deltas, dictionary
  // codes, plain values, or 0 for a width-0 chunk. Filters compare them
  // against CodeRangeFor(chunk, lo, hi), so a filter column is never
  // materialized as values.
  void CodesAt(const HybridConfig& cfg, std::size_t block_begin,
               const std::uint64_t* pos, std::size_t n,
               std::uint64_t* out) const;

  // The chunk holding `row`.
  const ColumnChunk& ChunkOf(std::size_t row) const {
    return chunks_[row / chunk_rows_];
  }

  // Payload bytes actually held (packed words + dictionaries + chunk
  // metadata) vs. the flat 8-bytes-per-row layout.
  std::size_t EncodedBytes() const;
  std::size_t PlainBytes() const { return size_ * sizeof(std::uint64_t); }

 private:
  std::size_t size_ = 0;
  std::size_t chunk_rows_ = kDefaultChunkRows;
  std::vector<ColumnChunk> chunks_;
};

}  // namespace hef::storage

#endif  // HEF_STORAGE_CHUNKED_COLUMN_H_
