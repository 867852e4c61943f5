#include "storage/chunked_column.h"

#include <algorithm>
#include <cstring>

#include "common/macros.h"

namespace hef::storage {
namespace {

// The codes as stored of rows first + idx[i], i in [0, n), of one chunk:
// plain values, FoR deltas, dictionary codes, or 0 for a width-0 chunk.
void ChunkCodes(const ColumnChunk& chunk, const HybridConfig& cfg,
                std::size_t first, const std::uint64_t* idx, std::size_t n,
                std::uint64_t* out) {
  if (chunk.encoding == Encoding::kPlain) {
    // The chunk's words are its values: a gather is the whole decode.
    DictGatherArray(cfg, chunk.words.data() + first, idx, out, n);
  } else if (chunk.width == 0) {
    std::fill(out, out + n, 0);
  } else {
    UnpackBitsArray(cfg, chunk.words.data(), chunk.width, first, idx, out,
                    n);
  }
}

// Decodes rows first + idx[i], i in [0, n), of one chunk into out[i];
// idx == nullptr decodes the contiguous rows [first, first + n) through
// the scratch iota stream (a plain chunk is then one memcpy).
void DecodeChunkRows(const ColumnChunk& chunk, const HybridConfig& cfg,
                     std::size_t first, const std::uint64_t* idx,
                     std::size_t n, DecodeScratch& scratch,
                     std::uint64_t* out) {
  HEF_DCHECK(n == 0 || first + (idx == nullptr ? n - 1 : idx[n - 1]) <
                           chunk.rows);
  if (chunk.encoding == Encoding::kPlain) {
    if (idx == nullptr) {
      std::memcpy(out, chunk.words.data() + first, n * sizeof(std::uint64_t));
    } else {
      ChunkCodes(chunk, cfg, first, idx, n, out);
    }
    return;
  }
  if (chunk.width == 0) {
    std::fill(out, out + n,
              chunk.encoding == Encoding::kFor ? chunk.reference
                                               : chunk.dict[0]);
    return;
  }
  scratch.EnsureCapacity(n);
  ChunkCodes(chunk, cfg, first, idx != nullptr ? idx : scratch.iota(), n,
             scratch.stage());
  switch (chunk.encoding) {
    case Encoding::kFor:
      ForAddArray(cfg, chunk.reference, scratch.stage(), out, n);
      return;
    case Encoding::kDict:
      DictGatherArray(cfg, chunk.dict.data(), scratch.stage(), out, n);
      return;
    case Encoding::kPlain:
      break;
  }
  HEF_CHECK_MSG(false, "unreachable encoding %d",
                static_cast<int>(chunk.encoding));
}

}  // namespace

ChunkedColumn ChunkedColumn::Encode(const std::uint64_t* values,
                                    std::size_t n, std::size_t chunk_rows,
                                    EncodingPolicy policy) {
  HEF_CHECK(chunk_rows > 0);
  ChunkedColumn column;
  column.size_ = n;
  column.chunk_rows_ = chunk_rows;
  column.chunks_.reserve((n + chunk_rows - 1) / chunk_rows);
  for (std::size_t begin = 0; begin < n; begin += chunk_rows) {
    const std::size_t rows = std::min(chunk_rows, n - begin);
    column.chunks_.push_back(EncodeChunk(values + begin, rows, policy));
  }
  return column;
}

void ChunkedColumn::DecodeRange(const HybridConfig& cfg, std::size_t begin,
                                std::size_t count, DecodeScratch& scratch,
                                std::uint64_t* out) const {
  HEF_CHECK_MSG(begin + count <= size_,
                "decode range [%zu, %zu) exceeds column size %zu", begin,
                begin + count, size_);
  while (count > 0) {
    const std::size_t c = begin / chunk_rows_;
    const std::size_t first = begin - c * chunk_rows_;
    const std::size_t take = std::min(count, chunk_rows_ - first);
    DecodeChunkRows(chunks_[c], cfg, first, nullptr, take, scratch, out);
    begin += take;
    count -= take;
    out += take;
  }
}

void ChunkedColumn::CodesAt(const HybridConfig& cfg, std::size_t block_begin,
                            const std::uint64_t* pos, std::size_t n,
                            std::uint64_t* out) const {
  HEF_CHECK_MSG(block_begin < size_, "block %zu outside column size %zu",
                block_begin, size_);
  const ColumnChunk& chunk = ChunkOf(block_begin);
  const std::size_t first = block_begin % chunk_rows_;
  HEF_DCHECK(n == 0 || first + pos[n - 1] < chunk.rows);
  ChunkCodes(chunk, cfg, first, pos, n, out);
}

void ChunkedColumn::DecodeAt(const HybridConfig& cfg,
                             std::size_t block_begin,
                             const std::uint64_t* pos, std::size_t n,
                             DecodeScratch& scratch,
                             std::uint64_t* out) const {
  HEF_CHECK_MSG(block_begin < size_, "block %zu outside column size %zu",
                block_begin, size_);
  DecodeChunkRows(ChunkOf(block_begin), cfg, block_begin % chunk_rows_, pos,
                  n, scratch, out);
}

std::size_t ChunkedColumn::EncodedBytes() const {
  std::size_t bytes = 0;
  for (const ColumnChunk& chunk : chunks_) {
    bytes += chunk.EncodedBytes();
  }
  return bytes;
}

}  // namespace hef::storage
