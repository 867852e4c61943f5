#include "engine/engine.h"

#include <algorithm>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "engine/explain.h"
#include "engine/primitives.h"
#include "engine/query_shell.h"
#include "engine/scan.h"
#include "engine/star_plan.h"
#include "perf/drift_monitor.h"
#include "perf/perf_counters.h"
#include "ssb/chunked_fact.h"
#include "storage/decode.h"
#include "table/bloom_filter.h"
#include "table/probe.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"

namespace hef {

namespace {

std::uint64_t SaturatingDelta(std::uint64_t after, std::uint64_t before) {
  return after > before ? after - before : 0;
}

}  // namespace

struct SsbEngine::Impl {
  const ssb::SsbDatabase& db;
  EngineConfig config;

  // One worker's pipeline scratch buffers (each thread owns a set).
  struct Buffers {
    AlignedBuffer<std::uint64_t> rows, keys, vals_a, vals_b, pos, scratch,
        bloom_out, bitmap_a, bitmap_b;
    std::array<AlignedBuffer<std::uint64_t>, 4> payloads;
    // Chunked scan: one decoded-block buffer per distinct plan column
    // (at most 4 joins + 2 values, or 3 filters + 2 values) plus the
    // decode kernels' iota/staging scratch. Allocated lazily on the
    // first chunked Run, so flat-scan engines pay nothing.
    std::array<AlignedBuffer<std::uint64_t>, 8> decoded;
    storage::DecodeScratch decode_scratch;

    explicit Buffers(std::size_t block) {
      rows.Allocate(block, 64);
      keys.Allocate(block, 64);
      vals_a.Allocate(block, 64);
      vals_b.Allocate(block, 64);
      pos.Allocate(block, 64);
      scratch.Allocate(block, 64);
      bloom_out.Allocate(block, 64);
      bitmap_a.Allocate(BitmapWords(block), 8);
      bitmap_b.Allocate(BitmapWords(block), 8);
      for (auto& p : payloads) p.Allocate(block, 64);
    }
  };

  // Buffers for the single-threaded path, built once per engine.
  Buffers main_buffers;

  // Per-plan extras beside the bound plan: the Bloom filters, and the
  // chunk-pruning verdicts with the blocks of the alive chunks (both empty
  // unless chunked_scan && scan_pruning). All are fixed per query, so
  // cache hits skip building them too.
  struct Extras {
    std::vector<std::unique_ptr<BloomFilter>> blooms;
    std::uint64_t bloom_nanos = 0;
    ChunkPruning pruning;
    std::vector<std::uint32_t> live_blocks;
  };
  using Entry = PlanEntry<Extras>;

  QueryShell<Extras> shell;

  Impl(const ssb::SsbDatabase& database, EngineConfig cfg)
      : db(database),
        config(cfg),
        main_buffers(static_cast<std::size_t>(cfg.block_size)),
        shell(database, "engine.build",
              ShellOptions{cfg.threads, cfg.plan_cache, cfg.collect_stats,
                           cfg.collect_pmu}) {
    HEF_CHECK_MSG(config.block_size >= 64, "block size %d too small",
                  config.block_size);
    HEF_CHECK_MSG(config.threads >= 0 && config.threads <= 256,
                  "thread count %d out of range", config.threads);
    if (config.chunked_scan && db.chunked != nullptr) {
      auto& registry = telemetry::MetricsRegistry::Get();
      registry.gauge("storage.encoded_bytes")
          .Set(static_cast<double>(db.chunked->EncodedBytes()));
      registry.gauge("storage.plain_bytes")
          .Set(static_cast<double>(db.chunked->PlainBytes()));
      registry.gauge("storage.chunks")
          .Set(static_cast<double>(db.chunked->num_chunks()));
    }
  }

  // Builds one Bloom filter per join stage from the dimension tables' key
  // slabs (with bloom_prefilter) and the chunk-pruning verdicts (with
  // chunked_scan && scan_pruning).
  Extras BuildExtras(const BoundPlan& bound, QueryId id) const {
    Extras extras;
    {
      HEF_TRACE_SPAN("engine.bloom_build");
      const std::uint64_t t0 = MonotonicNanos();
      for (const JoinStage& j : bound.plan.joins) {
        if (!config.bloom_prefilter) break;
        auto bloom = std::make_unique<BloomFilter>(j.table->size());
        for (std::size_t slot = 0; slot < j.table->capacity(); ++slot) {
          const std::uint64_t key = j.table->keys()[slot];
          if (key != kEmptyKey) bloom->Insert(key);
        }
        extras.blooms.push_back(std::move(bloom));
      }
      if (!extras.blooms.empty()) extras.bloom_nanos = MonotonicNanos() - t0;
    }
    if (config.chunked_scan && config.scan_pruning &&
        db.chunked != nullptr) {
      HEF_TRACE_SPAN("engine.prune");
      extras.pruning = ComputeChunkPruning(db, bound.plan, QueryName(id));
      // chunk_rows % block_size == 0 (validated in TryRun), so a block
      // maps to exactly one chunk.
      const auto block = static_cast<std::size_t>(config.block_size);
      const std::size_t chunk_rows = db.chunked->chunk_rows();
      for (std::size_t b0 = 0; b0 < db.chunked->rows(); b0 += block) {
        if (extras.pruning.alive[b0 / chunk_rows]) {
          extras.live_blocks.push_back(static_cast<std::uint32_t>(b0 / block));
        }
      }
    }
    return extras;
  }

  // A plan column the chunked scan reads: its flat column (the lookup
  // key), its chunked shadow, the thread's full-block decode buffer (null
  // for a column only filters read), and where the current block's values
  // are whole — a plain chunk's words in place or the decode buffer — or
  // null while only survivors have been decoded.
  struct DecodedCol {
    const ssb::Column* flat = nullptr;
    const storage::ChunkedColumn* col = nullptr;
    std::uint64_t* buffer = nullptr;
    const std::uint64_t* base = nullptr;
  };

  // One executing thread's per-Run scan state, set up once before its
  // first block: its buffers and PMU group, the kernel coordinates the
  // flavour resolves to, and (chunked scan) each distinct plan column
  // resolved to its chunked shadow, and the count of values this thread
  // decoded.
  struct ScanThread {
    Buffers& buf;
    const PerfCounters* pmu;
    HybridConfig probe_cfg, gather_cfg, decode_cfg;
    const ssb::ChunkedFact* chunked = nullptr;
    std::array<DecodedCol, 8> dcols{};
    std::size_t n_dcols = 0;
    std::uint64_t values_decoded = 0;
  };

  ScanThread PrepareScan(const StarPlan& plan, Buffers& buf,
                         const PerfCounters* pmu) const {
    ScanThread t{buf, pmu, config.ProbeConfig(), config.GatherConfig(),
                 config.DecodeConfig()};
    t.chunked = config.chunked_scan ? db.chunked.get() : nullptr;
    if (t.chunked == nullptr) return t;
    const auto block = static_cast<std::size_t>(config.block_size);
    // Filters read codes, never values, so only a column read as values
    // gets a full-block decode buffer.
    auto add = [&](const ssb::Column* flat, bool read_as_values) {
      if (flat == nullptr) return;
      std::size_t i = 0;
      while (i < t.n_dcols && t.dcols[i].flat != flat) ++i;
      if (i == t.n_dcols) {
        const storage::ChunkedColumn* col = t.chunked->Find(flat);
        HEF_CHECK_MSG(col != nullptr,
                      "chunked scan: plan column is not a fact column");
        HEF_CHECK_MSG(i < t.dcols.size(),
                      "chunked scan: too many distinct plan columns");
        t.dcols[i] = {flat, col, nullptr, nullptr};
        ++t.n_dcols;
      }
      if (read_as_values && t.dcols[i].buffer == nullptr) {
        if (buf.decoded[i].capacity() < block) {
          buf.decoded[i].Allocate(block, 64);
        }
        t.dcols[i].buffer = buf.decoded[i].data();
      }
    };
    for (const RangeFilter& f : plan.filters) add(f.col, false);
    for (const JoinStage& j : plan.joins) add(j.fact_key, true);
    add(plan.value_a, true);
    add(plan.value_b, true);
    buf.decode_scratch.EnsureCapacity(block);
    return t;
  }

  // Runs the pipeline over the `bn` fact rows of the block at row b0,
  // accumulating into `acc` (group sums sized plan.gid_domain).
  //
  // The chunked scan decodes late: filters compare codes as stored (their
  // [lo, hi] rewritten into each chunk's code space), a column read while
  // the selection is still the identity is decoded whole once, and every
  // other column is decoded at the surviving rows only.
  //
  // When acc.ops is non-empty, per-operator wall time / row counts are
  // accumulated into it (layout: filters, then probes, then group-by,
  // then decode); a non-null t.pmu additionally brackets every operator
  // with group reads so counter deltas attribute to operators. Both off
  // on the default path, which then pays nothing beyond a branch per
  // operator per block.
  void ExecuteBlock(const StarPlan& plan,
                    const std::vector<std::unique_ptr<BloomFilter>>& blooms,
                    ScanThread& t, std::size_t b0, std::size_t bn,
                    BlockAccumulator& acc,
                    telemetry::Histogram* block_rows_hist) const {
    const HybridConfig& probe_cfg = t.probe_cfg;
    const HybridConfig& gather_cfg = t.gather_cfg;
    const Flavor flavor = config.flavor;
    const PerfCounters* pmu = t.pmu;
    Buffers& buf = t.buf;
    std::vector<std::uint64_t>& agg = acc.agg;
    std::vector<std::uint64_t>& cnt = acc.cnt;

    auto& rows = buf.rows;
    auto& keys = buf.keys;
    auto& vals_a = buf.vals_a;
    auto& vals_b = buf.vals_b;
    auto& pos = buf.pos;
    auto& scratch = buf.scratch;
    auto& bloom_out = buf.bloom_out;
    auto& bitmap_a = buf.bitmap_a;
    auto& bitmap_b = buf.bitmap_b;
    auto& payloads = buf.payloads;

    // Operator-window bracketing. op_begin/op_end cost nothing (one
    // predictable branch) when stats are off; with stats they read the
    // monotonic clock, and with a PMU attached also snapshot the counter
    // group, so deltas land on the operator that spent them. Decode
    // windows nest inside operator windows: the decode row takes their
    // time, values and PMU deltas, and the enclosing operator gives them
    // back, so the rows still sum to the pipeline's wall time.
    const bool stats = !acc.ops.empty();
    std::uint64_t op_t0 = 0;
    PerfReading op_p0;
    OpAcc nested;  // decode spent inside the open operator window
    auto op_begin = [&] {
      if (!stats) return;
      nested = OpAcc();
      if (pmu != nullptr) op_p0 = pmu->ReadNow();
      op_t0 = MonotonicNanos();
    };
    // `count_call == false` folds the window's time into the operator
    // without counting an activation or rows (used for shared tail work
    // like the fused filters' bitmap-to-positions conversion).
    auto op_end = [&](std::size_t idx, std::uint64_t in_rows,
                      std::uint64_t out_rows, bool count_call = true) {
      if (!stats) return;
      OpAcc& a = acc.ops[idx];
      a.nanos += SaturatingDelta(MonotonicNanos() - op_t0, nested.nanos);
      if (count_call) {
        ++a.calls;
        a.rows_in += in_rows;
        a.rows_out += out_rows;
      }
      if (pmu != nullptr) {
        const PerfReading p1 = pmu->ReadNow();
        if (p1.valid && op_p0.valid) {
          a.instructions += SaturatingDelta(
              SaturatingDelta(p1.instructions, op_p0.instructions),
              nested.instructions);
          a.cycles += SaturatingDelta(SaturatingDelta(p1.cycles, op_p0.cycles),
                                      nested.cycles);
          a.llc_misses += SaturatingDelta(
              SaturatingDelta(p1.llc_misses, op_p0.llc_misses),
              nested.llc_misses);
          a.pmu_valid = true;
          a.pmu_scaled = a.pmu_scaled || p1.scaled;
        }
      }
    };
    const std::size_t probe_acc_base = plan.filters.size();
    const std::size_t groupby_acc = probe_acc_base + plan.joins.size();
    const std::size_t decode_acc = groupby_acc + 1;
    std::uint64_t dec_t0 = 0;
    PerfReading dec_p0;
    auto decode_begin = [&] {
      if (!stats) return;
      if (pmu != nullptr) dec_p0 = pmu->ReadNow();
      dec_t0 = MonotonicNanos();
    };
    auto decode_end = [&](std::uint64_t values) {
      t.values_decoded += values;
      if (!stats) return;
      OpAcc d;
      d.nanos = MonotonicNanos() - dec_t0;
      d.calls = 1;
      d.rows_in = values;
      d.rows_out = values;
      if (pmu != nullptr) {
        const PerfReading p1 = pmu->ReadNow();
        if (p1.valid && dec_p0.valid) {
          d.instructions =
              SaturatingDelta(p1.instructions, dec_p0.instructions);
          d.cycles = SaturatingDelta(p1.cycles, dec_p0.cycles);
          d.llc_misses = SaturatingDelta(p1.llc_misses, dec_p0.llc_misses);
          d.pmu_valid = true;
          d.pmu_scaled = p1.scaled;
        }
      }
      acc.ops[decode_acc].Merge(d);
      nested.Merge(d);
    };
    // Multi-predicate WHERE clauses (the Q1.x plans) evaluate as bitmap
    // scans + one conjunction on the vector flavours; the scalar flavour
    // compacts after every predicate, which measures faster there.
    const bool fused_filters =
        flavor != Flavor::kScalar && plan.filters.size() >= 2;

    // Payload slots probed so far (schema-order slot ids; probe order may
    // differ after the selectivity sort).
    std::array<int, 4> probed_slots{};
    int probed_count = 0;
    std::size_t n = bn;
    bool identity = true;  // rows == [0, n), block-local
    for (std::size_t i = 0; i < t.n_dcols; ++i) t.dcols[i].base = nullptr;

    auto dcol = [&](const ssb::Column& col) -> DecodedCol& {
      for (std::size_t i = 0; i < t.n_dcols; ++i) {
        if (t.dcols[i].flat == &col) return t.dcols[i];
      }
      HEF_CHECK_MSG(false, "column not registered for chunked scan");
      __builtin_unreachable();
    };
    // Base pointer of a fact column's values for the whole block without
    // decoding anything — flat data at b0, a plain chunk's words in place,
    // or a block decoded earlier — else null. Row ids are block-local, so
    // every downstream gather works off this base regardless of the
    // storage layout.
    auto known_base = [&](const ssb::Column& col) -> const std::uint64_t* {
      if (t.chunked == nullptr) return col.data() + b0;
      DecodedCol& d = dcol(col);
      if (d.base == nullptr) {
        const storage::ColumnChunk& chunk = d.col->ChunkOf(b0);
        if (chunk.encoding == storage::Encoding::kPlain) {
          d.base = chunk.words.data() + b0 % d.col->chunk_rows();
        }
      }
      return d.base;
    };
    // As known_base, decoding the whole block on first touch if needed.
    auto column_base = [&](const ssb::Column& col) -> const std::uint64_t* {
      if (const std::uint64_t* base = known_base(col)) return base;
      DecodedCol& d = dcol(col);
      HEF_DCHECK(d.buffer != nullptr);
      decode_begin();
      d.col->DecodeRange(t.decode_cfg, b0, bn, buf.decode_scratch, d.buffer);
      decode_end(bn);
      d.base = d.buffer;
      return d.base;
    };

    // Applies the survivor positions in pos[0..m) to the row-id vector
    // and all live payload vectors.
    auto apply_selection = [&](std::size_t m) {
      if (identity) {
        for (std::size_t i = 0; i < m; ++i) rows[i] = pos[i];
        identity = false;
      } else {
        GatherArray(gather_cfg, rows.data(), pos.data(), scratch.data(),
                    m);
        std::swap(rows, scratch);
      }
      for (int k = 0; k < probed_count; ++k) {
        auto& payload = payloads[probed_slots[k]];
        GatherArray(gather_cfg, payload.data(), pos.data(),
                    scratch.data(), m);
        std::swap(payload, scratch);
      }
      n = m;
    };

    // Fetches a fact column's values for the current selection: the whole
    // block while the selection is the identity, else a gather from the
    // block's values if they are whole, else a decode of the survivors.
    auto fetch = [&](const ssb::Column& col,
                     AlignedBuffer<std::uint64_t>& out)
        -> const std::uint64_t* {
      if (identity) return column_base(col);
      if (const std::uint64_t* base = known_base(col)) {
        GatherArray(gather_cfg, base, rows.data(), out.data(), n);
        return out.data();
      }
      decode_begin();
      dcol(col).col->DecodeAt(t.decode_cfg, b0, rows.data(), n,
                              buf.decode_scratch, out.data());
      decode_end(n);
      return out.data();
    };

    // A filter on this block: its [lo, hi] in the chunk's code space (the
    // value space for the flat scan and plain chunks), or a verdict for the
    // whole block when the chunk's zone map settles it.
    auto filter_range = [&](std::size_t fi) -> storage::CodeRange {
      const RangeFilter& f = plan.filters[fi];
      if (t.chunked == nullptr) {
        return {storage::CodeRange::Verdict::kCompare, f.lo, f.hi};
      }
      return storage::CodeRangeFor(dcol(*f.col).col->ChunkOf(b0), f.lo,
                                   f.hi);
    };
    // The codes a filter compares for the current selection: values where
    // they are whole (flat data, plain chunks), else codes unpacked from
    // the packed chunk, never decoded to values.
    auto filter_codes = [&](const ssb::Column& col) -> const std::uint64_t* {
      if (t.chunked == nullptr ||
          dcol(col).col->ChunkOf(b0).encoding == storage::Encoding::kPlain) {
        return fetch(col, vals_a);
      }
      decode_begin();
      dcol(col).col->CodesAt(
          t.decode_cfg, b0,
          identity ? buf.decode_scratch.iota() : rows.data(), n,
          vals_a.data());
      decode_end(n);
      return vals_a.data();
    };

    // Range filters: either evaluate all predicates as bitmaps and
    // conjoin once (fused selection scans) or compact after every
    // predicate (the vectorized-pipeline default).
    using Verdict = storage::CodeRange::Verdict;
    if (fused_filters) {
      // Filters precede joins in every plan, so the selection is still
      // the identity here and every filter scans the whole block.
      std::size_t live = n;
      bool conjoined = false;  // bitmap_a holds the filters so far
      std::size_t last_fi = 0;
      for (std::size_t fi = 0; fi < plan.filters.size(); ++fi) {
        op_begin();
        const storage::CodeRange r = filter_range(fi);
        if (r.verdict == Verdict::kNone) {
          live = 0;
        } else if (r.verdict == Verdict::kCompare) {
          std::uint64_t* target =
              conjoined ? bitmap_b.data() : bitmap_a.data();
          live = ScanRangeBitmap(flavor, filter_codes(*plan.filters[fi].col),
                                 n, r.lo, r.hi, target);
          if (conjoined) {
            live = BitmapAnd(bitmap_a.data(), bitmap_b.data(), n);
          }
          conjoined = true;
        }
        op_end(fi, n, live);
        last_fi = fi;
        if (live == 0) break;
      }
      if (live == 0 || conjoined) {
        op_begin();
        const std::size_t m =
            live == 0 ? 0
                      : BitmapToPositions(bitmap_a.data(), n, pos.data());
        apply_selection(m);
        op_end(last_fi, 0, 0, /*count_call=*/false);
      }
    } else {
      for (std::size_t fi = 0; fi < plan.filters.size(); ++fi) {
        const RangeFilter& f = plan.filters[fi];
        if (n == 0) break;
        op_begin();
        const std::size_t in_rows = n;
        const storage::CodeRange r = filter_range(fi);
        if (r.verdict != Verdict::kAll) {
          const std::size_t m =
              r.verdict == Verdict::kNone
                  ? 0
                  : CompactInRange(flavor, filter_codes(*f.col), n, r.lo,
                                   r.hi, pos.data());
          apply_selection(m);
        }
        op_end(fi, in_rows, n);
      }
    }

    // Join probes. The Bloom pre-filter is part of its join's operator
    // window — the stats row reports the stage's end-to-end cost.
    for (std::size_t ji = 0; ji < plan.joins.size(); ++ji) {
      const JoinStage& j = plan.joins[ji];
      if (n == 0) break;
      op_begin();
      const std::size_t in_rows = n;
      const std::uint64_t* k = fetch(*j.fact_key, keys);
      if (!blooms.empty()) {
        // Bloom pre-filter: discard definite misses before the (more
        // expensive, cache-hungry) hash-table probe.
        BloomProbeArray(probe_cfg, *blooms[ji], k, bloom_out.data(), n);
        const std::size_t bm = CompactInRange(flavor, bloom_out.data(),
                                              n, 1, 1, pos.data());
        if (bm != n) {
          apply_selection(bm);
          if (n == 0) {
            op_end(probe_acc_base + ji, in_rows, 0);
            break;
          }
          // The surviving keys are k at the positions just kept, so they
          // are gathered, never fetched (and decoded) a second time.
          // bloom_out is free again once compacted.
          GatherArray(gather_cfg, k, pos.data(), bloom_out.data(), n);
          k = bloom_out.data();
        }
      }
      const int slot = j.payload_slot;
      HEF_DCHECK(slot >= 0 && slot < 4);
      ProbeArray(probe_cfg, *j.table, k, payloads[slot].data(), n);
      const std::size_t m =
          CompactHits(flavor, payloads[slot].data(), n, pos.data());
      probed_slots[probed_count++] = slot;  // compacts with the rest
      if (m != n) {
        apply_selection(m);
      }
      op_end(probe_acc_base + ji, in_rows, n);
    }
    if (stats && block_rows_hist != nullptr) block_rows_hist->Observe(n);
    if (n == 0) return;
    acc.qualifying += n;

    // Measure columns.
    op_begin();
    const std::uint64_t* va = fetch(*plan.value_a, vals_a);
    const std::uint64_t* vb = nullptr;
    if (plan.value_b != nullptr) {
      vb = fetch(*plan.value_b, vals_b);
    }

    // Group-by aggregation: group ids come from the plan's (scalar)
    // mapping, accumulated by the shared scalar loop.
    std::array<std::uint64_t, 4> p{};
    for (std::size_t i = 0; i < n; ++i) {
      for (int k = 0; k < probed_count; ++k) {
        const int slot = probed_slots[k];
        p[slot] = payloads[slot][i];
      }
      std::uint64_t value = va[i];
      switch (plan.value_op) {
        case ValueOp::kSum:
          break;
        case ValueOp::kSumProduct:
          value *= vb[i];
          break;
        case ValueOp::kSumDiff:
          value -= vb[i];
          break;
      }
      const std::uint64_t g = plan.gid(p);
      HEF_DCHECK(g < plan.gid_domain);
      agg[g] += value;
      cnt[g] += 1;
    }
    op_end(groupby_acc, n, n);
  }

  // Runs a resolved plan through the shell's block dispatch. Sets
  // *rows_scanned to the fact rows the dispatched chunks hold (all rows
  // unless chunks were pruned).
  QueryResult ExecutePlan(const Entry& entry, bool cache_hit,
                          const exec::QueryContext* ctx,
                          std::uint64_t* rows_scanned) {
    const StarPlan& plan = entry.bound.plan;
    const Extras& extras = entry.extras;
    const bool stats = config.collect_stats;
    const ssb::ChunkedFact* chunked =
        config.chunked_scan ? db.chunked.get() : nullptr;
    const std::size_t total =
        chunked != nullptr ? chunked->rows() : db.lineorder.n;
    const auto block = static_cast<std::size_t>(config.block_size);
    const ChunkPruning* pruning =
        extras.pruning.alive.empty() ? nullptr : &extras.pruning;
    *rows_scanned = pruning != nullptr ? pruning->rows_scanned : total;

    telemetry::Histogram* block_hist =
        stats ? &telemetry::MetricsRegistry::Get().histogram(
                    "engine.block_qualifying_rows")
              : nullptr;
    telemetry::Counter& rows_decoded =
        telemetry::MetricsRegistry::Get().counter("storage.rows_decoded");
    const BlockWorker worker = [&](bool inline_path,
                                   exec::MorselCursor& cursor,
                                   BlockAccumulator& acc) {
      std::unique_ptr<Buffers> own;
      if (!inline_path) own = std::make_unique<Buffers>(block);
      // perf fds opened with pid=0 follow the opening thread only, so
      // every executing thread opens its own counter group.
      std::unique_ptr<PerfCounters> pmu;
      if (stats && config.collect_pmu) pmu = StartPmu();
      ScanThread scan =
          PrepareScan(plan, inline_path ? main_buffers : *own, pmu.get());
      std::size_t b = 0;
      while (cursor.Next(&b)) {
        const std::size_t b0 = b * block;
        ExecuteBlock(plan, extras.blooms, scan, b0,
                     std::min(block, total - b0), acc, block_hist);
      }
      if (scan.values_decoded > 0) {
        rows_decoded.Increment(scan.values_decoded);
      }
    };
    const BlockDispatch dispatch{
        (total + block - 1) / block,
        pruning != nullptr ? &extras.live_blocks : nullptr,
        config.threads,
        stats,
        /*decode_row=*/chunked != nullptr,
        "engine.morsel",
        "engine.pipeline",
        "engine.worker"};
    QueryResult result =
        DispatchBlocks(plan, db.lineorder, dispatch, worker, ctx);

    if (chunked != nullptr) {
      result.chunks_total = chunked->num_chunks();
      result.chunks_scanned = pruning != nullptr ? pruning->chunks_scanned
                                                 : result.chunks_total;
      result.chunks_pruned = result.chunks_total - result.chunks_scanned;
      auto& registry = telemetry::MetricsRegistry::Get();
      registry.counter("storage.chunks_scanned")
          .Increment(result.chunks_scanned);
      registry.counter("storage.chunks_pruned")
          .Increment(result.chunks_pruned);
    }
    if (!stats) return result;

    // The engine's additions to the shell's operator rows: chunk-pruning
    // attribution (pruning stages align with the filter-then-join operator
    // order), per-join selectivity gauges, the Bloom build row, query
    // counters and the hash-table displacement histogram.
    auto& ops = result.operator_stats;
    auto& registry = telemetry::MetricsRegistry::Get();
    const std::size_t stages = plan.filters.size() + plan.joins.size();
    const std::size_t first_stage = ops.size() - stages - 1;  // past decode
    for (std::size_t idx = 0; idx < stages; ++idx) {
      OperatorStats& s = ops[first_stage + idx];
      if (pruning != nullptr && idx < pruning->reached.size()) {
        s.chunks_pruned = pruning->pruned_by[idx];
        s.chunks_scanned = pruning->reached[idx] - s.chunks_pruned;
      }
      if (idx >= plan.filters.size()) {
        registry.gauge("engine.selectivity." + s.name)
            .Set(s.Selectivity());
      }
    }
    // On a cache hit no Bloom filters were built this Run, so suppress
    // the build.bloom stats row (its nanos belong to the Run that
    // missed).
    if (!cache_hit && extras.bloom_nanos > 0) {
      OperatorStats s;
      s.name = "build.bloom";
      s.wall_nanos = extras.bloom_nanos;
      s.invocations = 1;
      ops.insert(ops.begin(), std::move(s));
    }
    registry.counter("engine.queries").Increment();
    registry.counter("engine.rows_scanned").Increment(*rows_scanned);
    registry.counter("engine.rows_qualifying")
        .Increment(result.qualifying_rows);
    // Linear-probe displacement of every occupied dimension slot — the
    // probe-chain length distribution vector probes traverse.
    telemetry::Histogram& probe_hist =
        registry.histogram("table.probe_length");
    for (const JoinStage& j : plan.joins) {
      const LinearHashTable& t = *j.table;
      for (std::uint64_t slot = 0; slot <= t.mask(); ++slot) {
        const std::uint64_t key = t.keys()[slot];
        if (key == kEmptyKey) continue;
        probe_hist.Observe((slot - t.HomeSlot(key)) & t.mask());
      }
    }
    return result;
  }

  // The serving path behind Run(id, ctx): status in, status out — no
  // aborts for anything a client request can cause.
  Result<QueryResult> TryRun(QueryId id, const exec::QueryContext& ctx,
                             std::uint64_t* rows_scanned) {
    HEF_TRACE_SPAN("engine.query");
    HEF_RETURN_NOT_OK(CheckFlavorSupported(config.flavor));
    if (config.chunked_scan) {
      if (db.chunked == nullptr) {
        return Status::InvalidArgument(
            "chunked_scan requires ssb::EnsureChunked(db) before queries "
            "run");
      }
      const std::size_t chunk_rows = db.chunked->chunk_rows();
      if (chunk_rows % static_cast<std::size_t>(config.block_size) != 0) {
        return Status::InvalidArgument(
            "chunked_scan needs chunk_rows (" +
            std::to_string(chunk_rows) +
            ") to be a multiple of block_size (" +
            std::to_string(config.block_size) + ")");
      }
    }
    return shell.Execute(
        id, ctx,
        [&](const BoundPlan& bound) { return BuildExtras(bound, id); },
        [&](const Entry& entry, bool cache_hit) {
          return ExecutePlan(entry, cache_hit, &ctx, rows_scanned);
        });
  }

  // Feeds the drift sentinel: one whole-query window always (wall-based
  // ns/row works without PMU access), plus one window per probe stage
  // when operator stats were collected — probes are the tuned kernel the
  // sentinel's advice can name. The tuned point in the key is what
  // residuals are attributed to.
  void FeedDrift(const std::string& query, const QueryResult& r,
                 std::uint64_t rows_scanned, std::uint64_t now) const {
    DriftMonitor& drift = DriftMonitor::Get();
    const std::string probe_point = config.ProbeConfig().ToString();
    const std::string gather_point = config.GatherConfig().ToString();
    DriftObservation obs;
    obs.nanos = now;
    obs.rows = rows_scanned;
    obs.wall_nanos = r.wall_nanos;
    drift.Observe(DriftKey{query, "query", probe_point}, obs);
    for (const OperatorStats& s : r.operator_stats) {
      const bool probe = s.name.rfind("probe.", 0) == 0;
      const bool gather = s.name.rfind("filter.", 0) == 0;
      if (!probe && !gather) continue;
      DriftObservation op_obs;
      op_obs.nanos = now;
      op_obs.rows = s.rows_in;
      op_obs.wall_nanos = s.wall_nanos;
      op_obs.pmu_valid = s.perf.valid;
      op_obs.instructions = s.perf.instructions;
      op_obs.cycles = s.perf.cycles;
      op_obs.llc_misses = s.perf.llc_misses;
      drift.Observe(DriftKey{query, probe ? "probe" : "gather",
                             probe ? probe_point : gather_point},
                    op_obs);
    }
  }
};

SsbEngine::SsbEngine(const ssb::SsbDatabase& db, EngineConfig config)
    : impl_(std::make_unique<Impl>(db, config)) {}

SsbEngine::~SsbEngine() = default;

const EngineConfig& SsbEngine::config() const { return impl_->config; }

void SsbEngine::InvalidatePlanCache() { impl_->shell.InvalidatePlanCache(); }

QueryResult SsbEngine::Run(QueryId id) {
  // The abort-on-error convenience form runs through the same serving
  // path with an unconstrained context: no token, no deadline, so only a
  // genuine failure (or an armed fault) can make it non-OK.
  return ValueOrDie(Run(id, exec::QueryContext()), "SsbEngine", id);
}

Result<QueryResult> SsbEngine::Run(QueryId id,
                                   const exec::QueryContext& ctx) {
  const EngineConfig& config = impl_->config;
  std::uint64_t rows_scanned = 0;
  RunHooks hooks;
  hooks.engine = FlavorName(config.flavor);
  hooks.execute = [&](const exec::QueryContext& traced) {
    return impl_->TryRun(id, traced, &rows_scanned);
  };
  hooks.explain_meta = [&](const std::string& query) {
    return MakeExplainMeta(query, hooks.engine, config);
  };
  hooks.on_success = [&](const std::string& query, const QueryResult& r,
                         std::uint64_t end_nanos) {
    impl_->FeedDrift(query, r, rows_scanned, end_nanos);
  };
  return RunTraced(id, ctx, hooks);
}

}  // namespace hef
