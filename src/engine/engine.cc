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
#include "exec/fault_injection.h"
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
    // first chunked ExecuteRange, so flat-scan engines pay nothing.
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
  // chunk-pruning verdicts (empty unless chunked_scan && scan_pruning).
  // Both are fixed per query, so cache hits skip building them too.
  struct Extras {
    std::vector<std::unique_ptr<BloomFilter>> blooms;
    std::uint64_t bloom_nanos = 0;
    ChunkPruning pruning;
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
    }
    return extras;
  }

  // Runs the pipeline over fact rows [row_begin, row_end), accumulating
  // into `acc` (group sums sized plan.gid_domain).
  //
  // When acc.ops is non-empty, per-operator wall time / row counts are
  // accumulated into it (layout: filters, then probes, then group-by); a
  // non-null `pmu` additionally brackets every operator with group reads
  // so counter deltas attribute to operators. Both off on the default
  // path, which then pays nothing beyond a branch per operator per block.
  void ExecuteRange(const StarPlan& plan,
                    const std::vector<std::unique_ptr<BloomFilter>>& blooms,
                    Buffers& buf, std::size_t row_begin,
                    std::size_t row_end, BlockAccumulator& acc,
                    const PerfCounters* pmu,
                    telemetry::Histogram* block_rows_hist,
                    const exec::QueryContext* ctx,
                    const std::vector<std::uint8_t>* chunk_alive) {
    const HybridConfig probe_cfg = config.ProbeConfig();
    const HybridConfig gather_cfg = config.GatherConfig();
    const HybridConfig decode_cfg = config.DecodeConfig();
    const Flavor flavor = config.flavor;
    const auto block = static_cast<std::size_t>(config.block_size);
    std::vector<std::uint64_t>& agg = acc.agg;
    std::vector<std::uint64_t>& cnt = acc.cnt;

    // Chunked scan: resolve each distinct plan column to its chunked
    // shadow once, and pair it with a decoded-block buffer. Inside the
    // block loop `column_base` decodes a column's block on first touch —
    // columns a filter chain already killed the block for never decode.
    const ssb::ChunkedFact* chunked =
        config.chunked_scan ? db.chunked.get() : nullptr;
    struct DecodedCol {
      const ssb::Column* flat = nullptr;
      const storage::ChunkedColumn* col = nullptr;
      std::uint64_t* data = nullptr;
      bool ready = false;
    };
    std::array<DecodedCol, 8> dcols;
    std::size_t n_dcols = 0;
    const std::size_t chunk_rows =
        chunked != nullptr ? chunked->chunk_rows() : 0;
    if (chunked != nullptr) {
      auto add = [&](const ssb::Column* flat) {
        if (flat == nullptr) return;
        for (std::size_t i = 0; i < n_dcols; ++i) {
          if (dcols[i].flat == flat) return;
        }
        const storage::ChunkedColumn* col = chunked->Find(flat);
        HEF_CHECK_MSG(col != nullptr,
                      "chunked scan: plan column is not a fact column");
        HEF_CHECK_MSG(n_dcols < dcols.size(),
                      "chunked scan: too many distinct plan columns");
        if (buf.decoded[n_dcols].capacity() < block) {
          buf.decoded[n_dcols].Allocate(block, 64);
        }
        dcols[n_dcols] = {flat, col, buf.decoded[n_dcols].data(), false};
        ++n_dcols;
      };
      for (const RangeFilter& f : plan.filters) add(f.col);
      for (const JoinStage& j : plan.joins) add(j.fact_key);
      add(plan.value_a);
      add(plan.value_b);
      buf.decode_scratch.EnsureCapacity(block);
    }

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

    std::uint64_t qualifying = 0;

    // Operator-window bracketing. op_begin/op_end cost nothing (one
    // predictable branch) when stats are off; with stats they read the
    // monotonic clock, and with a PMU attached also snapshot the counter
    // group, so deltas land on the operator that spent them.
    const bool stats = !acc.ops.empty();
    std::uint64_t op_t0 = 0;
    PerfReading op_p0;
    auto op_begin = [&] {
      if (!stats) return;
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
      a.nanos += MonotonicNanos() - op_t0;
      if (count_call) {
        ++a.calls;
        a.rows_in += in_rows;
        a.rows_out += out_rows;
      }
      if (pmu != nullptr) {
        const PerfReading p1 = pmu->ReadNow();
        if (p1.valid && op_p0.valid) {
          a.instructions +=
              SaturatingDelta(p1.instructions, op_p0.instructions);
          a.cycles += SaturatingDelta(p1.cycles, op_p0.cycles);
          a.llc_misses += SaturatingDelta(p1.llc_misses, op_p0.llc_misses);
          a.pmu_valid = true;
          a.pmu_scaled = a.pmu_scaled || p1.scaled;
        }
      }
    };
    const std::size_t probe_acc_base = plan.filters.size();
    const std::size_t groupby_acc = probe_acc_base + plan.joins.size();
    // Multi-predicate WHERE clauses (the Q1.x plans) evaluate as bitmap
    // scans + one conjunction on the vector flavours; the scalar flavour
    // compacts after every predicate, which measures faster there.
    const bool fused_filters =
        flavor != Flavor::kScalar && plan.filters.size() >= 2;

    // Payload slots probed so far in the current block (schema-order slot
    // ids; probe order may differ after the selectivity sort).
    std::array<int, 4> probed_slots{};
    int probed_count = 0;

    for (std::size_t b0 = row_begin; b0 < row_end; b0 += block) {
      // Block boundary = cancellation granularity (and the fault site the
      // robustness tests use to stop, stall, or blow up mid-query). Also
      // the preemption point: yield to higher-priority queries before
      // starting another block.
      if (ctx != nullptr) {
        if (HEF_UNLIKELY(ctx->ShouldYield())) ctx->YieldWhilePreempted();
        if (HEF_UNLIKELY(ctx->ShouldStop())) break;
      }
      HEF_FAULT_POINT("engine.morsel");
      // Zone-map verdict: a dead chunk's blocks never decode, scan, or
      // probe anything. chunk_rows % block == 0 (validated in TryRun),
      // so a block maps to exactly one chunk.
      if (chunk_alive != nullptr && !(*chunk_alive)[b0 / chunk_rows]) {
        continue;
      }
      const std::size_t bn = std::min(block, row_end - b0);
      std::size_t n = bn;
      bool identity = true;  // rows == [0, n), block-local
      probed_count = 0;
      for (std::size_t i = 0; i < n_dcols; ++i) dcols[i].ready = false;

      // Base pointer of a fact column for this block: flat data at b0,
      // or the block decoded from the chunked shadow on first touch.
      // Row ids are block-local, so every downstream gather works off
      // this base regardless of the storage layout.
      auto column_base = [&](const ssb::Column& col)
          -> const std::uint64_t* {
        if (chunked == nullptr) return col.data() + b0;
        for (std::size_t i = 0; i < n_dcols; ++i) {
          DecodedCol& d = dcols[i];
          if (d.flat != &col) continue;
          if (!d.ready) {
            d.col->DecodeRange(decode_cfg, b0, bn, buf.decode_scratch,
                               d.data);
            d.ready = true;
          }
          return d.data;
        }
        HEF_CHECK_MSG(false, "column not registered for chunked scan");
        __builtin_unreachable();
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

      // Fetches a fact column for the current selection.
      auto fetch = [&](const ssb::Column& col,
                       AlignedBuffer<std::uint64_t>& out)
          -> const std::uint64_t* {
        const std::uint64_t* base = column_base(col);
        if (identity) return base;
        GatherArray(gather_cfg, base, rows.data(), out.data(), n);
        return out.data();
      };

      // Range filters: either evaluate all predicates as bitmaps and
      // conjoin once (fused selection scans) or compact after every
      // predicate (the vectorized-pipeline default).
      if (fused_filters) {
        // Filters precede joins in every plan, so the selection is still
        // the identity here and columns can be scanned in place.
        std::size_t live = 0;
        std::size_t last_fi = 0;
        for (std::size_t fi = 0; fi < plan.filters.size(); ++fi) {
          const RangeFilter& f = plan.filters[fi];
          op_begin();
          std::uint64_t* target =
              fi == 0 ? bitmap_a.data() : bitmap_b.data();
          live = ScanRangeBitmap(flavor, column_base(*f.col), n, f.lo,
                                 f.hi, target);
          if (fi > 0) {
            live = BitmapAnd(bitmap_a.data(), bitmap_b.data(), n);
          }
          op_end(fi, n, live);
          last_fi = fi;
          if (live == 0) break;
        }
        op_begin();
        const std::size_t m =
            live == 0 ? 0
                      : BitmapToPositions(bitmap_a.data(), n, pos.data());
        apply_selection(m);
        op_end(last_fi, 0, 0, /*count_call=*/false);
      } else {
        for (std::size_t fi = 0; fi < plan.filters.size(); ++fi) {
          const RangeFilter& f = plan.filters[fi];
          if (n == 0) break;
          op_begin();
          const std::uint64_t* v = fetch(*f.col, vals_a);
          const std::size_t m =
              CompactInRange(flavor, v, n, f.lo, f.hi, pos.data());
          const std::size_t in_rows = n;
          apply_selection(m);
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
            k = fetch(*j.fact_key, keys);
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
      if (n == 0) continue;
      qualifying += n;

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
    acc.qualifying += qualifying;
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
    const BlockWorker worker = [&](bool inline_path,
                                   const BlockClaim& claim,
                                   BlockAccumulator& acc) {
      std::unique_ptr<Buffers> own;
      if (!inline_path) own = std::make_unique<Buffers>(block);
      Buffers& buffers = inline_path ? main_buffers : *own;
      // perf fds opened with pid=0 follow the opening thread only, so
      // every executing thread opens its own counter group.
      std::unique_ptr<PerfCounters> pmu;
      if (stats && config.collect_pmu) pmu = StartPmu();
      std::size_t blk_begin = 0;
      std::size_t blk_end = 0;
      while (claim(&blk_begin, &blk_end)) {
        ExecuteRange(plan, extras.blooms, buffers, blk_begin * block,
                     std::min(total, blk_end * block), acc, pmu.get(),
                     block_hist, ctx,
                     pruning != nullptr ? &pruning->alive : nullptr);
      }
    };
    const BlockDispatch dispatch{(total + block - 1) / block, config.threads,
                                 stats, "engine.pipeline", "engine.worker"};
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
    for (std::size_t idx = 0; idx < stages; ++idx) {
      OperatorStats& s = ops[idx];
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
    registry.counter("engine.rows_scanned").Increment(total);
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
