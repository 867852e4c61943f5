#include "voila/voila_engine.h"

#include <immintrin.h>

#include <algorithm>
#include <vector>

#include "algo/murmur.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "engine/query_shell.h"
#include "engine/star_plan.h"
#include "table/linear_hash_table.h"
#include "telemetry/span.h"

namespace hef {

struct VoilaEngine::Impl {
  const ssb::SsbDatabase& db;
  VoilaConfig config;

  // One worker's interpreter registers (Voila materializes one output
  // vector per primitive; these are its registers). Each worker owns a
  // private set, so the interpreter loops need no synchronization.
  struct Regs {
    std::vector<std::uint32_t> sel;       // selection vector
    std::vector<std::uint32_t> sel_next;  // output selection vector
    std::vector<std::uint64_t> key_vec;   // materialized key column
    std::vector<std::uint64_t> hash_vec;  // materialized hash values
    std::vector<std::uint64_t> slot_vec;  // materialized home slots
    std::vector<std::uint64_t> val_vec;   // materialized measure / filter
    std::vector<std::uint64_t> val2_vec;  // second measure column
    std::array<std::vector<std::uint64_t>, 4> payload_vec;

    explicit Regs(std::size_t n) {
      sel.resize(n);
      sel_next.resize(n);
      key_vec.resize(n);
      hash_vec.resize(n);
      slot_vec.resize(n);
      val_vec.resize(n);
      val2_vec.resize(n);
      for (auto& p : payload_vec) p.resize(n);
    }
  };

  // Registers for the single-threaded path, built once per engine.
  Regs main_regs;

  // The interpreter keeps no per-plan state beside the bound plan.
  struct Extras {};
  using Entry = PlanEntry<Extras>;

  QueryShell<Extras> shell;

  Impl(const ssb::SsbDatabase& database, VoilaConfig cfg)
      : db(database),
        config(cfg),
        main_regs(static_cast<std::size_t>(
            cfg.vector_size < 16 ? 16 : cfg.vector_size)),
        shell(database, "voila.build",
              ShellOptions{cfg.threads, cfg.plan_cache, cfg.collect_stats,
                           /*collect_pmu=*/false}) {
    HEF_CHECK_MSG(config.vector_size >= 16, "vector size too small");
    HEF_CHECK_MSG(config.prefetch_group >= 1, "prefetch group too small");
    HEF_CHECK_MSG(config.threads >= 0 && config.threads <= 256,
                  "thread count %d out of range", config.threads);
  }

  // Primitive: materialize col[base + sel[j]] into out[sel[j]].
  void GatherColumn(Regs& r, const ssb::Column& col, std::size_t base,
                    std::size_t n, std::vector<std::uint64_t>& out) const {
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint32_t i = r.sel[j];
      out[i] = col[base + i];
    }
  }

  // Primitive: sel_next = positions with lo <= val <= hi.
  std::size_t SelectRange(Regs& r, std::size_t n, std::uint64_t lo,
                          std::uint64_t hi) const {
    std::size_t m = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint32_t i = r.sel[j];
      r.sel_next[m] = i;
      m += (r.val_vec[i] >= lo) & (r.val_vec[i] <= hi);
    }
    std::swap(r.sel, r.sel_next);
    return m;
  }

  // Primitive: hash_vec = murmur(key_vec), slot_vec = hash & mask.
  void ComputeSlots(Regs& r, const LinearHashTable& table,
                    std::size_t n) const {
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint32_t i = r.sel[j];
      r.hash_vec[i] = Murmur64(r.key_vec[i], table.hash_seed());
    }
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint32_t i = r.sel[j];
      r.slot_vec[i] = r.hash_vec[i] & table.mask();
    }
  }

  // Primitive: probe with group prefetching; writes payloads and shrinks
  // the selection to hits.
  std::size_t ProbeFsm(Regs& r, const LinearHashTable& table, std::size_t n,
                       std::vector<std::uint64_t>& payload_out) const {
    const std::uint64_t* keys = table.keys();
    const std::uint64_t* values = table.values();
    const std::uint64_t mask = table.mask();
    const auto group = static_cast<std::size_t>(config.prefetch_group);

    std::size_t m = 0;
    for (std::size_t g0 = 0; g0 < n; g0 += group) {
      const std::size_t gn = std::min(group, n - g0);
      if (config.prefetch) {
        // FSM stage 1: issue all slot prefetches for the group before any
        // dereference (concurrent_fsms = 1 -> one group in flight).
        for (std::size_t j = 0; j < gn; ++j) {
          const std::uint64_t slot = r.slot_vec[r.sel[g0 + j]];
          _mm_prefetch(reinterpret_cast<const char*>(keys + slot),
                       _MM_HINT_T0);
          _mm_prefetch(reinterpret_cast<const char*>(values + slot),
                       _MM_HINT_T0);
        }
      }
      // FSM stage 2: resolve the group.
      for (std::size_t j = 0; j < gn; ++j) {
        const std::uint32_t i = r.sel[g0 + j];
        const std::uint64_t key = r.key_vec[i];
        std::uint64_t slot = r.slot_vec[i];
        while (true) {
          const std::uint64_t k = keys[slot];
          if (k == key) {
            payload_out[i] = values[slot];
            r.sel_next[m++] = i;
            break;
          }
          if (k == kEmptyKey) break;
          slot = (slot + 1) & mask;
        }
      }
    }
    std::swap(r.sel, r.sel_next);
    return m;
  }

  // Interprets the `bn` fact rows of the vector at row b0, accumulating
  // into `acc` (per-stage rows too when acc.ops is non-empty; same layout
  // as the HEF engine: filters, probes, group-by).
  void RunBlock(const StarPlan& plan, Regs& regs, std::size_t b0,
                std::size_t bn, BlockAccumulator& acc) const {
    const bool stats = !acc.ops.empty();
    const std::size_t probe_base = plan.filters.size();
    const std::size_t groupby_idx = probe_base + plan.joins.size();

    std::uint64_t t0 = 0;
    auto stage_begin = [&] {
      if (stats) t0 = MonotonicNanos();
    };
    auto stage_end = [&](std::size_t idx, std::uint64_t in_rows,
                         std::uint64_t out_rows) {
      if (!stats) return;
      OpAcc& a = acc.ops[idx];
      a.nanos += MonotonicNanos() - t0;
      ++a.calls;
      a.rows_in += in_rows;
      a.rows_out += out_rows;
    };

    std::size_t n = bn;
    for (std::size_t j = 0; j < n; ++j) {
      regs.sel[j] = static_cast<std::uint32_t>(j);
    }
    int live_payloads = 0;
    std::array<int, 4> probed_slots{};

    for (std::size_t fi = 0; fi < plan.filters.size(); ++fi) {
      const RangeFilter& f = plan.filters[fi];
      if (n == 0) break;
      stage_begin();
      const std::size_t in_rows = n;
      GatherColumn(regs, *f.col, b0, n, regs.val_vec);
      n = SelectRange(regs, n, f.lo, f.hi);
      stage_end(fi, in_rows, n);
    }

    for (std::size_t ji = 0; ji < plan.joins.size(); ++ji) {
      const JoinStage& j = plan.joins[ji];
      if (n == 0) break;
      HEF_DCHECK(j.payload_slot >= 0 && j.payload_slot < 4);
      stage_begin();
      const std::size_t in_rows = n;
      GatherColumn(regs, *j.fact_key, b0, n, regs.key_vec);
      ComputeSlots(regs, *j.table, n);
      // Payloads land in the schema-order slot the gid mapping expects,
      // independent of probe order.
      n = ProbeFsm(regs, *j.table, n, regs.payload_vec[j.payload_slot]);
      probed_slots[live_payloads++] = j.payload_slot;
      stage_end(probe_base + ji, in_rows, n);
    }
    if (n == 0) return;
    acc.qualifying += n;

    stage_begin();
    GatherColumn(regs, *plan.value_a, b0, n, regs.val_vec);
    if (plan.value_b != nullptr) {
      GatherColumn(regs, *plan.value_b, b0, n, regs.val2_vec);
      // Materialize the combined measure (a separate primitive in the
      // interpreted engine).
      if (plan.value_op == ValueOp::kSumProduct) {
        for (std::size_t j = 0; j < n; ++j) {
          const std::uint32_t i = regs.sel[j];
          regs.val_vec[i] *= regs.val2_vec[i];
        }
      } else if (plan.value_op == ValueOp::kSumDiff) {
        for (std::size_t j = 0; j < n; ++j) {
          const std::uint32_t i = regs.sel[j];
          regs.val_vec[i] -= regs.val2_vec[i];
        }
      }
    }

    std::array<std::uint64_t, 4> p{};
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint32_t i = regs.sel[j];
      for (int k = 0; k < live_payloads; ++k) {
        const int slot = probed_slots[k];
        p[slot] = regs.payload_vec[slot][i];
      }
      const std::uint64_t g = plan.gid(p);
      HEF_DCHECK(g < plan.gid_domain);
      acc.agg[g] += regs.val_vec[i];
      acc.cnt[g] += 1;
    }
    stage_end(groupby_idx, n, n);
  }

  QueryResult ExecutePlan(const StarPlan& plan,
                          const exec::QueryContext* ctx) {
    HEF_TRACE_SPAN("voila.pipeline");
    const auto vec = static_cast<std::size_t>(config.vector_size);
    const std::size_t total = db.lineorder.n;
    const BlockWorker worker = [&](bool inline_path,
                                   exec::MorselCursor& cursor,
                                   BlockAccumulator& acc) {
      std::unique_ptr<Regs> own;
      if (!inline_path) own = std::make_unique<Regs>(vec);
      Regs& regs = inline_path ? main_regs : *own;
      std::size_t b = 0;
      while (cursor.Next(&b)) {
        const std::size_t b0 = b * vec;
        RunBlock(plan, regs, b0, std::min(vec, total - b0), acc);
      }
    };
    const BlockDispatch dispatch{(total + vec - 1) / vec,
                                 /*live_blocks=*/nullptr,
                                 config.threads,
                                 config.collect_stats,
                                 /*decode_row=*/false,
                                 "voila.morsel",
                                 /*inline_span=*/nullptr,
                                 "voila.worker"};
    return DispatchBlocks(plan, db.lineorder, dispatch, worker, ctx);
  }

  // The serving path behind Run(id, ctx).
  Result<QueryResult> TryRun(QueryId id, const exec::QueryContext& ctx) {
    HEF_TRACE_SPAN("voila.query");
    return shell.Execute(
        id, ctx, [](const BoundPlan&) { return Extras{}; },
        [&](const Entry& entry) {
          return ExecutePlan(entry.bound.plan, &ctx);
        });
  }
};

VoilaEngine::VoilaEngine(const ssb::SsbDatabase& db, VoilaConfig config)
    : impl_(std::make_unique<Impl>(db, config)) {}

VoilaEngine::~VoilaEngine() = default;

const VoilaConfig& VoilaEngine::config() const { return impl_->config; }

void VoilaEngine::InvalidatePlanCache() {
  impl_->shell.InvalidatePlanCache();
}

QueryResult VoilaEngine::Run(QueryId id) {
  return ValueOrDie(Run(id, exec::QueryContext()), "VoilaEngine", id);
}

Result<QueryResult> VoilaEngine::Run(QueryId id,
                                     const exec::QueryContext& ctx) {
  RunHooks hooks;
  hooks.engine = "voila";
  hooks.execute = [&](const exec::QueryContext& traced) {
    return impl_->TryRun(id, traced);
  };
  hooks.explain_meta = [](const std::string& query) {
    return ExplainMeta{query, "voila", "voila"};
  };
  return RunTraced(id, ctx, hooks);
}

}  // namespace hef
