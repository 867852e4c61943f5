#include "suite.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/aligned_buffer.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "engine/primitives.h"
#include "engine/scan.h"
#include "engine/star_plan.h"
#include "ssb/chunked_fact.h"
#include "table/group_agg.h"
#include "table/probe.h"
#include "telemetry/json_value.h"

namespace hef::bench {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t NanosSince(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

}  // namespace

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) *
                           (samples[hi] - samples[lo]);
}

std::optional<double> TailPercentile(const std::vector<double>& samples,
                                     double p) {
  const auto n = static_cast<double>(samples.size());
  const auto at_or_below = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  if (samples.size() < at_or_below + kMinTailSamples) return std::nullopt;
  return Quantile(samples, p / 100.0);
}

ShuffledMix::ShuffledMix(std::uint64_t seed, std::vector<QueryId> mix)
    : rng_(seed), pass_(std::move(mix)), next_(pass_.size()) {
  HEF_CHECK(!pass_.empty());
}

QueryId ShuffledMix::Next() {
  if (next_ == pass_.size()) {
    for (std::size_t i = pass_.size() - 1; i > 0; --i) {
      std::swap(pass_[i], pass_[rng_.Uniform(0, i)]);
    }
    next_ = 0;
  }
  return pass_[next_++];
}

std::vector<Arrival> PoissonSchedule(std::uint64_t seed, double rate_qps,
                                     double seconds,
                                     const std::vector<QueryId>& mix) {
  HEF_CHECK(rate_qps > 0);
  Rng gaps(seed);
  ShuffledMix queries(seed ^ 0x9e3779b97f4a7c15ULL, mix);
  std::vector<Arrival> schedule;
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - gaps.NextDouble()) / rate_qps;
    if (t >= seconds) break;
    schedule.push_back({static_cast<std::uint64_t>(t * 1e9), queries.Next()});
  }
  return schedule;
}

std::vector<RequestRecord> RunOpenLoop(const std::vector<Arrival>& schedule,
                                       int workers, const SendFn& send) {
  std::vector<RequestRecord> records(schedule.size());
  std::atomic<std::size_t> next{0};
  // A short lead lets every worker reach its first wait before the first
  // arrival is due.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < schedule.size(); i = next++) {
        const Arrival& a = schedule[i];
        std::this_thread::sleep_until(t0 +
                                      std::chrono::nanoseconds(a.due_ns));
        RequestRecord& r = records[i];
        r.query = a.query;
        r.due_ns = a.due_ns;
        r.send_ns = std::max(NanosSince(t0), a.due_ns);
        r.completion = send(a.query);
        r.done_ns = NanosSince(t0);
      }
    });
  }
  for (auto& t : threads) t.join();
  return records;
}

ClosedLoopRun RunClosedLoop(int clients, double seconds, std::uint64_t seed,
                            const std::vector<QueryId>& mix,
                            const SendFn& send) {
  std::vector<std::vector<RequestRecord>> per_client(
      static_cast<std::size_t>(clients));
  const Clock::time_point t0 = Clock::now();
  const auto stop_ns = static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ShuffledMix order(seed + static_cast<std::uint64_t>(c), mix);
      std::vector<RequestRecord>& out =
          per_client[static_cast<std::size_t>(c)];
      std::uint64_t due = 0;
      while (due < stop_ns || !order.at_pass_end()) {
        RequestRecord r;
        r.query = order.Next();
        r.due_ns = due;
        r.send_ns = NanosSince(t0);
        r.completion = send(r.query);
        r.done_ns = NanosSince(t0);
        due = r.done_ns;
        out.push_back(r);
      }
    });
  }
  for (auto& t : threads) t.join();
  ClosedLoopRun run;
  run.elapsed_s = static_cast<double>(NanosSince(t0)) * 1e-9;
  for (const auto& records : per_client) {
    run.records.insert(run.records.end(), records.begin(), records.end());
  }
  return run;
}

void LoadSummary::Add(const std::vector<RequestRecord>& records) {
  for (const RequestRecord& r : records) {
    ++attempted;
    max_lag_ms = std::max(max_lag_ms, r.lag_ms());
    if (r.completion.outcome != Outcome::kOk) {
      ++failed;
      if (r.completion.outcome == Outcome::kWrongRows) ++wrong_rows;
      continue;
    }
    latency_ms.push_back(r.latency_ms());
    exec_ms.push_back(r.completion.exec_ms);
    frontend_ms.push_back(r.latency_ms() - r.completion.exec_ms);
  }
}

double LoadSummary::MeanLatencyMs() const {
  double sum = 0;
  for (const double v : latency_ms) sum += v;
  return latency_ms.empty() ? 0 : sum / static_cast<double>(latency_ms.size());
}

Completion CheckRun(const Result<QueryResult>& result,
                    const QueryResult& expected) {
  Completion c;
  if (!result.ok()) {
    c.outcome = result.status().code() == StatusCode::kDeadlineExceeded
                    ? Outcome::kDeadline
                    : Outcome::kFailed;
    return c;
  }
  c.exec_ms = static_cast<double>(result.value().wall_nanos) * 1e-6;
  if (!(result.value() == expected)) c.outcome = Outcome::kWrongRows;
  return c;
}

Completion CheckServeBody(const std::string& body,
                          const QueryResult& expected, std::string* detail) {
  Completion c;
  c.outcome = Outcome::kWrongRows;
  auto parsed = telemetry::JsonValue::Parse(body);
  if (!parsed.ok()) {
    *detail = "body is not JSON: " + parsed.status().message();
    return c;
  }
  const telemetry::JsonValue& doc = parsed.value();
  if (doc.StringOr("schema", "") != "hef-serve-v1" ||
      doc.StringOr("code", "") != "OK") {
    *detail = "not an OK hef-serve-v1 body";
    return c;
  }
  const telemetry::JsonValue* rows = doc.Find("rows");
  if (rows == nullptr || !rows->is_array() ||
      rows->array().size() != expected.rows.size()) {
    *detail = "row count differs from the reference";
    return c;
  }
  // JSON numbers parse to double, which is exact below 2^53; a reference
  // value beyond that cannot be checked bit-for-bit this way.
  constexpr double kExact = 9007199254740992.0;
  auto same = [&](const telemetry::JsonValue* v, std::uint64_t want) {
    const auto w = static_cast<double>(want);
    return w < kExact && v != nullptr && v->is_number() && v->number() == w;
  };
  for (std::size_t i = 0; i < expected.rows.size(); ++i) {
    const telemetry::JsonValue& row = rows->array()[i];
    const GroupRow& want = expected.rows[i];
    const telemetry::JsonValue* keys = row.Find("keys");
    bool ok = keys != nullptr && keys->is_array() &&
              keys->array().size() == want.keys.size() &&
              same(row.Find("value"), want.value);
    for (std::size_t k = 0; ok && k < want.keys.size(); ++k) {
      ok = same(&keys->array()[k], want.keys[k]);
    }
    if (!ok) {
      *detail = "row " + std::to_string(i) + " differs from the reference";
      return c;
    }
  }
  c.outcome = Outcome::kOk;
  c.exec_ms = doc.NumberOr("exec_ms", 0);
  return c;
}

void LayerTotals::Add(const LayerTotals& o) {
  plan_ns += o.plan_ns;
  prune_ns += o.prune_ns;
  chunks_scanned += o.chunks_scanned;
  chunks_total += o.chunks_total;
  decode_ns += o.decode_ns;
  rows_decoded += o.rows_decoded;
  select_ns += o.select_ns;
  select_rows_in += o.select_rows_in;
  gather_ns += o.gather_ns;
  rows_gathered += o.rows_gathered;
  probe_ns += o.probe_ns;
  probe_keys += o.probe_keys;
  probe_hits += o.probe_hits;
  aggregate_ns += o.aggregate_ns;
  rows_aggregated += o.rows_aggregated;
}

QueryResult ReplayQuery(const ssb::SsbDatabase& db, QueryId id,
                        const EngineConfig& config, LayerTotals* t) {
  HEF_CHECK_MSG(db.chunked != nullptr, "layer replay needs EnsureChunked");
  const ssb::ChunkedFact& fact = *db.chunked;
  const Flavor flavor = config.flavor;
  const HybridConfig probe_cfg = config.ProbeConfig();
  const HybridConfig gather_cfg = config.GatherConfig();
  const HybridConfig decode_cfg = config.DecodeConfig();
  const auto block = static_cast<std::size_t>(config.block_size);
  const std::size_t chunk_rows = fact.chunk_rows();
  HEF_CHECK(chunk_rows % block == 0);

  std::uint64_t t0 = MonotonicNanos();
  const BoundPlan bound = BuildQueryPlan(db, id);
  t->plan_ns += MonotonicNanos() - t0;
  const StarPlan& plan = bound.plan;
  t0 = MonotonicNanos();
  const ChunkPruning pruning = ComputeChunkPruning(db, plan, QueryName(id));
  t->prune_ns += MonotonicNanos() - t0;
  t->chunks_scanned += pruning.chunks_scanned;
  t->chunks_total += pruning.chunks_total;

  // 64 elements of padding, as the engine's buffers carry, so vector
  // kernels may over-read the block tail.
  auto buffer = [block] { return AlignedBuffer<std::uint64_t>(block, 64); };
  AlignedBuffer<std::uint64_t> rows = buffer(), pos = buffer(),
                               scratch = buffer(), vals_a = buffer(),
                               vals_b = buffer(), keys = buffer(),
                               gids = buffer(), measures = buffer();
  std::array<AlignedBuffer<std::uint64_t>, 4> payloads;
  for (auto& p : payloads) p = buffer();

  // Each distinct plan column, its chunked shadow, and its decoded block.
  struct DecodedCol {
    const ssb::Column* flat;
    const storage::ChunkedColumn* col;
    AlignedBuffer<std::uint64_t> data;
    bool ready;
  };
  std::vector<DecodedCol> dcols;
  auto add = [&](const ssb::Column* flat) {
    if (flat == nullptr) return;
    for (const DecodedCol& d : dcols) {
      if (d.flat == flat) return;
    }
    const storage::ChunkedColumn* col = fact.Find(flat);
    HEF_CHECK(col != nullptr);
    dcols.push_back({flat, col, buffer(), false});
  };
  for (const RangeFilter& f : plan.filters) add(f.col);
  for (const JoinStage& j : plan.joins) add(j.fact_key);
  add(plan.value_a);
  add(plan.value_b);
  storage::DecodeScratch decode_scratch;
  decode_scratch.EnsureCapacity(block);

  std::vector<std::uint64_t> agg(plan.gid_domain, 0);
  std::vector<std::uint64_t> cnt(plan.gid_domain, 0);

  for (std::size_t b0 = 0; b0 < fact.rows(); b0 += block) {
    if (!pruning.alive[b0 / chunk_rows]) continue;
    const std::size_t bn = std::min(block, fact.rows() - b0);
    std::size_t n = bn;
    bool identity = true;  // rows == [0, n), block-local
    std::array<int, 4> probed_slots{};
    int probed_count = 0;
    for (DecodedCol& d : dcols) d.ready = false;

    auto column_base = [&](const ssb::Column* flat) -> const std::uint64_t* {
      for (DecodedCol& d : dcols) {
        if (d.flat != flat) continue;
        if (!d.ready) {
          const std::uint64_t d0 = MonotonicNanos();
          d.col->DecodeRange(decode_cfg, b0, bn, decode_scratch,
                             d.data.data());
          t->decode_ns += MonotonicNanos() - d0;
          t->rows_decoded += bn;
          d.ready = true;
        }
        return d.data.data();
      }
      HEF_CHECK_MSG(false, "column not registered for the replay");
      __builtin_unreachable();
    };
    auto gather = [&](const std::uint64_t* base, const std::uint64_t* idx,
                      std::uint64_t* out, std::size_t m) {
      const std::uint64_t g0 = MonotonicNanos();
      GatherArray(gather_cfg, base, idx, out, m);
      t->gather_ns += MonotonicNanos() - g0;
      t->rows_gathered += m;
    };
    auto apply_selection = [&](std::size_t m) {
      if (identity) {
        const std::uint64_t g0 = MonotonicNanos();
        for (std::size_t i = 0; i < m; ++i) rows[i] = pos[i];
        t->gather_ns += MonotonicNanos() - g0;
        identity = false;
      } else {
        gather(rows.data(), pos.data(), scratch.data(), m);
        std::swap(rows, scratch);
      }
      for (int k = 0; k < probed_count; ++k) {
        auto& payload = payloads[probed_slots[k]];
        gather(payload.data(), pos.data(), scratch.data(), m);
        std::swap(payload, scratch);
      }
      n = m;
    };
    auto fetch = [&](const ssb::Column* col,
                     AlignedBuffer<std::uint64_t>& out)
        -> const std::uint64_t* {
      const std::uint64_t* base = column_base(col);
      if (identity) return base;
      gather(base, rows.data(), out.data(), n);
      return out.data();
    };

    for (const RangeFilter& f : plan.filters) {
      if (n == 0) break;
      const std::uint64_t* v = fetch(f.col, vals_a);
      const std::uint64_t s0 = MonotonicNanos();
      const std::size_t m = CompactInRange(flavor, v, n, f.lo, f.hi,
                                           pos.data());
      t->select_ns += MonotonicNanos() - s0;
      t->select_rows_in += n;
      apply_selection(m);
    }
    for (const JoinStage& j : plan.joins) {
      if (n == 0) break;
      const std::uint64_t* k = fetch(j.fact_key, keys);
      const int slot = j.payload_slot;
      const std::uint64_t p0 = MonotonicNanos();
      ProbeArray(probe_cfg, *j.table, k, payloads[slot].data(), n);
      const std::uint64_t s0 = MonotonicNanos();
      const std::size_t m =
          CompactHits(flavor, payloads[slot].data(), n, pos.data());
      t->select_ns += MonotonicNanos() - s0;
      t->select_rows_in += n;
      t->probe_ns += s0 - p0;
      t->probe_keys += n;
      t->probe_hits += m;
      probed_slots[probed_count++] = slot;
      if (m != n) apply_selection(m);
    }
    if (n == 0) continue;

    const std::uint64_t* va = fetch(plan.value_a, vals_a);
    const std::uint64_t* vb =
        plan.value_b != nullptr ? fetch(plan.value_b, vals_b) : nullptr;
    const std::uint64_t a0 = MonotonicNanos();
    std::array<std::uint64_t, 4> p{};
    for (std::size_t i = 0; i < n; ++i) {
      for (int k = 0; k < probed_count; ++k) {
        p[probed_slots[k]] = payloads[probed_slots[k]][i];
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
      gids[i] = plan.gid(p);
      measures[i] = value;
    }
    GroupSumAdd(/*use_simd=*/false, gids.data(), measures.data(), n,
                agg.data(), cnt.data());
    t->aggregate_ns += MonotonicNanos() - a0;
    t->rows_aggregated += n;
  }

  QueryResult result;
  for (std::size_t g = 0; g < plan.gid_domain; ++g) {
    if (cnt[g] == 0) continue;
    result.qualifying_rows += cnt[g];
    result.rows.push_back({plan.decode(g), agg[g]});
  }
  std::sort(result.rows.begin(), result.rows.end());
  return result;
}

}  // namespace hef::bench
