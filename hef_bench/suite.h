// The testable core of hef_bench: sample statistics, seeded load
// schedules, the open- and closed-loop request loops, result checks, and
// the outside-in layer replay of the engine's default pipeline.

#ifndef HEF_BENCH_SUITE_H_
#define HEF_BENCH_SUITE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "engine/flavor.h"
#include "engine/query_id.h"
#include "engine/result.h"
#include "ssb/database.h"

namespace hef::bench {

// ---------------------------------------------------------------------------
// Statistics

// Linearly interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> samples, double q);

// A tail percentile is reported only when at least this many samples lie
// beyond it; with fewer, the number says more about one outlier than about
// the tail.
inline constexpr std::size_t kMinTailSamples = 10;

// The p-th percentile (0 < p < 100) of `samples`, or nullopt when fewer
// than kMinTailSamples samples lie beyond it.
std::optional<double> TailPercentile(const std::vector<double>& samples,
                                     double p);

// ---------------------------------------------------------------------------
// Load

// Query order of one client: `mix` reshuffled (seeded) at every pass, so
// each query is issued equally often and no fixed order favours caches.
class ShuffledMix {
 public:
  ShuffledMix(std::uint64_t seed, std::vector<QueryId> mix);
  QueryId Next();
  // True when every query of the current pass has been issued.
  bool at_pass_end() const { return next_ == pass_.size(); }

 private:
  Rng rng_;
  std::vector<QueryId> pass_;
  std::size_t next_ = 0;
};

// One scheduled request of an open loop; due_ns counts from loop start.
struct Arrival {
  std::uint64_t due_ns = 0;
  QueryId query = QueryId::kQ1_1;
};

// Poisson arrivals at `rate_qps` over [0, seconds): exponential gaps and
// queries in ShuffledMix order, both drawn from `seed`.
std::vector<Arrival> PoissonSchedule(std::uint64_t seed, double rate_qps,
                                     double seconds,
                                     const std::vector<QueryId>& mix);

enum class Outcome {
  kOk,
  kWrongRows,  // completed, but the rows differ from the reference
  kFailed,     // an error status or an unexpected HTTP status
  kDeadline,   // DeadlineExceeded / HTTP 504
  kShed,       // refused by admission (HTTP 429 / 503)
  kTransport,  // no HTTP response at all
};

// What the system reported for one request.
struct Completion {
  Outcome outcome = Outcome::kOk;
  double exec_ms = 0;  // engine execution time
};

// One request as the load generator saw it. Times count from loop start.
// `due` is when the request should have been sent: its scheduled arrival
// in an open loop, its predecessor's completion in a closed loop.
struct RequestRecord {
  QueryId query = QueryId::kQ1_1;
  std::uint64_t due_ns = 0;
  std::uint64_t send_ns = 0;
  std::uint64_t done_ns = 0;
  Completion completion;

  double latency_ms() const {
    return static_cast<double>(done_ns - due_ns) * 1e-6;
  }
  double lag_ms() const {
    return static_cast<double>(send_ns - due_ns) * 1e-6;
  }
};

// Sends one request and waits for its outcome. Must be thread-safe when
// the loop runs more than one worker.
using SendFn = std::function<Completion(QueryId)>;

// Open loop: `workers` threads claim the scheduled arrivals in order, wait
// until each is due, and send it. A request that goes out late because
// every worker was busy keeps its due time, so its latency includes the
// wait a stall imposed on it.
std::vector<RequestRecord> RunOpenLoop(const std::vector<Arrival>& schedule,
                                       int workers, const SendFn& send);

struct ClosedLoopRun {
  std::vector<RequestRecord> records;
  double elapsed_s = 0;
};

// Closed loop: each of `clients` threads sends its next request the moment
// the previous one completes, in ShuffledMix order (seed + client), until
// `seconds` have elapsed and its current pass over the mix is complete —
// whole passes keep every query's share of the samples equal, so a
// percentile falls at the same place in the mix on every run.
ClosedLoopRun RunClosedLoop(int clients, double seconds, std::uint64_t seed,
                            const std::vector<QueryId>& mix,
                            const SendFn& send);

// Outcome counts and latency samples of a set of requests.
struct LoadSummary {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      // every outcome but kOk
  std::uint64_t wrong_rows = 0;  // the kWrongRows share of `failed`
  std::vector<double> latency_ms;   // OK requests, from due time
  std::vector<double> exec_ms;      // OK requests: engine execution
  std::vector<double> frontend_ms;  // OK requests: latency - exec_ms
  double max_lag_ms = 0;            // latest send relative to due

  void Add(const std::vector<RequestRecord>& records);
  double MeanLatencyMs() const;
};

// ---------------------------------------------------------------------------
// Result checks

// Classifies an in-process Run outcome against the reference rows.
Completion CheckRun(const Result<QueryResult>& result,
                    const QueryResult& expected);

// Checks a 200 hef-serve-v1 body against the reference rows and reads the
// server's execution time. kWrongRows (with `detail` naming the
// first difference) when the body is malformed or any row differs.
Completion CheckServeBody(const std::string& body,
                          const QueryResult& expected, std::string* detail);

// ---------------------------------------------------------------------------
// Layer replay

// Busy time and rows per pipeline layer, accumulated by ReplayQuery.
struct LayerTotals {
  std::uint64_t plan_ns = 0;   // BuildQueryPlan
  std::uint64_t prune_ns = 0;  // ComputeChunkPruning
  std::uint64_t chunks_scanned = 0;
  std::uint64_t chunks_total = 0;
  std::uint64_t decode_ns = 0;  // ChunkedColumn::DecodeRange
  std::uint64_t rows_decoded = 0;
  // Selection: CompactInRange over each range filter plus CompactHits
  // after each probe — every step that turns a predicate into survivor
  // positions. (The scan-heavy queries have no range filters, so this is
  // the part of filtering every query has.)
  std::uint64_t select_ns = 0;
  std::uint64_t select_rows_in = 0;
  std::uint64_t gather_ns = 0;  // GatherArray and identity selections
  std::uint64_t rows_gathered = 0;
  std::uint64_t probe_ns = 0;  // ProbeArray
  std::uint64_t probe_keys = 0;
  std::uint64_t probe_hits = 0;
  std::uint64_t aggregate_ns = 0;  // StarPlan::gid + GroupSumAdd
  std::uint64_t rows_aggregated = 0;

  // Time of the layers a warm Run executes per block (plan build and
  // pruning are cached by the engine, so they are left out).
  std::uint64_t pipeline_ns() const {
    return decode_ns + select_ns + gather_ns + probe_ns + aggregate_ns;
  }
  void Add(const LayerTotals& other);
};

// Re-executes `id` the way SsbEngine runs it by default on chunked storage
// with pruning — 4096-row blocks (config.block_size), each column decoded
// on its first touch in a block, filters compacting after every
// predicate, probes in plan order, scalar group-by — using only the
// public per-layer functions, and times each layer into `totals`.
// Requires EnsureChunked(db). Returns the sorted result rows.
QueryResult ReplayQuery(const ssb::SsbDatabase& db, QueryId id,
                        const EngineConfig& config, LayerTotals* totals);

}  // namespace hef::bench

#endif  // HEF_BENCH_SUITE_H_
