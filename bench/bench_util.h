// Shared helpers for the paper-exhibit benchmark harnesses.

#ifndef HEF_BENCH_BENCH_UTIL_H_
#define HEF_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "engine/query_id.h"
#include "perf/perf_counters.h"

namespace hef::bench {

struct Measurement {
  double ms = 0;               // best-of-repetitions wall clock
  double median_ms = 0;        // median of the timed repetitions
  // One entry per timed repetition, in run order. Never includes the
  // warm-up run.
  std::vector<double> samples_ms;
  PerfReading perf;            // counters for the best run (or invalid)
};

// The q-quantile (0 <= q <= 1) of non-empty ascending `sorted`,
// interpolated linearly between neighbouring samples.
inline double Quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

// Runs `fn` `repetitions` times (after one warm-up) and returns the
// fastest run's wall clock and counters plus all timed samples and their
// median. The warm-up run is never timed, so it cannot leak into the
// reported best/median.
inline Measurement MeasureBest(const std::function<void()>& fn,
                               int repetitions, PerfCounters* counters) {
  HEF_CHECK_MSG(repetitions >= 1, "repetitions %d < 1", repetitions);
  fn();  // warm-up
  Measurement best;
  best.ms = std::numeric_limits<double>::max();
  best.samples_ms.reserve(static_cast<std::size_t>(repetitions));
  for (int r = 0; r < repetitions; ++r) {
    counters->Start();
    Stopwatch sw;
    fn();
    const double ms = sw.ElapsedMillis();
    const PerfReading reading = counters->Stop();
    best.samples_ms.push_back(ms);
    if (ms < best.ms) {
      best.ms = ms;
      best.perf = reading;
    }
  }
  // Exactly one sample per requested repetition — the warm-up is excluded
  // from the reported statistics by construction.
  HEF_CHECK(best.samples_ms.size() ==
            static_cast<std::size_t>(repetitions));
  std::vector<double> sorted = best.samples_ms;
  std::sort(sorted.begin(), sorted.end());
  best.median_ms = Quantile(sorted, 0.5);
  return best;
}

// Parses the comma list `text` item by item. A refused or repeated item
// is a usage error naming the flag, caught before any database exists.
template <typename T, typename Parse>
bool ParseList(const char* flag, const char* want, const std::string& text,
               const Parse& parse, std::vector<T>* out) {
  for (std::size_t begin = 0;;) {
    const std::size_t end = std::min(text.find(',', begin), text.size());
    T value{};
    if (!parse(text.substr(begin, end - begin), &value) ||
        std::count(out->begin(), out->end(), value) != 0) {
      std::fprintf(stderr, "--%s must be %s, got '%s'\n", flag, want,
                   text.c_str());
      return false;
    }
    out->push_back(value);
    if (end == text.size()) return true;
    begin = end + 1;
  }
}

// Parses a --queries flag: figures (the paper's ten, Q2.1-Q4.3), all, or
// a comma list of distinct SSB queries such as 2.1,4.3.
inline bool ParseQueries(const std::string& text, std::vector<QueryId>* out) {
  if (text == "figures" || text == "all") {
    *out = text == "all" ? AllQueries() : PaperFigureQueries();
    return true;
  }
  const auto parse = [](const std::string& item, QueryId* id) {
    const Result<QueryId> parsed = ParseQueryId(item);
    if (parsed.ok()) *id = parsed.value();
    return parsed.ok();
  };
  return ParseList("queries",
                   "figures, all or a comma list of distinct SSB queries "
                   "such as 2.1,4.3",
                   text, parse, out);
}

// Formats a counter column (e.g. a count / 1e6), "n/a" when the PMU was
// unavailable.
inline std::string PerfNum(const PerfReading& r, double value, int digits) {
  if (!r.valid) return "n/a";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

}  // namespace hef::bench

#endif  // HEF_BENCH_BENCH_UTIL_H_
