// TuningCache — persistence of the offline phase's results.
//
// The paper's workflow (Fig. 4) runs the search once, offline; afterwards
// "we could use them to implement various queries directly without further
// training". TuningCache stores the per-operator optimum (v, s, p) and its
// measured time in a small text file, tagged with the host CPU brand so a
// cache tuned on one microarchitecture is not silently reused on another
// (the whole point of the paper is that optima are machine-specific).
//
// File format (line-oriented):
//   hef-tuning-cache v1
//   host <cpu brand string>
//   op <name> <v1s3p2> <seconds> [<ns_per_row>]
//
// The trailing ns_per_row column is the tuner's predicted per-element
// cost of the winning point — the reference the drift sentinel
// (perf/drift_monitor.h) measures production residuals against. It is
// optional on read (caches written before the sentinel existed load
// fine) and ignored by older readers (they stop after <seconds>).

#ifndef HEF_TUNER_TUNING_CACHE_H_
#define HEF_TUNER_TUNING_CACHE_H_

#include <map>
#include <string>

#include "common/status.h"
#include "hybrid/hybrid_config.h"

namespace hef {

class TuningCache {
 public:
  struct Entry {
    HybridConfig config;
    double seconds = 0;
    // Predicted cost in ns/row (TuneResult::ns_per_element); 0 when the
    // cache predates drift tracking.
    double ns_per_row = 0;
  };

  explicit TuningCache(std::string path);

  // Loads the cache file. A missing file yields an empty cache (OK); a
  // file recorded on a different host yields an empty cache and sets
  // host_mismatch(). A bad header is IoError and loads nothing. A bad
  // `op` line — malformed, a bad config, or a negative or non-finite
  // seconds / ns_per_row — drops only itself: every valid line loads and
  // the first bad line is returned as IoError.
  Status Load();

  // Writes all entries atomically (temp file + rename).
  Status Save() const;

  bool Contains(const std::string& op) const;
  // NotFound when the operator was never tuned on this host.
  Result<Entry> Get(const std::string& op) const;
  void Put(const std::string& op, const HybridConfig& config,
           double seconds, double ns_per_row = 0);

  std::size_t size() const { return entries_.size(); }
  bool host_mismatch() const { return host_mismatch_; }
  const std::string& path() const { return path_; }

  // Brand string used for host tagging (CPUID, with a stable fallback).
  static std::string HostTag();

 private:
  std::string path_;
  std::map<std::string, Entry> entries_;
  bool host_mismatch_ = false;
};

// A tuning cache that fails to load, save or apply is an inconvenience,
// not a fatal error: callers proceed (untuned defaults / unsaved results)
// but warn on stderr and count it in tuner.cache_errors. No-op on OK.
void WarnTuningCache(const char* action, const Status& status);

}  // namespace hef

#endif  // HEF_TUNER_TUNING_CACHE_H_
