#include "tuner/tuning_cache.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "procinfo/cpu_features.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"

namespace hef {

namespace {

// A cost column: a whole finite, non-negative number. strtod also reads
// "inf", "nan" and overflows to inf; all three are rejected.
bool ParseCost(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end != text.c_str() && *end == '\0' && std::isfinite(*out) &&
         *out >= 0;
}

}  // namespace

TuningCache::TuningCache(std::string path) : path_(std::move(path)) {}

std::string TuningCache::HostTag() {
  const std::string& brand = CpuFeatures::Get().brand;
  return brand.empty() ? "unknown-host" : brand;
}

Status TuningCache::Load() {
  entries_.clear();
  host_mismatch_ = false;
  std::ifstream file(path_);
  if (!file) {
    return Status::OK();  // no cache yet
  }
  std::string line;
  if (!std::getline(file, line) || line != "hef-tuning-cache v1") {
    return Status::IoError("not a tuning cache: " + path_);
  }
  if (!std::getline(file, line) || line.rfind("host ", 0) != 0) {
    return Status::IoError("tuning cache missing host line: " + path_);
  }
  if (line.substr(5) != HostTag()) {
    host_mismatch_ = true;
    return Status::OK();  // tuned elsewhere: start fresh
  }
  // A bad line drops only itself: every valid line still loads, and the
  // first bad one is reported.
  Status first_error;
  const auto bad = [&](const std::string& why) {
    if (first_error.ok()) first_error = Status::IoError(why);
  };
  int line_no = 2;
  while (std::getline(file, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::string where =
        "tuning cache line " + std::to_string(line_no) + " in " + path_;
    std::istringstream in(line);
    std::string keyword, op, cfg_text, seconds_text, ns_text;
    if (!(in >> keyword >> op >> cfg_text >> seconds_text) ||
        keyword != "op") {
      bad("malformed " + where);
      continue;
    }
    in >> ns_text;  // absent in pre-drift caches: 3 columns
    double seconds = 0, ns_per_row = 0;
    if (!ParseCost(seconds_text, &seconds) ||
        (!ns_text.empty() && !ParseCost(ns_text, &ns_per_row))) {
      bad("bad cost on " + where + " (must be finite and >= 0)");
      continue;
    }
    auto cfg = HybridConfig::Parse(cfg_text);
    if (!cfg.ok()) {
      bad("bad config on " + where + ": " + cfg.status().message());
      continue;
    }
    entries_[op] = Entry{cfg.value(), seconds, ns_per_row};
  }
  return first_error;
}

Status TuningCache::Save() const {
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream file(tmp);
    if (!file) {
      return Status::IoError("cannot write " + tmp);
    }
    file << "hef-tuning-cache v1\n";
    file << "host " << HostTag() << "\n";
    file << std::fixed;
    for (const auto& [op, entry] : entries_) {
      file << "op " << op << ' ' << entry.config.ToString() << ' '
           << std::setprecision(9) << entry.seconds;
      if (entry.ns_per_row > 0) {
        file << ' ' << std::setprecision(6) << entry.ns_per_row;
      }
      file << '\n';
    }
    if (!file.good()) {
      return Status::IoError("write failed for " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    return Status::IoError("rename to " + path_ + " failed");
  }
  return Status::OK();
}

bool TuningCache::Contains(const std::string& op) const {
  return entries_.count(op) != 0;
}

Result<TuningCache::Entry> TuningCache::Get(const std::string& op) const {
  auto it = entries_.find(op);
  if (it == entries_.end()) {
    return Status::NotFound("operator '" + op + "' not in tuning cache");
  }
  return it->second;
}

void TuningCache::Put(const std::string& op, const HybridConfig& config,
                      double seconds, double ns_per_row) {
  // arg0 packs the tuned point (v,s,p in 16-bit lanes), arg1 its cost in
  // nanoseconds — enough to reconstruct "the tuner repointed gather to
  // v1 s2 p3" from a flight dump alone.
  const std::uint64_t packed =
      (static_cast<std::uint64_t>(static_cast<std::uint16_t>(config.v))
       << 32) |
      (static_cast<std::uint64_t>(static_cast<std::uint16_t>(config.s))
       << 16) |
      static_cast<std::uint64_t>(static_cast<std::uint16_t>(config.p));
  telemetry::FlightRecorder::Get().Record(
      telemetry::FlightEventKind::kTunerRetune, op.c_str(), /*trace_id=*/0,
      packed, static_cast<std::uint64_t>(seconds * 1e9));
  entries_[op] = Entry{config, seconds, ns_per_row};
}

void WarnTuningCache(const char* action, const Status& status) {
  if (status.ok()) return;
  std::fprintf(stderr, "warning: tuning cache %s failed: %s\n", action,
               status.ToString().c_str());
  telemetry::MetricsRegistry::Get().counter("tuner.cache_errors")
      .Increment();
}

}  // namespace hef
