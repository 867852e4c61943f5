#include "hybrid/hybrid_config.h"

#include <charconv>
#include <cstdio>
#include <system_error>

namespace hef {

std::string HybridConfig::ToString() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "v%ds%dp%d", v, s, p);
  return buf;
}

Result<HybridConfig> HybridConfig::Parse(const std::string& text) {
  const auto malformed = [&text] {
    return Status::InvalidArgument("malformed hybrid config '" + text +
                                   "' (expected e.g. 'v1s3p2')");
  };
  const auto oversized = [&text] {
    return Status::InvalidArgument(
        "hybrid config '" + text + "' out of range: v, s and p must each "
        "be at most " + std::to_string(kMaxCoordinate));
  };
  HybridConfig cfg;
  int* const fields[] = {&cfg.v, &cfg.s, &cfg.p};
  const char* cur = text.data();
  const char* const end = cur + text.size();
  for (int f = 0; f < 3; ++f) {
    // Each field is its letter followed by unsigned decimal digits; a
    // sign or a space is not a digit, so it never reaches from_chars.
    if (cur == end || *cur++ != "vsp"[f] || cur == end || *cur < '0' ||
        *cur > '9') {
      return malformed();
    }
    const std::from_chars_result r = std::from_chars(cur, end, *fields[f]);
    if (r.ec == std::errc::result_out_of_range) return oversized();
    cur = r.ptr;
  }
  if (cfg.v > kMaxCoordinate || cfg.s > kMaxCoordinate ||
      cfg.p > kMaxCoordinate) {
    return oversized();
  }
  // Only the canonical spelling is accepted (no leading zero, nothing
  // after p), so a config has exactly one text form.
  if (cfg.ToString() != text) return malformed();
  if (!cfg.valid()) {
    return Status::InvalidArgument("invalid hybrid config '" + text +
                                   "': need v+s >= 1 and p >= 1");
  }
  return cfg;
}

}  // namespace hef
