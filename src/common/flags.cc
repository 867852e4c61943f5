#include "common/flags.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace hef {

namespace {

bool ParseInt64(const std::string& text, std::int64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = static_cast<std::int64_t>(v);
  return true;
}

bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

bool ParseBool(const std::string& text, bool* out) {
  if (text == "true" || text == "1" || text.empty()) {
    *out = true;
    return true;
  }
  if (text == "false" || text == "0") {
    *out = false;
    return true;
  }
  return false;
}

}  // namespace

void FlagParser::AddInt64(const std::string& name, std::int64_t default_value,
                          const std::string& help) {
  flags_[name] = Flag{Type::kInt64, std::to_string(default_value), help};
}

void FlagParser::AddDouble(const std::string& name, double default_value,
                           const std::string& help) {
  flags_[name] = Flag{Type::kDouble, std::to_string(default_value), help};
}

void FlagParser::AddString(const std::string& name,
                           const std::string& default_value,
                           const std::string& help) {
  flags_[name] = Flag{Type::kString, default_value, help};
}

void FlagParser::AddBool(const std::string& name, bool default_value,
                         const std::string& help) {
  flags_[name] = Flag{Type::kBool, default_value ? "true" : "false", help};
}

Status FlagParser::SetValue(const std::string& name,
                            const std::string& value) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    return Status::InvalidArgument("unknown flag --" + name);
  }
  // Validate the textual value against the declared type.
  switch (it->second.type) {
    case Type::kInt64: {
      std::int64_t v;
      if (!ParseInt64(value, &v)) {
        return Status::InvalidArgument("flag --" + name +
                                       " expects an integer, got '" + value +
                                       "'");
      }
      break;
    }
    case Type::kDouble: {
      double v;
      if (!ParseDouble(value, &v)) {
        return Status::InvalidArgument("flag --" + name +
                                       " expects a number, got '" + value +
                                       "'");
      }
      break;
    }
    case Type::kBool: {
      bool v;
      if (!ParseBool(value, &v)) {
        return Status::InvalidArgument("flag --" + name +
                                       " expects true/false, got '" + value +
                                       "'");
      }
      break;
    }
    case Type::kString:
      break;
  }
  it->second.value = value;
  return Status::OK();
}

Status FlagParser::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return Status::OK();
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    std::string name;
    std::string value;
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      auto it = flags_.find(name);
      if (it != flags_.end() && it->second.type == Type::kBool) {
        value = "true";  // bare boolean switch
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        return Status::InvalidArgument("flag --" + name + " missing value");
      }
    }
    HEF_RETURN_NOT_OK(SetValue(name, value));
  }
  return Status::OK();
}

std::int64_t FlagParser::GetInt64(const std::string& name) const {
  auto it = flags_.find(name);
  HEF_CHECK_MSG(it != flags_.end(), "undeclared flag %s", name.c_str());
  std::int64_t v = 0;
  HEF_CHECK(ParseInt64(it->second.value, &v));
  return v;
}

double FlagParser::GetDouble(const std::string& name) const {
  auto it = flags_.find(name);
  HEF_CHECK_MSG(it != flags_.end(), "undeclared flag %s", name.c_str());
  double v = 0;
  HEF_CHECK(ParseDouble(it->second.value, &v));
  return v;
}

std::string FlagParser::GetString(const std::string& name) const {
  auto it = flags_.find(name);
  HEF_CHECK_MSG(it != flags_.end(), "undeclared flag %s", name.c_str());
  return it->second.value;
}

bool FlagParser::GetBool(const std::string& name) const {
  auto it = flags_.find(name);
  HEF_CHECK_MSG(it != flags_.end(), "undeclared flag %s", name.c_str());
  bool v = false;
  HEF_CHECK(ParseBool(it->second.value, &v));
  return v;
}

void FlagParser::PrintUsage(const char* program) const {
  std::fprintf(stderr, "usage: %s [flags]\n", program);
  for (const auto& [name, flag] : flags_) {
    std::fprintf(stderr, "  --%-20s %s (default: %s)\n", name.c_str(),
                 flag.help.c_str(), flag.value.c_str());
  }
}

bool PositiveFinite(const char* flag, double value) {
  if (value > 0 && std::isfinite(value)) return true;
  std::fprintf(stderr, "--%s must be a positive finite number, got %g\n",
               flag, value);
  return false;
}

}  // namespace hef
