// Minimal command-line flag parsing for the benchmark harnesses and
// examples. Supports --name=value and --name value forms plus boolean
// switches (--verbose). Not a general-purpose library: unknown flags are an
// error so harness typos fail loudly instead of silently benchmarking the
// wrong configuration.

#ifndef HEF_COMMON_FLAGS_H_
#define HEF_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace hef {

class FlagParser {
 public:
  // Registers flags before Parse(). `help` is printed by PrintUsage().
  void AddInt64(const std::string& name, std::int64_t default_value,
                const std::string& help);
  void AddDouble(const std::string& name, double default_value,
                 const std::string& help);
  void AddString(const std::string& name, const std::string& default_value,
                 const std::string& help);
  void AddBool(const std::string& name, bool default_value,
               const std::string& help);

  // Parses argv. Returns InvalidArgument on unknown flags or malformed
  // values. "--help" sets HelpRequested() and returns OK.
  Status Parse(int argc, char** argv);

  std::int64_t GetInt64(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  std::string GetString(const std::string& name) const;
  bool GetBool(const std::string& name) const;

  bool HelpRequested() const { return help_requested_; }
  void PrintUsage(const char* program) const;

  // Positional (non-flag) arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  enum class Type { kInt64, kDouble, kString, kBool };
  struct Flag {
    Type type;
    std::string value;  // textual representation
    std::string help;
  };

  Status SetValue(const std::string& name, const std::string& value);

  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
  bool help_requested_ = false;
};

// A hostile number is a usage error naming the flag, caught before any
// database is built or thread started: the layers below abort on it.
// False, after printing "--<flag> must be …", unless value > 0 and finite.
bool PositiveFinite(const char* flag, double value);

}  // namespace hef

#endif  // HEF_COMMON_FLAGS_H_
