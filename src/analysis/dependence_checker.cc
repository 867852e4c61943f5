#include "analysis/dependence_checker.h"

#include <map>
#include <tuple>

#include "telemetry/metrics.h"

namespace hef {
namespace analysis {

DependenceReport CheckDependences(const OperatorTemplate& op,
                                  const InstanceProgram& program,
                                  const HybridConfig& config) {
  DependenceReport report;
  report.statements = static_cast<int>(program.chunk.size());
  report.pack_width = config.v + config.s;
  report.instances_per_line = config.p * (config.v + config.s);

  // An instance register: (template variable, vector, lane group, pack).
  using Register = std::tuple<std::string, bool, int, int>;
  auto reg = [](const std::string& var, const InstanceStatement& ist) {
    return Register{var, ist.vector, ist.lane_group, ist.pack};
  };

  // Reaching definitions: only the latest write to an instance register
  // can feed a later read (each statement writes at most one register).
  std::map<Register, int> last_def;
  for (int i = 0; i < report.statements; ++i) {
    const InstanceStatement& ist = program.chunk[static_cast<std::size_t>(i)];
    const TemplateStatement& st =
        op.body[static_cast<std::size_t>(ist.stmt_index)];
    for (const std::string& arg : st.args) {
      if (!op.IsVariable(arg)) continue;
      auto it = last_def.find(reg(arg, ist));
      if (it == last_def.end()) continue;  // defined before the loop: none
      const int distance = i - it->second;
      if (!report.has_dependence || distance < report.min_distance) {
        report.min_distance = distance;
      }
      report.has_dependence = true;
      if (distance < report.pack_width) {
        report.violations.emplace_back(it->second, i);
      }
    }
    if (!st.dst.empty()) last_def[reg(st.dst, ist)] = i;
  }

  auto& registry = telemetry::MetricsRegistry::Get();
  registry.counter("analysis.dependence_checks").Increment();
  if (!report.violations.empty()) {
    registry.counter("analysis.dependence_violations")
        .Increment(static_cast<std::uint64_t>(report.violations.size()));
  }
  return report;
}

Result<DependenceReport> CheckDependences(
    const OperatorTemplate& op, const std::string& generated_source,
    const DescriptionTable& table, const HybridConfig& config,
    Isa vector_isa) {
  Result<InstanceProgram> program = RecoverInstanceProgram(
      op, generated_source, table, config, vector_isa);
  HEF_RETURN_NOT_OK(program.status());
  return CheckDependences(op, program.value(), config);
}

}  // namespace analysis
}  // namespace hef
