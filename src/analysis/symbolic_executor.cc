#include "analysis/symbolic_executor.h"

#include <deque>
#include <map>
#include <set>
#include <sstream>

#include "telemetry/metrics.h"

namespace hef {
namespace analysis {

namespace {

std::string Trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

std::string Substitute(std::string pattern, const std::string& key,
                       const std::string& value) {
  std::size_t at = 0;
  while ((at = pattern.find(key, at)) != std::string::npos) {
    pattern.replace(at, key.size(), value);
    at += value.size();
  }
  return pattern;
}

// The translator's instance-variable spelling (Fig. 6).
std::string InstanceVarName(const std::string& name,
                            const InstanceStatement& ist) {
  if (ist.tail) return name + "_t";
  return name + "_" + (ist.vector ? "v" : "s") +
         std::to_string(ist.lane_group) + "_p" + std::to_string(ist.pack);
}

std::string InstanceOperand(const OperatorTemplate& op,
                            const std::string& name,
                            const InstanceStatement& ist) {
  if (op.IsConstant(name)) {
    if (ist.tail) return name + "_sc";
    return name + (ist.vector ? "_vc" : "_sc");
  }
  if (op.IsPointer(name)) return name;
  return InstanceVarName(name, ist);
}

// First element offset inside the chunk that this instance touches.
int InstanceOffset(const InstanceStatement& ist, const HybridConfig& cfg,
                   int lanes) {
  const int pack_span = cfg.v * lanes + cfg.s;
  if (ist.tail) return 0;
  if (ist.vector) return ist.pack * pack_span + ist.lane_group * lanes;
  return ist.pack * pack_span + cfg.v * lanes + ist.lane_group;
}

// Re-instantiates the exact statement text the translator must have
// emitted for (st, ist) — same patterns, same substitutions.
std::string InstantiateStatement(const OperatorTemplate& op,
                                 const TemplateStatement& st,
                                 const OpPattern& pattern,
                                 const InstanceStatement& ist,
                                 const HybridConfig& cfg, Isa visa) {
  const int lanes = DescriptionTable::Lanes(visa);
  const int offset = InstanceOffset(ist, cfg, lanes);
  const std::string addr_tail = ist.tail
                                    ? std::string("ofs")
                                    : "ofs + " + std::to_string(offset);
  std::string stmt =
      ist.vector ? pattern.ForIsa(visa) : pattern.scalar;
  if (st.op == "hi_load_epi64") {
    stmt = Substitute(stmt, "{dst}", InstanceVarName(st.dst, ist));
    stmt = Substitute(stmt, "{a}", "in + " + addr_tail);
  } else if (st.op == "hi_store_epi64") {
    stmt = Substitute(stmt, "{a}", "out + " + addr_tail);
    stmt = Substitute(stmt, "{b}", InstanceOperand(op, st.args[1], ist));
  } else {
    stmt = Substitute(stmt, "{dst}", InstanceVarName(st.dst, ist));
    stmt = Substitute(stmt, "{a}", InstanceOperand(op, st.args[0], ist));
    if (st.args.size() > 1) {
      stmt = Substitute(stmt, "{b}", InstanceOperand(op, st.args[1], ist));
    }
    if (st.has_immediate) {
      stmt = Substitute(stmt, "{imm}", std::to_string(st.immediate));
    }
  }
  return stmt;
}

// Splits the emitted source into trimmed chunk-loop and tail-loop
// statement lines.
Status ExtractLoops(const std::string& generated_source,
                    std::vector<std::string>* chunk_lines,
                    std::vector<std::string>* tail_lines) {
  std::istringstream stream(generated_source);
  std::string line;
  int section = 0;  // 0: prelude, 1: chunk, 2: between, 3: tail, 4: done
  while (std::getline(stream, line)) {
    const std::string body = Trim(line);
    if (section == 0) {
      if (line.find("for (; ofs + ") != std::string::npos &&
          line.find("<= n; ofs += ") != std::string::npos) {
        section = 1;
      }
      continue;
    }
    if (section == 1) {
      if (body == "}") {
        section = 2;
      } else if (!body.empty()) {
        chunk_lines->push_back(body);
      }
      continue;
    }
    if (section == 2) {
      if (line.find("for (; ofs < n; ++ofs)") != std::string::npos) {
        section = 3;
      }
      continue;
    }
    if (section == 3) {
      if (body == "}") {
        section = 4;
        break;
      }
      if (!body.empty()) tail_lines->push_back(body);
    }
  }
  if (section == 0) {
    return Status::InvalidArgument(
        "generated source has no chunk loop to validate");
  }
  if (section < 4) {
    return Status::InvalidArgument(
        "generated source has no scalar tail loop to validate");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// Symbolic / concrete op semantics (the trusted Table-I base).

template <typename Lane, typename Ops>
Result<Lane> ApplyOp(const TemplateStatement& st, const Lane& a,
                     const Lane& b, Ops& ops) {
  if (st.op == "hi_add_epi64") return ops.Add(a, b);
  if (st.op == "hi_sub_epi64") return ops.Sub(a, b);
  if (st.op == "hi_mullo_epi64") return ops.Mul(a, b);
  if (st.op == "hi_and_epi64") return ops.And(a, b);
  if (st.op == "hi_or_epi64") return ops.Or(a, b);
  if (st.op == "hi_xor_epi64") return ops.Xor(a, b);
  if (st.op == "hi_srli_epi64" || st.op == "hi_srlv_epi64") {
    return ops.Shr(a, b);
  }
  if (st.op == "hi_slli_epi64" || st.op == "hi_sllv_epi64") {
    return ops.Shl(a, b);
  }
  return Status::Unsupported("op '" + st.op +
                             "' has no semantic model; cannot prove");
}

struct SymbolicOps {
  ExprArena& arena;
  const Expr* Add(const Expr* a, const Expr* b) { return arena.Add(a, b); }
  const Expr* Sub(const Expr* a, const Expr* b) { return arena.Sub(a, b); }
  const Expr* Mul(const Expr* a, const Expr* b) { return arena.Mul(a, b); }
  const Expr* And(const Expr* a, const Expr* b) { return arena.And(a, b); }
  const Expr* Or(const Expr* a, const Expr* b) { return arena.Or(a, b); }
  const Expr* Xor(const Expr* a, const Expr* b) { return arena.Xor(a, b); }
  const Expr* Shr(const Expr* a, const Expr* b) { return arena.Shr(a, b); }
  const Expr* Shl(const Expr* a, const Expr* b) { return arena.Shl(a, b); }
};

struct ConcreteOps {
  // Shift semantics follow the vector intrinsics: counts >= 64 yield 0
  // (the scalar lowering's UB there is HID016's job to exclude).
  std::uint64_t Add(std::uint64_t a, std::uint64_t b) { return a + b; }
  std::uint64_t Sub(std::uint64_t a, std::uint64_t b) { return a - b; }
  std::uint64_t Mul(std::uint64_t a, std::uint64_t b) { return a * b; }
  std::uint64_t And(std::uint64_t a, std::uint64_t b) { return a & b; }
  std::uint64_t Or(std::uint64_t a, std::uint64_t b) { return a | b; }
  std::uint64_t Xor(std::uint64_t a, std::uint64_t b) { return a ^ b; }
  std::uint64_t Shr(std::uint64_t a, std::uint64_t b) {
    return b >= 64 ? 0 : a >> b;
  }
  std::uint64_t Shl(std::uint64_t a, std::uint64_t b) {
    return b >= 64 ? 0 : a << b;
  }
};

// Symbolic machine state for one chunk slice: every instance register
// holds `lanes(instance)` expression lanes.
class SymbolicMachine {
 public:
  SymbolicMachine(const OperatorTemplate& op, const HybridConfig& cfg,
                  Isa visa, ExprArena& arena)
      : op_(op), cfg_(cfg), lanes_(DescriptionTable::Lanes(visa)),
        arena_(arena),
        chunk_out_(static_cast<std::size_t>(cfg.p) *
                       (static_cast<std::size_t>(cfg.v) * lanes_ + cfg.s),
                   nullptr) {}

  Status Run(const std::vector<InstanceStatement>& program) {
    for (const InstanceStatement& ist : program) {
      HEF_RETURN_NOT_OK(Step(ist));
    }
    return Status::OK();
  }

  const std::vector<const Expr*>& chunk_out() const { return chunk_out_; }
  const Expr* tail_out() const { return tail_out_; }

 private:
  Status Step(const InstanceStatement& ist) {
    const TemplateStatement& st =
        op_.body[static_cast<std::size_t>(ist.stmt_index)];
    const int width = ist.vector ? lanes_ : 1;
    const int offset = InstanceOffset(ist, cfg_, lanes_);

    if (st.op == "hi_load_epi64") {
      std::vector<const Expr*>& reg = env_[InstanceVarName(st.dst, ist)];
      reg.resize(static_cast<std::size_t>(width));
      for (int i = 0; i < width; ++i) {
        reg[static_cast<std::size_t>(i)] = arena_.Input(offset + i);
      }
      return Status::OK();
    }
    if (st.op == "hi_store_epi64") {
      for (int i = 0; i < width; ++i) {
        const Expr* v = Operand(st.args[1], ist, i);
        if (ist.tail) {
          tail_out_ = v;
        } else {
          chunk_out_[static_cast<std::size_t>(offset + i)] = v;
        }
      }
      return Status::OK();
    }
    if (st.op == "hi_gather_epi64") {
      std::vector<const Expr*> reg(static_cast<std::size_t>(width));
      for (int i = 0; i < width; ++i) {
        reg[static_cast<std::size_t>(i)] =
            arena_.Gather(st.args[0], Operand(st.args[1], ist, i));
      }
      env_[InstanceVarName(st.dst, ist)] = std::move(reg);
      return Status::OK();
    }

    std::vector<const Expr*> reg(static_cast<std::size_t>(width));
    SymbolicOps ops{arena_};
    for (int i = 0; i < width; ++i) {
      const Expr* a = Operand(st.args[0], ist, i);
      const Expr* b = st.has_immediate
                          ? arena_.Const(st.immediate)
                          : (st.args.size() > 1
                                 ? Operand(st.args[1], ist, i)
                                 : arena_.Const(0));
      Result<const Expr*> r = ApplyOp(st, a, b, ops);
      HEF_RETURN_NOT_OK(r.status());
      reg[static_cast<std::size_t>(i)] = r.value();
    }
    env_[InstanceVarName(st.dst, ist)] = std::move(reg);
    return Status::OK();
  }

  const Expr* Operand(const std::string& name,
                      const InstanceStatement& ist, int lane) {
    if (op_.IsConstant(name)) return arena_.Const(op_.constants.at(name));
    const std::string reg = InstanceVarName(name, ist);
    auto it = env_.find(reg);
    if (it == env_.end()) {
      // A register read before any write: opaque, never provably equal
      // to real data — broken schedules refute here.
      auto undef = undefs_.find(reg);
      if (undef == undefs_.end()) {
        undef = undefs_
                    .emplace(reg, arena_.Undef(
                                      static_cast<int>(undefs_.size())))
                    .first;
      }
      return undef->second;
    }
    return it->second[static_cast<std::size_t>(lane)];
  }

  const OperatorTemplate& op_;
  const HybridConfig& cfg_;
  const int lanes_;
  ExprArena& arena_;
  std::map<std::string, std::vector<const Expr*>> env_;
  std::map<std::string, const Expr*> undefs_;
  std::vector<const Expr*> chunk_out_;
  const Expr* tail_out_ = nullptr;
};

}  // namespace

Result<InstanceProgram> RecoverInstanceProgram(
    const OperatorTemplate& op, const std::string& generated_source,
    const DescriptionTable& table, const HybridConfig& config,
    Isa vector_isa) {
  if (!config.valid()) {
    return Status::InvalidArgument("invalid hybrid config " +
                                   config.ToString());
  }
  std::vector<std::string> chunk_lines, tail_lines;
  HEF_RETURN_NOT_OK(
      ExtractLoops(generated_source, &chunk_lines, &tail_lines));

  // Expected instantiations, keyed by exact statement text. Repeated
  // identical template statements produce identical candidates; their
  // attribution is interchangeable (same op, operands, coordinates), so
  // consuming front-first is sound.
  std::map<std::string, std::deque<InstanceStatement>> expected_chunk;
  std::map<std::string, std::deque<InstanceStatement>> expected_tail;
  std::size_t expected_chunk_total = 0;
  for (int si = 0; si < static_cast<int>(op.body.size()); ++si) {
    const TemplateStatement& st = op.body[static_cast<std::size_t>(si)];
    Result<OpPattern> pattern = table.Lookup(st.op);
    HEF_RETURN_NOT_OK(pattern.status());
    for (int p = 0; p < config.p; ++p) {
      for (int v = 0; v < config.v; ++v) {
        InstanceStatement ist{si, /*vector=*/true, v, p, /*tail=*/false};
        expected_chunk[InstantiateStatement(op, st, pattern.value(), ist,
                                            config, vector_isa)]
            .push_back(ist);
        ++expected_chunk_total;
      }
      for (int s = 0; s < config.s; ++s) {
        InstanceStatement ist{si, /*vector=*/false, s, p, /*tail=*/false};
        expected_chunk[InstantiateStatement(op, st, pattern.value(), ist,
                                            config, vector_isa)]
            .push_back(ist);
        ++expected_chunk_total;
      }
    }
    InstanceStatement tail{si, /*vector=*/false, 0, 0, /*tail=*/true};
    expected_tail[InstantiateStatement(op, st, pattern.value(), tail,
                                       config, vector_isa)]
        .push_back(tail);
  }

  // Tail variable declarations are part of the tail loop body; skip the
  // exact spellings the translator emits.
  std::set<std::string> tail_decls;
  for (const std::string& var : op.variables) {
    tail_decls.insert("uint64_t " + var + "_t;");
  }

  InstanceProgram program;
  for (const std::string& line : chunk_lines) {
    auto it = expected_chunk.find(line);
    if (it == expected_chunk.end() || it->second.empty()) {
      return Status::InvalidArgument(
          "chunk-loop statement is not an instantiation of '" + op.name +
          "' at " + config.ToString() + ": '" + line + "'");
    }
    program.chunk.push_back(it->second.front());
    it->second.pop_front();
  }
  if (program.chunk.size() != expected_chunk_total) {
    return Status::InvalidArgument(
        "chunk loop has " + std::to_string(program.chunk.size()) +
        " statement(s); the expansion of '" + op.name + "' at " +
        config.ToString() + " requires " +
        std::to_string(expected_chunk_total));
  }
  for (const std::string& line : tail_lines) {
    if (tail_decls.count(line) != 0) continue;
    auto it = expected_tail.find(line);
    if (it == expected_tail.end() || it->second.empty()) {
      return Status::InvalidArgument(
          "tail-loop statement is not an instantiation of '" + op.name +
          "': '" + line + "'");
    }
    program.tail.push_back(it->second.front());
    it->second.pop_front();
  }
  if (program.tail.size() != op.body.size()) {
    return Status::InvalidArgument(
        "tail loop has " + std::to_string(program.tail.size()) +
        " statement(s); the template body has " +
        std::to_string(op.body.size()));
  }
  return program;
}

Result<const Expr*> EvalScalarReference(const OperatorTemplate& op,
                                        ExprArena& arena,
                                        int element_offset) {
  std::map<std::string, const Expr*> env;
  const Expr* stored = nullptr;
  SymbolicOps ops{arena};
  auto operand = [&](const std::string& name) -> const Expr* {
    if (op.IsConstant(name)) return arena.Const(op.constants.at(name));
    auto it = env.find(name);
    return it == env.end() ? nullptr : it->second;
  };
  for (const TemplateStatement& st : op.body) {
    if (st.op == "hi_load_epi64") {
      env[st.dst] = arena.Input(element_offset);
      continue;
    }
    if (st.op == "hi_store_epi64") {
      const Expr* v = operand(st.args[1]);
      if (v == nullptr) {
        return Status::InvalidArgument("store reads unassigned var '" +
                                       st.args[1] + "'");
      }
      stored = v;  // later stores to the same element win
      continue;
    }
    if (st.op == "hi_gather_epi64") {
      const Expr* idx = operand(st.args[1]);
      if (idx == nullptr) {
        return Status::InvalidArgument("gather reads unassigned var '" +
                                       st.args[1] + "'");
      }
      env[st.dst] = arena.Gather(st.args[0], idx);
      continue;
    }
    const Expr* a = operand(st.args[0]);
    if (a == nullptr) {
      return Status::InvalidArgument("op reads unassigned var '" +
                                     st.args[0] + "'");
    }
    const Expr* b = st.has_immediate
                        ? arena.Const(st.immediate)
                        : (st.args.size() > 1 ? operand(st.args[1])
                                              : arena.Const(0));
    if (b == nullptr) {
      return Status::InvalidArgument("op reads unassigned var '" +
                                     st.args[1] + "'");
    }
    Result<const Expr*> r = ApplyOp(st, a, b, ops);
    HEF_RETURN_NOT_OK(r.status());
    env[st.dst] = r.value();
  }
  if (stored == nullptr) {
    return Status::InvalidArgument("template body never stores OUT");
  }
  return stored;
}

EquivalenceReport ProveEquivalence(const OperatorTemplate& reference,
                                   const OperatorTemplate& translated,
                                   const InstanceProgram& program,
                                   const HybridConfig& config,
                                   Isa vector_isa) {
  auto& registry = telemetry::MetricsRegistry::Get();
  registry.counter("analysis.equivalence_checks").Increment();

  EquivalenceReport report;
  auto refute = [&](const std::string& why) {
    report.proven = false;
    report.detail = why;
    registry.counter("analysis.equivalence_refuted").Increment();
    return report;
  };
  report.statements = static_cast<int>(program.chunk.size());

  ExprArena arena;
  SymbolicMachine machine(translated, config, vector_isa, arena);
  Status run = machine.Run(program.chunk);
  if (!run.ok()) return refute(run.message());

  const std::vector<const Expr*>& out = machine.chunk_out();
  report.elements = static_cast<int>(out.size());
  for (int k = 0; k < static_cast<int>(out.size()); ++k) {
    const Expr* got = out[static_cast<std::size_t>(k)];
    if (got == nullptr) {
      report.mismatch_offset = k;
      return refute("chunk element " + std::to_string(k) +
                    " is never stored");
    }
    Result<const Expr*> want = EvalScalarReference(reference, arena, k);
    if (!want.ok()) return refute(want.status().message());
    if (got != want.value()) {
      report.mismatch_offset = k;
      return refute("out[" + std::to_string(k) + "]: translated " +
                    ExprToString(got) + " != reference " +
                    ExprToString(want.value()));
    }
  }

  // Tail slice: one element, in[ofs] modeled as Input(0).
  SymbolicMachine tail_machine(translated, config, vector_isa, arena);
  run = tail_machine.Run(program.tail);
  if (!run.ok()) return refute(run.message());
  if (tail_machine.tail_out() == nullptr) {
    return refute("scalar tail never stores OUT");
  }
  Result<const Expr*> tail_want =
      EvalScalarReference(reference, arena, 0);
  if (!tail_want.ok()) return refute(tail_want.status().message());
  if (tail_machine.tail_out() != tail_want.value()) {
    return refute("tail element: translated " +
                  ExprToString(tail_machine.tail_out()) +
                  " != reference " + ExprToString(tail_want.value()));
  }
  report.tail_checked = true;
  report.proven = true;
  registry.counter("analysis.equivalence_proven").Increment();
  return report;
}

Result<EquivalenceReport> ProveEquivalence(
    const OperatorTemplate& reference, const OperatorTemplate& translated,
    const std::string& generated_source, const DescriptionTable& table,
    const HybridConfig& config, Isa vector_isa) {
  Result<InstanceProgram> program = RecoverInstanceProgram(
      translated, generated_source, table, config, vector_isa);
  if (!program.ok()) {
    auto& registry = telemetry::MetricsRegistry::Get();
    registry.counter("analysis.equivalence_checks").Increment();
    registry.counter("analysis.equivalence_refuted").Increment();
    EquivalenceReport report;
    report.detail = program.status().message();
    return report;
  }
  return ProveEquivalence(reference, translated, program.value(), config,
                          vector_isa);
}

Result<EquivalenceReport> ProveEquivalence(
    const OperatorTemplate& op, const std::string& generated_source,
    const DescriptionTable& table, const HybridConfig& config,
    Isa vector_isa) {
  return ProveEquivalence(op, op, generated_source, table, config,
                          vector_isa);
}

Result<std::vector<std::uint64_t>> ExecuteTranslatedConcrete(
    const OperatorTemplate& op, const std::string& generated_source,
    const DescriptionTable& table, const HybridConfig& config,
    Isa vector_isa, const std::vector<std::uint64_t>& in,
    const std::vector<std::uint64_t>& aux) {
  Result<InstanceProgram> program = RecoverInstanceProgram(
      op, generated_source, table, config, vector_isa);
  HEF_RETURN_NOT_OK(program.status());

  const int lanes = DescriptionTable::Lanes(vector_isa);
  const std::size_t chunk =
      static_cast<std::size_t>(config.p) *
      (static_cast<std::size_t>(config.v) * lanes + config.s);
  std::vector<std::uint64_t> out(in.size(), 0);
  ConcreteOps ops;

  // One recovered statement, executed over `width` concrete lanes.
  std::map<std::string, std::vector<std::uint64_t>> env;
  auto step = [&](const InstanceStatement& ist,
                  std::size_t ofs) -> Status {
    const TemplateStatement& st =
        op.body[static_cast<std::size_t>(ist.stmt_index)];
    const int width = ist.vector ? lanes : 1;
    const std::size_t offset =
        static_cast<std::size_t>(InstanceOffset(ist, config, lanes));
    auto operand = [&](const std::string& name,
                       int lane) -> std::uint64_t {
      if (op.IsConstant(name)) return op.constants.at(name);
      auto it = env.find(InstanceVarName(name, ist));
      // Reads of never-written registers: indeterminate in the real
      // kernel; 0 here (the symbolic side refutes such programs anyway).
      if (it == env.end()) return 0;
      return it->second[static_cast<std::size_t>(lane)];
    };
    if (st.op == "hi_load_epi64") {
      std::vector<std::uint64_t> reg(static_cast<std::size_t>(width));
      for (int i = 0; i < width; ++i) {
        reg[static_cast<std::size_t>(i)] =
            in[ofs + offset + static_cast<std::size_t>(i)];
      }
      env[InstanceVarName(st.dst, ist)] = std::move(reg);
      return Status::OK();
    }
    if (st.op == "hi_store_epi64") {
      for (int i = 0; i < width; ++i) {
        out[ofs + offset + static_cast<std::size_t>(i)] =
            operand(st.args[1], i);
      }
      return Status::OK();
    }
    if (st.op == "hi_gather_epi64") {
      std::vector<std::uint64_t> reg(static_cast<std::size_t>(width));
      for (int i = 0; i < width; ++i) {
        const std::uint64_t idx = operand(st.args[1], i);
        if (idx >= aux.size()) {
          return Status::OutOfRange(
              "gather index " + std::to_string(idx) +
              " out of bounds (aux size " + std::to_string(aux.size()) +
              ")");
        }
        reg[static_cast<std::size_t>(i)] = aux[idx];
      }
      env[InstanceVarName(st.dst, ist)] = std::move(reg);
      return Status::OK();
    }
    std::vector<std::uint64_t> reg(static_cast<std::size_t>(width));
    for (int i = 0; i < width; ++i) {
      const std::uint64_t a = operand(st.args[0], i);
      const std::uint64_t b =
          st.has_immediate
              ? st.immediate
              : (st.args.size() > 1 ? operand(st.args[1], i) : 0);
      Result<std::uint64_t> r = ApplyOp(st, a, b, ops);
      HEF_RETURN_NOT_OK(r.status());
      reg[static_cast<std::size_t>(i)] = r.value();
    }
    env[InstanceVarName(st.dst, ist)] = std::move(reg);
    return Status::OK();
  };

  std::size_t ofs = 0;
  if (chunk > 0) {
    for (; ofs + chunk <= in.size(); ofs += chunk) {
      env.clear();
      for (const InstanceStatement& ist : program.value().chunk) {
        HEF_RETURN_NOT_OK(step(ist, ofs));
      }
    }
  }
  for (; ofs < in.size(); ++ofs) {
    env.clear();
    for (const InstanceStatement& ist : program.value().tail) {
      HEF_RETURN_NOT_OK(step(ist, ofs));
    }
  }
  return out;
}

Result<std::vector<std::uint64_t>> ExecuteReferenceConcrete(
    const OperatorTemplate& op, const std::vector<std::uint64_t>& in,
    const std::vector<std::uint64_t>& aux) {
  std::vector<std::uint64_t> out(in.size(), 0);
  ConcreteOps ops;
  for (std::size_t k = 0; k < in.size(); ++k) {
    std::map<std::string, std::uint64_t> env;
    auto operand = [&](const std::string& name) -> std::uint64_t {
      if (op.IsConstant(name)) return op.constants.at(name);
      auto it = env.find(name);
      return it == env.end() ? 0 : it->second;
    };
    for (const TemplateStatement& st : op.body) {
      if (st.op == "hi_load_epi64") {
        env[st.dst] = in[k];
      } else if (st.op == "hi_store_epi64") {
        out[k] = operand(st.args[1]);
      } else if (st.op == "hi_gather_epi64") {
        const std::uint64_t idx = operand(st.args[1]);
        if (idx >= aux.size()) {
          return Status::OutOfRange(
              "gather index " + std::to_string(idx) +
              " out of bounds (aux size " + std::to_string(aux.size()) +
              ")");
        }
        env[st.dst] = aux[idx];
      } else {
        const std::uint64_t a = operand(st.args[0]);
        const std::uint64_t b =
            st.has_immediate
                ? st.immediate
                : (st.args.size() > 1 ? operand(st.args[1]) : 0);
        Result<std::uint64_t> r = ApplyOp(st, a, b, ops);
        HEF_RETURN_NOT_OK(r.status());
        env[st.dst] = r.value();
      }
    }
  }
  return out;
}

}  // namespace analysis
}  // namespace hef
