#include <cstdint>
#include <string>
#include <vector>

#include "eval/bytecode/bytecode.h"

namespace datalog {
namespace bytecode {
namespace {

// Size ceilings: far above anything the lowering pass produces, low
// enough that a hostile program cannot make Run allocate unboundedly.
constexpr std::size_t kMaxSlots = 1u << 20;
constexpr std::size_t kMaxCode = 1u << 20;
constexpr std::size_t kMaxTable = 1u << 16;
// The row-validity dataflow tracks one bit per step in a u64 mask.
constexpr std::size_t kMaxSteps = 64;

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

bool StrictlyIncreasingCols(const std::vector<int>& cols, std::size_t arity) {
  int prev = -1;
  for (int c : cols) {
    if (c <= prev || c < 0 || static_cast<std::size_t>(c) >= arity) {
      return false;
    }
    prev = c;
  }
  return true;
}

// A constant may hold any id: one the dictionary never issued matches no
// row, and Derive rejects a run that would emit it.
bool TermsOk(const std::vector<TermDesc>& terms, std::size_t num_slots) {
  for (const TermDesc& t : terms) {
    if (!t.is_constant && t.value >= num_slots) return false;
  }
  return true;
}

// True when executing the op at `pc` can continue at `pc + 1`.
bool FallsThrough(Op op) { return op != Op::kHalt && op != Op::kJump &&
                                  op != Op::kEmit; }

bool UsesTarget(Op op) {
  switch (op) {
    case Op::kLoop:
    case Op::kLoopNext:
    case Op::kProbe:
    case Op::kProbeNext:
    case Op::kFilterConst:
    case Op::kFilterKey:
    case Op::kFilterEq:
    case Op::kMember:
    case Op::kMemberOld:
    case Op::kEmit:
    case Op::kJump:
    case Op::kSeekNext:
    case Op::kSeekEmitFirst:
      return true;
    default:
      return false;
  }
}

}  // namespace

bool Validate(const Program& p, std::string* error) {
  if (p.shape > 1) return Fail(error, "unknown plan shape");
  if (p.num_slots > kMaxSlots) return Fail(error, "too many slots");
  if (p.code.empty()) return Fail(error, "empty code");
  if (p.code.size() > kMaxCode) return Fail(error, "code too large");
  if (p.steps.size() > kMaxSteps) return Fail(error, "too many steps");
  if (p.mw_steps.size() > kMaxTable || p.negated.size() > kMaxTable ||
      p.head.size() > kMaxTable) {
    return Fail(error, "descriptor table too large");
  }

  const std::size_t num_slots = p.num_slots;

  // ---- Descriptor tables ------------------------------------------------
  for (std::size_t d = 0; d < p.steps.size(); ++d) {
    const StepDesc& sd = p.steps[d];
    if (sd.arity > kMaxTable) return Fail(error, "step arity too large");
    if (sd.source > 2) return Fail(error, "bad atom source");
    if (!StrictlyIncreasingCols(sd.key_cols, sd.arity)) {
      return Fail(error, "step key columns not strictly increasing");
    }
    if (sd.key_template_ids.size() != sd.key_cols.size()) {
      return Fail(error, "step key template size mismatch");
    }
    for (const auto& [first_col, repeat_col] : sd.id_checks) {
      if (first_col >= sd.arity || repeat_col >= sd.arity) {
        return Fail(error, "id check column out of range");
      }
    }
    for (const auto& [col, slot] : sd.writes) {
      if (col >= sd.arity) return Fail(error, "write column out of range");
      if (slot >= num_slots) return Fail(error, "write slot out of range");
    }
  }

  if (!TermsOk(p.head, num_slots)) {
    return Fail(error, "head term out of range");
  }
  for (const NegDesc& nd : p.negated) {
    if (nd.terms.size() > kMaxTable) return Fail(error, "negation too wide");
    if (!TermsOk(nd.terms, num_slots)) {
      return Fail(error, "negated term out of range");
    }
  }

  if (p.shape == 0 && !p.mw_steps.empty()) {
    return Fail(error, "left-deep program carries multiway steps");
  }
  if (p.shape == 1 && p.mw_steps.empty()) {
    return Fail(error, "multiway program without multiway steps");
  }
  for (const MwStepDesc& ms : p.mw_steps) {
    if (ms.slot >= num_slots) return Fail(error, "multiway slot out of range");
    if (ms.probes.empty() || ms.probes.size() > kMaxTable) {
      return Fail(error, "bad multiway probe count");
    }
    for (const ProbeDesc& probe : ms.probes) {
      if (probe.atom >= p.steps.size()) {
        return Fail(error, "probe atom out of range");
      }
      const std::size_t arity = p.steps[probe.atom].arity;
      if (probe.var_cols.empty()) return Fail(error, "probe without var cols");
      for (int c : probe.var_cols) {
        if (c < 0 || static_cast<std::size_t>(c) >= arity) {
          return Fail(error, "probe var column out of range");
        }
      }
      if (!StrictlyIncreasingCols(probe.bound_cols, arity) ||
          !StrictlyIncreasingCols(probe.union_cols, arity)) {
        return Fail(error, "probe columns not strictly increasing");
      }
      if (probe.unconditional != probe.bound_cols.empty()) {
        return Fail(error, "probe unconditional flag inconsistent");
      }
      if (probe.key_template_ids.size() != probe.bound_cols.size() ||
          probe.union_template_ids.size() != probe.union_cols.size()) {
        return Fail(error, "probe template size mismatch");
      }
      for (const auto& [key_index, slot] : probe.key_fill) {
        if (key_index >= probe.key_template_ids.size() || slot >= num_slots) {
          return Fail(error, "probe key fill out of range");
        }
      }
      for (const auto& [key_index, slot] : probe.union_key_fill) {
        if (key_index >= probe.union_template_ids.size() ||
            slot >= num_slots) {
          return Fail(error, "probe union key fill out of range");
        }
      }
      for (std::uint32_t pos : probe.union_var_positions) {
        if (pos >= probe.union_template_ids.size()) {
          return Fail(error, "probe union var position out of range");
        }
      }
    }
  }

  // ---- Per-instruction operand bounds -----------------------------------
  const std::size_t code_size = p.code.size();
  auto step_ok = [&](std::uint32_t a) { return a < p.steps.size(); };
  for (std::size_t pc = 0; pc < code_size; ++pc) {
    const Insn& insn = p.code[pc];
    if (static_cast<std::size_t>(insn.op) >= kNumOps) {
      return Fail(error, "invalid opcode");
    }
    if (UsesTarget(insn.op) && insn.t >= code_size) {
      return Fail(error, "jump target out of range");
    }
    switch (insn.op) {
      case Op::kLoadKey:
        if (!step_ok(insn.a) ||
            insn.b >= p.steps[insn.a].key_template_ids.size() ||
            insn.c >= num_slots) {
          return Fail(error, "load_key operand out of range");
        }
        break;
      case Op::kLoop:
      case Op::kLoopNext:
      case Op::kProbe:
      case Op::kProbeNext:
      case Op::kMember:
      case Op::kMemberOld:
      case Op::kLoopEmitAll:
      case Op::kProbeEmitAll:
        if (!step_ok(insn.a)) return Fail(error, "step operand out of range");
        break;
      case Op::kFilterConst:
        if (!step_ok(insn.a) || insn.b >= p.steps[insn.a].arity) {
          return Fail(error, "filter_const operand out of range");
        }
        break;
      case Op::kFilterKey:
        if (!step_ok(insn.a) || insn.b >= p.steps[insn.a].arity ||
            insn.c >= p.steps[insn.a].key_template_ids.size()) {
          return Fail(error, "filter_key operand out of range");
        }
        break;
      case Op::kFilterEq:
        if (!step_ok(insn.a) || insn.b >= p.steps[insn.a].arity ||
            insn.c >= p.steps[insn.a].arity) {
          return Fail(error, "filter_eq operand out of range");
        }
        break;
      case Op::kLoad:
        if (!step_ok(insn.a) || insn.b >= p.steps[insn.a].arity ||
            insn.c >= num_slots) {
          return Fail(error, "load operand out of range");
        }
        break;
      case Op::kSeek:
      case Op::kSeekNext:
      case Op::kSeekEmitAll:
      case Op::kSeekEmitFirst:
        if (p.shape != 1 || insn.a >= p.mw_steps.size()) {
          return Fail(error, "seek op outside a multiway program");
        }
        break;
      case Op::kHalt:
      case Op::kEmit:
      case Op::kJump:
        break;
      case Op::kNumOps:
        return Fail(error, "invalid opcode");
    }
  }

  // ---- Row-validity dataflow --------------------------------------------
  // Forward analysis over the CFG with meet = intersection: bit d of the
  // mask means "every path here advanced step d's cursor at least once",
  // i.e. iters[d].row is a valid row of a live relation. FILTER/LOAD ops
  // may only run under that bit; Next ops generate it on fall-through.
  // Fall-through off the end of the code is rejected here too (only for
  // reachable instructions -- unreachable ones never execute).
  const std::uint64_t kTop = ~std::uint64_t{0};
  std::vector<std::uint64_t> in(code_size, kTop);
  std::vector<bool> reached(code_size, false);
  std::vector<std::uint32_t> worklist;
  bool off_end = false;
  auto propagate = [&](std::uint32_t pc, std::uint64_t mask) {
    if (!reached[pc]) {
      reached[pc] = true;
      in[pc] = mask;
      worklist.push_back(pc);
      return;
    }
    const std::uint64_t met = in[pc] & mask;
    if (met != in[pc]) {
      in[pc] = met;
      worklist.push_back(pc);
    }
  };
  propagate(0, 0);
  while (!worklist.empty() && !off_end) {
    const std::uint32_t pc = worklist.back();
    worklist.pop_back();
    const Insn& insn = p.code[pc];
    const std::uint64_t mask = in[pc];
    const std::uint64_t bit = insn.a < 64 ? std::uint64_t{1} << insn.a : 0;
    switch (insn.op) {
      case Op::kFilterConst:
      case Op::kFilterKey:
      case Op::kFilterEq:
      case Op::kLoad:
        if ((mask & bit) == 0) {
          return Fail(error, "filter/load without a current row");
        }
        break;
      default:
        break;
    }
    std::uint64_t fall_mask = mask;
    if (insn.op == Op::kLoopNext || insn.op == Op::kProbeNext) {
      fall_mask |= bit;
    }
    if (FallsThrough(insn.op)) {
      if (pc + 1 >= code_size) {
        off_end = true;
        break;
      }
      propagate(pc + 1, fall_mask);
    }
    if (UsesTarget(insn.op)) propagate(insn.t, mask);
  }
  if (off_end) return Fail(error, "execution can fall off the end");

  return true;
}

}  // namespace bytecode
}  // namespace datalog
