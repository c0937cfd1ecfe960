#include <cstdint>
#include <utility>
#include <vector>

#include "eval/bytecode/bytecode.h"
#include "eval/compiled_rule.h"
#include "util/interning.h"

namespace datalog {
namespace bytecode {
namespace {

// Jump-target sentinel meaning "the final kHalt"; the emitter does not
// know that pc until the whole body is laid out, so continuations that
// leave the outermost loop carry it and get patched at the end.
constexpr std::uint32_t kHaltSentinel = 0xFFFFFFFFu;

std::vector<TermDesc> LowerTerms(const std::vector<CompiledTerm>& terms) {
  std::vector<TermDesc> out;
  out.reserve(terms.size());
  for (const CompiledTerm& t : terms) {
    out.push_back(TermDesc{
        t.is_constant,
        t.is_constant ? t.id : static_cast<std::uint32_t>(t.slot)});
  }
  return out;
}

}  // namespace

Program Lower(const CompiledRule& plan) {
  Program p;
  // Plans whose heads or negation keys the VM cannot emit in id space,
  // and empty bodies, stay on Execute: there is nothing to lower.
  if (!plan.has_rule_ || !plan.lowerable_ || plan.steps_.empty()) return p;

  p.shape = plan.shape_ == PlanShape::kMultiway ? 1 : 0;
  p.use_index = plan.use_index_;
  p.num_slots = static_cast<std::uint32_t>(plan.num_slots_);
  p.head_predicate = static_cast<std::uint32_t>(plan.head_predicate_);

  // --- Descriptor tables -------------------------------------------------
  p.steps.reserve(plan.steps_.size());
  for (const CompiledAtomStep& cs : plan.steps_) {
    StepDesc sd;
    sd.predicate = static_cast<std::uint32_t>(cs.predicate);
    sd.arity = static_cast<std::uint32_t>(cs.arity);
    sd.source = static_cast<std::uint8_t>(cs.source);
    sd.key_cols = cs.key_cols;
    sd.key_template_ids = cs.key_template_ids;
    for (const auto& [first_col, repeat_col] : cs.id_checks) {
      sd.id_checks.emplace_back(static_cast<std::uint32_t>(first_col),
                                static_cast<std::uint32_t>(repeat_col));
    }
    for (const CompiledAtomStep::SlotRef& w : cs.writes) {
      sd.writes.emplace_back(static_cast<std::uint32_t>(w.col),
                             static_cast<std::uint32_t>(w.slot));
    }
    p.steps.push_back(std::move(sd));
  }

  p.head = LowerTerms(plan.head_terms_);
  for (std::size_t i = 0; i < plan.negated_preds_.size(); ++i) {
    NegDesc nd;
    nd.predicate = static_cast<std::uint32_t>(plan.negated_preds_[i]);
    nd.terms = LowerTerms(plan.negated_terms_[i]);
    p.negated.push_back(std::move(nd));
  }

  if (p.shape == 1) {
    p.mw_steps.reserve(plan.mw_steps_.size());
    for (const MultiwayStep& ms : plan.mw_steps_) {
      MwStepDesc md;
      md.slot = static_cast<std::uint32_t>(ms.slot);
      md.probes.reserve(ms.probes.size());
      for (const MultiwayProbe& mp : ms.probes) {
        ProbeDesc pd;
        pd.atom = static_cast<std::uint32_t>(mp.atom);
        pd.var_cols = mp.var_cols;
        pd.bound_cols = mp.bound_cols;
        pd.unconditional = mp.unconditional;
        pd.union_cols = mp.union_cols;
        pd.key_template_ids = mp.key_template_ids;
        pd.union_template_ids = mp.union_template_ids;
        for (const CompiledAtomStep::KeyFill& kf : mp.key_fill) {
          pd.key_fill.emplace_back(static_cast<std::uint32_t>(kf.key_index),
                                   static_cast<std::uint32_t>(kf.slot));
        }
        for (const CompiledAtomStep::KeyFill& kf : mp.union_key_fill) {
          pd.union_key_fill.emplace_back(
              static_cast<std::uint32_t>(kf.key_index),
              static_cast<std::uint32_t>(kf.slot));
        }
        for (int pos : mp.union_var_positions) {
          pd.union_var_positions.push_back(static_cast<std::uint32_t>(pos));
        }
        md.probes.push_back(std::move(pd));
      }
      p.mw_steps.push_back(std::move(md));
    }
  }

  // --- Code emission -----------------------------------------------------
  // One loop per non-membership depth; `loop_next` tracks the pc of each
  // enclosing loop's advance op, so a filter failure or emission continues
  // the innermost loop and an exhausted loop continues the next one out.
  std::vector<std::uint32_t> loop_next;
  auto emit = [&](Op op, std::uint32_t a = 0, std::uint32_t b = 0,
                  std::uint32_t c = 0, std::uint32_t t = 0) {
    p.code.push_back(Insn{op, a, b, c, t});
    return static_cast<std::uint32_t>(p.code.size() - 1);
  };
  auto cont = [&] {
    return loop_next.empty() ? kHaltSentinel : loop_next.back();
  };

  if (p.shape == 0) {
    bool fused = false;
    const std::size_t n = plan.steps_.size();
    for (std::size_t d = 0; d < n; ++d) {
      const CompiledAtomStep& cs = plan.steps_[d];
      const auto da = static_cast<std::uint32_t>(d);
      for (const CompiledAtomStep::KeyFill& kf : cs.key_fill) {
        emit(Op::kLoadKey, da, static_cast<std::uint32_t>(kf.key_index),
             static_cast<std::uint32_t>(kf.slot));
      }
      const bool fully_bound =
          static_cast<int>(cs.key_cols.size()) == cs.arity;
      if (plan.use_index_ && fully_bound) {
        emit(cs.source == AtomSource::kOld ? Op::kMemberOld : Op::kMember,
             da, 0, 0, cont());
        continue;
      }
      const bool indexed = plan.use_index_ && !cs.key_cols.empty();
      if (d + 1 == n) {
        emit(indexed ? Op::kProbeEmitAll : Op::kLoopEmitAll, da);
        fused = true;
        continue;
      }
      const std::uint32_t parent = cont();
      emit(indexed ? Op::kProbe : Op::kLoop, da, 0, 0, parent);
      const std::uint32_t next_pc =
          emit(indexed ? Op::kProbeNext : Op::kLoopNext, da, 0, 0, parent);
      if (!indexed && !cs.key_cols.empty()) {
        // Unindexed filtered scan: compare each bound column against the
        // baked constant's id or the patched key position, in key order.
        for (std::size_t k = 0; k < cs.key_cols.size(); ++k) {
          const auto col = static_cast<std::uint32_t>(cs.key_cols[k]);
          if (cs.key_template_ids[k] != ValueDictionary::kInvalidId) {
            emit(Op::kFilterConst, da, col, cs.key_template_ids[k], next_pc);
          } else {
            emit(Op::kFilterKey, da, col, static_cast<std::uint32_t>(k),
                 next_pc);
          }
        }
      }
      for (const auto& [first_col, repeat_col] : cs.id_checks) {
        emit(Op::kFilterEq, da, static_cast<std::uint32_t>(first_col),
             static_cast<std::uint32_t>(repeat_col), next_pc);
      }
      for (const CompiledAtomStep::SlotRef& w : cs.writes) {
        emit(Op::kLoad, da, static_cast<std::uint32_t>(w.col),
             static_cast<std::uint32_t>(w.slot));
      }
      loop_next.push_back(next_pc);
    }
    if (fused) {
      emit(Op::kJump, 0, 0, 0, cont());
    } else {
      emit(Op::kEmit, 0, 0, 0, cont());
    }
  } else {
    const std::size_t n = p.mw_steps.size();
    const std::size_t exit_depth = plan.mw_exit_depth_;
    for (std::size_t s = 0; s < n; ++s) {
      const auto sa = static_cast<std::uint32_t>(s);
      if (s + 1 == n) {
        // Past the exit depth, the first witness returns straight to the
        // last kept depth's advance, abandoning the existential loops.
        if (exit_depth < n) {
          emit(Op::kSeekEmitFirst, sa, 0, 0,
               exit_depth == 0 ? kHaltSentinel : loop_next[exit_depth - 1]);
        } else {
          emit(Op::kSeekEmitAll, sa);
        }
        emit(Op::kJump, 0, 0, 0, cont());
        continue;
      }
      emit(Op::kSeek, sa);
      loop_next.push_back(emit(Op::kSeekNext, sa, 0, 0, cont()));
    }
  }

  const std::uint32_t halt_pc = emit(Op::kHalt);
  for (Insn& insn : p.code) {
    if (insn.t == kHaltSentinel) insn.t = halt_pc;
  }

  return p;
}

}  // namespace bytecode
}  // namespace datalog
