#include "eval/compiled_rule.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "eval/eval_stats.h"
#include "obs/metrics.h"
#include "util/interning.h"

namespace datalog {

namespace {

/// The frame slot that fills a probe's k-th bound column, or -1 when the
/// column holds a constant.
int FillSlot(const MultiwayProbe& probe, std::size_t k) {
  for (const CompiledAtomStep::KeyFill& kf : probe.key_fill) {
    if (static_cast<std::size_t>(kf.key_index) == k) return kf.slot;
  }
  return -1;
}

/// True when every candidate probe `p` offers, probe `q` of the same step
/// offers too, whatever earlier steps bound: both read one predicate,
/// q's rows contain p's (the same source, or q reads the whole
/// relation), every column holding the step's variable in q holds it in
/// p, and every bound column of q is bound in p to the same key -- the
/// same constant id or the same frame slot. A row witnessing a candidate
/// for p then witnesses it for q. A delta's rows are facts of the full
/// database (the semi-naive invariant), and multiway plans come from
/// Compile, whose atoms carry no minus or plus part.
bool Implies(const MultiwayProbe& p, const MultiwayProbe& q,
             const std::vector<CompiledAtomStep>& steps) {
  const CompiledAtomStep& ps = steps[p.atom];
  const CompiledAtomStep& qs = steps[q.atom];
  if (ps.predicate != qs.predicate) return false;
  if (ps.source != qs.source && qs.source != AtomSource::kFull) return false;
  if (!std::includes(p.var_cols.begin(), p.var_cols.end(),
                     q.var_cols.begin(), q.var_cols.end())) {
    return false;
  }
  for (std::size_t k = 0; k < q.bound_cols.size(); ++k) {
    const auto it =
        std::find(p.bound_cols.begin(), p.bound_cols.end(), q.bound_cols[k]);
    if (it == p.bound_cols.end()) return false;
    const auto j = static_cast<std::size_t>(it - p.bound_cols.begin());
    if (p.key_template_ids[j] != q.key_template_ids[k] ||
        FillSlot(p, j) != FillSlot(q, k)) {
      return false;
    }
  }
  return true;
}

/// Drops each probe whose candidates contain another kept probe's: the
/// step's intersection stays the same, with fewer lists to elect from
/// and fewer membership seeks per candidate. Of probes that imply each
/// other, the first is kept.
void DropImpliedProbes(const std::vector<CompiledAtomStep>& steps,
                       std::vector<MultiwayProbe>* probes) {
  std::vector<MultiwayProbe> kept;
  for (std::size_t i = 0; i < probes->size(); ++i) {
    const MultiwayProbe& q = (*probes)[i];
    bool implied = false;
    for (std::size_t j = 0; j < probes->size() && !implied; ++j) {
      const MultiwayProbe& p = (*probes)[j];
      implied = j != i && Implies(p, q, steps) &&
                (j < i || !Implies(q, p, steps));
    }
    if (!implied) kept.push_back(q);
  }
  *probes = std::move(kept);
}

}  // namespace

void MatchFrame::Reset(const CompiledRule& plan) {
  slots.assign(static_cast<std::size_t>(plan.num_slots()), 0);
  keys.resize(plan.num_steps());
  sources.assign(plan.num_steps(), DepthSource());
  for (std::size_t d = 0; d < plan.num_steps(); ++d) {
    // Constants are baked into the buffer once; per-probe key_fill
    // patches only the bound-variable positions.
    keys[d] = plan.steps()[d].key_template_ids;
  }
}

CompiledRule CompiledRule::Compile(const Rule& rule, std::size_t delta_pos,
                                   bool use_old, const Database& full,
                                   const DeltaRanges* ranges) {
  CompiledRule plan;
  plan.atoms_ = BuildDeltaPassAtoms(rule, delta_pos, use_old);
  plan.has_rule_ = true;
  plan.head_ = rule.head();
  plan.head_predicate_ = rule.head().predicate();
  for (const Literal& lit : rule.body()) {
    if (!lit.negated) continue;
    plan.negated_.push_back(lit.atom);
    plan.negated_preds_.push_back(lit.atom.predicate());
  }
  plan.BuildSchedules(full, ranges);
  return plan;
}

CompiledRule CompiledRule::CompileAtoms(std::vector<PlannedAtom> atoms,
                                        const Database& full,
                                        const DeltaRanges* ranges,
                                        std::vector<VariableId> bound) {
  CompiledRule plan;
  plan.atoms_ = std::move(atoms);
  plan.bound_vars_ = std::move(bound);
  plan.BuildSchedules(full, ranges);
  return plan;
}

void CompiledRule::BuildSchedules(const Database& full,
                                  const DeltaRanges* ranges) {
  greedy_ = GreedyJoinOrderingEnabled();
  use_index_ = IndexLookupsEnabled();
  multiway_ = MultiwayJoinsEnabled();
  hints_version_ = JoinOrderHintsVersion();
  steps_.clear();
  var_slots_.clear();
  num_slots_ = 0;
  shape_ = PlanShape::kLeftDeep;
  mw_candidate_ = false;
  mw_steps_.clear();
  mw_exit_depth_ = 0;

  const std::vector<PlannedAtom> order =
      PlanJoinOrder(full, ranges, atoms_, bound_vars_);

  std::unordered_map<VariableId, int> slot_of;
  auto slot_for = [&](VariableId v) {
    auto [it, inserted] = slot_of.emplace(v, num_slots_);
    if (inserted) {
      var_slots_.emplace_back(v, num_slots_);
      ++num_slots_;
    }
    return it->second;
  };

  std::unordered_set<VariableId> bound_before;  // by atoms 0..d-1
  for (VariableId v : bound_vars_) {
    slot_for(v);
    bound_before.insert(v);
  }
  steps_.reserve(order.size());
  for (const PlannedAtom& planned : order) {
    const Atom& atom = planned.atom;
    CompiledAtomStep step;
    step.predicate = atom.predicate();
    step.arity = atom.arity();
    step.source = planned.source;
    step.minus = planned.minus;
    step.plus = planned.plus;
    step.planned_size =
        PlanningSize(full, ranges, planned.source, atom.predicate());

    // Each free variable's first column in this atom: that occurrence
    // writes the slot, and a repeat checks its column against it.
    std::unordered_map<VariableId, int> first_col;
    for (int i = 0; i < atom.arity(); ++i) {
      const Term& t = atom.args()[static_cast<std::size_t>(i)];
      if (t.is_constant()) {
        step.key_cols.push_back(i);
        step.key_template_ids.push_back(
            ValueDictionary::Global().Intern(t.value()));
        continue;
      }
      const VariableId v = t.var();
      if (bound_before.contains(v)) {
        step.key_cols.push_back(i);
        step.key_template_ids.push_back(ValueDictionary::kInvalidId);
        step.key_fill.push_back(CompiledAtomStep::KeyFill{
            static_cast<int>(step.key_template_ids.size()) - 1,
            slot_for(v)});
      } else if (auto [it, first] = first_col.emplace(v, i); first) {
        step.writes.push_back(CompiledAtomStep::SlotRef{i, slot_for(v)});
      } else {
        step.id_checks.emplace_back(it->second, i);
      }
    }
    for (const Term& t : atom.args()) {
      if (t.is_variable()) bound_before.insert(t.var());
    }
    steps_.push_back(std::move(step));
  }

  auto compile_terms = [&](const Atom& atom) {
    std::vector<CompiledTerm> terms;
    terms.reserve(atom.args().size());
    for (const Term& t : atom.args()) {
      CompiledTerm ct;
      if (t.is_constant()) {
        ct.is_constant = true;
        ct.id = ValueDictionary::Global().Intern(t.value());
      } else {
        auto it = slot_of.find(t.var());
        // A variable the positive body never binds keeps slot -1; using
        // it throws at match time, like Binding::at.
        ct.slot = it == slot_of.end() ? -1 : it->second;
      }
      terms.push_back(ct);
    }
    return terms;
  };
  if (has_rule_) {
    head_terms_ = compile_terms(head_);
    negated_terms_.clear();
    negated_terms_.reserve(negated_.size());
    for (const Atom& atom : negated_) {
      negated_terms_.push_back(compile_terms(atom));
    }
  }
  // The VM instantiates heads and negation keys straight from the u32
  // frame, so it has no way to reproduce the unbound-variable throw;
  // rules with a slot the positive body never binds stay on Execute.
  auto all_bound = [](const std::vector<CompiledTerm>& terms) {
    for (const CompiledTerm& t : terms) {
      if (!t.is_constant && t.slot < 0) return false;
    }
    return true;
  };
  lowerable_ = has_rule_ && all_bound(head_terms_);
  for (const std::vector<CompiledTerm>& terms : negated_terms_) {
    if (!all_bound(terms)) lowerable_ = false;
  }

  // Plan-shape selection (docs/multiway_joins.md): cyclic bodies of
  // estimated width >= 2 get the generic multiway-intersection shape --
  // when the multiway and index knobs are on, the plan can be lowered
  // (lowerable_), no explicit join-order hint covers the body (a hint is
  // a request for a specific left-deep order), and every participating
  // relation is non-empty. The size condition is what lets the >= 4x
  // drift replanning flip the shape between rounds: a plan built while
  // some relation was still empty stays left-deep and upgrades once the
  // relation fills in.
  if (lowerable_ && MultiwayEligibleBody(atoms_)) {
    const JoinOrderHints* hints = InstalledJoinOrderHints();
    const bool hinted =
        hints != nullptr && hints->order.contains(BodyFingerprint(atoms_));
    // Structural candidacy is size-independent; it decides whether drift
    // can ever flip this plan's shape (NeedsReplan consults it).
    mw_candidate_ = !hinted;
    if (multiway_ && use_index_ && !hinted) {
      bool all_live = !steps_.empty();
      for (const CompiledAtomStep& step : steps_) {
        if (step.planned_size == 0 || step.arity == 0) all_live = false;
      }
      if (all_live) {
        shape_ = PlanShape::kMultiway;
        BuildMultiwaySchedules(order, slot_of);
      }
    }
  }
  // Lower the finished schedules to bytecode (empty when the plan cannot
  // be lowered). Replan lands here too, so the program always mirrors
  // the current schedules.
  bc_ = bytecode::Lower(*this);
  compiled_ = true;
}

void CompiledRule::BuildMultiwaySchedules(
    const std::vector<PlannedAtom>& order,
    const std::unordered_map<VariableId, int>& slot_of) {
  // Gather, per variable (addressed by its frame slot), the atoms that
  // mention it and the smallest participating relation.
  struct VarInfo {
    std::vector<std::size_t> atoms;
    std::size_t min_size = std::numeric_limits<std::size_t>::max();
  };
  std::vector<VarInfo> info(static_cast<std::size_t>(num_slots_));
  for (std::size_t d = 0; d < order.size(); ++d) {
    for (const Term& t : order[d].atom.args()) {
      if (!t.is_variable()) continue;
      VarInfo& vi = info[static_cast<std::size_t>(slot_of.at(t.var()))];
      if (vi.atoms.empty() || vi.atoms.back() != d) vi.atoms.push_back(d);
      vi.min_size = std::min(vi.min_size, steps_[d].planned_size);
    }
  }

  // Fixed variable order: most-constrained first (mentioned by the most
  // atoms), then smallest participating relation, then slot index (the
  // left-deep first-occurrence order) -- fully deterministic given the
  // planned sizes. A triangle body orders its three variables x, y, z.
  std::vector<int> var_order(static_cast<std::size_t>(num_slots_));
  for (int s = 0; s < num_slots_; ++s) {
    var_order[static_cast<std::size_t>(s)] = s;
  }
  std::sort(var_order.begin(), var_order.end(), [&](int a, int b) {
    const VarInfo& va = info[static_cast<std::size_t>(a)];
    const VarInfo& vb = info[static_cast<std::size_t>(b)];
    if (va.atoms.size() != vb.atoms.size()) {
      return va.atoms.size() > vb.atoms.size();
    }
    if (va.min_size != vb.min_size) return va.min_size < vb.min_size;
    return a < b;
  });

  // First-witness order. Kept variables are those the head or a negated
  // literal reads; once they are bound, one witness of the existential
  // rest decides the head row, so kept ones go first, each group in key
  // order. A kept variable sharing no atom with an earlier one would get
  // a cross product of root lists; then the key order stays as it is.
  std::vector<bool> kept(static_cast<std::size_t>(num_slots_), false);
  auto mark_kept = [&](const std::vector<CompiledTerm>& terms) {
    for (const CompiledTerm& t : terms) {
      if (!t.is_constant) kept[static_cast<std::size_t>(t.slot)] = true;
    }
  };
  mark_kept(head_terms_);
  for (const std::vector<CompiledTerm>& terms : negated_terms_) {
    mark_kept(terms);
  }
  std::vector<int> first_witness = var_order;
  const auto kept_end = std::stable_partition(
      first_witness.begin(), first_witness.end(),
      [&](int s) { return kept[static_cast<std::size_t>(s)]; });
  std::vector<bool> reached(order.size(), false);  // atoms of earlier vars
  bool connected = true;
  for (auto it = first_witness.begin(); connected && it != kept_end; ++it) {
    const std::vector<std::size_t>& atoms =
        info[static_cast<std::size_t>(*it)].atoms;
    connected = it == first_witness.begin() ||
                std::any_of(atoms.begin(), atoms.end(),
                            [&](std::size_t d) { return reached[d]; });
    for (std::size_t d : atoms) reached[d] = true;
  }
  if (connected) var_order = std::move(first_witness);
  // The exit: one past the last kept variable. Equal to the step count
  // (no exit) when no existential variable follows it.
  mw_exit_depth_ = 0;
  for (std::size_t i = 0; i < var_order.size(); ++i) {
    if (kept[static_cast<std::size_t>(var_order[i])]) mw_exit_depth_ = i + 1;
  }

  std::unordered_set<int> bound_slots;
  for (int s : var_order) {
    const VarInfo& vi = info[static_cast<std::size_t>(s)];
    MultiwayStep step;
    step.slot = s;
    for (std::size_t d : vi.atoms) {
      const Atom& atom = order[d].atom;
      MultiwayProbe probe;
      probe.atom = d;
      for (int i = 0; i < atom.arity(); ++i) {
        const Term& t = atom.args()[static_cast<std::size_t>(i)];
        if (t.is_constant()) {
          const std::uint32_t id = ValueDictionary::Global().Intern(t.value());
          probe.bound_cols.push_back(i);
          probe.key_template_ids.push_back(id);
          probe.union_cols.push_back(i);
          probe.union_template_ids.push_back(id);
          continue;
        }
        const int ts = slot_of.at(t.var());
        if (ts == s) {
          probe.var_cols.push_back(i);
          probe.union_cols.push_back(i);
          probe.union_template_ids.push_back(ValueDictionary::kInvalidId);
          probe.union_var_positions.push_back(
              static_cast<int>(probe.union_template_ids.size()) - 1);
        } else if (bound_slots.contains(ts)) {
          probe.bound_cols.push_back(i);
          probe.key_template_ids.push_back(ValueDictionary::kInvalidId);
          probe.key_fill.push_back(CompiledAtomStep::KeyFill{
              static_cast<int>(probe.key_template_ids.size()) - 1, ts});
          probe.union_cols.push_back(i);
          probe.union_template_ids.push_back(ValueDictionary::kInvalidId);
          probe.union_key_fill.push_back(CompiledAtomStep::KeyFill{
              static_cast<int>(probe.union_template_ids.size()) - 1, ts});
        }
        // Variables bound by later steps do not constrain this probe.
      }
      probe.unconditional = probe.bound_cols.empty();
      step.probes.push_back(std::move(probe));
    }
    DropImpliedProbes(steps_, &step.probes);
    bound_slots.insert(s);
    mw_steps_.push_back(std::move(step));
  }
}

bool CompiledRule::NeedsReplan(const Database& full,
                               const DeltaRanges* ranges) const {
  if (greedy_ != GreedyJoinOrderingEnabled() ||
      use_index_ != IndexLookupsEnabled() ||
      multiway_ != MultiwayJoinsEnabled() ||
      hints_version_ != JoinOrderHintsVersion()) {
    return true;
  }
  // With greedy ordering off, sizes matter only if drift could flip the
  // plan's shape: shape selection requires every relation non-empty, so
  // on a structurally multiway-candidate body a fill-in upgrades
  // left-deep to multiway (and an EraseAll downgrades it back). Bodies
  // that can never go multiway (too few atoms, acyclic, hinted) keep
  // the fixed-order never-replan behavior.
  if (!greedy_ && !(multiway_ && use_index_ && mw_candidate_)) return false;
  for (const CompiledAtomStep& step : steps_) {
    // Clamp to 1 so empty relations compare on the same log scale
    // instead of always forcing a replan.
    const std::size_t now = std::max<std::size_t>(
        PlanningSize(full, ranges, step.source, step.predicate), 1);
    const std::size_t then = std::max<std::size_t>(step.planned_size, 1);
    if (now >= 4 * then || then >= 4 * now) return true;
  }
  return false;
}

void CompiledRule::Replan(const Database& full, const DeltaRanges* ranges) {
  BuildSchedules(full, ranges);
}

void CompiledRule::EnsureIndexes(const Database& full,
                                 const DeltaRanges* ranges) const {
  if (!use_index_) return;  // knob off: Execute only scans
  for (const CompiledAtomStep& step : steps_) {
    // Only partially bound probes use an index. Fully bound ones --
    // zero-arity atoms and old snapshots included -- look up the unique
    // matching row in the relation's dedup table, and unbound atoms are
    // full scans.
    if (step.key_cols.empty() ||
        static_cast<int>(step.key_cols.size()) == step.arity) {
      continue;
    }
    const AtomRows src =
        ResolveAtomRows(full, ranges, step.source, step.predicate);
    if (!src.rows.empty() && src.rel->arity() == step.arity) {
      src.rel->EnsureIndex(step.key_cols);
    }
    if (step.plus != nullptr) {
      const Relation& plus = step.plus->relation(step.predicate);
      if (!plus.empty() && plus.arity() == step.arity) {
        plus.EnsureIndex(step.key_cols);
      }
    }
  }
  // Multiway probes and root candidate lists (empty unless the plan
  // shape is kMultiway): pre-built so the parallel fan-out stays
  // read-only on the multiway path too. The left-deep loop above runs
  // for multiway plans as well, because Apply falls back to Execute if
  // the VM declines the databases. Indexes go first, as in the VM, so a
  // whole-relation root can read its ids off an index the plan probes.
  for (const bool roots : {false, true}) {
    for (const MultiwayStep& mw_step : mw_steps_) {
      for (const MultiwayProbe& probe : mw_step.probes) {
        if (probe.unconditional != roots) continue;
        const CompiledAtomStep& step = steps_[probe.atom];
        const AtomRows src =
            ResolveAtomRows(full, ranges, step.source, step.predicate);
        const Relation& rel = *src.rel;
        if (src.rows.empty() || rel.arity() != step.arity) continue;
        if (probe.unconditional) {
          if (step.source != AtomSource::kOld && probe.var_cols.size() == 1) {
            rel.EnsureSortedKeys(probe.var_cols[0], src.rows);
          }
          // Old-snapshot and repeated-variable roots are collected from
          // the rows at Apply time: reads only, nothing to pre-build.
          continue;
        }
        rel.EnsureIndex(probe.bound_cols);
        // Membership seeks for probes that are not the iteration source
        // go through the index on bound-plus-variable columns -- unless
        // those cover the whole atom, when the seek is a dedup-table
        // lookup of the full row.
        if (static_cast<int>(probe.union_cols.size()) != step.arity) {
          rel.EnsureIndex(probe.union_cols);
        }
      }
    }
  }
}

void CompiledRule::DeriveByExecute(const Database& full,
                                   const DeltaRanges* ranges,
                                   MatchStats* stats,
                                   IdRowBuffer* derived) const {
  std::vector<const Relation*> negs;
  negs.reserve(negated_preds_.size());
  for (PredicateId pred : negated_preds_) negs.push_back(&full.relation(pred));
  MatchFrame frame(*this);
  std::vector<std::uint32_t> neg_key;
  Execute(full, ranges, &frame, stats, [&](const MatchFrame& f) {
    for (std::size_t i = 0; i < negs.size(); ++i) {
      neg_key.clear();
      AppendTerms(negated_terms_[i], f, &neg_key);
      if (negs[i]->ContainsIds(neg_key)) return true;
    }
    AppendTerms(head_terms_, f, &derived->ids);
    ++derived->count;
    return true;
  });
}

bool CompiledRule::Derive(const Database& full, const DeltaRanges* ranges,
                          MatchStats* stats, IdRowBuffer* derived,
                          const PhaseSinks& sinks) const {
  if (!MetricsRegistry::Get().enabled()) {
    return bytecode::Derive(bc_, full, ranges, stats, derived,
                            /*dispatch=*/nullptr, sinks);
  }
  bytecode::DispatchCounts counts;
  if (!bytecode::Derive(bc_, full, ranges, stats, derived, &counts, sinks)) {
    return false;
  }
  // Registry work, outside every phase timer: derive_ns times the VM.
  bytecode::PublishDispatchCounts(counts);
  return true;
}

std::size_t CompiledRule::Apply(const Database& full,
                                const DeltaRanges* ranges, Relation* out,
                                MatchStats* stats, const PhaseSinks& sinks,
                                IdRowBuffer* head_rows) const {
  // Both executors derive every head row first and insert them in one
  // batch afterwards: `out` may be a relation of `full`, and inserting
  // while the enumeration reads the same relation would invalidate it.
  IdRowBuffer local;
  IdRowBuffer& derived = head_rows != nullptr ? *head_rows : local;
  derived.ids.clear();
  derived.count = 0;
  if (bc_.empty() || !Derive(full, ranges, stats, &derived, sinks)) {
    PhaseTimer timer(sinks.derive_ns);
    DeriveByExecute(full, ranges, stats, &derived);
  }
  if (derived.count == 0) return 0;
  PhaseTimer timer(sinks.insert_ns);
  return out->InsertIdRows(derived);
}

const CompiledRule& CompiledRuleCache::Get(std::size_t rule_index,
                                           const Rule& rule,
                                           std::size_t delta_pos,
                                           bool use_old, const Database& full,
                                           const DeltaRanges* ranges) {
  CompiledRule& plan = plans_[std::make_tuple(rule_index, delta_pos, use_old)];
  if (!plan.compiled()) {
    plan = CompiledRule::Compile(rule, delta_pos, use_old, full, ranges);
  } else if (plan.NeedsReplan(full, ranges)) {
    plan.Replan(full, ranges);
  }
  return plan;
}

}  // namespace datalog
