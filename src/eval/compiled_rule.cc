#include "eval/compiled_rule.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "eval/eval_stats.h"
#include "obs/metrics.h"
#include "util/interning.h"

namespace datalog {

void MatchFrame::Reset(const CompiledRule& plan) {
  slots.assign(static_cast<std::size_t>(plan.num_slots()), Value());
  keys.resize(plan.num_steps());
  sources.assign(plan.num_steps(), DepthSource());
  for (std::size_t d = 0; d < plan.num_steps(); ++d) {
    // Constants are baked into the buffer once; per-probe key_fill
    // patches only the bound-variable positions.
    keys[d] = plan.steps()[d].key_template;
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
                                        const DeltaRanges* ranges) {
  CompiledRule plan;
  plan.atoms_ = std::move(atoms);
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

  const std::vector<PlannedAtom> order = PlanJoinOrder(full, ranges, atoms_);

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
  steps_.reserve(order.size());
  for (const PlannedAtom& planned : order) {
    const Atom& atom = planned.atom;
    CompiledAtomStep step;
    step.predicate = atom.predicate();
    step.arity = atom.arity();
    step.source = planned.source;
    step.planned_size =
        PlanningSize(full, ranges, planned.source, atom.predicate());

    std::unordered_set<VariableId> written_here;
    for (int i = 0; i < atom.arity(); ++i) {
      const Term& t = atom.args()[static_cast<std::size_t>(i)];
      if (t.is_constant()) {
        step.key_cols.push_back(i);
        step.key_template.push_back(t.value());
        step.key_template_ids.push_back(
            ValueDictionary::Global().Intern(t.value()));
        continue;
      }
      const VariableId v = t.var();
      if (bound_before.contains(v)) {
        step.key_cols.push_back(i);
        step.key_template.push_back(Value());
        step.key_template_ids.push_back(ValueDictionary::kInvalidId);
        step.key_fill.push_back(CompiledAtomStep::KeyFill{
            static_cast<int>(step.key_template.size()) - 1, slot_for(v)});
      } else if (written_here.insert(v).second) {
        step.writes.push_back(CompiledAtomStep::SlotRef{i, slot_for(v)});
      } else {
        step.checks.push_back(CompiledAtomStep::SlotRef{i, slot_for(v)});
      }
    }
    for (const Term& t : atom.args()) {
      if (t.is_variable()) bound_before.insert(t.var());
    }
    // Lower each repeated-variable check to a row-local column pair: the
    // checked slot is always written by this same step (that is what
    // made it a check instead of a key position), so the batch executor
    // can compare the two raw columns of the candidate row directly.
    for (const CompiledAtomStep::SlotRef& c : step.checks) {
      for (const CompiledAtomStep::SlotRef& w : step.writes) {
        if (w.slot == c.slot) {
          step.id_checks.emplace_back(w.col, c.col);
          break;
        }
      }
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
        ct.value = t.value();
        ct.value_id = ValueDictionary::Global().Intern(t.value());
      } else {
        auto it = slot_of.find(t.var());
        // A variable the positive body never binds keeps slot -1; using
        // it throws at match time, like the legacy Binding::at.
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
  // The batch executor instantiates heads and negation keys straight
  // from the u32 frame, so it has no way to reproduce the unbound-
  // variable throw; rules with a slot the positive body never binds
  // stay on the depth-first path.
  auto all_bound = [](const std::vector<CompiledTerm>& terms) {
    for (const CompiledTerm& t : terms) {
      if (!t.is_constant && t.slot < 0) return false;
    }
    return true;
  };
  batch_ok_ = has_rule_ && all_bound(head_terms_);
  for (const std::vector<CompiledTerm>& terms : negated_terms_) {
    if (!all_bound(terms)) batch_ok_ = false;
  }

  // Plan-shape selection (docs/multiway_joins.md): cyclic bodies of
  // estimated width >= 2 get the generic multiway-intersection shape --
  // when the multiway and index knobs are on, the plan qualifies for
  // id-space emission (batch_ok_), no explicit join-order hint covers
  // the body (a hint is a request for a specific left-deep order), and
  // every participating relation is non-empty. The size condition is
  // what lets the >= 4x drift replanning flip the shape between rounds:
  // a plan built while some relation was still empty stays left-deep
  // and upgrades once the relation fills in.
  if (batch_ok_ && MultiwayEligibleBody(atoms_)) {
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
  // Lower the finished schedules to bytecode (empty when the plan does
  // not qualify for id-space execution). Replan lands here too, so the
  // program always mirrors the current struct schedules.
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
    const AtomRows src =
        ResolveAtomRows(full, ranges, step.source, step.predicate);
    const Relation& rel = *src.rel;
    if (src.rows.empty() || rel.arity() != step.arity) continue;
    // Only partially bound probes use an index. Fully bound ones --
    // zero-arity atoms and old snapshots included -- look up the unique
    // matching row in the relation's dedup table, and unbound atoms are
    // full scans.
    if (!step.key_cols.empty() &&
        static_cast<int>(step.key_cols.size()) != step.arity) {
      rel.EnsureIndex(step.key_cols);
    }
  }
  // Multiway probes and root candidate lists (empty unless the plan
  // shape is kMultiway): pre-built so the parallel fan-out stays
  // read-only on the multiway path too. The left-deep loop above is
  // still needed -- ApplyMultiway falls back to Execute when a relation
  // turns out not to be columnar at run time.
  for (const MultiwayStep& mw_step : mw_steps_) {
    for (const MultiwayProbe& probe : mw_step.probes) {
      const CompiledAtomStep& step = steps_[probe.atom];
      const AtomRows src =
          ResolveAtomRows(full, ranges, step.source, step.predicate);
      const Relation& rel = *src.rel;
      if (src.rows.empty() || rel.arity() != step.arity) continue;
      if (probe.unconditional) {
        if (step.source != AtomSource::kOld && probe.var_cols.size() == 1 &&
            rel.columnar()) {
          rel.EnsureSortedKeys(probe.var_cols[0], src.rows);
        }
        // Old-snapshot and repeated-variable roots are collected from
        // the rows at Apply time: reads only, nothing to pre-build.
      } else {
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

bool CompiledRule::NegationHolds(const Database& full, const MatchFrame& frame,
                                 Tuple* scratch) const {
  for (std::size_t i = 0; i < negated_terms_.size(); ++i) {
    FillTerms(negated_terms_[i], frame, scratch);
    if (full.Contains(negated_preds_[i], *scratch)) return false;
  }
  return true;
}

Tuple CompiledRule::InstantiateHeadFromFrame(const MatchFrame& frame) const {
  Tuple tuple;
  FillTerms(head_terms_, frame, &tuple);
  return tuple;
}

bool CompiledRule::ApplyBatch(const Database& full, const DeltaRanges* ranges,
                              MatchStats* stats, IdRowBuffer* derived) const {
  // Loop-invariant per-depth state, resolved exactly as Execute resolves
  // MatchFrame::DepthSource -- same liveness rule, same rows, same
  // index-preparation condition -- so the two executors probe the same
  // structures in the same order.
  struct BatchSource {
    const Relation* rel = nullptr;
    RowSpan rows;
    bool dead = false;
    bool fully_bound = false;
    Relation::SingleIndexView single_index;
    Relation::MultiIndexView multi_index;
  };
  std::vector<BatchSource> sources(steps_.size());
  for (std::size_t d = 0; d < steps_.size(); ++d) {
    const CompiledAtomStep& step = steps_[d];
    const AtomRows src =
        ResolveAtomRows(full, ranges, step.source, step.predicate);
    const Relation& rel = *src.rel;
    BatchSource& bs = sources[d];
    bs.rel = &rel;
    bs.rows = src.rows;
    bs.dead = bs.rows.empty() || rel.arity() != step.arity;
    // A live row-store relation (constructed before the knob flipped on)
    // has no id columns to scan: bail out before any counter moves and
    // let Apply run the depth-first path instead.
    if (!bs.dead && !rel.columnar()) return false;
    bs.fully_bound =
        static_cast<int>(step.key_cols.size()) == step.arity;
    const bool probes_index =
        use_index_ && !bs.fully_bound && !step.key_cols.empty();
    if (!bs.dead && probes_index) {
      if (step.key_cols.size() == 1) {
        bs.single_index = rel.PrepareSingleIndex(step.key_cols[0]);
      } else {
        bs.multi_index = rel.PrepareIndex(step.key_cols);
      }
    }
  }

  // The frontier: `cur_count` flat frames of `stride` u32 slots each,
  // expanded one join depth at a time. Frames are appended in the order
  // their parents are visited and, per parent, in the order the depth's
  // rows are visited -- which is exactly the depth-first visit order, so
  // the emit boundary sees complete matches in the same sequence Execute
  // would produce.
  const std::size_t stride = static_cast<std::size_t>(num_slots_);
  std::vector<std::uint32_t> cur(stride, 0u);  // one root frame
  std::size_t cur_count = 1;
  std::vector<std::uint32_t> next;
  std::vector<std::uint32_t> key;

  for (std::size_t d = 0; d < steps_.size() && cur_count != 0; ++d) {
    const CompiledAtomStep& step = steps_[d];
    const BatchSource& bs = sources[d];
    if (bs.dead) {
      // Every parent frame dies here with no counter bump, matching the
      // depth-first early return.
      cur_count = 0;
      break;
    }
    const Relation& rel = *bs.rel;
    const RowSpan rows = bs.rows;
    key = step.key_template_ids;  // constants pre-filled
    next.clear();
    std::size_t next_count = 0;

    // The batch try_row: extend parent frame `slots` by candidate row
    // `r` into `next`, dropping it on a repeated-variable mismatch. The
    // checks compare two raw columns of the same row (see id_checks);
    // the writes gather the row's free-variable columns into the child.
    auto emit_row = [&](const std::uint32_t* slots, std::uint32_t r) {
      for (const auto& [first_col, repeat_col] : step.id_checks) {
        if (rel.column(first_col)[r] != rel.column(repeat_col)[r]) return;
      }
      next.resize((next_count + 1) * stride);
      std::uint32_t* dst = next.data() + next_count * stride;
      if (stride != 0) std::copy(slots, slots + stride, dst);
      for (const CompiledAtomStep::SlotRef& w : step.writes) {
        dst[static_cast<std::size_t>(w.slot)] = rel.column(w.col)[r];
      }
      ++next_count;
    };

    for (std::size_t f = 0; f < cur_count; ++f) {
      const std::uint32_t* slots = cur.data() + f * stride;
      if (stats != nullptr) ++stats->index_lookups;
      for (const CompiledAtomStep::KeyFill& kf : step.key_fill) {
        key[static_cast<std::size_t>(kf.key_index)] =
            slots[static_cast<std::size_t>(kf.slot)];
      }

      if (use_index_ && bs.fully_bound) {
        // Fully bound: one dedup-table lookup of the unique matching row
        // (key_cols covers every column in order, so `key` is the full id
        // row), which must lie in the atom's rows.
        if (stats != nullptr) ++stats->tuples_scanned;
        const bool matched =
            rel.FindRowIdsIn(key.data(), rows) != Relation::kNoRow;
        if (matched) {
          // Survives unchanged: a fully bound atom writes no slot.
          next.resize((next_count + 1) * stride);
          if (stride != 0) {
            std::copy(slots, slots + stride,
                      next.data() + next_count * stride);
          }
          ++next_count;
        }
        continue;
      }

      if (step.key_cols.empty()) {
        for (std::size_t i = rows.begin; i < rows.end; ++i) {
          if (stats != nullptr) ++stats->tuples_scanned;
          emit_row(slots, static_cast<std::uint32_t>(i));
        }
        continue;
      }

      if (!use_index_) {
        for (std::size_t i = rows.begin; i < rows.end; ++i) {
          if (stats != nullptr) ++stats->tuples_scanned;
          bool matches = true;
          for (std::size_t k = 0; k < step.key_cols.size(); ++k) {
            if (rel.column(step.key_cols[k])[i] != key[k]) {
              matches = false;
              break;
            }
          }
          if (matches) emit_row(slots, static_cast<std::uint32_t>(i));
        }
        continue;
      }

      const std::vector<std::uint32_t>& row_ids =
          step.key_cols.size() == 1 ? bs.single_index.FindId(key[0])
                                    : bs.multi_index.FindIds(key);
      for (std::uint32_t row_id : rel.PostingsIn(row_ids, rows)) {
        if (stats != nullptr) ++stats->tuples_scanned;
        emit_row(slots, row_id);
      }
    }

    cur.swap(next);
    cur_count = next_count;
  }

  // Emit boundary. Negated literals are probed in id space against
  // `full` (ContainsIds handles a row-store relation, so negation over a
  // predicate the plan never steps through is safe on either backend).
  // Head rows go to the caller's buffer: Apply inserts them only after
  // the enumeration is fully consumed, because `out` may alias `full`.
  derived->ids.clear();
  derived->count = 0;
  std::vector<std::uint32_t> neg_key;
  for (std::size_t f = 0; f < cur_count; ++f) {
    const std::uint32_t* slots = cur.data() + f * stride;
    if (stats != nullptr) ++stats->substitutions;
    bool excluded = false;
    for (std::size_t i = 0; i < negated_terms_.size() && !excluded; ++i) {
      neg_key.clear();
      for (const CompiledTerm& t : negated_terms_[i]) {
        neg_key.push_back(t.is_constant
                              ? t.value_id
                              : slots[static_cast<std::size_t>(t.slot)]);
      }
      if (full.relation(negated_preds_[i]).ContainsIds(neg_key)) {
        excluded = true;
      }
    }
    if (excluded) continue;
    for (const CompiledTerm& t : head_terms_) {
      derived->ids.push_back(t.is_constant
                                 ? t.value_id
                                 : slots[static_cast<std::size_t>(t.slot)]);
    }
    ++derived->count;
  }
  return true;
}

bool CompiledRule::ApplyMultiway(const Database& full,
                                 const DeltaRanges* ranges,
                                 MatchStats* stats,
                                 IdRowBuffer* derived) const {
  // Per-atom runtime state, resolved like ApplyBatch's BatchSource (same
  // liveness rule, same rows).
  struct AtomRt {
    const Relation* rel = nullptr;
    RowSpan rows;
    bool old_only = false;
    bool dead = false;
  };
  std::vector<AtomRt> atoms_rt(steps_.size());
  for (std::size_t d = 0; d < steps_.size(); ++d) {
    const CompiledAtomStep& step = steps_[d];
    const AtomRows src =
        ResolveAtomRows(full, ranges, step.source, step.predicate);
    const Relation& rel = *src.rel;
    AtomRt& at = atoms_rt[d];
    at.rel = &rel;
    at.rows = src.rows;
    at.old_only = step.source == AtomSource::kOld;
    at.dead = at.rows.empty() || rel.arity() != step.arity;
    // A live row-store relation has no id columns to intersect: bail out
    // before any counter moves and let Apply fall back to Execute.
    if (!at.dead && !rel.columnar()) return false;
  }
  derived->ids.clear();
  derived->count = 0;
  for (const AtomRt& at : atoms_rt) {
    if (at.dead) {
      // Every atom participates in every intersection, so one dead atom
      // kills every match before any probe happens.
      return true;
    }
  }

  // Per-probe runtime state: an index view for bound probes, a root
  // candidate list for unconditional ones. Root lists collected per Apply
  // (old snapshots, repeated variables) are owned by a deque so the
  // pointers stay stable as more are added.
  struct ProbeRt {
    const std::vector<std::uint32_t>* root = nullptr;
    Relation::SingleIndexView single;
    Relation::MultiIndexView multi;
    // Bound-plus-variable column index: membership seeks for probes that
    // did not win the iteration-source election. Unused (and never
    // built) when those columns cover the whole atom: the seek is then a
    // dedup-table lookup of the full row.
    Relation::MultiIndexView union_index;
    bool union_full_row = false;
  };
  std::deque<std::vector<std::uint32_t>> owned_roots;
  std::vector<std::vector<ProbeRt>> probes_rt(mw_steps_.size());
  for (std::size_t s = 0; s < mw_steps_.size(); ++s) {
    probes_rt[s].resize(mw_steps_[s].probes.size());
    for (std::size_t p = 0; p < mw_steps_[s].probes.size(); ++p) {
      const MultiwayProbe& probe = mw_steps_[s].probes[p];
      const AtomRt& at = atoms_rt[probe.atom];
      const Relation& rel = *at.rel;
      ProbeRt& rt = probes_rt[s][p];
      if (!probe.unconditional) {
        if (probe.bound_cols.size() == 1) {
          rt.single = rel.PrepareSingleIndex(probe.bound_cols[0]);
        } else {
          rt.multi = rel.PrepareIndex(probe.bound_cols);
        }
        rt.union_full_row =
            static_cast<int>(probe.union_cols.size()) == rel.arity();
        if (!rt.union_full_row) {
          rt.union_index = rel.PrepareIndex(probe.union_cols);
        }
        continue;
      }
      if (!at.old_only && probe.var_cols.size() == 1) {
        // kFull/kDelta: the cached sorted distinct keys of the atom's
        // rows are exactly the candidate list.
        rt.root = &rel.SortedKeys(probe.var_cols[0], at.rows);
        continue;
      }
      // Old snapshot or repeated variable: collect once per Apply.
      owned_roots.emplace_back();
      rel.CollectSortedKeys(probe.var_cols, at.rows, &owned_roots.back());
      rt.root = &owned_roots.back();
    }
  }

  // Per-depth scratch, allocated once: projection buffers and key
  // buffers (seek key plus union membership key) per probe, plus the
  // per-probe seek results (root lists, or in-range posting segments).
  std::vector<std::vector<std::vector<std::uint32_t>>> proj(mw_steps_.size());
  std::vector<std::vector<std::vector<std::uint32_t>>> keys(mw_steps_.size());
  std::vector<std::vector<std::vector<std::uint32_t>>> ukeys(mw_steps_.size());
  std::vector<std::vector<std::span<const std::uint32_t>>> lists(
      mw_steps_.size());
  for (std::size_t s = 0; s < mw_steps_.size(); ++s) {
    proj[s].resize(mw_steps_[s].probes.size());
    keys[s].resize(mw_steps_[s].probes.size());
    ukeys[s].resize(mw_steps_[s].probes.size());
    lists[s].resize(mw_steps_[s].probes.size());
  }

  std::vector<std::uint32_t> slots(static_cast<std::size_t>(num_slots_), 0);
  std::vector<std::uint32_t> neg_key;

  // Emit boundary: identical in structure to ApplyBatch's -- bump
  // substitutions per complete assignment, test negation in id space,
  // buffer the head row (out may alias full).
  auto emit = [&]() {
    if (stats != nullptr) ++stats->substitutions;
    for (std::size_t i = 0; i < negated_terms_.size(); ++i) {
      neg_key.clear();
      for (const CompiledTerm& t : negated_terms_[i]) {
        neg_key.push_back(t.is_constant
                              ? t.value_id
                              : slots[static_cast<std::size_t>(t.slot)]);
      }
      if (full.relation(negated_preds_[i]).ContainsIds(neg_key)) return;
    }
    for (const CompiledTerm& t : head_terms_) {
      derived->ids.push_back(t.is_constant
                                 ? t.value_id
                                 : slots[static_cast<std::size_t>(t.slot)]);
    }
    ++derived->count;
  };

  // Generic join: per variable, seek each containing atom's candidate
  // set (the projection of its sigma-restricted rows), iterate the
  // smallest one, and membership-test each surviving id against the
  // others through their bound-plus-variable indexes. Only the smallest
  // set is ever materialized, so per visit the work is proportional to
  // the tightest atom, not the widest -- the property that makes the
  // intersection worst-case optimal. Candidates are projections of real
  // rows, so a surviving full assignment matches every atom with no
  // final membership check needed. Returns whether a complete match was
  // found below `depth`; from the exit depth on, the first one ends the
  // depth's loop.
  auto enumerate = [&](auto&& self, std::size_t depth) -> bool {
    if (depth == mw_steps_.size()) {
      emit();
      return true;
    }
    const MultiwayStep& step = mw_steps_[depth];
    const std::size_t num_probes = step.probes.size();

    // Election pass: one seek per probe to size its candidate set: the
    // in-range posting count. Old snapshots keep the whole posting size,
    // and repeated variables over-count (filtering happens at
    // projection time), but only as an estimate.
    std::size_t smallest = 0;
    std::size_t smallest_size = std::numeric_limits<std::size_t>::max();
    for (std::size_t p = 0; p < num_probes; ++p) {
      const MultiwayProbe& probe = step.probes[p];
      const ProbeRt& rt = probes_rt[depth][p];
      if (stats != nullptr) ++stats->index_lookups;
      std::size_t est;
      if (probe.unconditional) {
        lists[depth][p] = *rt.root;
        est = rt.root->size();
      } else {
        std::vector<std::uint32_t>& key = keys[depth][p];
        key = probe.key_template_ids;
        for (const CompiledAtomStep::KeyFill& kf : probe.key_fill) {
          key[static_cast<std::size_t>(kf.key_index)] =
              slots[static_cast<std::size_t>(kf.slot)];
        }
        const std::vector<std::uint32_t>& row_ids =
            probe.bound_cols.size() == 1 ? rt.single.FindId(key[0])
                                         : rt.multi.FindIds(key);
        // Row ids, pending projection.
        const AtomRt& at = atoms_rt[probe.atom];
        lists[depth][p] = at.rel->PostingsIn(row_ids, at.rows);
        est = at.old_only ? row_ids.size() : lists[depth][p].size();
      }
      if (est < smallest_size) {
        smallest_size = est;
        smallest = p;
      }
    }

    // Materialize the winner only.
    const MultiwayProbe& src_probe = step.probes[smallest];
    std::span<const std::uint32_t> iter;
    if (src_probe.unconditional) {
      iter = lists[depth][smallest];
    } else {
      const AtomRt& at = atoms_rt[src_probe.atom];
      const Relation& rel = *at.rel;
      const IdVector& c0 = rel.column(src_probe.var_cols[0]);
      std::vector<std::uint32_t>& out_list = proj[depth][smallest];
      out_list.clear();
      for (std::uint32_t row_id : lists[depth][smallest]) {
        if (stats != nullptr) ++stats->tuples_scanned;
        const std::uint32_t id = c0[row_id];
        bool ok = true;
        for (std::size_t k = 1; k < src_probe.var_cols.size(); ++k) {
          if (rel.column(src_probe.var_cols[k])[row_id] != id) {
            ok = false;
            break;
          }
        }
        if (ok) out_list.push_back(id);
      }
      std::sort(out_list.begin(), out_list.end());
      out_list.erase(std::unique(out_list.begin(), out_list.end()),
                     out_list.end());
      iter = out_list;
    }

    // Union membership keys change only at the candidate positions
    // inside the loop; fill the bound positions once per visit.
    for (std::size_t p = 0; p < num_probes; ++p) {
      if (p == smallest || step.probes[p].unconditional) continue;
      const MultiwayProbe& probe = step.probes[p];
      std::vector<std::uint32_t>& ukey = ukeys[depth][p];
      ukey = probe.union_template_ids;
      for (const CompiledAtomStep::KeyFill& kf : probe.union_key_fill) {
        ukey[static_cast<std::size_t>(kf.key_index)] =
            slots[static_cast<std::size_t>(kf.slot)];
      }
    }

    bool matched = false;
    for (const std::uint32_t id : iter) {
      if (stats != nullptr) ++stats->tuples_scanned;
      bool in_all = true;
      for (std::size_t p = 0; p < num_probes && in_all; ++p) {
        if (p == smallest) continue;
        const MultiwayProbe& probe = step.probes[p];
        const ProbeRt& rt = probes_rt[depth][p];
        if (probe.unconditional) {
          if (stats != nullptr) ++stats->tuples_scanned;
          in_all = std::binary_search(rt.root->begin(), rt.root->end(), id);
          continue;
        }
        if (stats != nullptr) ++stats->index_lookups;
        std::vector<std::uint32_t>& ukey = ukeys[depth][p];
        for (const int pos : probe.union_var_positions) {
          ukey[static_cast<std::size_t>(pos)] = id;
        }
        const AtomRt& at = atoms_rt[probe.atom];
        if (rt.union_full_row) {
          in_all = at.rel->FindRowIdsIn(ukey.data(), at.rows) !=
                   Relation::kNoRow;
          continue;
        }
        in_all =
            !at.rel->PostingsIn(rt.union_index.FindIds(ukey), at.rows).empty();
      }
      if (!in_all) continue;
      slots[static_cast<std::size_t>(step.slot)] = id;
      if (!self(self, depth + 1)) continue;
      if (depth >= mw_exit_depth_) return true;
      matched = true;
    }
    return matched;
  };
  enumerate(enumerate, 0);
  return true;
}

bool CompiledRule::DeriveIds(const Database& full, const DeltaRanges* ranges,
                             MatchStats* stats, IdRowBuffer* derived) const {
  // Bytecode fast path: the lowered program run by the computed-goto VM,
  // covering both plan shapes. Derive returns false -- before bumping any
  // counter -- when a live relation is not columnar, in which case the
  // struct executors below re-resolve and take over (they re-check the
  // same condition). The knob is consulted per Apply rather than
  // snapshotted into the plan, so flipping it never replans.
  if (!bc_.empty() && BytecodeExecutionEnabled() && ColumnarStorageEnabled()) {
    if (MetricsRegistry::Get().enabled()) {
      bytecode::DispatchCounts counts;
      if (bytecode::Derive(bc_, full, ranges, stats, derived, &counts)) {
        bytecode::PublishDispatchCounts(counts);
        return true;
      }
    } else if (bytecode::Derive(bc_, full, ranges, stats, derived)) {
      return true;
    }
  }
  // Multiway plan shape: the worst-case-optimal intersection executor.
  // Derives the same fact set as the left-deep executors. Without a
  // first-witness exit it also counts the same substitutions (assignments,
  // not row visits); with one it counts one witness per kept binding.
  // Probe/scan counters measure the shape's own work.
  if (shape_ == PlanShape::kMultiway && ColumnarStorageEnabled() &&
      ApplyMultiway(full, ranges, stats, derived)) {
    return true;
  }
  // Vectorized fast path: only when the plan qualifies (batch_ok_), the
  // columnar knob is on, and -- checked inside -- every live relation is
  // columnar. An empty body stays on Execute, whose no-step epilogue
  // already handles it. Counters, derivation order and results are
  // bit-identical between the two paths.
  return batch_ok_ && !steps_.empty() && ColumnarStorageEnabled() &&
         ApplyBatch(full, ranges, stats, derived);
}

std::size_t CompiledRule::Apply(const Database& full,
                                const DeltaRanges* ranges, Relation* out,
                                MatchStats* stats,
                                const PhaseSinks& sinks) const {
  // The id-space executors derive every head row first and insert them
  // in one batch afterwards: `out` may be a relation of `full`, and
  // inserting while the enumeration reads the same relation would
  // invalidate it. The depth-first fallback (row-store relations, or a
  // head variable the body never binds) buffers tuples for the same
  // reason.
  IdRowBuffer derived;
  std::vector<Tuple> derived_tuples;
  bool derived_ids;
  {
    PhaseTimer timer(sinks.derive_ns);
    derived_ids = DeriveIds(full, ranges, stats, &derived);
    if (!derived_ids) {
      MatchFrame frame(*this);
      Tuple scratch;
      Execute(full, ranges, &frame, stats, [&](const MatchFrame& f) {
        if (!NegationHolds(full, f, &scratch)) return true;
        derived_tuples.push_back(InstantiateHeadFromFrame(f));
        return true;
      });
    }
  }
  if (derived_ids) {
    if (derived.count == 0) return 0;
    PhaseTimer timer(sinks.insert_ns);
    return out->InsertIdRows(derived);
  }
  PhaseTimer timer(sinks.insert_ns);
  std::size_t new_facts = 0;
  for (Tuple& tuple : derived_tuples) {
    if (out->Insert(std::move(tuple))) ++new_facts;
  }
  return new_facts;
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
