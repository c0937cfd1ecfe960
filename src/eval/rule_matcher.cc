#include "eval/rule_matcher.h"

#include <algorithm>
#include <limits>

#include "eval/compiled_rule.h"
#include "eval/eval_stats.h"

namespace datalog {

namespace {
bool greedy_join_ordering_enabled = true;
bool index_lookups_enabled = true;
bool multiway_joins_enabled = true;
const JoinOrderHints* join_order_hints = nullptr;
std::uint64_t join_order_hints_version = 0;
}  // namespace

void SetGreedyJoinOrdering(bool enabled) {
  greedy_join_ordering_enabled = enabled;
}
bool GreedyJoinOrderingEnabled() { return greedy_join_ordering_enabled; }
void SetIndexLookups(bool enabled) { index_lookups_enabled = enabled; }
bool IndexLookupsEnabled() { return index_lookups_enabled; }
void SetMultiwayJoins(bool enabled) { multiway_joins_enabled = enabled; }
bool MultiwayJoinsEnabled() { return multiway_joins_enabled; }

void SetJoinOrderHints(const JoinOrderHints* hints) {
  join_order_hints = hints;
  ++join_order_hints_version;
}
const JoinOrderHints* InstalledJoinOrderHints() { return join_order_hints; }
std::uint64_t JoinOrderHintsVersion() { return join_order_hints_version; }

DeltaRanges DeltaRanges::Whole(const Database& delta, bool use_old) {
  DeltaRanges ranges(use_old);
  ranges.delta_db_ = &delta;
  for (PredicateId pred : delta.NonEmptyPredicates()) {
    ranges.SetDelta(pred, delta.relation(pred).AllRows());
  }
  return ranges;
}

bool DeltaRanges::empty() const {
  for (const Entry& entry : entries_) {
    if (!entry.delta.empty()) return false;
  }
  return true;
}

AtomRows ResolveAtomRows(const Database& full, const DeltaRanges* ranges,
                         AtomSource source, PredicateId pred) {
  if (source == AtomSource::kDelta) {
    if (ranges == nullptr) return {&full.relation(pred), RowSpan{}};
    const Relation& rel = ranges->DeltaRelation(full, pred);
    return {&rel, rel.Bounds(ranges->delta(pred))};
  }
  const Relation& rel = full.relation(pred);
  if (source == AtomSource::kOld) {
    const std::size_t old = ranges == nullptr ? 0 : ranges->old(pred);
    return {&rel, rel.Bounds(RowSpan{0, old})};
  }
  return {&rel, rel.AllRows()};
}

std::size_t PlanningSize(const Database& full, const DeltaRanges* ranges,
                         AtomSource source, PredicateId pred) {
  if (source == AtomSource::kDelta) {
    return ResolveAtomRows(full, ranges, source, pred).rows.size();
  }
  return full.relation(pred).size();
}

std::uint64_t BodyFingerprint(const std::vector<PlannedAtom>& atoms) {
  std::size_t seed = 0xda7a106u;
  for (const PlannedAtom& planned : atoms) {
    HashCombine(seed, std::hash<int>{}(planned.atom.predicate()));
  }
  return seed;
}

namespace {

std::size_t ApplyRuleImpl(const Rule& rule, const Database& full,
                          const DeltaRanges* ranges,
                          std::size_t delta_pos,  // or npos
                          Relation* out, MatchStats* stats,
                          CompiledRuleCache* cache, std::size_t rule_index,
                          const PhaseSinks& sinks) {
  const bool use_old = ranges != nullptr && ranges->use_old();
  if (cache != nullptr) {
    const CompiledRule* plan;
    {
      PhaseTimer timer(sinks.plan_ns);
      plan = &cache->Get(rule_index, rule, delta_pos, use_old, full, ranges);
    }
    return plan->Apply(full, ranges, out, stats, sinks, cache->head_rows());
  }
  CompiledRule plan;
  {
    PhaseTimer timer(sinks.plan_ns);
    plan = CompiledRule::Compile(rule, delta_pos, use_old, full, ranges);
  }
  return plan.Apply(full, ranges, out, stats, sinks);
}

}  // namespace

void MatchAtoms(const Database& full, const DeltaRanges* ranges,
                const std::vector<PlannedAtom>& atoms,
                const std::function<bool(const Binding&)>& callback,
                MatchStats* stats) {
  // The enumeration runs on the flat frame; the Binding is overwritten
  // in place per complete match, so its buckets are allocated once.
  const CompiledRule plan = CompiledRule::CompileAtoms(atoms, full, ranges);
  MatchFrame frame(plan);
  Binding binding;
  plan.Execute(full, ranges, &frame, stats, [&](const MatchFrame& f) {
    plan.FillBinding(f, &binding);
    return callback(binding);
  });
}

namespace {

/// The source of body position `i` in delta pass `delta_pos`.
AtomSource DeltaPassSource(std::size_t i, std::size_t delta_pos,
                           bool use_old) {
  if (i == delta_pos) return AtomSource::kDelta;
  if (i < delta_pos && use_old) return AtomSource::kOld;
  return AtomSource::kFull;
}

}  // namespace

std::vector<PlannedAtom> BuildDeltaPassAtoms(const Rule& rule,
                                             std::size_t delta_pos,
                                             bool use_old) {
  std::vector<PlannedAtom> atoms;
  for (std::size_t i = 0; i < rule.body().size(); ++i) {
    const Literal& lit = rule.body()[i];
    if (lit.negated) continue;
    atoms.push_back(
        PlannedAtom{lit.atom, DeltaPassSource(i, delta_pos, use_old)});
  }
  return atoms;
}

bool DeltaPassReadsRows(const Rule& rule, const Database& full,
                        const DeltaRanges& ranges, std::size_t delta_pos) {
  for (std::size_t i = 0; i < rule.body().size(); ++i) {
    const Literal& lit = rule.body()[i];
    if (lit.negated) continue;
    const AtomSource source = DeltaPassSource(i, delta_pos, ranges.use_old());
    if (ResolveAtomRows(full, &ranges, source, lit.atom.predicate())
            .rows.empty()) {
      return false;
    }
  }
  return true;
}

/// Greedy join order: repeatedly pick the atom with the cheapest
/// estimated probe given the variables bound so far (more bound columns
/// and smaller relations first).
std::vector<PlannedAtom> PlanJoinOrder(const Database& full,
                                       const DeltaRanges* ranges,
                                       const std::vector<PlannedAtom>& atoms,
                                       const std::vector<VariableId>& bound) {
  // An installed hint overrides the greedy planner when it is a valid
  // permutation of the body; anything malformed falls through, so hints
  // affect join order only, never results.
  if (join_order_hints != nullptr && !atoms.empty()) {
    auto it = join_order_hints->order.find(BodyFingerprint(atoms));
    if (it != join_order_hints->order.end() &&
        it->second.size() == atoms.size()) {
      std::vector<bool> seen(atoms.size(), false);
      bool valid = true;
      for (std::size_t idx : it->second) {
        if (idx >= atoms.size() || seen[idx]) {
          valid = false;
          break;
        }
        seen[idx] = true;
      }
      if (valid) {
        std::vector<PlannedAtom> order;
        order.reserve(atoms.size());
        for (std::size_t idx : it->second) order.push_back(atoms[idx]);
        return order;
      }
    }
  }
  if (!GreedyJoinOrderingEnabled()) return atoms;
  std::vector<PlannedAtom> order;
  std::vector<bool> used(atoms.size(), false);
  std::vector<bool> bound_vars;  // indexed by variable id, grown on demand
  auto is_bound = [&bound_vars](VariableId v) {
    return static_cast<std::size_t>(v) < bound_vars.size() &&
           bound_vars[static_cast<std::size_t>(v)];
  };
  auto mark_bound = [&bound_vars](VariableId v) {
    if (static_cast<std::size_t>(v) >= bound_vars.size()) {
      bound_vars.resize(static_cast<std::size_t>(v) + 1, false);
    }
    bound_vars[static_cast<std::size_t>(v)] = true;
  };
  for (VariableId v : bound) mark_bound(v);

  for (std::size_t step = 0; step < atoms.size(); ++step) {
    double best_cost = std::numeric_limits<double>::infinity();
    std::size_t best = atoms.size();
    for (std::size_t i = 0; i < atoms.size(); ++i) {
      if (used[i]) continue;
      const Atom& atom = atoms[i].atom;
      int bound = 0;
      for (const Term& t : atom.args()) {
        if (t.is_constant() || (t.is_variable() && is_bound(t.var()))) {
          ++bound;
        }
      }
      double rel_size = static_cast<double>(
          PlanningSize(full, ranges, atoms[i].source, atom.predicate()));
      double cost = rel_size;
      for (int b = 0; b < bound; ++b) cost /= 4.0;  // crude selectivity
      if (cost < best_cost) {
        best_cost = cost;
        best = i;
      }
    }
    used[best] = true;
    order.push_back(atoms[best]);
    for (const Term& t : atoms[best].atom.args()) {
      if (t.is_variable()) mark_bound(t.var());
    }
  }
  return order;
}

Tuple InstantiateHead(const Atom& atom, const Binding& binding) {
  Tuple tuple;
  tuple.reserve(atom.args().size());
  for (const Term& t : atom.args()) {
    if (t.is_constant()) {
      tuple.push_back(t.value());
    } else {
      tuple.push_back(binding.at(t.var()));
    }
  }
  return tuple;
}

std::size_t ApplyRule(const Rule& rule, const Database& full, Database* out,
                      MatchStats* stats, CompiledRuleCache* cache,
                      std::size_t rule_index, const PhaseSinks& sinks) {
  return ApplyRuleImpl(rule, full, /*ranges=*/nullptr,
                       /*delta_pos=*/std::numeric_limits<std::size_t>::max(),
                       &out->MutableRelation(rule.head().predicate()), stats,
                       cache, rule_index, sinks);
}

std::size_t ApplyRuleWithDelta(const Rule& rule, const Database& full,
                               const DeltaRanges& ranges,
                               std::size_t delta_pos, Relation* out,
                               MatchStats* stats, CompiledRuleCache* cache,
                               std::size_t rule_index,
                               const PhaseSinks& sinks) {
  return ApplyRuleImpl(rule, full, &ranges, delta_pos, out, stats, cache,
                       rule_index, sinks);
}

}  // namespace datalog
