#include "eval/rule_matcher.h"

#include <algorithm>
#include <limits>

#include "eval/compiled_rule.h"
#include "eval/eval_stats.h"

namespace datalog {

namespace {
bool greedy_join_ordering_enabled = true;
bool index_lookups_enabled = true;
bool compiled_rule_plans_enabled = true;
bool multiway_joins_enabled = true;
bool bytecode_execution_enabled = true;
const JoinOrderHints* join_order_hints = nullptr;
std::uint64_t join_order_hints_version = 0;
}  // namespace

void SetGreedyJoinOrdering(bool enabled) {
  greedy_join_ordering_enabled = enabled;
}
bool GreedyJoinOrderingEnabled() { return greedy_join_ordering_enabled; }
void SetIndexLookups(bool enabled) { index_lookups_enabled = enabled; }
bool IndexLookupsEnabled() { return index_lookups_enabled; }
void SetCompiledRulePlans(bool enabled) {
  compiled_rule_plans_enabled = enabled;
}
bool CompiledRulePlansEnabled() { return compiled_rule_plans_enabled; }
void SetMultiwayJoins(bool enabled) { multiway_joins_enabled = enabled; }
bool MultiwayJoinsEnabled() { return multiway_joins_enabled; }
void SetBytecodeExecution(bool enabled) {
  bytecode_execution_enabled = enabled;
}
bool BytecodeExecutionEnabled() { return bytecode_execution_enabled; }

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

/// Recursive backtracking join over the planned atoms.
class Matcher {
 public:
  Matcher(const Database& full, const DeltaRanges* ranges,
          const std::vector<PlannedAtom>& atoms,
          const std::function<bool(const Binding&)>& callback,
          MatchStats* stats)
      : full_(full), ranges_(ranges), callback_(callback), stats_(stats) {
    order_ = PlanJoinOrder(full, ranges, atoms);
  }

  void Run() {
    if (order_.empty()) {
      // Empty body: exactly one (empty) match.
      if (stats_ != nullptr) ++stats_->substitutions;
      callback_(binding_);
      return;
    }
    Enumerate(0);
  }

 private:
  bool Enumerate(std::size_t depth) {
    if (depth == order_.size()) {
      if (stats_ != nullptr) ++stats_->substitutions;
      return callback_(binding_);
    }
    const PlannedAtom& planned = order_[depth];
    const Atom& atom = planned.atom;
    const AtomRows src =
        ResolveAtomRows(full_, ranges_, planned.source, atom.predicate());
    const Relation& rel = *src.rel;
    const RowSpan rows = src.rows;
    if (rows.empty()) {
      // No rows, no matches. Returning before any Lookup also keeps the
      // shared empty-relation sentinel write-free, which the parallel
      // evaluator's frozen-snapshot contract relies on.
      return true;
    }
    if (rel.arity() != atom.arity()) {
      return true;  // arity mismatch cannot match (defensive; validated earlier)
    }

    // Split argument positions into bound (constant / bound variable) and
    // free.
    std::vector<int> bound_cols;
    Tuple key;
    for (int i = 0; i < atom.arity(); ++i) {
      const Term& t = atom.args()[static_cast<std::size_t>(i)];
      if (t.is_constant()) {
        bound_cols.push_back(i);
        key.push_back(t.value());
      } else {
        auto it = binding_.find(t.var());
        if (it != binding_.end()) {
          bound_cols.push_back(i);
          key.push_back(it->second);
        }
      }
    }

    if (stats_ != nullptr) ++stats_->index_lookups;

    // The membership fast path below uses Lookup/Contains, so it must
    // honor the index-lookups ablation knob too; with the knob off a
    // fully bound atom falls through to the scan-and-filter loop like
    // any other bound atom.
    if (IndexLookupsEnabled() &&
        static_cast<int>(bound_cols.size()) == atom.arity()) {
      // Fully bound: membership test, one lookup of the unique matching
      // row, which must lie in the atom's rows.
      if (stats_ != nullptr) ++stats_->tuples_scanned;
      if (rel.FindRowIn(key, rows) != Relation::kNoRow) {
        return Enumerate(depth + 1);
      }
      return true;
    }

    auto try_row = [&](RowRef row) {
      std::vector<VariableId> newly_bound;
      bool ok = true;
      for (int i = 0; i < atom.arity() && ok; ++i) {
        const Term& t = atom.args()[static_cast<std::size_t>(i)];
        if (t.is_constant()) continue;
        auto [it, inserted] =
            binding_.emplace(t.var(), row[static_cast<std::size_t>(i)]);
        if (inserted) {
          newly_bound.push_back(t.var());
        } else if (it->second != row[static_cast<std::size_t>(i)]) {
          ok = false;  // repeated variable with conflicting values
        }
      }
      bool keep_going = true;
      if (ok) keep_going = Enumerate(depth + 1);
      for (VariableId v : newly_bound) binding_.erase(v);
      return keep_going;
    };

    if (bound_cols.empty()) {
      for (std::size_t i = rows.begin; i < rows.end; ++i) {
        if (stats_ != nullptr) ++stats_->tuples_scanned;
        if (!try_row(rel.row(i))) return false;
      }
      return true;
    }

    if (!IndexLookupsEnabled()) {
      for (std::size_t i = rows.begin; i < rows.end; ++i) {
        const RowRef row = rel.row(i);
        if (stats_ != nullptr) ++stats_->tuples_scanned;
        bool matches = true;
        for (std::size_t k = 0; k < bound_cols.size(); ++k) {
          if (row[static_cast<std::size_t>(bound_cols[k])] != key[k]) {
            matches = false;
            break;
          }
        }
        if (matches && !try_row(row)) return false;
      }
      return true;
    }

    for (std::uint32_t row_id :
         rel.PostingsIn(rel.Lookup(bound_cols, key), rows)) {
      if (stats_ != nullptr) ++stats_->tuples_scanned;
      if (!try_row(rel.row(row_id))) return false;
    }
    return true;
  }

  const Database& full_;
  const DeltaRanges* ranges_;
  // Stored by value: callers commonly pass a temporary std::function
  // constructed from a lambda at the call site.
  std::function<bool(const Binding&)> callback_;
  MatchStats* stats_;
  std::vector<PlannedAtom> order_;
  Binding binding_;
};

/// True if every negated literal of `rule` is absent from `full` under
/// `binding` (safety guarantees the literal is fully bound).
bool NegationHolds(const Rule& rule, const Database& full,
                   const Binding& binding) {
  for (const Literal& lit : rule.body()) {
    if (!lit.negated) continue;
    Tuple tuple = InstantiateHead(lit.atom, binding);
    if (full.Contains(lit.atom.predicate(), tuple)) return false;
  }
  return true;
}

std::size_t ApplyRuleImpl(const Rule& rule, const Database& full,
                          const DeltaRanges* ranges,
                          std::size_t delta_pos,  // or npos
                          Relation* out, MatchStats* stats,
                          CompiledRuleCache* cache, std::size_t rule_index,
                          const PhaseSinks& sinks) {
  const bool use_old = ranges != nullptr && ranges->use_old();
  if (CompiledRulePlansEnabled()) {
    if (cache != nullptr) {
      const CompiledRule* plan;
      {
        PhaseTimer timer(sinks.plan_ns);
        plan = &cache->Get(rule_index, rule, delta_pos, use_old, full, ranges);
      }
      return plan->Apply(full, ranges, out, stats, sinks);
    }
    CompiledRule plan;
    {
      PhaseTimer timer(sinks.plan_ns);
      plan = CompiledRule::Compile(rule, delta_pos, use_old, full, ranges);
    }
    return plan.Apply(full, ranges, out, stats, sinks);
  }

  std::vector<PlannedAtom> atoms =
      BuildDeltaPassAtoms(rule, delta_pos, use_old);

  // Derived tuples are buffered and inserted only after the enumeration
  // finishes: `out` may be a relation of `full`, and inserting while the
  // matcher is iterating rows/indexes of the same relation would
  // invalidate them.
  std::vector<Tuple> derived;
  {
    PhaseTimer timer(sinks.derive_ns);
    auto on_match = [&](const Binding& binding) {
      if (!NegationHolds(rule, full, binding)) return true;
      derived.push_back(InstantiateHead(rule.head(), binding));
      return true;
    };
    Matcher matcher(full, ranges, atoms, on_match, stats);
    matcher.Run();
  }

  PhaseTimer timer(sinks.insert_ns);
  std::size_t new_facts = 0;
  for (Tuple& tuple : derived) {
    if (out->Insert(std::move(tuple))) ++new_facts;
  }
  return new_facts;
}

}  // namespace

void MatchAtoms(const Database& full, const DeltaRanges* ranges,
                const std::vector<PlannedAtom>& atoms,
                const std::function<bool(const Binding&)>& callback,
                MatchStats* stats) {
  if (CompiledRulePlansEnabled()) {
    // Thin adapter over the compiled path: the enumeration runs on the
    // flat frame and a Binding is materialized only per complete match
    // (overwritten in place, so buckets are allocated once).
    const CompiledRule plan = CompiledRule::CompileAtoms(atoms, full, ranges);
    MatchFrame frame(plan);
    Binding binding;
    plan.Execute(full, ranges, &frame, stats, [&](const MatchFrame& f) {
      plan.FillBinding(f, &binding);
      return callback(binding);
    });
    return;
  }
  Matcher matcher(full, ranges, atoms, callback, stats);
  matcher.Run();
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
                                       const std::vector<PlannedAtom>& atoms) {
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
