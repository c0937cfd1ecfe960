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
  Matcher(const Database& full, const Database* delta,
          const std::vector<PlannedAtom>& atoms,
          const std::function<bool(const Binding&)>& callback,
          MatchStats* stats, const OldLimits* old_limits = nullptr)
      : full_(full),
        delta_(delta),
        callback_(callback),
        stats_(stats),
        old_limits_(old_limits) {
    order_ = PlanJoinOrder(full, delta, atoms);
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
  const Database& SourceDb(AtomSource source) const {
    return source == AtomSource::kDelta ? *delta_ : full_;
  }

  /// Rows [0, OldLimit(pred)) of the full relation form the old snapshot.
  std::size_t OldLimit(PredicateId pred) const {
    if (old_limits_ == nullptr) return 0;
    auto it = old_limits_->find(pred);
    return it == old_limits_->end() ? 0 : it->second;
  }

  bool Enumerate(std::size_t depth) {
    if (depth == order_.size()) {
      if (stats_ != nullptr) ++stats_->substitutions;
      return callback_(binding_);
    }
    const PlannedAtom& planned = order_[depth];
    const Atom& atom = planned.atom;
    const Relation& rel = SourceDb(planned.source).relation(atom.predicate());
    if (rel.empty()) {
      // No rows, no matches. Returning before any Lookup also keeps the
      // shared empty-relation sentinel write-free, which the parallel
      // evaluator's frozen-snapshot contract relies on.
      return true;
    }
    if (rel.arity() != atom.arity()) {
      return true;  // arity mismatch cannot match (defensive; validated earlier)
    }
    const bool old_only = planned.source == AtomSource::kOld;
    const std::size_t old_limit =
        old_only ? OldLimit(atom.predicate()) : rel.size();
    if (old_only && old_limit == 0) return true;  // no old rows at all

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
      // row. The old snapshot additionally needs that row to predate the
      // limit (old_limit is the relation size otherwise).
      if (stats_ != nullptr) ++stats_->tuples_scanned;
      if (rel.FindRow(key) < old_limit) {
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
      for (std::size_t i = 0; i < old_limit; ++i) {
        if (stats_ != nullptr) ++stats_->tuples_scanned;
        if (!try_row(rel.row(i))) return false;
      }
      return true;
    }

    if (!IndexLookupsEnabled()) {
      for (std::size_t i = 0; i < old_limit; ++i) {
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

    for (std::uint32_t row_id : rel.Lookup(bound_cols, key)) {
      if (old_only && row_id >= old_limit) continue;
      if (stats_ != nullptr) ++stats_->tuples_scanned;
      if (!try_row(rel.row(row_id))) return false;
    }
    return true;
  }

  const Database& full_;
  const Database* delta_;
  // Stored by value: callers commonly pass a temporary std::function
  // constructed from a lambda at the call site.
  std::function<bool(const Binding&)> callback_;
  MatchStats* stats_;
  const OldLimits* old_limits_;
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
                          const Database* delta,
                          std::size_t delta_pos,  // or npos
                          Database* out, MatchStats* stats,
                          const OldLimits* old_limits,
                          CompiledRuleCache* cache, std::size_t rule_index,
                          std::uint64_t* insert_ns) {
  const bool use_old = old_limits != nullptr;
  if (CompiledRulePlansEnabled()) {
    if (cache != nullptr) {
      const CompiledRule& plan =
          cache->Get(rule_index, rule, delta_pos, use_old, full, delta);
      return plan.Apply(full, delta, old_limits, out, stats, insert_ns);
    }
    CompiledRule plan =
        CompiledRule::Compile(rule, delta_pos, use_old, full, delta);
    return plan.Apply(full, delta, old_limits, out, stats, insert_ns);
  }

  std::vector<PlannedAtom> atoms =
      BuildDeltaPassAtoms(rule, delta_pos, use_old);

  // Derived tuples are buffered and inserted only after the enumeration
  // finishes: `out` may alias `full`, and inserting while the matcher is
  // iterating rows/indexes of the same relation would invalidate them.
  std::vector<Tuple> derived;
  auto on_match = [&](const Binding& binding) {
    if (!NegationHolds(rule, full, binding)) return true;
    derived.push_back(InstantiateHead(rule.head(), binding));
    return true;
  };
  Matcher matcher(full, delta, atoms, on_match, stats, old_limits);
  matcher.Run();

  PhaseTimer timer(insert_ns);
  std::size_t new_facts = 0;
  for (Tuple& tuple : derived) {
    if (out->AddFact(rule.head().predicate(), std::move(tuple))) {
      ++new_facts;
    }
  }
  return new_facts;
}

}  // namespace

void MatchAtoms(const Database& full, const Database* delta,
                const std::vector<PlannedAtom>& atoms,
                const std::function<bool(const Binding&)>& callback,
                MatchStats* stats) {
  if (CompiledRulePlansEnabled()) {
    // Thin adapter over the compiled path: the enumeration runs on the
    // flat frame and a Binding is materialized only per complete match
    // (overwritten in place, so buckets are allocated once).
    const CompiledRule plan = CompiledRule::CompileAtoms(atoms, full, delta);
    MatchFrame frame(plan);
    Binding binding;
    plan.Execute(full, delta, /*old_limits=*/nullptr, &frame, stats,
                 [&](const MatchFrame& f) {
                   plan.FillBinding(f, &binding);
                   return callback(binding);
                 });
    return;
  }
  Matcher matcher(full, delta, atoms, callback, stats);
  matcher.Run();
}

std::vector<PlannedAtom> BuildDeltaPassAtoms(const Rule& rule,
                                             std::size_t delta_pos,
                                             bool use_old) {
  std::vector<PlannedAtom> atoms;
  for (std::size_t i = 0; i < rule.body().size(); ++i) {
    const Literal& lit = rule.body()[i];
    if (lit.negated) continue;
    AtomSource source;
    if (i == delta_pos) {
      source = AtomSource::kDelta;
    } else if (i < delta_pos && use_old) {
      source = AtomSource::kOld;
    } else {
      source = AtomSource::kFull;
    }
    atoms.push_back(PlannedAtom{lit.atom, source});
  }
  return atoms;
}

/// Greedy join order: repeatedly pick the atom with the cheapest
/// estimated probe given the variables bound so far (more bound columns
/// and smaller relations first).
std::vector<PlannedAtom> PlanJoinOrder(const Database& full,
                                       const Database* delta,
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
  auto source_db = [&](AtomSource source) -> const Database& {
    return source == AtomSource::kDelta ? *delta : full;
  };
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
          source_db(atoms[i].source).relation(atom.predicate()).size());
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
                      std::size_t rule_index, std::uint64_t* insert_ns) {
  return ApplyRuleImpl(rule, full, /*delta=*/nullptr,
                       /*delta_pos=*/std::numeric_limits<std::size_t>::max(),
                       out, stats, /*old_limits=*/nullptr, cache, rule_index,
                       insert_ns);
}

std::size_t ApplyRuleWithDelta(const Rule& rule, const Database& full,
                               const Database& delta, std::size_t delta_pos,
                               Database* out, MatchStats* stats,
                               const OldLimits* old_limits,
                               CompiledRuleCache* cache,
                               std::size_t rule_index,
                               std::uint64_t* insert_ns) {
  return ApplyRuleImpl(rule, full, &delta, delta_pos, out, stats, old_limits,
                       cache, rule_index, insert_ns);
}

}  // namespace datalog
