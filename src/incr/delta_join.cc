#include "incr/delta_join.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "eval/hypergraph.h"

namespace datalog {
namespace {

/// Backtracking join over source-annotated atoms with the three-part
/// (primary \ subtraction) ∪ addition sources the incremental passes
/// need, slot-addressed like the compiled rule plans (see
/// eval/compiled_rule.h): argument positions are classified once into
/// key / write / check schedules against a flat Value frame, and every
/// depth reuses one key buffer, so the inner loop performs no per-row
/// binding churn and no per-probe allocation. Probes go through
/// Relation::Lookup/Contains on the id-keyed indexes.
class CompiledDeltaMatcher {
 public:
  CompiledDeltaMatcher(const std::vector<Atom>& atoms,
                       const std::vector<AtomSourceSpec>& specs,
                       const Binding& initial,
                       const std::function<bool(const Binding&)>& callback,
                       MatchStats* stats, bool fixed_order)
      : specs_(specs), callback_(callback), stats_(stats), binding_(initial) {
    std::vector<std::size_t> order(atoms.size());
    for (std::size_t i = 0; i < atoms.size(); ++i) order[i] = i;
    if (!fixed_order) order = GreedyOrder(atoms, specs, initial);

    std::unordered_map<VariableId, int> slot_of;
    auto slot_for = [&](VariableId v) {
      auto [it, inserted] =
          slot_of.emplace(v, static_cast<int>(slots_.size()));
      if (inserted) slots_.push_back(Value());
      return it->second;
    };
    std::set<VariableId> bound_before;
    for (const auto& [var, value] : initial) {
      slots_[static_cast<std::size_t>(slot_for(var))] = value;
      bound_before.insert(var);
    }

    steps_.reserve(order.size());
    for (std::size_t idx : order) {
      const Atom& atom = atoms[idx];
      Step step;
      step.predicate = atom.predicate();
      step.arity = atom.arity();
      step.spec = idx;
      std::set<VariableId> written_here;
      for (int i = 0; i < atom.arity(); ++i) {
        const Term& t = atom.args()[static_cast<std::size_t>(i)];
        if (t.is_constant()) {
          step.key_cols.push_back(i);
          step.key.push_back(t.value());
        } else if (bound_before.contains(t.var())) {
          step.key_cols.push_back(i);
          step.key.push_back(Value());
          step.key_fill.push_back(
              {static_cast<int>(step.key.size()) - 1, slot_for(t.var())});
        } else if (written_here.insert(t.var()).second) {
          step.writes.push_back({i, slot_for(t.var())});
          var_slots_.emplace_back(t.var(), step.writes.back().slot);
        } else {
          step.checks.push_back({i, slot_for(t.var())});
        }
      }
      for (const Term& t : atom.args()) {
        if (t.is_variable()) bound_before.insert(t.var());
      }
      steps_.push_back(std::move(step));
    }
  }

  void Run() {
    if (steps_.empty()) {
      if (stats_ != nullptr) ++stats_->substitutions;
      callback_(binding_);
      return;
    }
    Enumerate(0);
  }

 private:
  struct SlotRef {
    int col;
    int slot;
  };
  struct KeyFill {
    int key_index;
    int slot;
  };
  struct Step {
    PredicateId predicate = 0;
    int arity = 0;
    std::size_t spec = 0;
    std::vector<int> key_cols;
    Tuple key;  // constants pre-filled; bound positions patched per visit
    std::vector<KeyFill> key_fill;
    std::vector<SlotRef> writes;
    std::vector<SlotRef> checks;
  };

  /// Most-bound-columns first; smaller primary relation breaks ties.
  /// Computed statically from the initial binding (greedy on the
  /// variables bound so far), mirroring PlanJoinOrder's heuristic.
  static std::vector<std::size_t> GreedyOrder(
      const std::vector<Atom>& atoms, const std::vector<AtomSourceSpec>& specs,
      const Binding& initial) {
    std::set<VariableId> bound;
    for (const auto& [var, value] : initial) bound.insert(var);
    std::vector<std::size_t> remaining(atoms.size());
    for (std::size_t i = 0; i < atoms.size(); ++i) remaining[i] = i;
    std::vector<std::size_t> order;
    while (!remaining.empty()) {
      std::size_t best_pos = 0;
      int best_bound = -1;
      std::size_t best_size = 0;
      for (std::size_t r = 0; r < remaining.size(); ++r) {
        const Atom& atom = atoms[remaining[r]];
        int n_bound = 0;
        for (const Term& t : atom.args()) {
          if (t.is_constant() || bound.contains(t.var())) ++n_bound;
        }
        std::size_t size =
            specs[remaining[r]].primary->relation(atom.predicate()).size();
        if (n_bound > best_bound ||
            (n_bound == best_bound && size < best_size)) {
          best_pos = r;
          best_bound = n_bound;
          best_size = size;
        }
      }
      std::size_t chosen = remaining[best_pos];
      order.push_back(chosen);
      remaining.erase(remaining.begin() +
                      static_cast<std::ptrdiff_t>(best_pos));
      for (const Term& t : atoms[chosen].args()) {
        if (t.is_variable()) bound.insert(t.var());
      }
    }
    return order;
  }

  bool Enumerate(std::size_t depth) {
    if (depth == steps_.size()) {
      if (stats_ != nullptr) ++stats_->substitutions;
      // Every complete match binds the same variable set, so the binding
      // handed to the callback is refreshed in place (no per-match maps).
      for (const auto& [var, slot] : var_slots_) {
        binding_[var] = slots_[static_cast<std::size_t>(slot)];
      }
      return callback_(binding_);
    }
    Step& step = steps_[depth];
    const AtomSourceSpec& spec = specs_[step.spec];
    for (const KeyFill& kf : step.key_fill) {
      step.key[static_cast<std::size_t>(kf.key_index)] =
          slots_[static_cast<std::size_t>(kf.slot)];
    }

    auto try_row = [&](RowRef row, bool check_subtraction) {
      if (stats_ != nullptr) ++stats_->tuples_scanned;
      if (check_subtraction && spec.subtraction != nullptr &&
          spec.subtraction->Contains(step.predicate, row)) {
        return true;  // excluded; keep enumerating
      }
      for (const SlotRef& w : step.writes) {
        slots_[static_cast<std::size_t>(w.slot)] =
            row[static_cast<std::size_t>(w.col)];
      }
      for (const SlotRef& c : step.checks) {
        if (slots_[static_cast<std::size_t>(c.slot)] !=
            row[static_cast<std::size_t>(c.col)]) {
          return true;  // repeated variable mismatch
        }
      }
      return Enumerate(depth + 1);
    };

    auto scan_source = [&](const Database& db, bool check_subtraction) {
      const Relation& rel = db.relation(step.predicate);
      if (rel.empty() || rel.arity() != step.arity) return true;
      if (step.key_cols.empty()) {
        if (stats_ != nullptr) ++stats_->index_lookups;
        for (RowRef row : rel.rows()) {
          if (!try_row(row, check_subtraction)) return false;
        }
        return true;
      }
      if (stats_ != nullptr) ++stats_->index_lookups;
      if (static_cast<int>(step.key_cols.size()) == step.arity) {
        if (rel.Contains(step.key) &&
            !try_row(step.key, check_subtraction)) {
          return false;
        }
        return true;
      }
      const std::vector<std::uint32_t>& row_ids =
          step.key_cols.size() == 1
              ? rel.Lookup(step.key_cols[0], step.key[0])
              : rel.Lookup(step.key_cols, step.key);
      for (std::uint32_t row_id : row_ids) {
        if (!try_row(rel.row(row_id), check_subtraction)) return false;
      }
      return true;
    };

    if (!scan_source(*spec.primary, /*check_subtraction=*/true)) return false;
    if (spec.addition != nullptr &&
        !scan_source(*spec.addition, /*check_subtraction=*/false)) {
      return false;
    }
    return true;
  }

  const std::vector<AtomSourceSpec>& specs_;
  const std::function<bool(const Binding&)>& callback_;
  MatchStats* stats_;
  Binding binding_;
  std::vector<Value> slots_;
  std::vector<std::pair<VariableId, int>> var_slots_;
  std::vector<Step> steps_;
};

/// Worst-case-optimal leg of the delta joins: when the residual body --
/// the variables still unbound after the initial binding -- forms a
/// cyclic hypergraph of width >= 2 (the same structural test
/// CompiledRule's planner uses, see eval/hypergraph.h), variables are
/// enumerated one at a time and each variable's value is the
/// intersection of the candidate sets contributed by every atom that
/// mentions it. Candidate sets respect the three-part source semantics:
/// (primary \ subtraction) ∪ addition, per atom. Works in value space
/// through Relation::Lookup. Substitutions count complete assignments,
/// identical to the left-deep matcher; probe/scan counters measure this
/// shape's own (deterministic) work.
class MultiwayDeltaMatcher {
 public:
  static bool Eligible(const std::vector<Atom>& atoms,
                       const Binding& initial) {
    if (atoms.size() < 3) return false;
    std::vector<std::vector<VariableId>> var_lists;
    var_lists.reserve(atoms.size());
    for (const Atom& atom : atoms) {
      std::vector<VariableId> vars;
      for (const Term& t : atom.args()) {
        if (t.is_variable() && !initial.contains(t.var())) {
          vars.push_back(t.var());
        }
      }
      // An atom with no residual variable would need a plain membership
      // check this matcher does not do; leave such bodies left-deep.
      if (vars.empty()) return false;
      var_lists.push_back(std::move(vars));
    }
    const JoinHypergraph graph = BuildJoinHypergraph(var_lists);
    return !GyoAcyclic(graph) && EstimateJoinWidth(graph) >= 2;
  }

  MultiwayDeltaMatcher(const std::vector<Atom>& atoms,
                       const std::vector<AtomSourceSpec>& specs,
                       const Binding& initial,
                       const std::function<bool(const Binding&)>& callback,
                       MatchStats* stats)
      : atoms_(atoms),
        specs_(specs),
        callback_(callback),
        stats_(stats),
        binding_(initial) {
    struct VarInfo {
      std::vector<std::size_t> atoms;
      std::size_t min_size = static_cast<std::size_t>(-1);
    };
    std::map<VariableId, VarInfo> info;
    for (std::size_t d = 0; d < atoms.size(); ++d) {
      const std::size_t size =
          specs[d].primary->relation(atoms[d].predicate()).size();
      for (const Term& t : atoms[d].args()) {
        if (!t.is_variable() || binding_.contains(t.var())) continue;
        VarInfo& vi = info[t.var()];
        if (vi.atoms.empty() || vi.atoms.back() != d) vi.atoms.push_back(d);
        vi.min_size = std::min(vi.min_size, size);
      }
    }
    for (const auto& [var, vi] : info) {
      var_order_.push_back(var);
      atoms_of_.push_back(vi.atoms);
    }
    // Most-constrained variable first, then smallest participating
    // relation; the map iteration already fixed a deterministic
    // VariableId tiebreak.
    std::vector<std::size_t> perm(var_order_.size());
    for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    std::stable_sort(perm.begin(), perm.end(),
                     [&](std::size_t a, std::size_t b) {
                       const VarInfo& va = info.at(var_order_[a]);
                       const VarInfo& vb = info.at(var_order_[b]);
                       if (va.atoms.size() != vb.atoms.size()) {
                         return va.atoms.size() > vb.atoms.size();
                       }
                       return va.min_size < vb.min_size;
                     });
    std::vector<VariableId> vars;
    std::vector<std::vector<std::size_t>> atom_lists;
    for (std::size_t i : perm) {
      vars.push_back(var_order_[i]);
      atom_lists.push_back(std::move(atoms_of_[i]));
    }
    var_order_ = std::move(vars);
    atoms_of_ = std::move(atom_lists);
  }

  void Run() { Enumerate(0); }

 private:
  /// Sorted distinct values the variable can take in atom `d` under the
  /// current binding: project the variable's column(s) over the rows of
  /// (primary \ subtraction) and of addition that match every bound
  /// column.
  std::vector<Value> Candidates(std::size_t d, VariableId var) {
    const Atom& atom = atoms_[d];
    const AtomSourceSpec& spec = specs_[d];
    std::vector<int> bound_cols;
    Tuple key;
    std::vector<int> var_cols;
    for (int i = 0; i < atom.arity(); ++i) {
      const Term& t = atom.args()[static_cast<std::size_t>(i)];
      if (t.is_constant()) {
        bound_cols.push_back(i);
        key.push_back(t.value());
      } else if (t.var() == var) {
        var_cols.push_back(i);
      } else if (auto it = binding_.find(t.var()); it != binding_.end()) {
        bound_cols.push_back(i);
        key.push_back(it->second);
      }
    }

    std::vector<Value> values;
    auto scan_source = [&](const Database& db, bool check_subtraction) {
      const Relation& rel = db.relation(atom.predicate());
      if (rel.empty() || rel.arity() != atom.arity()) return;
      if (stats_ != nullptr) ++stats_->index_lookups;
      auto consider = [&](RowRef row) {
        if (stats_ != nullptr) ++stats_->tuples_scanned;
        if (check_subtraction && spec.subtraction != nullptr &&
            spec.subtraction->Contains(atom.predicate(), row)) {
          return;
        }
        const Value v = row[static_cast<std::size_t>(var_cols[0])];
        for (std::size_t k = 1; k < var_cols.size(); ++k) {
          if (row[static_cast<std::size_t>(var_cols[k])] != v) return;
        }
        values.push_back(v);
      };
      if (bound_cols.empty()) {
        for (RowRef row : rel.rows()) consider(row);
        return;
      }
      for (std::uint32_t row_id : rel.Lookup(bound_cols, key)) {
        consider(rel.row(row_id));
      }
    };
    scan_source(*spec.primary, /*check_subtraction=*/true);
    if (spec.addition != nullptr) {
      scan_source(*spec.addition, /*check_subtraction=*/false);
    }
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    return values;
  }

  bool Enumerate(std::size_t depth) {
    if (depth == var_order_.size()) {
      if (stats_ != nullptr) ++stats_->substitutions;
      return callback_(binding_);
    }
    const VariableId var = var_order_[depth];
    // Intersect the candidate sets of every atom mentioning the
    // variable. Materializing all of them is fine here: delta sources
    // are small by construction and candidate sets shrink fast.
    std::vector<std::vector<Value>> sets;
    sets.reserve(atoms_of_[depth].size());
    for (std::size_t d : atoms_of_[depth]) {
      std::vector<Value> s = Candidates(d, var);
      if (s.empty()) return true;  // this branch has no matches
      sets.push_back(std::move(s));
    }
    std::size_t smallest = 0;
    for (std::size_t i = 1; i < sets.size(); ++i) {
      if (sets[i].size() < sets[smallest].size()) smallest = i;
    }
    for (const Value& v : sets[smallest]) {
      bool in_all = true;
      for (std::size_t i = 0; i < sets.size() && in_all; ++i) {
        if (i == smallest) continue;
        in_all = std::binary_search(sets[i].begin(), sets[i].end(), v);
      }
      if (!in_all) continue;
      binding_.emplace(var, v);
      const bool keep_going = Enumerate(depth + 1);
      binding_.erase(var);
      if (!keep_going) return false;
    }
    return true;
  }

  const std::vector<Atom>& atoms_;
  const std::vector<AtomSourceSpec>& specs_;
  const std::function<bool(const Binding&)>& callback_;
  MatchStats* stats_;
  Binding binding_;
  std::vector<VariableId> var_order_;
  std::vector<std::vector<std::size_t>> atoms_of_;
};

}  // namespace

void EnumerateDeltaJoin(const std::vector<Atom>& atoms,
                        const std::vector<AtomSourceSpec>& specs,
                        const Binding& initial,
                        const std::function<bool(const Binding&)>& callback,
                        MatchStats* stats, bool fixed_order) {
  // Multiway residual shape: never on the fixed-order path (the parallel
  // rederive sweep pre-ensures indexes for the textual left-deep order
  // and must stay write-free), and only with the knobs that enable it
  // for rule plans.
  if (!fixed_order && MultiwayJoinsEnabled() && IndexLookupsEnabled() &&
      MultiwayDeltaMatcher::Eligible(atoms, initial)) {
    MultiwayDeltaMatcher(atoms, specs, initial, callback, stats).Run();
    return;
  }
  CompiledDeltaMatcher(atoms, specs, initial, callback, stats, fixed_order)
      .Run();
}

std::vector<std::pair<std::size_t, std::vector<int>>> PlannedIndexColumns(
    const std::vector<Atom>& atoms,
    const std::vector<VariableId>& bound_vars) {
  std::set<VariableId> bound(bound_vars.begin(), bound_vars.end());
  std::vector<std::pair<std::size_t, std::vector<int>>> plan;
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    std::vector<int> cols;
    for (int c = 0; c < atoms[i].arity(); ++c) {
      const Term& t = atoms[i].args()[static_cast<std::size_t>(c)];
      if (t.is_constant() || bound.contains(t.var())) cols.push_back(c);
    }
    plan.emplace_back(i, std::move(cols));
    for (const Term& t : atoms[i].args()) {
      if (t.is_variable()) bound.insert(t.var());
    }
  }
  return plan;
}

}  // namespace datalog
