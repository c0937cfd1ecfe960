#include "eval/topdown.h"

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "ast/validate.h"
#include "eval/rule_matcher.h"
#include "obs/stats_export.h"
#include "obs/trace.h"

namespace datalog {
namespace {

/// A memoized subgoal: a predicate with a binding pattern (a value per
/// bound position, nullopt per free position). Two query occurrences with
/// the same pattern share one answer table.
struct SubgoalKey {
  PredicateId pred;
  std::vector<std::optional<Value>> pattern;

  friend bool operator<(const SubgoalKey& a, const SubgoalKey& b) {
    if (a.pred != b.pred) return a.pred < b.pred;
    return a.pattern < b.pattern;
  }
};

class Solver {
 public:
  Solver(const Program& program, const Database& edb, TopDownStats* stats)
      : program_(program),
        edb_(edb),
        intentional_(program.IntentionalPredicates()),
        stats_(stats) {}

  std::vector<Tuple> Solve(const Atom& query) {
    SubgoalKey root = KeyForAtom(query, /*binding=*/{});
    Register(root);
    do {
      changed_ = false;
      if (stats_ != nullptr) ++stats_->iterations;
      TraceSpan round_span("topdown/round");
      // order_ may grow (and reallocate) while we iterate; index-based
      // loop over a copied key picks up new subgoals within the round.
      for (std::size_t i = 0; i < order_.size(); ++i) {
        SubgoalKey key = order_[i];
        TraceSpan subgoal_span("topdown/subgoal");
        subgoal_span.Note("subgoal", i);
        ProcessSubgoal(key);
      }
      round_span.Note("subgoals", order_.size());
    } while (changed_);

    // Select the root table's rows that honor repeated variables in the
    // query (the pattern alone cannot express them).
    std::vector<Tuple> out;
    for (RowRef row : tables_.at(root).rows()) {
      Binding binding;
      if (RowMatchesAtom(query, row, &binding)) out.push_back(Tuple(row));
    }
    return out;
  }

 private:
  SubgoalKey KeyForAtom(const Atom& atom, const Binding& binding) const {
    SubgoalKey key;
    key.pred = atom.predicate();
    key.pattern.reserve(atom.args().size());
    for (const Term& t : atom.args()) {
      if (t.is_constant()) {
        key.pattern.emplace_back(t.value());
      } else {
        auto it = binding.find(t.var());
        if (it != binding.end()) {
          key.pattern.emplace_back(it->second);
        } else {
          key.pattern.emplace_back(std::nullopt);
        }
      }
    }
    return key;
  }

  void Register(const SubgoalKey& key) {
    auto [it, inserted] = tables_.emplace(
        key, Relation(static_cast<int>(key.pattern.size())));
    if (!inserted) return;
    order_.push_back(key);
    changed_ = true;
    if (stats_ != nullptr) ++stats_->subgoals;
    // Seed with matching input facts: the input database may assign
    // initial relations to intentional predicates (the uniform semantics
    // of Section IV), and those facts answer the subgoal directly.
    for (RowRef row : edb_.relation(key.pred).rows()) {
      if (MatchesPattern(key.pattern, row)) {
        it->second.Insert(Tuple(row));
      }
    }
  }

  static bool MatchesPattern(const std::vector<std::optional<Value>>& pattern,
                             RowRef row) {
    for (std::size_t i = 0; i < pattern.size(); ++i) {
      if (pattern[i].has_value() && *pattern[i] != row[i]) return false;
    }
    return true;
  }

  /// Extends `binding` so the atom's arguments match `row`; false on a
  /// conflict (constants or repeated variables).
  static bool RowMatchesAtom(const Atom& atom, RowRef row,
                             Binding* binding) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      const Term& t = atom.args()[i];
      if (t.is_constant()) {
        if (t.value() != row[i]) return false;
        continue;
      }
      auto [it, inserted] = binding->emplace(t.var(), row[i]);
      if (!inserted && it->second != row[i]) return false;
    }
    return true;
  }

  void ProcessSubgoal(const SubgoalKey& key) {
    for (const Rule& rule : program_.rules()) {
      if (rule.head().predicate() != key.pred) continue;
      // Bind head variables from the subgoal's bound positions.
      Binding binding;
      bool applicable = true;
      for (std::size_t i = 0; i < key.pattern.size() && applicable; ++i) {
        if (!key.pattern[i].has_value()) continue;
        const Term& t = rule.head().args()[i];
        if (t.is_constant()) {
          applicable = (t.value() == *key.pattern[i]);
        } else {
          auto [it, inserted] = binding.emplace(t.var(), *key.pattern[i]);
          if (!inserted && it->second != *key.pattern[i]) applicable = false;
        }
      }
      if (!applicable) continue;
      EnumerateBody(rule, key, 0, &binding);
    }
  }

  void EnumerateBody(const Rule& rule, const SubgoalKey& key,
                     std::size_t idx, Binding* binding) {
    if (idx == rule.body().size()) {
      if (stats_ != nullptr) ++stats_->body_matches;
      Tuple head = InstantiateHead(rule.head(), *binding);
      if (tables_.at(key).Insert(std::move(head))) {
        changed_ = true;
        if (stats_ != nullptr) ++stats_->answers;
      }
      return;
    }
    const Atom& atom = rule.body()[idx].atom;

    if (intentional_.contains(atom.predicate())) {
      SubgoalKey sub = KeyForAtom(atom, *binding);
      Register(sub);
      const Relation& table = tables_.at(sub);
      // Snapshot by size: the table can grow below us when the rule is
      // recursive, so iterate up to the current size (a row view stays
      // valid across those inserts); later rows are picked up by the
      // outer fixpoint rounds.
      std::size_t size = table.size();
      for (std::size_t i = 0; i < size; ++i) {
        const RowRef row = table.row(i);
        Binding extended = *binding;
        if (RowMatchesAtom(atom, row, &extended)) {
          EnumerateBody(rule, key, idx + 1, &extended);
        }
      }
      return;
    }

    // Extensional atom: probe the EDB through the index on the bound
    // columns.
    const Relation& rel = edb_.relation(atom.predicate());
    std::vector<int> bound_cols;
    Tuple probe;
    for (int i = 0; i < atom.arity(); ++i) {
      const Term& t = atom.args()[static_cast<std::size_t>(i)];
      if (t.is_constant()) {
        bound_cols.push_back(i);
        probe.push_back(t.value());
      } else {
        auto it = binding->find(t.var());
        if (it != binding->end()) {
          bound_cols.push_back(i);
          probe.push_back(it->second);
        }
      }
    }
    auto try_row = [&](RowRef row) {
      Binding extended = *binding;
      if (RowMatchesAtom(atom, row, &extended)) {
        EnumerateBody(rule, key, idx + 1, &extended);
      }
    };
    if (bound_cols.empty()) {
      for (RowRef row : rel.rows()) try_row(row);
    } else if (static_cast<int>(bound_cols.size()) == atom.arity()) {
      if (rel.Contains(probe)) try_row(probe);
    } else {
      for (std::uint32_t row_id : rel.Lookup(bound_cols, probe)) {
        try_row(rel.row(row_id));
      }
    }
  }

  const Program& program_;
  const Database& edb_;
  std::set<PredicateId> intentional_;
  TopDownStats* stats_;
  std::map<SubgoalKey, Relation> tables_;
  std::vector<SubgoalKey> order_;
  bool changed_ = false;
};

}  // namespace

Result<std::vector<Tuple>> SolveTopDown(const Program& program,
                                        const Database& edb, const Atom& query,
                                        TopDownStats* stats) {
  DATALOG_RETURN_IF_ERROR(ValidatePositiveProgram(program));
  if (query.arity() !=
      program.symbols()->PredicateArity(query.predicate())) {
    return Status::InvalidArgument("query arity mismatch");
  }
  TraceSpan span("eval/topdown");
  TopDownStats local;
  Solver solver(program, edb, &local);
  std::vector<Tuple> answers = solver.Solve(query);
  span.Note("subgoals", static_cast<std::uint64_t>(local.subgoals));
  span.Note("iterations", static_cast<std::uint64_t>(local.iterations));
  span.Note("answers", local.answers);
  RecordTopDownStats("topdown", local);
  if (stats != nullptr) {
    stats->subgoals += local.subgoals;
    stats->iterations += local.iterations;
    stats->answers += local.answers;
    stats->body_matches += local.body_matches;
  }
  return answers;
}

}  // namespace datalog
