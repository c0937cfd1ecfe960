#ifndef DATALOG_EVAL_DATABASE_H_
#define DATALOG_EVAL_DATABASE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ast/atom.h"
#include "ast/symbol_table.h"
#include "eval/relation.h"
#include "util/result.h"

namespace datalog {

/// A database: a relation per predicate, viewed as a single set of ground
/// atoms (Section III). The same type represents EDBs, IDBs, and their
/// union; nothing distinguishes extensional from intentional facts except
/// the program they are used with.
class Database {
 public:
  /// Creates an empty database over `symbols` (shared with the programs
  /// that will be evaluated against it).
  explicit Database(std::shared_ptr<SymbolTable> symbols)
      : symbols_(std::move(symbols)) {}

  const std::shared_ptr<SymbolTable>& symbols() const { return symbols_; }

  /// Adds the fact `pred(tuple)`; returns true if it is new.
  bool AddFact(PredicateId pred, Tuple tuple);

  /// Appends rows [begin, end) of `rel` as facts of `pred`, preserving
  /// their order; returns how many were new (Relation::AddRowRange).
  /// The copy stays in id space, and a whole relation copied into a
  /// still-empty one is a bulk column copy -- this is how UnionWith
  /// copies an EDB into a fresh database and how the parallel engine
  /// merges a task's derivations.
  std::size_t AddRowRange(PredicateId pred, const Relation& rel,
                          std::size_t begin, std::size_t end);

  /// The relation for `pred`, created (empty, at the arity the symbol
  /// table declares) if no fact was ever added. The returned reference
  /// is the live storage: engine fast paths hoist it out of their emit
  /// loops to insert many rows without re-finding the relation. Stable
  /// until the Database itself is destroyed or moved.
  Relation& MutableRelation(PredicateId pred);

  /// Adds a ground atom. Returns InvalidArgument when `atom` is not ground.
  Status AddAtom(const Atom& atom);

  /// Removes the facts `pred(t)` for every tuple of `tuples`; returns how
  /// many were present. Erasure rebuilds the relation's rows and drops its
  /// indexes (Relation::EraseAll), so it must not race any reader.
  std::size_t EraseFacts(PredicateId pred, const std::vector<Tuple>& tuples);

  /// Removes every fact of `pred`; returns how many there were.
  std::size_t ClearRelation(PredicateId pred);

  /// True if `pred(row)` is a fact; `row` may be a Tuple or a row view
  /// of any relation (the Tuple overload keeps braced lists working).
  bool Contains(PredicateId pred, RowRef row) const;
  bool Contains(PredicateId pred, const Tuple& tuple) const {
    return Contains(pred, RowRef(tuple));
  }

  /// The relation for `pred` (an empty relation if no fact was added).
  const Relation& relation(PredicateId pred) const;

  /// All predicates that currently have at least one tuple.
  std::vector<PredicateId> NonEmptyPredicates() const;

  /// Total number of ground atoms.
  std::size_t NumFacts() const;
  bool empty() const { return NumFacts() == 0; }

  /// Adds every fact of `other`; returns the number of new facts.
  std::size_t UnionWith(const Database& other);

  /// True if every fact of this database is in `other`.
  bool IsSubsetOf(const Database& other) const;

  /// Set equality of the ground-atom sets.
  friend bool operator==(const Database& a, const Database& b) {
    return a.NumFacts() == b.NumFacts() && a.IsSubsetOf(b);
  }
  friend bool operator!=(const Database& a, const Database& b) {
    return !(a == b);
  }

  /// Renders all facts, sorted, one per line (for tests and debugging).
  std::string ToString() const;

 private:
  std::shared_ptr<SymbolTable> symbols_;
  std::unordered_map<PredicateId, Relation> relations_;
};

/// Parses a fact list ("A(1,2). A(2,3).") into a database. The facts go
/// straight into id rows: once the whole text has parsed, their values
/// are interned in text order and each run of consecutive facts of one
/// predicate is one batch insert. A text that fails to parse interns no
/// value into the ValueDictionary.
Result<Database> ParseDatabase(std::shared_ptr<SymbolTable> symbols,
                               std::string_view text);

}  // namespace datalog

#endif  // DATALOG_EVAL_DATABASE_H_
