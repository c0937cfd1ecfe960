#ifndef DATALOG_INCR_MATERIALIZED_VIEW_H_
#define DATALOG_INCR_MATERIALIZED_VIEW_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ast/program.h"
#include "eval/database.h"
#include "eval/eval_stats.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace datalog {

/// Work and effect counters for one committed transaction. The match /
/// recompute counters are the incremental engine's analogue of EvalStats:
/// together they bound the rule-matching work a commit did, which is what
/// bench_incr compares against a from-scratch re-evaluation.
struct CommitStats {
  std::uint64_t base_inserted = 0;   // EDB facts added to the base
  std::uint64_t base_retracted = 0;  // EDB facts removed from the base
  std::uint64_t derived_added = 0;   // net facts added to the view
  std::uint64_t derived_removed = 0;  // net facts removed from the view
  std::uint64_t overdeleted = 0;     // DRed: facts provisionally deleted
  std::uint64_t rederived = 0;       // DRed: overdeleted facts that survived
  std::uint64_t rule_applications = 0;  // incremental (rule, delta-pos) passes
  int sccs_touched = 0;     // SCCs whose update logic ran
  int sccs_recomputed = 0;  // SCCs that fell back to full recomputation
  MatchStats match;         // join work of the counting/DRed passes
  EvalStats recompute;      // work of recompute fallbacks + DRed re-insertion

  /// Total complete body matches found, across incremental passes and
  /// recompute fallbacks -- the "number of joins" proxy used everywhere
  /// else in this library.
  std::uint64_t TotalSubstitutions() const {
    return match.substitutions + recompute.match.substitutions;
  }
  std::uint64_t TotalTuplesScanned() const {
    return match.tuples_scanned + recompute.match.tuples_scanned;
  }

  void Add(const CommitStats& other);

  /// One-line human-readable summary (the CLI prints this per commit).
  std::string ToString() const;
};

/// Tuning knobs for a materialized view.
struct IncrOptions {
  /// Total parallelism for the DRed rederivation sweeps and recompute
  /// fallbacks: 1 (default) is fully sequential, 0 means
  /// std::thread::hardware_concurrency(). The maintained database is
  /// identical at any thread count.
  std::size_t num_threads = 1;
};

class Transaction;

/// A materialized Datalog fixpoint kept up to date under batches of fact
/// insertions and retractions without from-scratch re-evaluation.
///
/// The program's predicates are split into dependence-graph SCCs,
/// processed in topological order per commit, and each SCC is maintained
/// by the cheapest sound algorithm for its shape:
///   - nonrecursive, negation-free SCCs keep an exact support count per
///     fact (the counting algorithm);
///   - recursive, negation-free SCCs run Delete/Rederive (DRed):
///     overdelete via semi-naive delta passes, rederive survivors, then
///     continue the fixpoint for insertions;
///   - SCCs with negation fall back to recomputing just that SCC, which
///     is always sound for stratified programs.
/// See docs/incremental_eval.md for the algorithms and the soundness
/// argument.
///
/// Not thread-safe: commits and reads must be externally serialized.
class MaterializedView {
 public:
  /// Validates and stratifies `program`, materializes its fixpoint over
  /// `edb`, and returns the live view. The program and database must
  /// share a symbol table.
  static Result<MaterializedView> Create(Program program, Database edb,
                                         IncrOptions options = {});

  /// The materialized fixpoint: base facts plus everything derivable.
  const Database& db() const { return db_; }

  /// The extensional base: exactly the facts asserted (initially the edb,
  /// then as modified by committed transactions). A base fact may also be
  /// derivable; retracting it then leaves it in the view.
  const Database& base() const { return base_; }

  const Program& program() const { return program_; }
  const std::shared_ptr<SymbolTable>& symbols() const { return symbols_; }

  /// Stats of the initial from-scratch materialization.
  const EvalStats& initial_stats() const { return initial_stats_; }

  /// Starts a transaction. At most one may be active at a time; the view
  /// must outlive it.
  Transaction Begin();

  /// Applies a batch of base-fact changes and incrementally repairs the
  /// view. Each (predicate, tuple) must appear in at most one of the two
  /// lists. Prefer the Transaction API, which nets conflicting ops.
  Result<CommitStats> Apply(
      const std::vector<std::pair<PredicateId, Tuple>>& inserts,
      const std::vector<std::pair<PredicateId, Tuple>>& retracts);

 private:
  enum class SccKind { kCounting, kDRed, kRecompute };
  struct SccPlan {
    std::vector<PredicateId> preds;  // head predicates of this SCC
    std::vector<Rule> rules;         // rules whose head lies in this SCC
    SccKind kind;
  };
  using FactCounts = std::unordered_map<Tuple, std::int64_t, TupleHash>;

  MaterializedView(Program program, Database edb, IncrOptions options);

  Status Initialize();
  void InitializeCounts(const SccPlan& plan);

  bool PlanTouched(const SccPlan& plan, const Database& base_plus,
                   const Database& base_minus) const;
  void UpdateExtensional(const Database& base_plus, const Database& base_minus,
                         CommitStats* stats);
  void UpdateCounting(const SccPlan& plan, const Database& base_plus,
                      const Database& base_minus, CommitStats* stats);
  void UpdateDRed(const SccPlan& plan, const Database& base_plus,
                  const Database& base_minus, CommitStats* stats);
  void UpdateRecompute(const SccPlan& plan, CommitStats* stats);

  /// True if `fact` persists independently of any derivation: it is an
  /// asserted base fact or a program fact.
  bool IsPinned(PredicateId pred, const Tuple& fact) const;

  /// Records a net view change for downstream SCCs: an add cancels a
  /// pending remove of the same fact (and vice versa), keeping
  /// delta_plus_/delta_minus_ disjoint and proper.
  void RecordAdd(PredicateId pred, const Tuple& fact);
  void RecordRemove(PredicateId pred, const Tuple& fact);

  bool InScc(const SccPlan& plan, PredicateId pred) const;

  Program program_;
  std::shared_ptr<SymbolTable> symbols_;
  Database base_;           // asserted EDB facts
  Database program_facts_;  // facts contributed by the program's own rules
  Database db_;             // the materialized fixpoint
  std::vector<SccPlan> plans_;  // topological order (dependencies first)
  std::unordered_map<PredicateId, FactCounts> counts_;  // counting SCCs only
  EvalStats initial_stats_;
  std::unique_ptr<ThreadPool> pool_;  // null when num_threads == 1

  // Per-commit scratch: the net view deltas accumulated so far, consumed
  // by later SCCs' passes. Reset by Apply.
  Database delta_plus_;
  Database delta_minus_;
};

/// A batch of pending base-fact changes against a MaterializedView.
/// Operations are buffered; Commit() nets them (the last operation on a
/// fact wins) and applies the batch atomically to the view. Abort()
/// discards them. A transaction is single-use.
class Transaction {
 public:
  /// Buffers an insertion. Fails on arity mismatch (tuple form) or a
  /// non-ground atom (atom form); the transaction stays usable.
  Status Insert(PredicateId pred, Tuple tuple);
  Status Insert(const Atom& fact);

  /// Buffers a retraction of a base fact. Retracting an absent fact is a
  /// no-op at commit time.
  Status Retract(PredicateId pred, Tuple tuple);
  Status Retract(const Atom& fact);

  /// Applies the buffered batch to the view and returns the commit's
  /// stats. The transaction becomes inactive.
  Result<CommitStats> Commit();

  /// Discards the buffered batch; the view is untouched.
  void Abort();

  bool active() const { return active_; }
  std::size_t NumPendingOps() const { return ops_.size(); }

 private:
  friend class MaterializedView;
  explicit Transaction(MaterializedView* view) : view_(view) {}

  struct Op {
    bool insert;
    PredicateId pred;
    Tuple tuple;
  };

  Status Buffer(bool insert, PredicateId pred, Tuple tuple);
  Status Buffer(bool insert, const Atom& fact);

  MaterializedView* view_;
  std::vector<Op> ops_;
  bool active_ = true;
};

}  // namespace datalog

#endif  // DATALOG_INCR_MATERIALIZED_VIEW_H_
