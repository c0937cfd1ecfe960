#ifndef DATALOG_EVAL_RULE_MATCHER_H_
#define DATALOG_EVAL_RULE_MATCHER_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "ast/rule.h"
#include "eval/database.h"
#include "eval/relation.h"

namespace datalog {

/// Counters describing the work done while matching rule bodies. The
/// number of substitutions found is the library's proxy for "number of
/// joins", the cost the paper's optimization reduces.
struct MatchStats {
  std::uint64_t substitutions = 0;   // complete body matches found
  std::uint64_t index_lookups = 0;   // per-atom index probes / scans
  std::uint64_t tuples_scanned = 0;  // candidate tuples inspected

  void Add(const MatchStats& other) {
    substitutions += other.substitutions;
    index_lookups += other.index_lookups;
    tuples_scanned += other.tuples_scanned;
  }
};

/// Which rows of which relation a body atom is matched against during
/// semi-naive evaluation: the full relation, the last round's delta, or
/// the "old" prefix of the full relation (rows that existed before the
/// delta was born). Relations are append-only, so all three are row
/// ranges of the full relation; DeltaRanges says where they lie.
enum class AtomSource { kFull, kDelta, kOld };

/// The old and delta row ranges of one semi-naive rule application, per
/// predicate: kOld reads rows [0, old) of the full relation and kDelta
/// reads rows [begin, end) of the delta relation -- the full relation
/// itself, so a round reads the facts it found last round in place,
/// unless the ranges were made by Whole over a separate delta database
/// (the incremental view's passes, whose deltas need not be row
/// suffixes of the view). Predicates never set have no old and no delta
/// rows. Cheap to copy: the parallel engine hands each shard of a
/// delta range its own copy.
class DeltaRanges {
 public:
  /// `use_old` selects the classic old/delta/full split: body atoms
  /// before the delta position read the old snapshot. Without it they
  /// read the full relation, and no old limit is consulted.
  explicit DeltaRanges(bool use_old) : use_old_(use_old) {}

  /// Reads every predicate's delta as all rows of its relation in
  /// `delta`, which must outlive the ranges.
  static DeltaRanges Whole(const Database& delta, bool use_old);

  void SetOld(PredicateId pred, std::size_t old) { At(pred).old = old; }
  void SetDelta(PredicateId pred, RowSpan rows) { At(pred).delta = rows; }

  bool use_old() const { return use_old_; }
  std::size_t old(PredicateId pred) const { return Get(pred).old; }
  RowSpan delta(PredicateId pred) const { return Get(pred).delta; }
  /// True when no predicate has delta rows.
  bool empty() const;

  /// The relation `pred`'s delta range reads.
  const Relation& DeltaRelation(const Database& full,
                                PredicateId pred) const {
    return (delta_db_ != nullptr ? *delta_db_ : full).relation(pred);
  }

 private:
  struct Entry {
    std::size_t old = 0;
    RowSpan delta;
  };
  Entry& At(PredicateId pred) {
    const auto i = static_cast<std::size_t>(pred);
    if (i >= entries_.size()) entries_.resize(i + 1);
    return entries_[i];
  }
  Entry Get(PredicateId pred) const {
    const auto i = static_cast<std::size_t>(pred);
    return i < entries_.size() ? entries_[i] : Entry{};
  }

  bool use_old_;
  const Database* delta_db_ = nullptr;  // null: the full database
  std::vector<Entry> entries_;          // indexed by PredicateId
};

/// The relation an atom of `pred` read from `source` sees, and the rows
/// of it the atom matches. `ranges` may be null when no atom reads kDelta
/// or kOld (kDelta then reads nothing, and kOld has no old rows).
struct AtomRows {
  const Relation* rel;
  RowSpan rows;
};
AtomRows ResolveAtomRows(const Database& full, const DeltaRanges* ranges,
                         AtomSource source, PredicateId pred);

/// The relation size the join planner and the >= 4x replan check weigh
/// an atom by: its delta range for kDelta, the full relation otherwise
/// (an old snapshot is sized like the relation it is a prefix of).
std::size_t PlanningSize(const Database& full, const DeltaRanges* ranges,
                         AtomSource source, PredicateId pred);

/// Where a rule application adds the wall time of its phases: planning
/// (CompiledRuleCache::Get, including the >= 4x replan), the VM's
/// preparation (step sources, index views, multiway root lists),
/// deriving head rows (probe, enumerate, head emit), and inserting them.
/// A null sink skips its clock reads; the engines fill the sinks only
/// while the MetricsRegistry is enabled (see EvalStats).
struct PhaseSinks {
  std::uint64_t* plan_ns = nullptr;
  std::uint64_t* index_ns = nullptr;
  std::uint64_t* derive_ns = nullptr;
  std::uint64_t* insert_ns = nullptr;
};

/// A body atom together with its source. An atom may also carry a
/// `minus` and a `plus` database: it then reads its source's rows that
/// are not in minus, then every row plus holds for its predicate.
/// The incremental view reads a predicate's state before or after a
/// commit this way without copying relations (docs/incremental_eval.md);
/// two atoms of one predicate may carry different parts. `plus` must be
/// disjoint from the rest, so that each tuple is read once. Only
/// CompiledRule::CompileAtoms plans carry parts, and those are never
/// lowered to bytecode.
struct PlannedAtom {
  Atom atom;
  AtomSource source = AtomSource::kFull;
  const Database* minus = nullptr;  // may be null
  const Database* plus = nullptr;   // may be null
};

/// A substitution from variables to constants, built up during matching
/// (the instantiation of Section III).
using Binding = std::unordered_map<VariableId, Value>;

/// Process-wide ablation switches used by bench_ablation to quantify
/// engine design choices. Not thread-safe; intended for benchmarks only.
/// When greedy join ordering is off, body atoms are matched in their
/// given (textual) order. When index lookups are off, every atom match
/// scans the whole relation and filters. Both are neutral on results
/// and on the substitution count, not on the probe/scan counters.
///
/// SetMultiwayJoins gates the second compiled plan shape: the generic
/// worst-case-optimal multiway intersection that CompiledRule selects
/// for cyclic bodies of estimated width >= 2 (see eval/hypergraph.h and
/// docs/multiway_joins.md). Disabling it pins every plan to the greedy
/// left-deep shape. Multiway plans also require index lookups: with
/// SetIndexLookups(false) the planner falls back to left-deep, keeping
/// that knob a true ablation axis. Neutral on results; the substitution
/// count may only fall (a first-witness exit, see
/// docs/multiway_joins.md), and the probe/scan counters measure the
/// work the shape saves.
void SetGreedyJoinOrdering(bool enabled);
bool GreedyJoinOrderingEnabled();
void SetIndexLookups(bool enabled);
bool IndexLookupsEnabled();
void SetMultiwayJoins(bool enabled);
bool MultiwayJoinsEnabled();

/// Join-order hints produced by the analyzer's binding pass (see
/// src/analysis/binding_pass.cc): for a body whose predicate-id sequence
/// hashes to the key, the preferred visit order as a permutation of
/// positions into the planned atom list. Keying by body fingerprint
/// rather than rule index lets one hint table serve every engine and
/// every (delta position, use_old) variant of a rule; two rules with the
/// same predicate sequence share a hint, which is harmless because the
/// hint was derived from that sequence alone.
struct JoinOrderHints {
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> order;

  bool empty() const { return order.empty(); }
};

/// The fingerprint `JoinOrderHints` keys on: a hash of the sequence of
/// predicate ids of `atoms` (sources and argument patterns excluded).
std::uint64_t BodyFingerprint(const std::vector<PlannedAtom>& atoms);

/// Installs (or, with nullptr, clears) the process-wide hint table
/// consulted by PlanJoinOrder. The pointed-to table must outlive the
/// installation; like the other knobs above this is not thread-safe and
/// intended for benchmarks and the CLI's --hints path. A malformed hint
/// (wrong length, not a permutation) is ignored and the greedy planner
/// runs as usual, so hints can never change results -- only join order.
void SetJoinOrderHints(const JoinOrderHints* hints);
const JoinOrderHints* InstalledJoinOrderHints();
/// Bumped on every SetJoinOrderHints call; compiled plans snapshot it so
/// CompiledRule::NeedsReplan notices a hint change (see
/// eval/compiled_rule.h).
std::uint64_t JoinOrderHintsVersion();

class CompiledRuleCache;  // eval/compiled_rule.h

/// Enumerates every binding that instantiates all `atoms` to facts of the
/// indicated sources (minus and plus parts included). Atoms are matched
/// in a greedily chosen order (most-bound / smallest-relation first) by
/// CompiledRule::Execute, and a Binding is materialized per complete
/// match. The callback returns false to stop the enumeration early.
///
/// `ranges` may be null when no atom uses AtomSource::kDelta or kOld.
void MatchAtoms(const Database& full, const DeltaRanges* ranges,
                const std::vector<PlannedAtom>& atoms,
                const std::function<bool(const Binding&)>& callback,
                MatchStats* stats);

/// The body-atom list a semi-naive delta pass matches: the positive
/// literals of `rule` with the literal at `delta_pos` sourced from the
/// delta, earlier positive literals from the old snapshot (when `use_old`)
/// and the rest from the full database. A `delta_pos` past the body (e.g.
/// npos) yields the all-kFull plan that ApplyRule uses.
std::vector<PlannedAtom> BuildDeltaPassAtoms(const Rule& rule,
                                             std::size_t delta_pos,
                                             bool use_old);

/// False when delta pass `delta_pos` of `rule` over `ranges` cannot
/// derive anything because some positive body atom reads an empty row
/// range, sourced as BuildDeltaPassAtoms sources it (negated literals
/// only filter, so they are ignored). In a fixpoint's first round nothing
/// is old, so every pass whose delta position follows another positive
/// atom is such a pass. The engines skip these passes before fetching a
/// plan, and do not count them as rule applications.
bool DeltaPassReadsRows(const Rule& rule, const Database& full,
                        const DeltaRanges& ranges, std::size_t delta_pos);

/// The join order the matcher will use for `atoms`, given that the
/// variables of `bound` are bound before the first atom: greedy
/// most-bound / smallest-relation first (sized by PlanningSize), or the
/// given order when greedy planning is disabled. Deterministic given the
/// relation sizes, which is what lets the parallel evaluator pre-build
/// exactly the indexes a pass will probe before fanning out (see
/// docs/parallel_eval.md).
std::vector<PlannedAtom> PlanJoinOrder(
    const Database& full, const DeltaRanges* ranges,
    const std::vector<PlannedAtom>& atoms,
    const std::vector<VariableId>& bound = {});

/// Instantiates `atom` under `binding`; every variable must be bound.
Tuple InstantiateHead(const Atom& atom, const Binding& binding);

/// Applies `rule` once, non-recursively, against `full` (Section IX's
/// P^n-style single application): enumerates body matches (negated
/// literals are tested against `full` after the positive part is bound)
/// and inserts head facts into `out`. Returns the number of facts that
/// were new in `out`. `out` may alias `full`'s storage only if the caller
/// accepts immediate visibility of new facts (naive evaluation does).
///
/// With a non-null `cache`, the compiled plan for (`rule_index`,
/// delta position, use_old) is fetched from it -- compiled on first use,
/// replanned only when a participating relation's cardinality drifts --
/// instead of being rebuilt per call. `rule_index` must identify `rule`
/// stably for the cache's lifetime. A null cache compiles transiently.
/// `sinks` receive the wall time of the application's phases.
std::size_t ApplyRule(const Rule& rule, const Database& full, Database* out,
                      MatchStats* stats, CompiledRuleCache* cache = nullptr,
                      std::size_t rule_index = 0,
                      const PhaseSinks& sinks = {});

/// Semi-naive variant: like ApplyRule but the body atom at position
/// `delta_pos` (an index into rule.body(), which must be positive there)
/// is matched against its predicate's delta range in `ranges`. When
/// ranges.use_old(), positive positions BEFORE delta_pos are matched
/// against the old snapshot only (the classic old/delta/full scheme,
/// which covers every derivation that uses a delta fact exactly once
/// instead of once per delta position); otherwise those positions read
/// the full relation. Head facts go to `out`, the relation of the rule's
/// head predicate (which may belong to `full`: derived rows are inserted
/// only after the enumeration finishes).
std::size_t ApplyRuleWithDelta(const Rule& rule, const Database& full,
                               const DeltaRanges& ranges,
                               std::size_t delta_pos, Relation* out,
                               MatchStats* stats,
                               CompiledRuleCache* cache = nullptr,
                               std::size_t rule_index = 0,
                               const PhaseSinks& sinks = {});

}  // namespace datalog

#endif  // DATALOG_EVAL_RULE_MATCHER_H_
