#ifndef DATALOG_EVAL_RULE_MATCHER_H_
#define DATALOG_EVAL_RULE_MATCHER_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "ast/rule.h"
#include "eval/database.h"

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

/// Which database a body atom is matched against during semi-naive
/// evaluation: the full database, the last round's delta, or the "old"
/// prefix of the full database (rows that existed before the delta was
/// born -- expressible as a per-predicate row-count bound because
/// relations are append-only).
enum class AtomSource { kFull, kDelta, kOld };

/// Per-predicate row-count bounds defining the "old" snapshot; predicates
/// absent from the map have no old rows.
using OldLimits = std::unordered_map<PredicateId, std::size_t>;

/// A body atom together with its source.
struct PlannedAtom {
  Atom atom;
  AtomSource source = AtomSource::kFull;
};

/// A substitution from variables to constants, built up during matching
/// (the instantiation of Section III).
using Binding = std::unordered_map<VariableId, Value>;

/// Process-wide ablation switches used by bench_ablation to quantify
/// engine design choices. Not thread-safe; intended for benchmarks only.
/// When greedy join ordering is off, body atoms are matched in their
/// given (textual) order. When index lookups are off, every atom match
/// scans the whole relation and filters. When compiled rule plans are
/// off, matching falls back to the legacy row-at-a-time Matcher instead
/// of the slot-addressed compiled path (see eval/compiled_rule.h). A
/// fourth knob of the same family, SetColumnarStorage in
/// eval/relation.h, selects the relation storage backend and thereby
/// whether compiled Apply takes the vectorized batch-probe path; all
/// four knobs are bit-for-bit neutral on results and MatchStats.
///
/// SetMultiwayJoins gates the second compiled plan shape: the generic
/// worst-case-optimal multiway intersection that CompiledRule selects
/// for cyclic bodies of estimated width >= 2 (see eval/hypergraph.h and
/// docs/multiway_joins.md). Disabling it pins every plan to the greedy
/// left-deep shape. Multiway plans also require index lookups: with
/// SetIndexLookups(false) the planner falls back to left-deep, keeping
/// that knob a true ablation axis. Neutral on results and on the
/// substitution count, but -- unlike the other knobs -- not on the
/// probe/scan counters, which measure the work the shape saves.
void SetGreedyJoinOrdering(bool enabled);
bool GreedyJoinOrderingEnabled();
void SetIndexLookups(bool enabled);
bool IndexLookupsEnabled();
void SetCompiledRulePlans(bool enabled);
bool CompiledRulePlansEnabled();
void SetMultiwayJoins(bool enabled);
bool MultiwayJoinsEnabled();

/// SetBytecodeExecution selects how compiled plans execute: lowered to
/// the register-based bytecode run by the computed-goto VM (default; see
/// eval/bytecode/bytecode.h and docs/bytecode_vm.md), or the struct
/// interpreters ApplyBatch/ApplyMultiway. Checked per Apply, not
/// snapshotted into the plan, so flipping it never triggers a replan and
/// replanning semantics (cardinality drift, hint-version bumps) are
/// unchanged. Bit-for-bit neutral on results, MatchStats, and frontier
/// emission order.
void SetBytecodeExecution(bool enabled);
bool BytecodeExecutionEnabled();

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
/// indicated sources. Atoms are matched in a greedily chosen order
/// (most-bound / smallest-relation first). The callback returns false to
/// stop the enumeration early.
///
/// `delta` may be null when no atom uses AtomSource::kDelta.
void MatchAtoms(const Database& full, const Database* delta,
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

/// The join order the matcher will use for `atoms`: greedy most-bound /
/// smallest-relation first, or the given order when greedy planning is
/// disabled. Deterministic given the relation sizes, which is what lets
/// the parallel evaluator pre-build exactly the indexes a pass will probe
/// before fanning out (see docs/parallel_eval.md).
std::vector<PlannedAtom> PlanJoinOrder(const Database& full,
                                       const Database* delta,
                                       const std::vector<PlannedAtom>& atoms);

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
/// A non-null `insert_ns` accumulates the wall time of inserting the
/// derived facts into `out` (see EvalStats::insert_ns).
std::size_t ApplyRule(const Rule& rule, const Database& full, Database* out,
                      MatchStats* stats, CompiledRuleCache* cache = nullptr,
                      std::size_t rule_index = 0,
                      std::uint64_t* insert_ns = nullptr);

/// Semi-naive variant: like ApplyRule but the body atom at position
/// `delta_pos` (an index into rule.body(), which must be positive there)
/// is matched against `delta` instead of `full`. When `old_limits` is
/// non-null, positive positions BEFORE delta_pos are matched against the
/// old snapshot only (the classic old/delta/full scheme, which covers
/// every derivation that uses a delta fact exactly once instead of once
/// per delta position); with a null `old_limits` those positions fall
/// back to the full database.
std::size_t ApplyRuleWithDelta(const Rule& rule, const Database& full,
                               const Database& delta, std::size_t delta_pos,
                               Database* out, MatchStats* stats,
                               const OldLimits* old_limits = nullptr,
                               CompiledRuleCache* cache = nullptr,
                               std::size_t rule_index = 0,
                               std::uint64_t* insert_ns = nullptr);

}  // namespace datalog

#endif  // DATALOG_EVAL_RULE_MATCHER_H_
