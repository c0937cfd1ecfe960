#ifndef DATALOG_EVAL_SEMINAIVE_H_
#define DATALOG_EVAL_SEMINAIVE_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "ast/program.h"
#include "eval/database.h"
#include "eval/eval_stats.h"
#include "eval/rule_matcher.h"
#include "util/result.h"

namespace datalog {

class DependenceGraph;

/// Snapshot of per-predicate row counts. Relations are append-only, so the
/// facts discovered during a round are exactly the rows past the snapshot.
/// Shared by the sequential and parallel semi-naive engines and the
/// incremental view's insertion loop.
using Watermarks = std::unordered_map<PredicateId, std::size_t>;

Watermarks TakeWatermarks(const Database& db);

/// The next round's ranges after a round that started at `marks`: each
/// predicate's delta is the rows `db` gained since (rows [mark, size) of
/// the full relation, read in place) and its old snapshot the rows
/// before them.
DeltaRanges RangesSince(const Database& db, const Watermarks& marks,
                        bool use_old);

/// Computes P(db) by semi-naive bottom-up iteration: each round only
/// considers rule instantiations that use at least one fact discovered in
/// the previous round. Produces exactly the same database as EvaluateNaive
/// but with far fewer redundant joins; this is the engine the optimization
/// benchmarks run on.
///
/// The program must be positive and safe; use EvaluateStratified for
/// programs with negation.
Result<EvalStats> EvaluateSemiNaive(const Program& program, Database* db);

/// Runs the semi-naive fixpoint over an explicit rule list without
/// validation. Negated literals are tested against the current database,
/// so the caller must guarantee that the negated predicates are already
/// fully computed (EvaluateStratified runs this stratum by stratum).
EvalStats RunSemiNaiveFixpoint(const std::vector<Rule>& rules, Database* db);

/// Like EvaluateSemiNaive, but evaluates the program one dependence-graph
/// SCC at a time in topological order: rules whose heads lie in earlier
/// components reach their fixpoint before later components start, so
/// their delta passes never re-run. Computes exactly the same database;
/// on programs with several strata of intentional predicates it does
/// strictly less bookkeeping (see bench_engine).
Result<EvalStats> EvaluateSemiNaiveScc(const Program& program, Database* db);

/// One group of rules that a grouped evaluation runs to its own
/// fixpoint: the program indexes of its rules, in program order, and the
/// number its trace span notes (an SCC index, or a stratum).
struct RuleGroup {
  std::uint64_t label = 0;
  std::vector<std::size_t> rules;
};

/// The program's rules grouped by the dependence-graph SCC of their head
/// predicate, dependencies first. Tarjan assigns SMALLER indices to
/// successor components (for a cross edge u -> v, scc[v] < scc[u]), so
/// the groups come in DESCENDING index order.
std::vector<RuleGroup> SccRuleGroups(const Program& program,
                                     const DependenceGraph& graph);

/// Runs `fixpoint` over each group's rules in order and sums the stats,
/// each group's per_rule rows moved to their program indexes. Each group
/// runs inside a span named `span_name` that notes `label_note` (the
/// group's label), "rules" and "facts".
EvalStats RunRuleGroups(
    const Program& program, const std::vector<RuleGroup>& groups,
    const char* span_name, const char* label_note,
    const std::function<EvalStats(const std::vector<Rule>&)>& fixpoint);

}  // namespace datalog

#endif  // DATALOG_EVAL_SEMINAIVE_H_
