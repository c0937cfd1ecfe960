#include "eval/stratified.h"

#include <set>

#include "ast/dependence_graph.h"
#include "ast/validate.h"
#include "eval/seminaive.h"
#include "obs/stats_export.h"
#include "obs/trace.h"

namespace datalog {

Result<EvalStats> EvaluateStratified(const Program& program, Database* db) {
  DATALOG_RETURN_IF_ERROR(ValidateProgram(program));
  DependenceGraph graph(program);
  DATALOG_ASSIGN_OR_RETURN(std::vector<std::vector<PredicateId>> strata,
                           graph.Stratify());

  TraceSpan span("eval/stratified");
  std::vector<RuleGroup> groups;
  for (std::size_t si = 0; si < strata.size(); ++si) {
    const std::set<PredicateId> preds(strata[si].begin(), strata[si].end());
    RuleGroup group{si, {}};
    for (std::size_t i = 0; i < program.NumRules(); ++i) {
      if (preds.contains(program.rules()[i].head().predicate())) {
        group.rules.push_back(i);
      }
    }
    if (!group.rules.empty()) groups.push_back(std::move(group));
  }
  const EvalStats total = RunRuleGroups(
      program, groups, "stratified/stratum", "stratum",
      [db](const std::vector<Rule>& rules) {
        return RunSemiNaiveFixpoint(rules, db);
      });
  span.Note("iterations", static_cast<std::uint64_t>(total.iterations));
  span.Note("facts", total.facts_derived);
  RecordEvalStats("stratified", total);
  return total;
}

}  // namespace datalog
