#include "eval/naive.h"

#include "ast/validate.h"
#include "eval/compiled_rule.h"
#include "obs/metrics.h"
#include "obs/stats_export.h"
#include "obs/trace.h"

namespace datalog {

Result<EvalStats> EvaluateNaive(const Program& program, Database* db) {
  DATALOG_RETURN_IF_ERROR(ValidatePositiveProgram(program));
  TraceSpan span("eval/naive");
  EvalStats stats;
  stats.per_rule.resize(program.NumRules());
  // Plans persist across naive rounds; only cardinality drift replans.
  CompiledRuleCache cache;
  const PhaseSinks sinks = stats.Sinks(MetricsRegistry::Get().enabled());
  bool changed = true;
  while (changed) {
    changed = false;
    ++stats.iterations;
    TraceSpan round_span("naive/round");
    round_span.Note("round", static_cast<std::uint64_t>(stats.iterations));
    const std::uint64_t facts_before_round = stats.facts_derived;
    for (std::size_t ri = 0; ri < program.NumRules(); ++ri) {
      const Rule& rule = program.rules()[ri];
      ++stats.rule_applications;
      ++stats.per_rule[ri].applications;
      TraceSpan apply_span("naive/apply");
      MatchStats local;
      std::size_t added =
          ApplyRule(rule, *db, db, &local, &cache, ri, sinks);
      stats.match.Add(local);
      stats.facts_derived += added;
      stats.per_rule[ri].facts += added;
      stats.per_rule[ri].substitutions += local.substitutions;
      if (apply_span.active()) {
        apply_span.Note("rule", ri);
        apply_span.Note("facts", added);
        apply_span.Note("substitutions", local.substitutions);
      }
      if (added > 0) changed = true;
    }
    round_span.Note("facts", stats.facts_derived - facts_before_round);
  }
  span.Note("iterations", static_cast<std::uint64_t>(stats.iterations));
  span.Note("facts", stats.facts_derived);
  RecordEvalStats("naive", stats);
  return stats;
}

Result<std::size_t> ApplyOnce(const Program& program, const Database& db,
                              Database* out, EvalStats* stats) {
  DATALOG_RETURN_IF_ERROR(ValidateProgram(program));
  std::size_t added = 0;
  for (const Rule& rule : program.rules()) {
    if (stats != nullptr) ++stats->rule_applications;
    added += ApplyRule(rule, db, out,
                       stats != nullptr ? &stats->match : nullptr);
  }
  if (stats != nullptr) stats->facts_derived += added;
  return added;
}

}  // namespace datalog
