#include "obs/stats_export.h"

#include <string>

#include "incr/materialized_view.h"
#include "obs/metrics.h"
#include "util/block_cache.h"

namespace datalog {

void RecordEvalStats(std::string_view engine, const EvalStats& stats) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  if (!registry.enabled()) return;
  const MetricLabels labels = {{"engine", std::string(engine)}};
  registry.Add("eval.iterations", labels,
               static_cast<std::uint64_t>(stats.iterations));
  registry.Add("eval.facts_derived", labels, stats.facts_derived);
  registry.Add("eval.rule_applications", labels, stats.rule_applications);
  registry.Add("eval.substitutions", labels, stats.match.substitutions);
  registry.Add("eval.index_lookups", labels, stats.match.index_lookups);
  registry.Add("eval.tuples_scanned", labels, stats.match.tuples_scanned);
  registry.Add("eval.plan_ns", labels, stats.plan_ns);
  registry.Add("eval.index_ns", labels, stats.index_ns);
  registry.Add("eval.derive_ns", labels, stats.derive_ns);
  registry.Add("eval.insert_ns", labels, stats.insert_ns);
  if (stats.parallel_rounds != 0 || stats.parallel_tasks != 0) {
    registry.Add("eval.parallel_rounds", labels, stats.parallel_rounds);
    registry.Add("eval.parallel_tasks", labels, stats.parallel_tasks);
    registry.Add("eval.index_build_ns", labels, stats.index_build_ns);
    registry.Add("eval.parallel_match_ns", labels, stats.parallel_match_ns);
    registry.Add("eval.merge_ns", labels, stats.merge_ns);
  }
  for (std::size_t i = 0; i < stats.per_rule.size(); ++i) {
    const RuleStats& rule = stats.per_rule[i];
    if (rule.applications == 0 && rule.facts == 0 &&
        rule.substitutions == 0) {
      continue;  // keep the export focused on rules that did work
    }
    const MetricLabels rule_labels = {{"engine", std::string(engine)},
                                      {"rule", std::to_string(i)}};
    registry.Add("eval.rule.applications", rule_labels, rule.applications);
    registry.Add("eval.rule.facts", rule_labels, rule.facts);
    registry.Add("eval.rule.substitutions", rule_labels, rule.substitutions);
  }
  // Gauges of the process's history, not of this evaluation.
  const BlockCache::Stats cache = BlockCache::Global().stats();
  registry.Set("storage.cache.retained_bytes", {}, cache.retained_bytes);
  registry.Set("storage.cache.peak_bytes", {}, cache.peak_bytes);
  registry.Set("storage.cache.hits", {}, cache.hits);
  registry.Set("storage.cache.misses", {}, cache.misses);
}

void RecordTopDownStats(std::string_view engine, const TopDownStats& stats) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  if (!registry.enabled()) return;
  const MetricLabels labels = {{"engine", std::string(engine)}};
  registry.Add("topdown.subgoals", labels,
               static_cast<std::uint64_t>(stats.subgoals));
  registry.Add("topdown.iterations", labels,
               static_cast<std::uint64_t>(stats.iterations));
  registry.Add("topdown.answers", labels, stats.answers);
  registry.Add("topdown.body_matches", labels, stats.body_matches);
}

void RecordCommitStats(std::string_view engine, const CommitStats& stats) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  if (!registry.enabled()) return;
  const MetricLabels labels = {{"engine", std::string(engine)}};
  registry.Add("incr.base_inserted", labels, stats.base_inserted);
  registry.Add("incr.base_retracted", labels, stats.base_retracted);
  registry.Add("incr.derived_added", labels, stats.derived_added);
  registry.Add("incr.derived_removed", labels, stats.derived_removed);
  registry.Add("incr.overdeleted", labels, stats.overdeleted);
  registry.Add("incr.rederived", labels, stats.rederived);
  registry.Add("incr.rule_applications", labels, stats.rule_applications);
  registry.Add("incr.sccs_touched", labels,
               static_cast<std::uint64_t>(stats.sccs_touched));
  registry.Add("incr.sccs_recomputed", labels,
               static_cast<std::uint64_t>(stats.sccs_recomputed));
  registry.Add("incr.substitutions", labels, stats.match.substitutions);
  registry.Add("incr.index_lookups", labels, stats.match.index_lookups);
  registry.Add("incr.tuples_scanned", labels, stats.match.tuples_scanned);
  registry.Add("incr.recompute_substitutions", labels,
               stats.recompute.match.substitutions);
}

}  // namespace datalog
