#ifndef DATALOG_OBS_STATS_EXPORT_H_
#define DATALOG_OBS_STATS_EXPORT_H_

#include <string_view>

#include "eval/eval_stats.h"
#include "eval/topdown.h"

namespace datalog {

struct CommitStats;  // incr/materialized_view.h

/// Publishes a completed evaluation's EvalStats into the process
/// MetricsRegistry under the `engine` label:
///
///   eval.iterations{engine=E}         == stats.iterations
///   eval.facts_derived{engine=E}      == stats.facts_derived
///   eval.rule_applications{engine=E}  == stats.rule_applications
///   eval.substitutions{engine=E}      == stats.match.substitutions
///   eval.index_lookups{engine=E}      == stats.match.index_lookups
///   eval.tuples_scanned{engine=E}     == stats.match.tuples_scanned
///   eval.plan_ns/index_ns/derive_ns/insert_ns{engine=E}  (wall-clock
///                                     phase split, NOT deterministic)
///   eval.parallel_rounds/parallel_tasks{engine=E}   (parallel engines)
///   eval.index_build_ns/parallel_match_ns/merge_ns  (wall-clock, NOT
///                                                    deterministic)
///   eval.rule.applications/facts/substitutions{engine=E, rule=i}
///
/// and sets the block cache's gauges (util/block_cache.h), unlabeled:
///
///   storage.cache.retained_bytes / peak_bytes / hits / misses
///
/// Counters ADD across runs; Clear() the registry between runs when a
/// single run's numbers are wanted. Every eval.* counter except the
/// ns-suffixed ones is deterministic and equals the EvalStats field
/// bit-for-bit -- tests/obs/trace_invariant_test.cc holds every engine to
/// that contract. The storage.cache.* gauges describe the process's
/// history (what earlier evaluations freed), so they are outside it.
/// No-op when the registry is disabled.
void RecordEvalStats(std::string_view engine, const EvalStats& stats);

/// Publishes TopDownStats as topdown.subgoals / topdown.iterations /
/// topdown.answers / topdown.body_matches under the `engine` label.
void RecordTopDownStats(std::string_view engine, const TopDownStats& stats);

/// Publishes one committed transaction's CommitStats as incr.* counters
/// (base_inserted, base_retracted, derived_added, derived_removed,
/// overdeleted, rederived, rule_applications, sccs_touched,
/// sccs_recomputed, substitutions, index_lookups, tuples_scanned,
/// recompute_substitutions) under the `engine` label.
void RecordCommitStats(std::string_view engine, const CommitStats& stats);

}  // namespace datalog

#endif  // DATALOG_OBS_STATS_EXPORT_H_
