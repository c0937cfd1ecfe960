#include "eval/parallel.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>
#include <unordered_map>

#include "ast/dependence_graph.h"
#include "ast/validate.h"
#include "eval/compiled_rule.h"
#include "eval/rule_matcher.h"
#include "eval/seminaive.h"
#include "obs/metrics.h"
#include "obs/stats_export.h"
#include "obs/trace.h"

namespace datalog {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ElapsedNs(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

/// Delta ranges are split into contiguous row sub-ranges (shards) so one
/// hot (rule, delta-position) pass -- the whole round, for linear rules
/// like transitive closure -- still decomposes into enough independent
/// tasks to keep every worker busy. The shard count depends only on the
/// delta size, never on the thread count, so the task list (and therefore
/// the merge order and all derived stats) is identical at any parallelism.
constexpr std::size_t kMinShardRows = 64;
constexpr std::size_t kMaxShards = 16;

std::size_t ShardCount(std::size_t rows) {
  if (rows <= kMinShardRows) return 1;
  return std::min(kMaxShards, rows / kMinShardRows);
}

/// One unit of worker work: apply `rule` with the delta position matched
/// against one shard of its predicate's delta range, deriving into
/// task-local buffers.
struct PassTask {
  PassTask(std::size_t rule, std::size_t pos, const DeltaRanges* shard,
           int head_arity)
      : rule_index(rule), delta_pos(pos), ranges(shard), out(head_arity) {}

  std::size_t rule_index;
  std::size_t delta_pos;
  const DeltaRanges* ranges;  // the round's ranges, cut to this shard
  Relation out;               // task-local derivation buffer
  IdRowBuffer head_rows;      // the head rows either executor derives
  MatchStats match;           // task-local join counters
  std::uint64_t index_ns = 0;  // task-local phase timers (metrics only)
  std::uint64_t derive_ns = 0;
  std::uint64_t insert_ns = 0;
  // Compiled plan resolved during prep; shared read-only across all
  // shards of the pass.
  const CompiledRule* plan = nullptr;
};

}  // namespace

EvalStats RunSemiNaiveFixpointParallel(const std::vector<Rule>& rules,
                                       Database* db, ThreadPool* pool) {
  EvalStats stats;
  stats.per_rule.resize(rules.size());

  // Facts contributed by the program itself (rules with empty bodies).
  for (std::size_t ri = 0; ri < rules.size(); ++ri) {
    const Rule& rule = rules[ri];
    if (!rule.IsFact()) continue;
    Tuple tuple;
    for (const Term& t : rule.head().args()) tuple.push_back(t.value());
    if (db->AddFact(rule.head().predicate(), std::move(tuple))) {
      ++stats.facts_derived;
      ++stats.per_rule[ri].facts;
    }
  }

  // Round 0: everything already in the database counts as newly
  // discovered, restricted to the predicates some rule body reads (as in
  // the sequential engine). Later rounds read the rows the previous round
  // appended, in place.
  std::set<PredicateId> read_preds;
  for (const Rule& rule : rules) {
    for (const Literal& lit : rule.body()) {
      if (!lit.negated) read_preds.insert(lit.atom.predicate());
    }
  }
  DeltaRanges ranges(/*use_old=*/true);
  for (PredicateId pred : db->NonEmptyPredicates()) {
    if (read_preds.contains(pred)) {
      ranges.SetDelta(pred, db->relation(pred).AllRows());
    }
  }

  // Plans are resolved once per (rule, delta position) per round against
  // the WHOLE round delta range -- never against an individual shard --
  // so the plan (and therefore every counter) is a function of the round
  // state alone, identical at any thread count. All shards of a pass
  // share the resolved plan read-only. The cache outlives the rounds, so
  // join orders persist until cardinalities drift >= 4x.
  CompiledRuleCache cache;

  // Phase timers: read the clock only while metrics are on.
  const bool timed = MetricsRegistry::Get().enabled();

  while (!ranges.empty()) {
    ++stats.iterations;
    TraceSpan round_span("parallel/round");
    round_span.Note("round", static_cast<std::uint64_t>(stats.iterations));
    const Watermarks marks = TakeWatermarks(*db);

    // --- Snapshot preparation (single-threaded). Shard each delta range
    // and pre-build every index the round's plans will probe, so the
    // fan-out phase only reads the database and the indexes.
    TraceSpan prep_span("parallel/prepare");
    Clock::time_point prep_start = Clock::now();
    std::unordered_map<PredicateId, std::vector<DeltaRanges>> shards;
    for (PredicateId pred : db->NonEmptyPredicates()) {
      const RowSpan delta = ranges.delta(pred);
      if (delta.empty()) continue;
      const std::size_t num_shards = ShardCount(delta.size());
      std::vector<DeltaRanges> shard_ranges(num_shards, ranges);
      for (std::size_t s = 0; s < num_shards; ++s) {
        shard_ranges[s].SetDelta(
            pred, RowSpan{delta.begin + s * delta.size() / num_shards,
                          delta.begin + (s + 1) * delta.size() / num_shards});
      }
      shards.emplace(pred, std::move(shard_ranges));
    }

    // Task list in deterministic (rule, delta position, shard) order; the
    // merge below walks it in the same order.
    std::vector<PassTask> tasks;
    for (std::size_t ri = 0; ri < rules.size(); ++ri) {
      const Rule& rule = rules[ri];
      if (rule.IsFact()) continue;
      for (std::size_t p = 0; p < rule.body().size(); ++p) {
        const Literal& lit = rule.body()[p];
        if (lit.negated) continue;
        auto it = shards.find(lit.atom.predicate());
        if (it == shards.end()) continue;  // no delta facts for this atom
        // Some atom reads no rows (in round 1, an earlier atom's empty
        // old snapshot): the pass derives nothing.
        if (!DeltaPassReadsRows(rule, *db, ranges, p)) continue;
        ++stats.rule_applications;
        ++stats.per_rule[ri].applications;
        const int head_arity =
            db->symbols()->PredicateArity(rule.head().predicate());
        for (const DeltaRanges& shard : it->second) {
          tasks.emplace_back(ri, p, &shard, head_arity);
        }
      }
    }
    for (PassTask& task : tasks) {
      {
        PhaseTimer timer(timed ? &stats.plan_ns : nullptr);
        task.plan = &cache.Get(task.rule_index, rules[task.rule_index],
                               task.delta_pos, /*use_old=*/true, *db,
                               &ranges);
      }
      // Per-shard index builds still happen here, single-threaded: after
      // this, Apply is read-only on every relation it probes.
      task.plan->EnsureIndexes(*db, task.ranges);
    }
    stats.index_build_ns += ElapsedNs(prep_start);
    prep_span.Note("tasks", tasks.size());
    prep_span.End();

    // --- Parallel phase: every task matches against the frozen snapshot
    // and derives into its own buffer; nothing shared is written. Each
    // task opens its own span from the worker thread that runs it, so the
    // trace shows the per-shard fan-out on separate tracks merging at the
    // round barrier.
    TraceSpan match_span("parallel/match");
    Clock::time_point match_start = Clock::now();
    ++stats.parallel_rounds;
    stats.parallel_tasks += tasks.size();
    const Database& frozen = *db;
    for (PassTask& task : tasks) {
      pool->Submit([&frozen, &task, timed] {
        TraceSpan task_span("parallel/task");
        PhaseSinks sinks;
        if (timed) {
          sinks.index_ns = &task.index_ns;
          sinks.derive_ns = &task.derive_ns;
          sinks.insert_ns = &task.insert_ns;
        }
        task.plan->Apply(frozen, task.ranges, &task.out, &task.match, sinks,
                         &task.head_rows);
        if (task_span.active()) {
          task_span.Note("rule", task.rule_index);
          task_span.Note("delta_pos", task.delta_pos);
          task_span.Note("substitutions", task.match.substitutions);
        }
      });
    }
    pool->Wait();
    stats.parallel_match_ns += ElapsedNs(match_start);
    match_span.End();

    // --- Round barrier: merge buffers single-threaded in task order, so
    // the database contents and all counters come out identical no matter
    // how the tasks were scheduled.
    TraceSpan merge_span("parallel/merge");
    Clock::time_point merge_start = Clock::now();
    const std::uint64_t facts_before_merge = stats.facts_derived;
    for (const PassTask& task : tasks) {
      stats.match.Add(task.match);
      stats.index_ns += task.index_ns;
      stats.derive_ns += task.derive_ns;
      stats.insert_ns += task.insert_ns;
      stats.per_rule[task.rule_index].substitutions +=
          task.match.substitutions;
      // Id-space row copy of the task's buffer, in its derivation order.
      const PredicateId head = rules[task.rule_index].head().predicate();
      const std::size_t added =
          db->AddRowRange(head, task.out, 0, task.out.size());
      stats.facts_derived += added;
      stats.per_rule[task.rule_index].facts += added;
    }
    stats.merge_ns += ElapsedNs(merge_start);
    merge_span.Note("facts", stats.facts_derived - facts_before_merge);
    merge_span.End();
    round_span.Note("facts", stats.facts_derived - facts_before_merge);

    ranges = RangesSince(*db, marks, /*use_old=*/true);
  }
  return stats;
}

namespace {

std::size_t PoolWorkers(std::size_t num_threads) {
  if (num_threads == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    num_threads = hw == 0 ? 1 : hw;
  }
  return num_threads - 1;  // the calling thread helps at the barrier
}

}  // namespace

Result<EvalStats> EvaluateSemiNaiveParallel(const Program& program,
                                            Database* db,
                                            std::size_t num_threads) {
  DATALOG_RETURN_IF_ERROR(ValidatePositiveProgram(program));
  TraceSpan span("eval/parallel");
  ThreadPool pool(PoolWorkers(num_threads));
  EvalStats stats = RunSemiNaiveFixpointParallel(program.rules(), db, &pool);
  span.Note("iterations", static_cast<std::uint64_t>(stats.iterations));
  span.Note("facts", stats.facts_derived);
  span.Note("tasks", stats.parallel_tasks);
  RecordEvalStats("parallel", stats);
  return stats;
}

Result<EvalStats> EvaluateSemiNaiveSccParallel(const Program& program,
                                               Database* db,
                                               std::size_t num_threads) {
  DATALOG_RETURN_IF_ERROR(ValidatePositiveProgram(program));
  const std::vector<RuleGroup> groups =
      SccRuleGroups(program, DependenceGraph(program));
  TraceSpan span("eval/scc-parallel");
  ThreadPool pool(PoolWorkers(num_threads));
  const EvalStats total = RunRuleGroups(
      program, groups, "seminaive/scc", "scc",
      [db, &pool](const std::vector<Rule>& rules) {
        return RunSemiNaiveFixpointParallel(rules, db, &pool);
      });
  span.Note("iterations", static_cast<std::uint64_t>(total.iterations));
  span.Note("facts", total.facts_derived);
  RecordEvalStats("scc-parallel", total);
  return total;
}

}  // namespace datalog
