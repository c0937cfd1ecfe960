#ifndef DATALOG_EVAL_EVAL_STATS_H_
#define DATALOG_EVAL_EVAL_STATS_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "eval/rule_matcher.h"

namespace datalog {

/// Per-rule breakdown of fixpoint work, indexed like Program::rules().
/// Lets optimizer reports point at the rules that dominate evaluation.
struct RuleStats {
  std::uint64_t applications = 0;   // times the rule was matched
  std::uint64_t facts = 0;          // new facts it contributed
  std::uint64_t substitutions = 0;  // complete body matches it found

  void Add(const RuleStats& other) {
    applications += other.applications;
    facts += other.facts;
    substitutions += other.substitutions;
  }
};

/// Work counters for a bottom-up fixpoint computation.
struct EvalStats {
  int iterations = 0;                 // fixpoint rounds
  std::uint64_t facts_derived = 0;    // new facts added to the database
  // (rule, round[, delta position]) passes run. A semi-naive pass in which
  // some positive atom reads an empty row range is skipped, not counted
  // (DeltaPassReadsRows).
  std::uint64_t rule_applications = 0;
  MatchStats match;                   // join work
  std::vector<RuleStats> per_rule;    // indexed by rule position

  // Parallel-engine breakdown (all zero for the sequential engines).
  // Wall-clock times are nanoseconds summed across rounds; they vary run
  // to run, unlike every other counter, which is deterministic.
  std::uint64_t parallel_rounds = 0;  // rounds that fanned out to the pool
  std::uint64_t parallel_tasks = 0;   // (rule, delta-pos, shard) tasks run
  std::uint64_t index_build_ns = 0;   // pre-building frozen-snapshot indexes
  std::uint64_t parallel_match_ns = 0;  // workers matching into buffers
  std::uint64_t merge_ns = 0;           // single-threaded round-barrier merge

  // Phase split of each rule application, read from the clock only while
  // the MetricsRegistry is enabled (zero otherwise), at the application's
  // phase boundaries -- never per row. Nanoseconds, like the parallel timers
  // above; never part of MatchStats, which the differential suites
  // compare bit for bit. What a fixpoint spends outside the four is
  // round bookkeeping.
  std::uint64_t plan_ns = 0;    // fetching the plan: planning, >= 4x replan
  std::uint64_t index_ns = 0;   // the VM's step sources, index views, roots
  std::uint64_t derive_ns = 0;  // probe, enumerate, head emit
  std::uint64_t insert_ns = 0;  // batch-inserting derived head rows

  /// Sinks into this struct's phase timers when `timed`, null otherwise.
  PhaseSinks Sinks(bool timed) {
    if (!timed) return {};
    return {&plan_ns, &index_ns, &derive_ns, &insert_ns};
  }

  void Add(const EvalStats& other) {
    iterations += other.iterations;
    facts_derived += other.facts_derived;
    rule_applications += other.rule_applications;
    parallel_rounds += other.parallel_rounds;
    parallel_tasks += other.parallel_tasks;
    index_build_ns += other.index_build_ns;
    parallel_match_ns += other.parallel_match_ns;
    merge_ns += other.merge_ns;
    plan_ns += other.plan_ns;
    index_ns += other.index_ns;
    derive_ns += other.derive_ns;
    insert_ns += other.insert_ns;
    match.Add(other.match);
    if (per_rule.size() < other.per_rule.size()) {
      per_rule.resize(other.per_rule.size());
    }
    for (std::size_t i = 0; i < other.per_rule.size(); ++i) {
      per_rule[i].Add(other.per_rule[i]);
    }
  }
};

/// Adds the wall time from construction to destruction to `*sink`; does
/// not read the clock at all when `sink` is null. The engines pass null
/// sinks unless the MetricsRegistry is enabled, so an uninstrumented run
/// pays one branch per timed phase.
class PhaseTimer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit PhaseTimer(std::uint64_t* sink) : sink_(sink) {
    if (sink_ != nullptr) start_ = Clock::now();
  }
  ~PhaseTimer() {
    if (sink_ != nullptr) AddUntil(Clock::now());
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  /// Ends the current phase and times the next one into `sink`, with one
  /// clock read at the boundary. Does nothing on an untimed PhaseTimer.
  void Switch(std::uint64_t* sink) {
    if (sink_ == nullptr) return;
    const Clock::time_point now = Clock::now();
    AddUntil(now);
    sink_ = sink;
    start_ = now;
  }

 private:
  void AddUntil(Clock::time_point end) {
    *sink_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
            .count());
  }

  std::uint64_t* sink_;
  Clock::time_point start_;
};

}  // namespace datalog

#endif  // DATALOG_EVAL_EVAL_STATS_H_
