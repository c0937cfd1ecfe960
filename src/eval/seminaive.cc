#include "eval/seminaive.h"

#include <functional>
#include <map>
#include <set>
#include <unordered_map>

#include "ast/dependence_graph.h"
#include "ast/validate.h"
#include "eval/compiled_rule.h"
#include "obs/metrics.h"
#include "obs/stats_export.h"
#include "obs/trace.h"

namespace datalog {

Watermarks TakeWatermarks(const Database& db) {
  Watermarks marks;
  for (PredicateId pred : db.NonEmptyPredicates()) {
    marks[pred] = db.relation(pred).size();
  }
  return marks;
}

DeltaRanges RangesSince(const Database& db, const Watermarks& marks,
                        bool use_old) {
  DeltaRanges ranges(use_old);
  for (PredicateId pred : db.NonEmptyPredicates()) {
    auto it = marks.find(pred);
    const std::size_t from = it == marks.end() ? 0 : it->second;
    ranges.SetOld(pred, from);
    ranges.SetDelta(pred, RowSpan{from, db.relation(pred).size()});
  }
  return ranges;
}

EvalStats RunSemiNaiveFixpoint(const std::vector<Rule>& rules, Database* db) {
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
  // discovered and nothing is old. This uniformly covers EDB facts,
  // program facts, and IDB-as-input facts (the uniform semantics of
  // Section IV). Facts of predicates no rule body reads can never gate a
  // match, so the delta is restricted to the read set -- this is what
  // keeps SCC-ordered evaluation from re-paying a full round 0 per
  // component. Every later round's delta is the rows the previous round
  // appended, read in place: no delta is ever copied out.
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

  // One compiled plan per (rule, delta position), reused across rounds;
  // join orders are replanned only on >= 4x cardinality drift.
  CompiledRuleCache cache;

  // Phase timers: read the clock only while metrics are on.
  const PhaseSinks sinks =
      stats.Sinks(MetricsRegistry::Get().enabled());

  while (!ranges.empty()) {
    ++stats.iterations;
    TraceSpan round_span("seminaive/round");
    round_span.Note("round", static_cast<std::uint64_t>(stats.iterations));
    const std::uint64_t facts_before_round = stats.facts_derived;
    const Watermarks marks = TakeWatermarks(*db);
    for (std::size_t ri = 0; ri < rules.size(); ++ri) {
      const Rule& rule = rules[ri];
      if (rule.IsFact()) continue;
      // One pass per positive body position whose predicate gained facts
      // last round (the old/delta/full scheme): position p is matched
      // against the delta, earlier positions against the old snapshot,
      // later positions against the full relation. Every derivation that
      // uses at least one delta fact is found in exactly one pass -- the
      // one where p is its first delta position. A pass with an atom that
      // reads no rows (no delta, or in round 1 an earlier atom's empty old
      // snapshot) derives nothing and is skipped.
      Relation* out = nullptr;
      for (std::size_t p = 0; p < rule.body().size(); ++p) {
        const Literal& lit = rule.body()[p];
        if (lit.negated) continue;
        if (!DeltaPassReadsRows(rule, *db, ranges, p)) continue;
        ++stats.rule_applications;
        ++stats.per_rule[ri].applications;
        TraceSpan apply_span("seminaive/apply");
        if (out == nullptr) {
          out = &db->MutableRelation(rule.head().predicate());
        }
        MatchStats local;
        std::size_t added = ApplyRuleWithDelta(rule, *db, ranges, p, out,
                                               &local, &cache, ri, sinks);
        stats.match.Add(local);
        stats.facts_derived += added;
        stats.per_rule[ri].facts += added;
        stats.per_rule[ri].substitutions += local.substitutions;
        if (apply_span.active()) {
          apply_span.Note("rule", ri);
          apply_span.Note("delta_pos", p);
          apply_span.Note("facts", added);
          apply_span.Note("substitutions", local.substitutions);
        }
      }
    }
    round_span.Note("facts", stats.facts_derived - facts_before_round);
    ranges = RangesSince(*db, marks, /*use_old=*/true);
  }
  return stats;
}

Result<EvalStats> EvaluateSemiNaive(const Program& program, Database* db) {
  DATALOG_RETURN_IF_ERROR(ValidatePositiveProgram(program));
  TraceSpan span("eval/semi-naive");
  EvalStats stats = RunSemiNaiveFixpoint(program.rules(), db);
  span.Note("iterations", static_cast<std::uint64_t>(stats.iterations));
  span.Note("facts", stats.facts_derived);
  RecordEvalStats("semi-naive", stats);
  return stats;
}

std::vector<RuleGroup> SccRuleGroups(const Program& program,
                                     const DependenceGraph& graph) {
  std::map<int, std::vector<std::size_t>, std::greater<int>> by_scc;
  for (std::size_t i = 0; i < program.NumRules(); ++i) {
    by_scc[graph.SccIndex(program.rules()[i].head().predicate())].push_back(i);
  }
  std::vector<RuleGroup> groups;
  for (auto& [scc, rules] : by_scc) {
    groups.push_back(
        RuleGroup{static_cast<std::uint64_t>(scc), std::move(rules)});
  }
  return groups;
}

EvalStats RunRuleGroups(
    const Program& program, const std::vector<RuleGroup>& groups,
    const char* span_name, const char* label_note,
    const std::function<EvalStats(const std::vector<Rule>&)>& fixpoint) {
  EvalStats total;
  total.per_rule.resize(program.NumRules());
  for (const RuleGroup& group : groups) {
    TraceSpan group_span(span_name);
    group_span.Note(label_note, group.label);
    group_span.Note("rules", group.rules.size());
    std::vector<Rule> rules;
    for (std::size_t i : group.rules) rules.push_back(program.rules()[i]);
    EvalStats group_stats = fixpoint(rules);
    // Remap the group-local per-rule rows onto program rule positions
    // before merging, so EvalStats::per_rule stays program-indexed.
    std::vector<RuleStats> remapped(program.NumRules());
    for (std::size_t i = 0; i < group_stats.per_rule.size(); ++i) {
      remapped[group.rules[i]] = group_stats.per_rule[i];
    }
    group_stats.per_rule = std::move(remapped);
    group_span.Note("facts", group_stats.facts_derived);
    total.Add(group_stats);
  }
  return total;
}

Result<EvalStats> EvaluateSemiNaiveScc(const Program& program, Database* db) {
  DATALOG_RETURN_IF_ERROR(ValidatePositiveProgram(program));
  const std::vector<RuleGroup> groups =
      SccRuleGroups(program, DependenceGraph(program));
  TraceSpan span("eval/scc-semi-naive");
  const EvalStats total = RunRuleGroups(
      program, groups, "seminaive/scc", "scc",
      [db](const std::vector<Rule>& rules) {
        return RunSemiNaiveFixpoint(rules, db);
      });
  span.Note("iterations", static_cast<std::uint64_t>(total.iterations));
  span.Note("facts", total.facts_derived);
  RecordEvalStats("scc-semi-naive", total);
  return total;
}

}  // namespace datalog
