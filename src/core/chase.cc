#include "core/chase.h"

#include <unordered_map>

#include "ast/pretty_print.h"
#include "ast/validate.h"
#include "eval/seminaive.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace datalog {
namespace {

/// Per-predicate row counts; relations are append-only, so the facts a
/// step added are exactly the rows past the snapshot.
using Marks = std::unordered_map<PredicateId, std::size_t>;

Marks Snapshot(const Database& db) {
  Marks marks;
  for (PredicateId pred : db.NonEmptyPredicates()) {
    marks[pred] = db.relation(pred).size();
  }
  return marks;
}

void RecordStep(const Database& db, const Marks& before,
                ChaseStep::Kind kind, std::size_t tgd_index,
                ChaseTranscript* transcript) {
  if (transcript == nullptr) return;
  ChaseStep step;
  step.kind = kind;
  step.tgd_index = tgd_index;
  for (PredicateId pred : db.NonEmptyPredicates()) {
    const Relation& rel = db.relation(pred);
    auto it = before.find(pred);
    std::size_t from = it == before.end() ? 0 : it->second;
    for (std::size_t i = from; i < rel.size(); ++i) {
      step.added.emplace_back(pred, Tuple(rel.row(i)));
    }
  }
  if (!step.added.empty()) {
    transcript->steps.push_back(std::move(step));
  }
}

}  // namespace

std::string ChaseTranscript::ToString(const SymbolTable& symbols,
                                      const std::vector<Tgd>& tgds) const {
  std::string out;
  for (const ChaseStep& step : steps) {
    if (step.kind == ChaseStep::Kind::kRules) {
      out += "rules derived:";
    } else {
      out += "tgd " + std::to_string(step.tgd_index);
      if (step.tgd_index < tgds.size()) {
        out += " (" + datalog::ToString(tgds[step.tgd_index], symbols) + ")";
      }
      out += " added:";
    }
    for (const auto& [pred, tuple] : step.added) {
      out += " " + symbols.PredicateName(pred);
      if (!tuple.empty()) {
        out += "(";
        for (std::size_t i = 0; i < tuple.size(); ++i) {
          if (i != 0) out += ", ";
          out += datalog::ToString(tuple[i], symbols);
        }
        out += ")";
      }
    }
    out += "\n";
  }
  return out;
}

Result<ChaseResult> Chase(const Program& program, const std::vector<Tgd>& tgds,
                          Database* db, const ChaseBudget& budget,
                          const std::optional<ChaseGoal>& goal,
                          ChaseTranscript* transcript) {
  DATALOG_RETURN_IF_ERROR(ValidatePositiveProgram(program));

  TraceSpan span("chase");
  span.Note("tgds", tgds.size());
  ChaseResult result;
  NullPool nulls;
  const std::size_t initial_facts = db->NumFacts();

  auto goal_reached = [&]() {
    return goal.has_value() && db->Contains(goal->predicate, goal->tuple);
  };

  if (goal_reached()) {
    result.status = ChaseStatus::kGoalReached;
    return result;
  }

  while (true) {
    if (result.rounds >= budget.max_rounds ||
        static_cast<std::size_t>(nulls.allocated()) > budget.max_nulls ||
        db->NumFacts() > budget.max_facts) {
      result.status = ChaseStatus::kBudgetExhausted;
      break;
    }
    ++result.rounds;

    TraceSpan round_span("chase/round");
    round_span.Note("round", static_cast<std::uint64_t>(result.rounds));
    std::size_t before = db->NumFacts();

    // Rules to their fixpoint (always terminates: no new constants).
    Marks marks = Snapshot(*db);
    {
      TraceSpan rules_span("chase/rules");
      RunSemiNaiveFixpoint(program.rules(), db);
      rules_span.Note("facts", db->NumFacts());
    }
    RecordStep(*db, marks, ChaseStep::Kind::kRules, 0, transcript);
    if (goal_reached()) {
      result.status = ChaseStatus::kGoalReached;
      break;
    }

    // One fair round of every tgd.
    for (std::size_t i = 0; i < tgds.size(); ++i) {
      marks = Snapshot(*db);
      TraceSpan tgd_span("chase/tgd");
      tgd_span.Note("tgd", i);
      ApplyTgdRound(tgds[i], db, &nulls);
      tgd_span.Note("facts", db->NumFacts());
      tgd_span.End();
      RecordStep(*db, marks, ChaseStep::Kind::kTgd, i, transcript);
    }
    if (goal_reached()) {
      result.status = ChaseStatus::kGoalReached;
      break;
    }

    if (db->NumFacts() == before) {
      result.status = ChaseStatus::kFixpoint;
      break;
    }
  }

  result.facts_added = db->NumFacts() - initial_facts;
  result.nulls_introduced = nulls.allocated();
  if (span.active()) {
    span.Note("rounds", static_cast<std::uint64_t>(result.rounds));
    span.Note("facts_added", result.facts_added);
    span.Note("nulls", static_cast<std::uint64_t>(result.nulls_introduced));
  }
  MetricsRegistry& metrics = MetricsRegistry::Get();
  if (metrics.enabled()) {
    metrics.Add("chase.runs", {}, 1);
    metrics.Add("chase.rounds", {}, result.rounds);
    metrics.Add("chase.facts_added", {}, result.facts_added);
    metrics.Add("chase.nulls_introduced", {},
                static_cast<std::uint64_t>(result.nulls_introduced));
  }
  return result;
}

}  // namespace datalog
