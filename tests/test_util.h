#ifndef DATALOG_TESTS_TEST_UTIL_H_
#define DATALOG_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ast/parser.h"
#include "ast/program.h"
#include "ast/tgd.h"
#include "eval/compiled_rule.h"
#include "eval/database.h"
#include "eval/rule_matcher.h"
#include "gtest/gtest.h"

namespace datalog {
namespace testing {

inline std::shared_ptr<SymbolTable> MakeSymbols() {
  return std::make_shared<SymbolTable>();
}

/// Resets the process-wide ablation knobs (greedy join ordering, index
/// lookups, multiway joins) to their defaults on destruction, so a test
/// that flips them cannot leak a disabled knob into later tests, even
/// when an assertion returns early.
struct KnobGuard {
  KnobGuard() = default;
  KnobGuard(const KnobGuard&) = delete;
  KnobGuard& operator=(const KnobGuard&) = delete;
  ~KnobGuard() {
    SetGreedyJoinOrdering(true);
    SetIndexLookups(true);
    SetMultiwayJoins(true);
  }
};

/// Parses a program, failing the test on parse errors.
inline Program ParseProgramOrDie(std::shared_ptr<SymbolTable> symbols,
                                 std::string_view text) {
  Parser parser(std::move(symbols));
  Result<Program> result = parser.ParseProgram(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString() << "\nwhile parsing:\n"
                           << text;
  return result.ok() ? std::move(result).value() : Program();
}

inline Rule ParseRuleOrDie(std::shared_ptr<SymbolTable> symbols,
                           std::string_view text) {
  Parser parser(std::move(symbols));
  Result<Rule> result = parser.ParseRule(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result).value() : Rule();
}

inline Tgd ParseTgdOrDie(std::shared_ptr<SymbolTable> symbols,
                         std::string_view text) {
  Parser parser(std::move(symbols));
  Result<Tgd> result = parser.ParseTgd(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result).value() : Tgd();
}

inline std::vector<Tgd> ParseTgdsOrDie(std::shared_ptr<SymbolTable> symbols,
                                       std::string_view text) {
  Parser parser(std::move(symbols));
  Result<std::vector<Tgd>> result = parser.ParseTgds(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result).value() : std::vector<Tgd>();
}

inline Database ParseDatabaseOrDie(std::shared_ptr<SymbolTable> symbols,
                                   std::string_view text) {
  Result<Database> result = ParseDatabase(symbols, text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result).value() : Database(symbols);
}

inline Atom ParseQueryOrDie(std::shared_ptr<SymbolTable> symbols,
                            std::string_view text) {
  Parser parser(std::move(symbols));
  Result<Atom> result = parser.ParseQuery(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result).value() : Atom();
}

/// Appends one twin per rule of an n-rule program, at rule indexes n to
/// 2n - 1: the same body under a fresh head predicate over every
/// positive-body variable. A twin has no existential variable, so no plan
/// gives it a first-witness exit, and its EvalStats::per_rule
/// substitutions count every complete body match under any plan shape.
inline void AddFullEnumerationTwins(Program* program) {
  const std::size_t n = program->NumRules();
  SymbolTable& symbols = *program->mutable_symbols();
  for (std::size_t i = 0; i < n; ++i) {
    const Rule& rule = program->rules()[i];
    std::vector<Term> args;
    for (VariableId v : rule.PositiveBodyVariables()) {
      args.push_back(Term::Variable(v));
    }
    const PredicateId twin = symbols.FreshPredicate(
        symbols.PredicateName(rule.head().predicate()) + "_all",
        static_cast<int>(args.size()));
    std::vector<Literal> body = rule.body();
    program->AddRule(Rule(Atom(twin, std::move(args)), std::move(body)));
  }
}

/// One application of a compiled plan: the distinct head rows in the
/// order they were first derived, and the work counters.
struct PlanRun {
  std::vector<Tuple> rows;
  MatchStats stats;
};

inline std::vector<Tuple> RowsOf(const Relation& rel) {
  std::vector<Tuple> rows;
  for (RowRef row : rel.rows()) rows.emplace_back(row);
  return rows;
}

/// CompiledRule::Apply into an empty relation: the bytecode VM whenever
/// the plan was lowered.
inline PlanRun ApplyPlan(const CompiledRule& plan, const Database& full,
                         const DeltaRanges* ranges) {
  Relation out(full.symbols()->PredicateArity(plan.head_predicate()));
  PlanRun run;
  plan.Apply(full, ranges, &out, &run.stats);
  run.rows = RowsOf(out);
  return run;
}

/// The reference executor for the VM: Execute's depth-first enumeration
/// of the same plan (CompiledRule::DeriveByExecute), its head rows
/// inserted in order into an empty relation.
inline PlanRun ExecutePlan(const CompiledRule& plan, const Database& full,
                           const DeltaRanges* ranges) {
  Relation out(full.symbols()->PredicateArity(plan.head_predicate()));
  PlanRun run;
  IdRowBuffer derived;
  plan.DeriveByExecute(full, ranges, &run.stats, &derived);
  out.InsertIdRows(derived);
  run.rows = RowsOf(out);
  return run;
}

/// Expects two runs of one left-deep plan to agree exactly: the same rows
/// in the same order, and the same three counters.
inline void ExpectSameRun(const PlanRun& got, const PlanRun& want,
                          const std::string& where) {
  EXPECT_EQ(got.rows, want.rows) << where;
  EXPECT_EQ(got.stats.substitutions, want.stats.substitutions) << where;
  EXPECT_EQ(got.stats.index_lookups, want.stats.index_lookups) << where;
  EXPECT_EQ(got.stats.tuples_scanned, want.stats.tuples_scanned) << where;
}

/// The VM-vs-Execute check through the engines' entry point: one
/// ApplyRule call (which compiles the plan and runs the VM) against
/// Execute on the plan compiled from the same relation sizes, which must
/// be a lowered left-deep plan.
inline void ExpectApplyRuleMatchesExecute(const Rule& rule,
                                          const Database& db,
                                          const std::string& where) {
  const CompiledRule plan = CompiledRule::Compile(
      rule, /*delta_pos=*/std::size_t(-1), /*use_old=*/false, db, nullptr);
  ASSERT_FALSE(plan.bytecode_program().empty()) << where;
  ASSERT_EQ(plan.shape(), PlanShape::kLeftDeep) << where;
  Database out(db.symbols());
  PlanRun vm;
  ApplyRule(rule, db, &out, &vm.stats);
  vm.rows = RowsOf(out.relation(rule.head().predicate()));
  ExpectSameRun(vm, ExecutePlan(plan, db, nullptr), where);
}

}  // namespace testing
}  // namespace datalog

#endif  // DATALOG_TESTS_TEST_UTIL_H_
