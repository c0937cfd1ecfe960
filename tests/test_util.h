#ifndef DATALOG_TESTS_TEST_UTIL_H_
#define DATALOG_TESTS_TEST_UTIL_H_

#include <memory>
#include <string_view>
#include <vector>

#include "ast/parser.h"
#include "ast/program.h"
#include "ast/tgd.h"
#include "eval/database.h"
#include "gtest/gtest.h"

namespace datalog {
namespace testing {

inline std::shared_ptr<SymbolTable> MakeSymbols() {
  return std::make_shared<SymbolTable>();
}

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

}  // namespace testing
}  // namespace datalog

#endif  // DATALOG_TESTS_TEST_UTIL_H_
