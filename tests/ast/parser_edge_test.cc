// Adversarial parser inputs beyond the happy paths of parser_test.cc.

#include "ast/parser.h"

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "ast/pretty_print.h"
#include "eval/database.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "workload/program_gen.h"

namespace datalog {
namespace {

using testing::MakeSymbols;

TEST(ParserEdgeTest, EmptyInputIsEmptyProgram) {
  auto symbols = MakeSymbols();
  Parser parser(symbols);
  Result<Program> p = parser.ParseProgram("");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->NumRules(), 0u);
}

TEST(ParserEdgeTest, OnlyCommentsAndWhitespace) {
  auto symbols = MakeSymbols();
  Parser parser(symbols);
  Result<Program> p = parser.ParseProgram(
      "  % nothing here\n\t// nor here\n\n   ");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->NumRules(), 0u);
}

TEST(ParserEdgeTest, CommentAtEndOfFileWithoutNewline) {
  auto symbols = MakeSymbols();
  Parser parser(symbols);
  Result<Program> p = parser.ParseProgram("a(1). % trailing");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->NumRules(), 1u);
}

TEST(ParserEdgeTest, Int64Boundaries) {
  auto symbols = MakeSymbols();
  Parser parser(symbols);
  Result<Rule> max =
      parser.ParseRule("p(9223372036854775807) :- q(9223372036854775807).");
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(max->head().args()[0], Term::Int(9223372036854775807LL));
  // Out of range must be a clean error, not UB.
  Result<Rule> over = parser.ParseRule("p(9223372036854775808) :- q(1).");
  EXPECT_FALSE(over.ok());
  // INT64_MIN's magnitude alone is out of range; a '-' before it admits
  // it, so Database::ToString's output for it parses back.
  Result<Rule> min = parser.ParseRule(
      "p(-9223372036854775808) :- q(-9223372036854775807).");
  ASSERT_TRUE(min.ok()) << min.status().ToString();
  EXPECT_EQ(min->head().args()[0],
            Term::Int(std::numeric_limits<std::int64_t>::min()));
  EXPECT_EQ(min->body()[0].atom.args()[0],
            Term::Int(std::numeric_limits<std::int64_t>::min() + 1));
  // One below INT64_MIN still fails, at the column after its digits.
  Result<Rule> under = parser.ParseRule("p(-9223372036854775809) :- q(1).");
  ASSERT_FALSE(under.ok());
  EXPECT_EQ(under.status().message(),
            "line 1:23: integer literal out of range: 9223372036854775809");
}

TEST(ParserEdgeTest, LexicalErrorAnywhereWinsOverEarlierGrammarError) {
  // Line 1 misses a ')'; line 3 holds a character no token starts with.
  // Every entry point reports the lexical error, wherever it lies.
  const std::string text = "p(1 q(2).\nr(3).\ns(4). $\n";
  const std::string lexical = "line 3:7: unexpected character '$'";
  {
    Parser parser(MakeSymbols());
    Result<Program> program = parser.ParseProgram(text);
    ASSERT_FALSE(program.ok());
    EXPECT_EQ(program.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(program.status().message(), lexical);
  }
  {
    Parser parser(MakeSymbols());
    Result<std::vector<Atom>> atoms = parser.ParseGroundAtoms(text);
    ASSERT_FALSE(atoms.ok());
    EXPECT_EQ(atoms.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(atoms.status().message(), lexical);
  }
  {
    Parser parser(MakeSymbols());
    Result<std::vector<Tgd>> tgds = parser.ParseTgds(text);
    ASSERT_FALSE(tgds.ok());
    EXPECT_EQ(tgds.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(tgds.status().message(), lexical);
  }
  {
    Result<Database> db = ParseDatabase(MakeSymbols(), text);
    ASSERT_FALSE(db.ok());
    EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(db.status().message(), lexical);
  }
  // Without the lexical error, the grammar error is what is reported.
  Result<Program> grammar =
      Parser(MakeSymbols()).ParseProgram("p(1 q(2).\nr(3).\ns(4).\n");
  ASSERT_FALSE(grammar.ok());
  EXPECT_EQ(grammar.status().message(), "line 1:5: expected ')'");
}

TEST(ParserEdgeTest, DanglingMinusIsError) {
  auto symbols = MakeSymbols();
  Parser parser(symbols);
  EXPECT_FALSE(parser.ParseRule("p(x) :- q(x), - .").ok());
}

TEST(ParserEdgeTest, ColonWithoutDashIsError) {
  auto symbols = MakeSymbols();
  Parser parser(symbols);
  EXPECT_FALSE(parser.ParseRule("p(x) : q(x).").ok());
}

TEST(ParserEdgeTest, QuestionWithoutDashIsError) {
  auto symbols = MakeSymbols();
  Parser parser(symbols);
  EXPECT_FALSE(parser.ParseQuery("? g(1, x).").ok());
}

TEST(ParserEdgeTest, MissingClosingParen) {
  auto symbols = MakeSymbols();
  Parser parser(symbols);
  EXPECT_FALSE(parser.ParseRule("p(x :- q(x).").ok());
}

TEST(ParserEdgeTest, EmptyBodyAfterColonDashIsError) {
  auto symbols = MakeSymbols();
  Parser parser(symbols);
  EXPECT_FALSE(parser.ParseRule("p(1) :- .").ok());
}

TEST(ParserEdgeTest, TgdWithoutArrowIsError) {
  auto symbols = MakeSymbols();
  Parser parser(symbols);
  EXPECT_FALSE(parser.ParseTgd("g(x, z), a(x, w).").ok());
}

TEST(ParserEdgeTest, TgdMissingRhsIsError) {
  auto symbols = MakeSymbols();
  Parser parser(symbols);
  EXPECT_FALSE(parser.ParseTgd("g(x, z) -> .").ok());
}

TEST(ParserEdgeTest, SingleQuoteInsideDoubleQuotedString) {
  auto symbols = MakeSymbols();
  Parser parser(symbols);
  Result<Rule> r = parser.ParseRule("p(\"ann's\") :- q(\"ann's\").");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->head().args()[0].value().is_symbol());
}

TEST(ParserEdgeTest, IdentifiersWithUnderscoresAndDigits) {
  auto symbols = MakeSymbols();
  Parser parser(symbols);
  Result<Rule> r = parser.ParseRule("p_1(x_2) :- q_3(x_2).");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(symbols->PredicateName(r->head().predicate()), "p_1");
}

TEST(ParserEdgeTest, NotAsBarePredicateNameRejected) {
  // `not` is reserved for negation; `not(x)` in a body would be
  // ambiguous. The parser treats it as a negation of the following atom,
  // so a lone trailing `not` fails.
  auto symbols = MakeSymbols();
  Parser parser(symbols);
  EXPECT_FALSE(parser.ParseRule("p(x) :- q(x), not .").ok());
}

TEST(ParserEdgeTest, DeepNestingOfConjunctions) {
  auto symbols = MakeSymbols();
  Parser parser(symbols);
  std::string body;
  for (int i = 0; i < 200; ++i) {
    if (i != 0) body += ", ";
    body += "e(x" + std::to_string(i) + ", x" + std::to_string(i + 1) + ")";
  }
  Result<Rule> r = parser.ParseRule("p(x0, x200) :- " + body + ".");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->body().size(), 200u);
  EXPECT_TRUE(r->IsSafe());
}

TEST(ParserEdgeTest, GeneratedProgramsRoundTripThroughPrinter) {
  // Property: printing and reparsing a generated program yields a
  // structurally different-but-equal program (same ids, same structure).
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    auto symbols = MakeSymbols();
    PlantedProgramOptions options;
    options.seed = seed;
    options.planted_atoms = 2;
    options.planted_rules = 1;
    Result<PlantedProgram> planted = MakePlantedProgram(symbols, options);
    ASSERT_TRUE(planted.ok());
    std::string printed = ToString(planted->program);
    Parser parser(symbols);
    Result<Program> reparsed = parser.ParseProgram(printed);
    ASSERT_TRUE(reparsed.ok()) << printed;
    EXPECT_EQ(reparsed.value(), planted->program) << printed;
  }
}

}  // namespace
}  // namespace datalog
