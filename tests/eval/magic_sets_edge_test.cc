// Harder magic-sets scenarios: mutual recursion, multiple adornments of
// one predicate, constants in rule heads, non-binary predicates.

#include "eval/magic_sets.h"

#include "ast/pretty_print.h"
#include "eval/query.h"
#include "eval/seminaive.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace datalog {
namespace {

using testing::MakeSymbols;
using testing::ParseDatabaseOrDie;
using testing::ParseProgramOrDie;
using testing::ParseQueryOrDie;

void ExpectSameAnswers(const Program& p, const Database& edb,
                       const Atom& query) {
  Result<std::vector<Tuple>> plain =
      AnswerQuery(p, edb, query, EvalMethod::kSemiNaive);
  Result<std::vector<Tuple>> magic =
      AnswerQuery(p, edb, query, EvalMethod::kMagicSemiNaive);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(magic.ok());
  EXPECT_EQ(std::set<Tuple>(plain->begin(), plain->end()),
            std::set<Tuple>(magic->begin(), magic->end()));
}

TEST(MagicSetsEdgeTest, MutualRecursionEvenOdd) {
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols,
                                "even(x) :- zero(x).\n"
                                "even(x) :- succ(y, x), odd(y).\n"
                                "odd(x) :- succ(y, x), even(y).\n");
  Database edb = ParseDatabaseOrDie(
      symbols,
      "zero(0). succ(0, 1). succ(1, 2). succ(2, 3). succ(3, 4).");
  ExpectSameAnswers(p, edb, ParseQueryOrDie(symbols, "?- even(4)."));
  ExpectSameAnswers(p, edb, ParseQueryOrDie(symbols, "?- odd(4)."));
  ExpectSameAnswers(p, edb, ParseQueryOrDie(symbols, "?- even(x)."));
}

TEST(MagicSetsEdgeTest, TwoAdornmentsOfOnePredicate) {
  // same-generation queried with sg(1, y) needs sg^bf; the inner
  // occurrence after up/down swaps may demand another adornment.
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(
      symbols,
      "sg(x, y) :- flat(x, y).\n"
      "sg(x, y) :- up(x, u), sg(u, v), down(v, y).\n"
      "pair(x, y) :- sg(x, y), sg(y, x).\n");
  Database edb = ParseDatabaseOrDie(symbols,
                                    "flat(1, 2). flat(2, 1). up(1, 3)."
                                    "down(3, 2). flat(3, 3). up(2, 3).");
  ExpectSameAnswers(p, edb, ParseQueryOrDie(symbols, "?- pair(1, y)."));
}

TEST(MagicSetsEdgeTest, ConstantInRuleHead) {
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols,
                                "status(x, 1) :- up_host(x).\n"
                                "status(x, 0) :- down_host(x).\n"
                                "flag(x) :- status(x, 1).\n");
  Database edb = ParseDatabaseOrDie(symbols,
                                    "up_host(10). down_host(11). up_host(12).");
  ExpectSameAnswers(p, edb, ParseQueryOrDie(symbols, "?- flag(10)."));
  ExpectSameAnswers(p, edb, ParseQueryOrDie(symbols, "?- flag(x)."));
}

TEST(MagicSetsEdgeTest, TernaryPredicate) {
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(
      symbols,
      "path(x, y, c) :- edge(x, y, c).\n"
      "path(x, z, c) :- edge(x, y, c), path(y, z, c).\n");
  Database edb = ParseDatabaseOrDie(symbols,
                                    "edge(1, 2, 7). edge(2, 3, 7)."
                                    "edge(1, 2, 9). edge(3, 4, 9).");
  ExpectSameAnswers(p, edb, ParseQueryOrDie(symbols, "?- path(1, x, 7)."));
  ExpectSameAnswers(p, edb, ParseQueryOrDie(symbols, "?- path(1, 3, c)."));
}

TEST(MagicSetsEdgeTest, QueryConstantNotInDatabase) {
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols,
                                "g(x, z) :- a(x, z).\n"
                                "g(x, z) :- a(x, y), g(y, z).\n");
  Database edb = ParseDatabaseOrDie(symbols, "a(1, 2).");
  Result<std::vector<Tuple>> magic = AnswerQuery(
      p, edb, ParseQueryOrDie(symbols, "?- g(42, x)."),
      EvalMethod::kMagicSemiNaive);
  ASSERT_TRUE(magic.ok());
  EXPECT_TRUE(magic->empty());
}

TEST(MagicSetsEdgeTest, RepeatedVariableInQuery) {
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols,
                                "g(x, z) :- a(x, z).\n"
                                "g(x, z) :- a(x, y), g(y, z).\n");
  Database edb = ParseDatabaseOrDie(symbols, "a(1, 2). a(2, 1). a(2, 3).");
  ExpectSameAnswers(p, edb, ParseQueryOrDie(symbols, "?- g(x, x)."));
}

TEST(MagicSetsEdgeTest, IntermediateIntentionalPredicate) {
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(
      symbols,
      "hop(x, y) :- a(x, y).\n"
      "hop(x, y) :- b(x, y).\n"
      "reach(x, y) :- hop(x, y).\n"
      "reach(x, z) :- hop(x, y), reach(y, z).\n");
  Database edb = ParseDatabaseOrDie(symbols,
                                    "a(1, 2). b(2, 3). a(3, 4). b(9, 9).");
  ExpectSameAnswers(p, edb, ParseQueryOrDie(symbols, "?- reach(1, x)."));
}

TEST(MagicSetsEdgeTest, SipStrategiesAgreeOnAnswers) {
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(
      symbols,
      "sg(x, y) :- flat(x, y).\n"
      "sg(x, y) :- up(x, u), sg(u, v), down(v, y).\n");
  Database edb = ParseDatabaseOrDie(symbols,
                                    "up(1, 11). up(2, 12). up(11, 21)."
                                    "flat(21, 21). flat(11, 12)."
                                    "down(21, 13). down(12, 4).");
  Atom query = ParseQueryOrDie(symbols, "?- sg(1, y).");

  Result<MagicProgram> ltr = MagicSetsTransform(
      p, query, MagicOptions{SipStrategy::kLeftToRight});
  Result<MagicProgram> bf =
      MagicSetsTransform(p, query, MagicOptions{SipStrategy::kBoundFirst});
  ASSERT_TRUE(ltr.ok());
  ASSERT_TRUE(bf.ok());

  auto answers = [&](const MagicProgram& magic) {
    Database work(symbols);
    work.UnionWith(edb);
    EXPECT_TRUE(EvaluateSemiNaive(magic.program, &work).ok());
    std::set<Tuple> out;
    for (RowRef t : work.relation(magic.answer_predicate).rows()) {
      out.insert(Tuple(t));
    }
    return out;
  };
  EXPECT_EQ(answers(*ltr), answers(*bf));
}

TEST(MagicSetsEdgeTest, BoundFirstSipReordersBadBodies) {
  // Body written backwards: the selective bound atom comes last. The
  // bound-first strategy visits it first, so the magic predicate for the
  // recursive atom is bound instead of free.
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols,
                                "g(x, z) :- a(x, z).\n"
                                "g(x, z) :- g(y, z), a(x, y).\n");
  Database edb = ParseDatabaseOrDie(symbols, "a(1, 2). a(2, 3). a(3, 4).");
  Atom query = ParseQueryOrDie(symbols, "?- g(1, x).");

  // Left-to-right: g(y, z) is visited with neither argument bound.
  Result<MagicProgram> ltr = MagicSetsTransform(
      p, query, MagicOptions{SipStrategy::kLeftToRight});
  ASSERT_TRUE(ltr.ok());
  // Bound-first: a(x, y) (x bound) first, then g(y, z) with y bound.
  Result<MagicProgram> bf =
      MagicSetsTransform(p, query, MagicOptions{SipStrategy::kBoundFirst});
  ASSERT_TRUE(bf.ok());

  // Left-to-right needs a second (all-free) adornment of g and its magic
  // rules; bound-first stays within g^bf, so its program is smaller.
  EXPECT_LT(bf->program.NumRules(), ltr->program.NumRules());

  // Both compute the same answers to the query (the answer tables may
  // additionally hold other demanded bindings; filter to the query's).
  auto answers = [&](const MagicProgram& magic) {
    Database work(symbols);
    work.UnionWith(edb);
    EXPECT_TRUE(EvaluateSemiNaive(magic.program, &work).ok());
    std::set<Tuple> out;
    for (RowRef t : work.relation(magic.answer_predicate).rows()) {
      if (t[0] == Value::Int(1)) out.insert(Tuple(t));
    }
    return out;
  };
  EXPECT_EQ(answers(*ltr), answers(*bf));
  EXPECT_EQ(answers(*bf).size(), 3u);
}

TEST(MagicSetsEdgeTest, TransformedProgramIsValid) {
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols,
                                "g(x, z) :- a(x, z).\n"
                                "g(x, z) :- a(x, y), g(y, z).\n");
  Atom query = ParseQueryOrDie(symbols, "?- g(1, x).");
  Result<MagicProgram> magic = MagicSetsTransform(p, query);
  ASSERT_TRUE(magic.ok());
  for (const Rule& rule : magic->program.rules()) {
    EXPECT_TRUE(rule.IsSafe()) << ToString(rule, *symbols);
  }
}

}  // namespace
}  // namespace datalog
