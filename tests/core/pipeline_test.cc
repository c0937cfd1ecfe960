#include "core/pipeline.h"

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

constexpr const char* kMessyProgram =
    "g(x, z) :- a(x, z), a(x, q).\n"          // uniform redundancy
    "g(x, z) :- a(x, y), g(y, z).\n"
    "noise(x) :- b(x).\n"                      // irrelevant to g
    "g2(x, z) :- g(x, z), g(x, w).\n";         // depends on g, redundant atom

TEST(PipelineTest, StagesComposeAsDocumented) {
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols, kMessyProgram);
  Atom query = ParseQueryOrDie(symbols, "?- g(1, x).");
  Result<QueryPlan> plan = PlanQuery(p, query);
  ASSERT_TRUE(plan.ok());
  // Relevance drops noise(x) and g2 (not on a path to g).
  EXPECT_EQ(plan->restricted.NumRules(), 2u);
  // Fig. 2 removes a(x, q).
  EXPECT_EQ(plan->report.atoms_removed, 1u);
  EXPECT_EQ(plan->optimized.TotalBodyLiterals(), 3u);
  // The magic program answers the query.
  Database edb = ParseDatabaseOrDie(symbols, "a(1, 2). a(2, 3). b(7).");
  Database work(symbols);
  work.UnionWith(edb);
  ASSERT_TRUE(EvaluateSemiNaive(plan->magic.program, &work).ok());
  std::size_t query_answers = 0;
  for (RowRef t : work.relation(plan->magic.answer_predicate).rows()) {
    if (t[0] == Value::Int(1)) ++query_answers;
  }
  EXPECT_EQ(query_answers, 2u);
}

TEST(PipelineTest, AnswersMatchUnoptimizedEvaluation) {
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols, kMessyProgram);
  Atom query = ParseQueryOrDie(symbols, "?- g2(1, x).");
  Database edb = ParseDatabaseOrDie(symbols, "a(1, 2). a(2, 3). b(7).");

  Result<QueryPlan> plan = PlanQuery(p, query);
  ASSERT_TRUE(plan.ok());
  Database work(symbols);
  work.UnionWith(edb);
  ASSERT_TRUE(EvaluateSemiNaive(plan->magic.program, &work).ok());

  Result<std::vector<Tuple>> reference =
      AnswerQuery(p, edb, query, EvalMethod::kSemiNaive);
  ASSERT_TRUE(reference.ok());
  std::set<Tuple> expected(reference->begin(), reference->end());
  std::set<Tuple> actual;
  for (RowRef t : work.relation(plan->magic.answer_predicate).rows()) {
    if (t[0] == Value::Int(1)) actual.insert(Tuple(t));
  }
  EXPECT_EQ(actual, expected);
}

TEST(PipelineTest, EquivalencePassComposes) {
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols,
                                "g(x, z) :- a(x, z).\n"
                                "g(x, z) :- g(x, y), g(y, z), a(y, w).\n");
  Atom query = ParseQueryOrDie(symbols, "?- g(1, x).");
  PlanOptions options;
  options.equivalence_pass = true;
  Result<QueryPlan> plan = PlanQuery(p, query, options);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->optimized.TotalBodyLiterals(), 3u);  // a(y,w) gone
  EXPECT_EQ(plan->report.atoms_removed, 1u);
}

TEST(PipelineTest, SipStrategyPropagates) {
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(
      symbols, "g(x, z) :- big(y, z), a(x, y).\n");  // badly ordered body
  Atom query = ParseQueryOrDie(symbols, "?- g(1, x).");
  PlanOptions bound_first;
  bound_first.magic.sip = SipStrategy::kBoundFirst;
  Result<QueryPlan> plan = PlanQuery(p, query, bound_first);
  ASSERT_TRUE(plan.ok());
  // With bound-first SIP, a(x, y) (x bound) is visited before big(y, z).
  // The modified rule's body order reflects it: find the rewritten rule.
  bool found = false;
  PredicateId a = symbols->LookupPredicate("a").value();
  for (const Rule& rule : plan->magic.program.rules()) {
    if (rule.body().size() == 3) {  // magic guard + two atoms
      EXPECT_EQ(rule.body()[1].atom.predicate(), a);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace datalog
