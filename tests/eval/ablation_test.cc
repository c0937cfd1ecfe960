#include "eval/rule_matcher.h"

#include <string>

#include "eval/seminaive.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "workload/graph_gen.h"

namespace datalog {
namespace {

using testing::ExpectApplyRuleMatchesExecute;
using testing::KnobGuard;
using testing::MakeSymbols;
using testing::ParseProgramOrDie;

TEST(AblationTest, KnobsDefaultOn) {
  EXPECT_TRUE(GreedyJoinOrderingEnabled());
  EXPECT_TRUE(IndexLookupsEnabled());
  EXPECT_TRUE(MultiwayJoinsEnabled());
}

TEST(AblationTest, ResultsIdenticalWithKnobsOff) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols,
                                "g(x, z) :- a(x, z).\n"
                                "g(x, z) :- a(x, y), g(y, z).\n");
  PredicateId a = symbols->LookupPredicate("a").value();

  Database reference(symbols);
  AddGraphFacts({GraphShape::kRandom, 12, 24, 4}, a, &reference);
  Database d1(symbols), d2(symbols), d3(symbols);
  d1.UnionWith(reference);
  d2.UnionWith(reference);
  d3.UnionWith(reference);

  ASSERT_TRUE(EvaluateSemiNaive(p, &d1).ok());

  SetGreedyJoinOrdering(false);
  ASSERT_TRUE(EvaluateSemiNaive(p, &d2).ok());
  SetGreedyJoinOrdering(true);

  SetIndexLookups(false);
  ASSERT_TRUE(EvaluateSemiNaive(p, &d3).ok());
  SetIndexLookups(true);

  EXPECT_EQ(d1, d2);
  EXPECT_EQ(d1, d3);
}

/// Every rule of the closure, applied once to its fixpoint by the VM,
/// agrees with Execute on the same plan under each ablation: the same
/// rows in the same order and the same counters.
TEST(AblationTest, CompiledPlansMatchLegacyMatcher) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols,
                                "g(x, z) :- a(x, z).\n"
                                "g(x, z) :- a(x, y), g(y, z).\n");
  PredicateId a = symbols->LookupPredicate("a").value();

  Database db(symbols);
  AddGraphFacts({GraphShape::kRandom, 12, 24, 9}, a, &db);
  ASSERT_TRUE(EvaluateSemiNaive(p, &db).ok());

  for (bool greedy : {true, false}) {
    for (bool indexed : {true, false}) {
      SetGreedyJoinOrdering(greedy);
      SetIndexLookups(indexed);
      for (std::size_t i = 0; i < p.NumRules(); ++i) {
        ExpectApplyRuleMatchesExecute(
            p.rules()[i], db,
            "rule " + std::to_string(i) + " greedy=" +
                std::to_string(greedy) + " idx=" + std::to_string(indexed));
      }
    }
  }
}

TEST(AblationTest, IndexLookupsReduceScannedTuples) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols,
                                "h(x, z) :- e(x, y), e(y, z).\n");
  PredicateId e = symbols->LookupPredicate("e").value();
  Database base(symbols);
  AddGraphFacts({GraphShape::kChain, 64}, e, &base);

  Database with_index(symbols);
  with_index.UnionWith(base);
  EvalStats indexed = EvaluateSemiNaive(p, &with_index).value();

  SetIndexLookups(false);
  Database without_index(symbols);
  without_index.UnionWith(base);
  EvalStats scanned = EvaluateSemiNaive(p, &without_index).value();
  SetIndexLookups(true);

  EXPECT_EQ(with_index, without_index);
  EXPECT_LT(indexed.match.tuples_scanned, scanned.match.tuples_scanned);
}

TEST(AblationTest, GreedyOrderingReducesWorkOnSelectiveBodies) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  // Textual order starts with the huge unselective atom; greedy order
  // starts with the selective constant probe.
  Program p = ParseProgramOrDie(symbols,
                                "out(x, y) :- big(x, y), tiny(0, x).\n");
  PredicateId big = symbols->LookupPredicate("big").value();
  PredicateId tiny = symbols->LookupPredicate("tiny").value();
  Database base(symbols);
  AddGraphFacts({GraphShape::kRandom, 64, 512, 6}, big, &base);
  base.AddFact(tiny, {Value::Int(0), Value::Int(1)});

  Database d1(symbols);
  d1.UnionWith(base);
  EvalStats greedy = EvaluateSemiNaive(p, &d1).value();

  SetGreedyJoinOrdering(false);
  Database d2(symbols);
  d2.UnionWith(base);
  EvalStats textual = EvaluateSemiNaive(p, &d2).value();
  SetGreedyJoinOrdering(true);

  EXPECT_EQ(d1, d2);
  EXPECT_LT(greedy.match.tuples_scanned, textual.match.tuples_scanned);
}

}  // namespace
}  // namespace datalog
