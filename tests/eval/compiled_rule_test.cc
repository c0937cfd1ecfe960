// The compiled-plan layer (eval/compiled_rule.h): the bytecode VM that
// Apply runs must agree with the plan's depth-first Execute -- the same
// rows in the same order and identical MatchStats on a single
// application -- the semi-naive fixpoint must equal the naive one, and
// the cache must behave as the layer promises: join orders persist
// across rounds and replan only on >= 4x cardinality drift or an
// ablation-knob flip.

#include "eval/compiled_rule.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "ast/pretty_print.h"
#include "eval/naive.h"
#include "eval/seminaive.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "workload/graph_gen.h"

namespace datalog {
namespace {

using testing::ExpectApplyRuleMatchesExecute;
using testing::KnobGuard;
using testing::MakeSymbols;
using testing::ParseDatabaseOrDie;
using testing::ParseProgramOrDie;
using testing::ParseRuleOrDie;

/// One ApplyRule call (the VM) against Execute on the plan compiled from
/// the same sizes: every counter -- not just substitutions -- must agree
/// bit for bit, and the rows must come out in the same order.
TEST(CompiledRuleTest, SingleApplicationStatsMatchLegacyExactly) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(
      symbols, "e(1, 2). e(2, 3). e(3, 4). e(4, 1). e(2, 5). t(1, 1).");
  Rule rule = ParseRuleOrDie(symbols, "h(x, z) :- e(x, y), e(y, z).");

  for (bool greedy : {true, false}) {
    for (bool indexed : {true, false}) {
      SetGreedyJoinOrdering(greedy);
      SetIndexLookups(indexed);
      ExpectApplyRuleMatchesExecute(
          rule, db,
          "greedy=" + std::to_string(greedy) +
              " idx=" + std::to_string(indexed));
    }
  }
}

/// Repeated variables within one atom and a fully bound membership atom:
/// the VM's lowering of the schedule classification (writes vs checks vs
/// key) must match Execute's, including with index lookups ablated (the
/// membership path then scans and filters, honoring the knob).
TEST(CompiledRuleTest, RepeatedVarsAndFullyBoundAtomAgreeAcrossKnobs) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(
      symbols,
      "e(1, 2). e(2, 1). e(2, 3). e(3, 3). e(1, 1). s(1). s(3).");
  Rule loop = ParseRuleOrDie(symbols, "h(x) :- e(x, x), s(x).");
  Rule back = ParseRuleOrDie(symbols, "p(x, y) :- e(x, y), e(y, x).");

  for (const Rule& rule : {loop, back}) {
    for (bool greedy : {true, false}) {
      for (bool indexed : {true, false}) {
        SetGreedyJoinOrdering(greedy);
        SetIndexLookups(indexed);
        ExpectApplyRuleMatchesExecute(
            rule, db,
            ToString(rule, *symbols) + " greedy=" + std::to_string(greedy) +
                " idx=" + std::to_string(indexed));
      }
    }
  }
}

/// The MatchAtoms adapter materializes a Binding per complete match: the
/// chained pairs of a three-edge cycle, one substitution each.
TEST(CompiledRuleTest, MatchAtomsAdapterEnumeratesSameBindings) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "a(1, 2). a(2, 3). a(3, 1).");
  PredicateId a = symbols->LookupPredicate("a").value();
  VariableId x = symbols->InternVariable("x");
  VariableId y = symbols->InternVariable("y");
  VariableId z = symbols->InternVariable("z");
  std::vector<PlannedAtom> atoms = {
      {Atom(a, {Term::Variable(x), Term::Variable(y)}), AtomSource::kFull},
      {Atom(a, {Term::Variable(y), Term::Variable(z)}), AtomSource::kFull}};

  auto collect = [&] {
    std::set<std::vector<std::pair<VariableId, Value>>> seen;
    MatchStats stats;
    MatchAtoms(db, nullptr, atoms,
               [&](const Binding& b) {
                 std::vector<std::pair<VariableId, Value>> sorted(b.begin(),
                                                                  b.end());
                 std::sort(sorted.begin(), sorted.end(),
                           [](const auto& l, const auto& r) {
                             return l.first < r.first;
                           });
                 seen.insert(std::move(sorted));
                 return true;
               },
               &stats);
    return std::make_pair(seen, stats.substitutions);
  };

  auto binding = [&](std::int64_t vx, std::int64_t vy, std::int64_t vz) {
    std::vector<std::pair<VariableId, Value>> b = {
        {x, Value::Int(vx)}, {y, Value::Int(vy)}, {z, Value::Int(vz)}};
    std::sort(b.begin(), b.end(), [](const auto& l, const auto& r) {
      return l.first < r.first;
    });
    return b;
  };
  for (bool greedy : {true, false}) {
    for (bool indexed : {true, false}) {
      SetGreedyJoinOrdering(greedy);
      SetIndexLookups(indexed);
      auto [seen, subs] = collect();
      EXPECT_EQ(seen, (std::set<std::vector<std::pair<VariableId, Value>>>{
                          binding(1, 2, 3), binding(2, 3, 1),
                          binding(3, 1, 2)}))
          << "greedy=" << greedy << " idx=" << indexed;
      EXPECT_EQ(subs, 3u);
    }
  }
}

/// Early exit must propagate through the compiled enumeration.
TEST(CompiledRuleTest, MatchAtomsCallbackCanStopEnumeration) {
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "a(1, 2). a(2, 3). a(3, 4).");
  PredicateId a = symbols->LookupPredicate("a").value();
  VariableId x = symbols->InternVariable("x");
  VariableId y = symbols->InternVariable("y");
  std::vector<PlannedAtom> atoms = {
      {Atom(a, {Term::Variable(x), Term::Variable(y)}), AtomSource::kFull}};
  int count = 0;
  MatchAtoms(db, nullptr, atoms,
             [&](const Binding&) {
               ++count;
               return false;  // stop after the first match
             },
             nullptr);
  EXPECT_EQ(count, 1);
}

TEST(CompiledRuleTest, CacheReplansOnlyOnFourfoldDrift) {
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "e(1, 2). e(2, 3). s(1).");
  Rule rule = ParseRuleOrDie(symbols, "h(x, y) :- e(x, y), s(x).");
  PredicateId e = symbols->LookupPredicate("e").value();

  CompiledRule plan = CompiledRule::Compile(
      rule, /*delta_pos=*/std::size_t(-1), /*use_old=*/false, db, nullptr);
  EXPECT_FALSE(plan.NeedsReplan(db, nullptr));

  // Under 4x growth (2 -> 7 rows is < 4x): the cached order stands.
  for (std::int64_t i = 0; i < 5; ++i) {
    db.AddFact(e, {Value::Int(10 + i), Value::Int(11 + i)});
  }
  EXPECT_FALSE(plan.NeedsReplan(db, nullptr));

  // Crossing 4x (2 -> 8) invalidates.
  db.AddFact(e, {Value::Int(90), Value::Int(91)});
  EXPECT_TRUE(plan.NeedsReplan(db, nullptr));
  plan.Replan(db, nullptr);
  EXPECT_FALSE(plan.NeedsReplan(db, nullptr));
}

TEST(CompiledRuleTest, CacheInvalidatesOnKnobFlip) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "e(1, 2). s(1).");
  Rule rule = ParseRuleOrDie(symbols, "h(x, y) :- e(x, y), s(x).");
  CompiledRule plan = CompiledRule::Compile(
      rule, /*delta_pos=*/std::size_t(-1), /*use_old=*/false, db, nullptr);
  EXPECT_FALSE(plan.NeedsReplan(db, nullptr));
  SetGreedyJoinOrdering(false);
  EXPECT_TRUE(plan.NeedsReplan(db, nullptr));
  SetGreedyJoinOrdering(true);
  SetIndexLookups(false);
  EXPECT_TRUE(plan.NeedsReplan(db, nullptr));
  SetIndexLookups(true);
  SetMultiwayJoins(false);
  EXPECT_TRUE(plan.NeedsReplan(db, nullptr));
}

/// With greedy planning off the order is textual and fixed, so pure
/// growth must NOT trigger replanning (nothing about the plan depends on
/// sizes).
TEST(CompiledRuleTest, FixedOrderPlansNeverReplanOnGrowth) {
  KnobGuard guard;
  SetGreedyJoinOrdering(false);
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "e(1, 2). s(1).");
  Rule rule = ParseRuleOrDie(symbols, "h(x, y) :- e(x, y), s(x).");
  PredicateId e = symbols->LookupPredicate("e").value();
  CompiledRule plan = CompiledRule::Compile(
      rule, /*delta_pos=*/std::size_t(-1), /*use_old=*/false, db, nullptr);
  for (std::int64_t i = 0; i < 64; ++i) {
    db.AddFact(e, {Value::Int(100 + i), Value::Int(101 + i)});
  }
  EXPECT_FALSE(plan.NeedsReplan(db, nullptr));
}

/// Full engine run: the cached-plan semi-naive fixpoint must equal the
/// naive one -- the same facts, each derived once -- and find each
/// complete body match at most as often as naive evaluation, which
/// rediscovers every old match in every round.
TEST(CompiledRuleTest, SemiNaiveFixpointMatchesLegacy) {
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols,
                                "g(x, z) :- a(x, z).\n"
                                "g(x, z) :- a(x, y), g(y, z).\n");
  PredicateId a = symbols->LookupPredicate("a").value();
  Database base(symbols);
  AddGraphFacts({GraphShape::kRandom, 24, 48, 11}, a, &base);

  Database d1(symbols);
  d1.UnionWith(base);
  EvalStats semi_naive = EvaluateSemiNaive(p, &d1).value();

  Database d2(symbols);
  d2.UnionWith(base);
  EvalStats naive = EvaluateNaive(p, &d2).value();

  EXPECT_EQ(d1, d2);
  EXPECT_EQ(semi_naive.facts_derived, naive.facts_derived);
  EXPECT_GT(semi_naive.facts_derived, 0u);
  EXPECT_LE(semi_naive.match.substitutions, naive.match.substitutions);
}

/// Negated literals are tested against the full database after the
/// positive part binds: the VM's id-space membership probe must filter
/// exactly the matches Execute's NegationHolds does.
TEST(CompiledRuleTest, NegationAgreesWithLegacy) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(
      symbols, "e(1, 2). e(2, 3). e(3, 1). blocked(2).");
  Rule rule = ParseRuleOrDie(symbols, "h(x, y) :- e(x, y), not blocked(y).");

  Database out(symbols);
  EXPECT_EQ(ApplyRule(rule, db, &out, nullptr), 2u);
  for (bool greedy : {true, false}) {
    for (bool indexed : {true, false}) {
      SetGreedyJoinOrdering(greedy);
      SetIndexLookups(indexed);
      ExpectApplyRuleMatchesExecute(
          rule, db,
          "greedy=" + std::to_string(greedy) +
              " idx=" + std::to_string(indexed));
    }
  }
}

}  // namespace
}  // namespace datalog
