#include "eval/rule_matcher.h"

#include <string>

#include "eval/compiled_rule.h"
#include "eval/relation.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace datalog {
namespace {

using testing::ExecutePlan;
using testing::ExpectSameRun;
using testing::KnobGuard;
using testing::MakeSymbols;
using testing::ParseDatabaseOrDie;
using testing::ParseRuleOrDie;

std::size_t CountMatches(const Database& db, const std::vector<Atom>& atoms) {
  std::vector<PlannedAtom> planned;
  for (const Atom& a : atoms) planned.push_back({a, AtomSource::kFull});
  std::size_t count = 0;
  MatchAtoms(db, nullptr, planned,
             [&count](const Binding&) {
               ++count;
               return true;
             },
             nullptr);
  return count;
}

TEST(RuleMatcherTest, SingleAtomAllFree) {
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "a(1, 2). a(2, 3). a(3, 4).");
  PredicateId a = symbols->LookupPredicate("a").value();
  VariableId x = symbols->InternVariable("x");
  VariableId y = symbols->InternVariable("y");
  EXPECT_EQ(CountMatches(db, {Atom(a, {Term::Variable(x), Term::Variable(y)})}),
            3u);
}

TEST(RuleMatcherTest, ConstantRestriction) {
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "a(1, 2). a(1, 3). a(2, 3).");
  PredicateId a = symbols->LookupPredicate("a").value();
  VariableId y = symbols->InternVariable("y");
  EXPECT_EQ(CountMatches(db, {Atom(a, {Term::Int(1), Term::Variable(y)})}), 2u);
  EXPECT_EQ(CountMatches(db, {Atom(a, {Term::Int(9), Term::Variable(y)})}), 0u);
}

TEST(RuleMatcherTest, RepeatedVariableWithinAtom) {
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "a(1, 1). a(1, 2). a(3, 3).");
  PredicateId a = symbols->LookupPredicate("a").value();
  VariableId x = symbols->InternVariable("x");
  // a(x, x) matches only the diagonal tuples.
  EXPECT_EQ(CountMatches(db, {Atom(a, {Term::Variable(x), Term::Variable(x)})}),
            2u);
}

TEST(RuleMatcherTest, JoinAcrossAtoms) {
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "a(1, 2). a(2, 3). a(3, 4).");
  PredicateId a = symbols->LookupPredicate("a").value();
  VariableId x = symbols->InternVariable("x");
  VariableId y = symbols->InternVariable("y");
  VariableId z = symbols->InternVariable("z");
  // a(x, y), a(y, z): the two-step paths 1-2-3 and 2-3-4.
  EXPECT_EQ(CountMatches(db, {Atom(a, {Term::Variable(x), Term::Variable(y)}),
                              Atom(a, {Term::Variable(y), Term::Variable(z)})}),
            2u);
}

TEST(RuleMatcherTest, EmptyBodyYieldsOneMatch) {
  auto symbols = MakeSymbols();
  Database db(symbols);
  EXPECT_EQ(CountMatches(db, {}), 1u);
}

TEST(RuleMatcherTest, CallbackCanStopEnumeration) {
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "a(1, 2). a(2, 3). a(3, 4).");
  PredicateId a = symbols->LookupPredicate("a").value();
  VariableId x = symbols->InternVariable("x");
  VariableId y = symbols->InternVariable("y");
  std::size_t seen = 0;
  MatchAtoms(db, nullptr,
             {{Atom(a, {Term::Variable(x), Term::Variable(y)}),
               AtomSource::kFull}},
             [&seen](const Binding&) {
               ++seen;
               return false;
             },
             nullptr);
  EXPECT_EQ(seen, 1u);
}

TEST(RuleMatcherTest, ApplyRuleDerivesHeads) {
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "a(1, 2). a(2, 3).");
  Rule rule = ParseRuleOrDie(symbols, "g(x, z) :- a(x, z).");
  MatchStats stats;
  std::size_t added = ApplyRule(rule, db, &db, &stats);
  EXPECT_EQ(added, 2u);
  EXPECT_EQ(stats.substitutions, 2u);
  PredicateId g = symbols->LookupPredicate("g").value();
  EXPECT_TRUE(db.Contains(g, {Value::Int(1), Value::Int(2)}));
}

TEST(RuleMatcherTest, ApplyRuleIntoAliasedDatabaseIsNonRecursive) {
  // Applying g(x,z) :- g(x,y), g(y,z) once must not chain into facts
  // derived within the same application.
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "g(1, 2). g(2, 3). g(3, 4).");
  Rule rule = ParseRuleOrDie(symbols, "g(x, z) :- g(x, y), g(y, z).");
  ApplyRule(rule, db, &db, nullptr);
  PredicateId g = symbols->LookupPredicate("g").value();
  EXPECT_TRUE(db.Contains(g, {Value::Int(1), Value::Int(3)}));
  EXPECT_TRUE(db.Contains(g, {Value::Int(2), Value::Int(4)}));
  // 1 -> 4 needs two applications.
  EXPECT_FALSE(db.Contains(g, {Value::Int(1), Value::Int(4)}));
}

TEST(RuleMatcherTest, ApplyRuleWithConstantInHead) {
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "a(1, 2).");
  Rule rule = ParseRuleOrDie(symbols, "g(x, 99) :- a(x, y).");
  ApplyRule(rule, db, &db, nullptr);
  PredicateId g = symbols->LookupPredicate("g").value();
  EXPECT_TRUE(db.Contains(g, {Value::Int(1), Value::Int(99)}));
}

TEST(RuleMatcherTest, NegatedLiteralFiltersMatches) {
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "a(1). a(2). b(2).");
  Rule rule = ParseRuleOrDie(symbols, "p(x) :- a(x), not b(x).");
  ApplyRule(rule, db, &db, nullptr);
  PredicateId p = symbols->LookupPredicate("p").value();
  EXPECT_TRUE(db.Contains(p, {Value::Int(1)}));
  EXPECT_FALSE(db.Contains(p, {Value::Int(2)}));
}

/// A delta read in place -- rows [old, mark) of the full relation --
/// derives the same rows in the same order, and visits and counts
/// exactly the rows a copy of that range would, on both executors: the
/// bytecode VM (left-deep and multiway plans) and the depth-first
/// Execute. Rows past the mark are in the full relation but never in the
/// delta.
TEST(RuleMatcherTest, InPlaceDeltaRangeMatchesACopiedDelta) {
  KnobGuard guard;
  const char* const kRules[] = {
      "h(x, z) :- g(x, y), g(y, z).",
      "h(x, y) :- g(x, y), g(y, x).",
      "h(x, y) :- g(x, y), g(y, z), g(z, x).",  // multiway when enabled
      "h(x, y) :- g(x, x), g(x, y).",
      "h(x, y) :- g(x, y), g(1, x).",
  };
  for (bool multiway : {true, false}) {
    SetMultiwayJoins(multiway);
    auto symbols = MakeSymbols();
    Database full = ParseDatabaseOrDie(
        symbols,
        "g(1, 2). g(2, 3). g(3, 1). g(2, 2). g(3, 4). g(1, 3). g(4, 2). "
        "g(2, 1). g(1, 1).");
    const PredicateId g = symbols->LookupPredicate("g").value();
    const std::size_t old = 3;
    const std::size_t mark = 7;
    Database copy(symbols);
    copy.AddRowRange(g, full.relation(g), old, mark);
    DeltaRanges in_place(/*use_old=*/true);
    in_place.SetOld(g, old);
    in_place.SetDelta(g, RowSpan{old, mark});
    DeltaRanges copied = DeltaRanges::Whole(copy, /*use_old=*/true);
    copied.SetOld(g, old);
    for (const char* text : kRules) {
      const Rule rule = ParseRuleOrDie(symbols, text);
      const PredicateId h = rule.head().predicate();
      for (std::size_t p = 0; p < rule.body().size(); ++p) {
        Database out_in_place(symbols);
        Database out_copied(symbols);
        MatchStats in_place_stats;
        MatchStats copied_stats;
        const std::size_t added_in_place = ApplyRuleWithDelta(
            rule, full, in_place, p, &out_in_place.MutableRelation(h),
            &in_place_stats);
        const std::size_t added_copied = ApplyRuleWithDelta(
            rule, full, copied, p, &out_copied.MutableRelation(h),
            &copied_stats);
        const std::string label = std::string(text) + " delta at " +
                                  std::to_string(p) + " multiway " +
                                  std::to_string(multiway);
        EXPECT_EQ(added_in_place, added_copied) << label;
        const Relation& a = out_in_place.relation(h);
        const Relation& b = out_copied.relation(h);
        ASSERT_EQ(a.size(), b.size()) << label;
        for (std::size_t i = 0; i < a.size(); ++i) {
          EXPECT_EQ(a.row(i), b.row(i)) << label << " row " << i;
        }
        EXPECT_EQ(in_place_stats.substitutions, copied_stats.substitutions)
            << label;
        EXPECT_EQ(in_place_stats.index_lookups, copied_stats.index_lookups)
            << label;
        EXPECT_EQ(in_place_stats.tuples_scanned, copied_stats.tuples_scanned)
            << label;

        const CompiledRule plan =
            CompiledRule::Compile(rule, p, /*use_old=*/true, full, &in_place);
        ExpectSameRun(ExecutePlan(plan, full, &in_place),
                      ExecutePlan(plan, full, &copied), label + " (Execute)");
      }
    }
  }
}

TEST(RuleMatcherTest, DeltaRestrictsOnePosition) {
  auto symbols = MakeSymbols();
  Database full = ParseDatabaseOrDie(symbols, "g(1, 2). g(2, 3).");
  Database delta(symbols);
  PredicateId g = symbols->LookupPredicate("g").value();
  delta.AddFact(g, {Value::Int(2), Value::Int(3)});
  Rule rule = ParseRuleOrDie(symbols, "h(x, z) :- g(x, y), g(y, z).");
  Database out(symbols);
  PredicateId h = symbols->LookupPredicate("h").value();
  const DeltaRanges ranges = DeltaRanges::Whole(delta, /*use_old=*/false);
  // Position 0 in delta: g(2,3) as first atom needs g(3,z) - none.
  EXPECT_EQ(ApplyRuleWithDelta(rule, full, ranges, 0, &out.MutableRelation(h),
                               nullptr),
            0u);
  // Position 1 in delta: g(x,2) joined with delta g(2,3): h(1,3).
  EXPECT_EQ(ApplyRuleWithDelta(rule, full, ranges, 1, &out.MutableRelation(h),
                               nullptr),
            1u);
  EXPECT_TRUE(out.Contains(h, {Value::Int(1), Value::Int(3)}));
}

TEST(RuleMatcherTest, StatsCountWork) {
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "a(1, 2). a(2, 3). a(3, 4).");
  Rule rule = ParseRuleOrDie(symbols, "g(x, z) :- a(x, y), a(y, z).");
  MatchStats stats;
  ApplyRule(rule, db, &db, &stats);
  EXPECT_EQ(stats.substitutions, 2u);
  EXPECT_GT(stats.index_lookups, 0u);
  EXPECT_GT(stats.tuples_scanned, 0u);
}

}  // namespace
}  // namespace datalog
