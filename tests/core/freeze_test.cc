#include "core/freeze.h"

#include "gtest/gtest.h"
#include "test_util.h"

namespace datalog {
namespace {

using testing::MakeSymbols;
using testing::ParseRuleOrDie;

TEST(FreezeTest, PoolIsConsistentPerVariable) {
  FrozenConstantPool pool;
  Value a = pool.For(1);
  Value b = pool.For(2);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.For(1), a);
  EXPECT_TRUE(a.is_frozen());
}

TEST(FreezeTest, FreshNeverRepeats) {
  FrozenConstantPool pool;
  EXPECT_NE(pool.Fresh(), pool.Fresh());
}

TEST(FreezeTest, FreezeRuleSharedVariables) {
  // Freezing g(x, z) :- g(x, y), g(y, z): the shared y freezes to the same
  // constant in both body atoms; the head uses x's and z's constants.
  auto symbols = MakeSymbols();
  Rule rule = ParseRuleOrDie(symbols, "g(x, z) :- g(x, y), g(y, z).");
  Result<FrozenRule> frozen = FreezeRule(rule, symbols);
  ASSERT_TRUE(frozen.ok());
  EXPECT_EQ(frozen->body.NumFacts(), 2u);
  PredicateId g = symbols->LookupPredicate("g").value();
  const Relation& rel = frozen->body.relation(g);
  ASSERT_EQ(rel.size(), 2u);
  const RowRef first = rel.row(0);
  const RowRef second = rel.row(1);
  EXPECT_EQ(first[1], second[0]);  // shared y
  EXPECT_EQ(frozen->head_tuple[0], first[0]);
  EXPECT_EQ(frozen->head_tuple[1], second[1]);
  EXPECT_NE(first[0], first[1]);  // distinct constants for distinct vars
}

TEST(FreezeTest, ConstantsPassThrough) {
  auto symbols = MakeSymbols();
  Rule rule = ParseRuleOrDie(symbols, "g(x, 3) :- a(x, 3).");
  Result<FrozenRule> frozen = FreezeRule(rule, symbols);
  ASSERT_TRUE(frozen.ok());
  EXPECT_EQ(frozen->head_tuple[1], Value::Int(3));
  PredicateId a = symbols->LookupPredicate("a").value();
  EXPECT_EQ(frozen->body.relation(a).row(0)[1], Value::Int(3));
}

TEST(FreezeTest, FactFreezesToEmptyBody) {
  auto symbols = MakeSymbols();
  Rule rule = ParseRuleOrDie(symbols, "g(1, 2).");
  Result<FrozenRule> frozen = FreezeRule(rule, symbols);
  ASSERT_TRUE(frozen.ok());
  EXPECT_TRUE(frozen->body.empty());
  EXPECT_EQ(frozen->head_tuple, (Tuple{Value::Int(1), Value::Int(2)}));
}

TEST(FreezeTest, DuplicateBodyAtomsCollapseInDatabase) {
  auto symbols = MakeSymbols();
  Rule rule = ParseRuleOrDie(symbols, "g(x, z) :- a(x, z), a(x, z).");
  Result<FrozenRule> frozen = FreezeRule(rule, symbols);
  ASSERT_TRUE(frozen.ok());
  EXPECT_EQ(frozen->body.NumFacts(), 1u);  // a DB is a set of ground atoms
}

TEST(FreezeTest, NegatedRuleRejected) {
  auto symbols = MakeSymbols();
  Rule rule = ParseRuleOrDie(symbols, "p(x) :- q(x), not r(x).");
  EXPECT_FALSE(FreezeRule(rule, symbols).ok());
}

}  // namespace
}  // namespace datalog
