#include "eval/database.h"

#include <cstdint>
#include <limits>
#include <string>

#include "gtest/gtest.h"
#include "test_util.h"

namespace datalog {
namespace {

using testing::MakeSymbols;
using testing::ParseDatabaseOrDie;

TEST(DatabaseTest, ParseAndContains) {
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "a(1, 2). a(1, 4). a(4, 1).");
  PredicateId a = symbols->LookupPredicate("a").value();
  EXPECT_EQ(db.NumFacts(), 3u);
  EXPECT_TRUE(db.Contains(a, {Value::Int(1), Value::Int(2)}));
  EXPECT_FALSE(db.Contains(a, {Value::Int(2), Value::Int(1)}));
}

TEST(DatabaseTest, Int64MinRoundTripsThroughText) {
  auto symbols = MakeSymbols();
  Database db(symbols);
  PredicateId p = symbols->InternPredicate("p", 1).value();
  db.AddFact(p, {Value::Int(std::numeric_limits<std::int64_t>::min())});
  const std::string text = db.ToString();
  EXPECT_EQ(text, "p(-9223372036854775808).\n");
  Result<Database> reparsed = ParseDatabase(symbols, text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(*reparsed, db);
}

TEST(DatabaseTest, FailingParseInternsNoValue) {
  // The literals are used by no other test, so they can reach the
  // process-wide dictionary only through these parses.
  ValueDictionary& dict = ValueDictionary::Global();
  const std::uint32_t before = dict.size();
  // A grammar error after two facts, then a lexical error after one.
  EXPECT_FALSE(ParseDatabase(MakeSymbols(),
                             "p(7405119123344551). p(7405119123344552). q(1, .")
                   .ok());
  EXPECT_FALSE(
      ParseDatabase(MakeSymbols(), "p(7405119123344553).\nq(1) $").ok());
  EXPECT_EQ(dict.size(), before);
  EXPECT_EQ(dict.LookupId(Value::Int(7405119123344551)),
            ValueDictionary::kInvalidId);
  EXPECT_EQ(dict.LookupId(Value::Int(7405119123344553)),
            ValueDictionary::kInvalidId);
}

TEST(DatabaseTest, AddFactDeduplicates) {
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "a(1, 2).");
  PredicateId a = symbols->LookupPredicate("a").value();
  EXPECT_FALSE(db.AddFact(a, {Value::Int(1), Value::Int(2)}));
  EXPECT_TRUE(db.AddFact(a, {Value::Int(7), Value::Int(8)}));
  EXPECT_EQ(db.NumFacts(), 2u);
}

TEST(DatabaseTest, AddAtomRejectsVariables) {
  auto symbols = MakeSymbols();
  Database db(symbols);
  PredicateId p = symbols->InternPredicate("p", 1).value();
  Status s = db.AddAtom(Atom(p, {Term::Variable(0)}));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(DatabaseTest, UnionWith) {
  auto symbols = MakeSymbols();
  Database d1 = ParseDatabaseOrDie(symbols, "a(1, 2). b(3).");
  Database d2 = ParseDatabaseOrDie(symbols, "a(1, 2). c(4).");
  std::size_t added = d1.UnionWith(d2);
  EXPECT_EQ(added, 1u);
  EXPECT_EQ(d1.NumFacts(), 3u);
}

TEST(DatabaseTest, SubsetAndEquality) {
  auto symbols = MakeSymbols();
  Database d1 = ParseDatabaseOrDie(symbols, "a(1, 2).");
  Database d2 = ParseDatabaseOrDie(symbols, "a(1, 2). a(2, 3).");
  EXPECT_TRUE(d1.IsSubsetOf(d2));
  EXPECT_FALSE(d2.IsSubsetOf(d1));
  EXPECT_NE(d1, d2);
  Database d3 = ParseDatabaseOrDie(symbols, "a(2, 3). a(1, 2).");
  EXPECT_EQ(d2, d3);  // set semantics, order-independent
}

TEST(DatabaseTest, EmptyDatabase) {
  auto symbols = MakeSymbols();
  Database db(symbols);
  EXPECT_TRUE(db.empty());
  EXPECT_TRUE(db.NonEmptyPredicates().empty());
}

TEST(DatabaseTest, RelationForUnknownPredicateIsEmpty) {
  auto symbols = MakeSymbols();
  Database db(symbols);
  PredicateId p = symbols->InternPredicate("p", 2).value();
  EXPECT_TRUE(db.relation(p).empty());
}

TEST(DatabaseTest, ToStringIsSortedAndParsable) {
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "b(2). a(1, 2).");
  EXPECT_EQ(db.ToString(), "a(1, 2).\nb(2).\n");
  Database reparsed = ParseDatabaseOrDie(symbols, db.ToString());
  EXPECT_EQ(db, reparsed);
}

TEST(DatabaseTest, ZeroArityFacts) {
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "ready.");
  PredicateId ready = symbols->LookupPredicate("ready").value();
  EXPECT_TRUE(db.Contains(ready, {}));
}

}  // namespace
}  // namespace datalog
