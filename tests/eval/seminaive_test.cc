#include "eval/seminaive.h"

#include <cstddef>
#include <cstdint>

#include "eval/naive.h"
#include "eval/parallel.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/block_cache.h"
#include "workload/graph_gen.h"

namespace datalog {
namespace {

using testing::MakeSymbols;
using testing::ParseDatabaseOrDie;
using testing::ParseProgramOrDie;

constexpr const char* kTransitiveClosure =
    "g(x, z) :- a(x, z).\n"
    "g(x, z) :- g(x, y), g(y, z).\n";

TEST(SemiNaiveTest, PaperExample2) {
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols, kTransitiveClosure);
  Database db = ParseDatabaseOrDie(symbols, "a(1, 2). a(1, 4). a(4, 1).");
  ASSERT_TRUE(EvaluateSemiNaive(p, &db).ok());
  Database expected = ParseDatabaseOrDie(
      symbols,
      "a(1, 2). a(1, 4). a(4, 1)."
      "g(1, 2). g(1, 4). g(4, 1). g(1, 1). g(4, 4). g(4, 2).");
  EXPECT_EQ(db, expected) << db.ToString();
}

TEST(SemiNaiveTest, IdbAsInput) {
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols, kTransitiveClosure);
  // Example 4's uniform-equivalence scenario: empty A, nonempty G.
  Database db = ParseDatabaseOrDie(symbols, "g(1, 2). g(2, 3).");
  ASSERT_TRUE(EvaluateSemiNaive(p, &db).ok());
  PredicateId g = symbols->LookupPredicate("g").value();
  EXPECT_TRUE(db.Contains(g, {Value::Int(1), Value::Int(3)}));
  EXPECT_EQ(db.NumFacts(), 3u);
}

TEST(SemiNaiveTest, ProgramFacts) {
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols,
                                "a(1, 2).\n"
                                "a(2, 3).\n"
                                "g(x, z) :- a(x, z).\n"
                                "g(x, z) :- g(x, y), g(y, z).\n");
  Database db(symbols);
  ASSERT_TRUE(EvaluateSemiNaive(p, &db).ok());
  PredicateId g = symbols->LookupPredicate("g").value();
  EXPECT_TRUE(db.Contains(g, {Value::Int(1), Value::Int(3)}));
}

TEST(SemiNaiveTest, MatchesNaiveOnChain) {
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols, kTransitiveClosure);
  PredicateId a = symbols->LookupPredicate("a").value();
  Database d1(symbols), d2(symbols);
  AddGraphFacts({GraphShape::kChain, 24}, a, &d1);
  AddGraphFacts({GraphShape::kChain, 24}, a, &d2);
  ASSERT_TRUE(EvaluateNaive(p, &d1).ok());
  ASSERT_TRUE(EvaluateSemiNaive(p, &d2).ok());
  EXPECT_EQ(d1, d2);
}

TEST(SemiNaiveTest, SecondEvaluationIsServedByTheBlockCache) {
  // What one evaluation frees serves the next: from an empty cache, a
  // second identical evaluation sends no cacheable request to operator
  // new. The cycle's closure is all 4,096 pairs, and the nonlinear rule
  // derives far more candidates than that, so the dedup table and the
  // derive buffers pass the cache's floor.
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols, kTransitiveClosure);
  PredicateId a = symbols->LookupPredicate("a").value();
  Database edb(symbols);
  AddGraphFacts({GraphShape::kCycle, 64}, a, &edb);
  auto evaluate = [&] {
    Database db = edb;
    ASSERT_TRUE(EvaluateSemiNaive(p, &db).ok());
    EXPECT_EQ(db.NumFacts(), 64u + 64u * 64u);
  };
  BlockCache& cache = BlockCache::Global();
  cache.Release();
  const std::uint64_t misses = cache.stats().misses;
  evaluate();
  const std::uint64_t first_misses = cache.stats().misses - misses;
  EXPECT_GT(first_misses, 0u);
  const std::uint64_t hits = cache.stats().hits;
  evaluate();
  EXPECT_EQ(cache.stats().misses - misses, first_misses);
  EXPECT_GE(cache.stats().hits - hits, first_misses);
}

struct ShapeParam {
  ShapeParam(GraphShape shape, std::size_t nodes, std::size_t edges)
      : shape(shape), nodes(nodes), edges(edges) {}

  GraphShape shape;
  // gtest prints a parameter with no PrintTo as its raw bytes, and the
  // test names are built from that print. This field fills the bytes the
  // compiler would otherwise pad after `shape`, so that no byte of a test
  // name is uninitialised memory and the names are the same on every run.
  std::uint32_t unused = 0;
  std::size_t nodes;
  std::size_t edges;
};
static_assert(sizeof(ShapeParam) ==
              sizeof(GraphShape) + sizeof(std::uint32_t) +
                  2 * sizeof(std::size_t));

class SemiNaiveEquivalenceTest : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(SemiNaiveEquivalenceTest, AgreesWithNaive) {
  // Property: semi-naive computes exactly the naive fixpoint on every
  // graph shape, including cyclic ones.
  const ShapeParam param = GetParam();
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols,
                                "g(x, z) :- a(x, z).\n"
                                "g(x, z) :- a(x, y), g(y, z).\n"
                                "h(x, z) :- g(x, y), g(y, z), a(z, x).\n");
  PredicateId a = symbols->LookupPredicate("a").value();
  Database d1(symbols), d2(symbols);
  GraphOptions options{param.shape, param.nodes, param.edges, 7};
  AddGraphFacts(options, a, &d1);
  AddGraphFacts(options, a, &d2);
  ASSERT_TRUE(EvaluateNaive(p, &d1).ok());
  Result<EvalStats> stats = EvaluateSemiNaive(p, &d2);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(d1, d2);
  // Semi-naive does strictly less join work than naive on recursive
  // workloads of this size.
  Database d3(symbols);
  AddGraphFacts(options, a, &d3);
  Result<EvalStats> naive_stats = EvaluateNaive(p, &d3);
  ASSERT_TRUE(naive_stats.ok());
  EXPECT_LE(stats->match.substitutions, naive_stats->match.substitutions);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SemiNaiveEquivalenceTest,
    ::testing::Values(ShapeParam{GraphShape::kChain, 16, 0},
                      ShapeParam{GraphShape::kCycle, 12, 0},
                      ShapeParam{GraphShape::kBinaryTree, 31, 0},
                      ShapeParam{GraphShape::kGrid, 25, 0},
                      ShapeParam{GraphShape::kRandom, 20, 30},
                      ShapeParam{GraphShape::kRandom, 15, 60}));

TEST(SemiNaiveTest, PerRuleStatsBreakDownTheWork) {
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols, kTransitiveClosure);
  Database db = ParseDatabaseOrDie(symbols, "a(1, 2). a(2, 3). a(3, 4).");
  Result<EvalStats> stats = EvaluateSemiNaive(p, &db);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->per_rule.size(), 2u);
  // The base rule contributes the 3 copies of a; the recursive rule the
  // other 3 closure facts.
  EXPECT_EQ(stats->per_rule[0].facts, 3u);
  EXPECT_EQ(stats->per_rule[1].facts, 3u);
  // Totals reconcile.
  std::uint64_t facts = 0, subs = 0;
  for (const RuleStats& rs : stats->per_rule) {
    facts += rs.facts;
    subs += rs.substitutions;
  }
  EXPECT_EQ(facts, stats->facts_derived);
  EXPECT_EQ(subs, stats->match.substitutions);
}

TEST(SemiNaiveTest, OldDeltaFullCoversEachDerivationExactlyOnce) {
  // On a chain 0..n-1, the doubly recursive TC program has exactly
  // C(n,3) instantiations of the recursive rule (one per i<j<k) and n-1
  // of the base rule. The old/delta/full scheme must find each exactly
  // once, so the substitution counter equals the closed form.
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols, kTransitiveClosure);
  PredicateId a = symbols->LookupPredicate("a").value();
  for (std::size_t n : {8u, 12u, 16u}) {
    Database db(symbols);
    AddGraphFacts({GraphShape::kChain, n}, a, &db);
    Result<EvalStats> stats = EvaluateSemiNaive(p, &db);
    ASSERT_TRUE(stats.ok());
    std::uint64_t expected = n * (n - 1) * (n - 2) / 6 + (n - 1);
    EXPECT_EQ(stats->match.substitutions, expected) << "n=" << n;
  }
}

TEST(SccSemiNaiveTest, MatchesPlainSemiNaive) {
  // Multi-layer program: reach feeds pairs feeds triangles.
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(
      symbols,
      "reach(x, z) :- a(x, z).\n"
      "reach(x, z) :- a(x, y), reach(y, z).\n"
      "pairs(x, z) :- reach(x, z), reach(z, x).\n"
      "tri(x) :- pairs(x, y), a(y, x).\n");
  Database base(symbols);
  PredicateId a = symbols->LookupPredicate("a").value();
  AddGraphFacts({GraphShape::kRandom, 10, 20, 13}, a, &base);

  Database d1(symbols), d2(symbols);
  d1.UnionWith(base);
  d2.UnionWith(base);
  Result<EvalStats> plain = EvaluateSemiNaive(p, &d1);
  Result<EvalStats> scc = EvaluateSemiNaiveScc(p, &d2);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(scc.ok());
  EXPECT_EQ(d1, d2);
  // SCC-wise evaluation never does MORE rule-application passes; on this
  // layered program it does fewer (upper layers skip the closure's
  // rounds).
  EXPECT_LE(scc->rule_applications, plain->rule_applications);
  // Per-rule breakdown stays program-indexed.
  ASSERT_EQ(scc->per_rule.size(), p.NumRules());
  EXPECT_GT(scc->per_rule[0].facts + scc->per_rule[1].facts, 0u);
}

TEST(SccSemiNaiveTest, HandlesFactsAndSingleScc) {
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols,
                                "a(1, 2).\n"
                                "g(x, z) :- a(x, z).\n"
                                "g(x, z) :- g(x, y), g(y, z).\n");
  Database db(symbols);
  ASSERT_TRUE(EvaluateSemiNaiveScc(p, &db).ok());
  PredicateId g = symbols->LookupPredicate("g").value();
  EXPECT_TRUE(db.Contains(g, {Value::Int(1), Value::Int(2)}));
}

TEST(SemiNaiveTest, SkipsPassesThatReadAnEmptyRange) {
  // In round 1 nothing is old, so the pass whose delta is b's reads a's
  // empty old snapshot and can derive nothing: both engines skip it and
  // count one application, not two.
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols, "r(x, z) :- a(x, y), b(y, z).\n");
  const Database edb = ParseDatabaseOrDie(
      symbols, "a(1, 2). a(2, 3). a(5, 9). b(2, 4). b(3, 6). b(7, 8).");
  Database naive = edb;
  ASSERT_TRUE(EvaluateNaive(p, &naive).ok());
  EXPECT_EQ(naive.relation(symbols->LookupPredicate("r").value()).size(), 2u);

  Database seq = edb;
  Result<EvalStats> seq_stats = EvaluateSemiNaive(p, &seq);
  ASSERT_TRUE(seq_stats.ok());
  EXPECT_EQ(seq_stats->rule_applications, 1u);
  EXPECT_EQ(seq_stats->per_rule[0].applications, 1u);
  EXPECT_EQ(seq, naive) << seq.ToString();

  Database par = edb;
  Result<EvalStats> par_stats = EvaluateSemiNaiveParallel(p, &par, 2);
  ASSERT_TRUE(par_stats.ok()) << par_stats.status().ToString();
  EXPECT_EQ(par_stats->rule_applications, 1u);
  EXPECT_EQ(par_stats->per_rule[0].applications, 1u);
  EXPECT_EQ(par, naive) << par.ToString();
}

TEST(SemiNaiveTest, EmptyProgramIsIdentity) {
  auto symbols = MakeSymbols();
  Program p(symbols);
  Database db = ParseDatabaseOrDie(symbols, "a(1, 2).");
  ASSERT_TRUE(EvaluateSemiNaive(p, &db).ok());
  EXPECT_EQ(db.NumFacts(), 1u);
}

}  // namespace
}  // namespace datalog
