#include "eval/parallel.h"

#include <cstdint>
#include <random>
#include <vector>

#include "eval/naive.h"
#include "eval/seminaive.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "workload/graph_gen.h"

namespace datalog {
namespace {

using testing::MakeSymbols;
using testing::ParseDatabaseOrDie;
using testing::ParseProgramOrDie;

TEST(ParallelTest, TransitiveClosureMatchesSequential) {
  for (std::size_t threads : {1u, 2u, 4u}) {
    auto symbols = MakeSymbols();
    Program p = ParseProgramOrDie(symbols,
                                  "g(x, z) :- a(x, z).\n"
                                  "g(x, z) :- a(x, y), g(y, z).\n");
    Database seq = ParseDatabaseOrDie(symbols, "a(1,2). a(2,3). a(3,4).");
    Database par = seq;
    ASSERT_TRUE(EvaluateSemiNaive(p, &seq).ok());
    Result<EvalStats> stats = EvaluateSemiNaiveParallel(p, &par, threads);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(seq, par) << "threads=" << threads;
    EXPECT_EQ(seq.ToString(), par.ToString());
    EXPECT_GT(stats->parallel_rounds, 0u);
    EXPECT_GT(stats->parallel_tasks, 0u);
  }
}

TEST(ParallelTest, LargeClosureShardsTheDelta) {
  // > 64 delta rows per round forces the shard fan-out path.
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols,
                                "g(x, z) :- a(x, z).\n"
                                "g(x, z) :- a(x, y), g(y, z).\n");
  PredicateId a = symbols->LookupPredicate("a").value();
  Database seq(symbols);
  AddGraphFacts({GraphShape::kRandom, 160, 480, 5}, a, &seq);
  Database par = seq;
  EvalStats seq_stats = EvaluateSemiNaive(p, &seq).value();
  Result<EvalStats> stats = EvaluateSemiNaiveParallel(p, &par, 4);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(seq, par);
  // Sharding must create more tasks than (rule x position) passes alone.
  EXPECT_GT(stats->parallel_tasks, stats->rule_applications);
  // Both engines reach the same fixpoint with the same total facts.
  EXPECT_EQ(stats->facts_derived, seq_stats.facts_derived);
}

TEST(ParallelTest, ProgramFactsAndIdbInputsHandled) {
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols,
                                "a(7, 8).\n"
                                "g(x, z) :- a(x, z).\n"
                                "g(x, z) :- a(x, y), g(y, z).\n");
  // IDB facts as inputs (the uniform semantics of Section IV).
  Database seq = ParseDatabaseOrDie(symbols, "a(1,2). g(2,9).");
  Database par = seq;
  ASSERT_TRUE(EvaluateSemiNaive(p, &seq).ok());
  ASSERT_TRUE(EvaluateSemiNaiveParallel(p, &par, 3).ok());
  EXPECT_EQ(seq, par);
  Tuple t{Value::Int(1), Value::Int(9)};
  EXPECT_TRUE(par.Contains(symbols->LookupPredicate("g").value(), t));
}

TEST(ParallelTest, EmptyDatabaseAndEmptyProgram) {
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols, "g(x, z) :- a(x, z).\n");
  Database db(symbols);
  Result<EvalStats> stats = EvaluateSemiNaiveParallel(p, &db, 4);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->facts_derived, 0u);
  EXPECT_TRUE(db.empty());

  Program empty;
  Database db2 = ParseDatabaseOrDie(symbols, "a(1,2).");
  Result<EvalStats> stats2 = EvaluateSemiNaiveParallel(empty, &db2, 4);
  ASSERT_TRUE(stats2.ok());
  EXPECT_EQ(db2.NumFacts(), 1u);
}

TEST(ParallelTest, RejectsNegationLikeSequential) {
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols, "g(x) :- a(x, y), not b(x, y).\n");
  Database db = ParseDatabaseOrDie(symbols, "a(1,2).");
  EXPECT_FALSE(EvaluateSemiNaiveParallel(p, &db, 2).ok());
  EXPECT_FALSE(EvaluateSemiNaiveSccParallel(p, &db, 2).ok());
}

TEST(ParallelTest, SccVariantMatchesFlatParallelAndSequential) {
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols,
                                "reach(x, z) :- a(x, z).\n"
                                "reach(x, z) :- a(x, y), reach(y, z).\n"
                                "pairs(x, z) :- reach(x, z), reach(z, x).\n"
                                "tri(x) :- pairs(x, y), a(y, x).\n");
  PredicateId a = symbols->LookupPredicate("a").value();
  Database base(symbols);
  AddGraphFacts({GraphShape::kRandom, 24, 60, 9}, a, &base);

  Database seq = base, par = base, scc = base;
  ASSERT_TRUE(EvaluateSemiNaive(p, &seq).ok());
  ASSERT_TRUE(EvaluateSemiNaiveParallel(p, &par, 4).ok());
  ASSERT_TRUE(EvaluateSemiNaiveSccParallel(p, &scc, 4).ok());
  EXPECT_EQ(seq, par);
  EXPECT_EQ(seq, scc);
}

TEST(ParallelTest, HardwareConcurrencyDefaultWorks) {
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols, "g(x, z) :- a(x, z).\n");
  Database db = ParseDatabaseOrDie(symbols, "a(1,2). a(2,3).");
  Database expect = db;
  ASSERT_TRUE(EvaluateSemiNaive(p, &expect).ok());
  ASSERT_TRUE(EvaluateSemiNaiveParallel(p, &db, /*num_threads=*/0).ok());
  EXPECT_EQ(expect, db);
}

TEST(ParallelTest, RunFixpointParallelUsableWithExternalPool) {
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols,
                                "g(x, z) :- a(x, z).\n"
                                "g(x, z) :- a(x, y), g(y, z).\n");
  Database seq = ParseDatabaseOrDie(symbols, "a(1,2). a(2,3). a(3,1).");
  Database par = seq;
  RunSemiNaiveFixpoint(p.rules(), &seq);
  ThreadPool pool(2);
  RunSemiNaiveFixpointParallel(p.rules(), &par, &pool);
  EXPECT_EQ(seq, par);
}

TEST(ParallelTest, DeterministicAcrossTenRunsAtFourThreads) {
  // Nondeterministic merges must never land unnoticed: the same program
  // at 4 threads must give identical databases AND identical counters on
  // every run (the timing fields are the only run-to-run variation).
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols,
                                "g(x, z) :- a(x, z).\n"
                                "g(x, z) :- g(x, y), g(y, z).\n"
                                "h(x, z) :- g(x, z), a(z, x).\n");
  PredicateId a = symbols->LookupPredicate("a").value();
  Database base(symbols);
  AddGraphFacts({GraphShape::kRandom, 48, 140, 17}, a, &base);

  std::string reference_db;
  EvalStats reference;
  for (int run = 0; run < 10; ++run) {
    Database db = base;
    Result<EvalStats> stats = EvaluateSemiNaiveParallel(p, &db, 4);
    ASSERT_TRUE(stats.ok());
    if (run == 0) {
      reference_db = db.ToString();
      reference = *stats;
      continue;
    }
    EXPECT_EQ(db.ToString(), reference_db) << "run " << run;
    EXPECT_EQ(stats->facts_derived, reference.facts_derived);
    EXPECT_EQ(stats->iterations, reference.iterations);
    EXPECT_EQ(stats->rule_applications, reference.rule_applications);
    EXPECT_EQ(stats->parallel_tasks, reference.parallel_tasks);
    EXPECT_EQ(stats->match.substitutions, reference.match.substitutions);
    EXPECT_EQ(stats->match.index_lookups, reference.match.index_lookups);
    EXPECT_EQ(stats->match.tuples_scanned, reference.match.tuples_scanned);
    ASSERT_EQ(stats->per_rule.size(), reference.per_rule.size());
    for (std::size_t i = 0; i < reference.per_rule.size(); ++i) {
      EXPECT_EQ(stats->per_rule[i].facts, reference.per_rule[i].facts);
      EXPECT_EQ(stats->per_rule[i].applications,
                reference.per_rule[i].applications);
      EXPECT_EQ(stats->per_rule[i].substitutions,
                reference.per_rule[i].substitutions);
    }
  }
}

/// Nodes 0 and 1 joined both ways to every node and to each other, plus
/// each other ordered pair with probability 1/10: a hub-skewed graph whose
/// edge relation, the first delta, holds far more than 64 rows.
void AddHubGraph(PredicateId e, std::size_t nodes, Database* db) {
  std::mt19937_64 rng(40);
  auto edge = [&](std::size_t from, std::size_t to) {
    db->AddFact(e, {Value::Int(static_cast<std::int64_t>(from)),
                    Value::Int(static_cast<std::int64_t>(to))});
  };
  edge(0, 1);
  edge(1, 0);
  for (std::size_t i = 2; i < nodes; ++i) {
    for (std::size_t hub : {0u, 1u}) {
      edge(hub, i);
      edge(i, hub);
    }
    for (std::size_t j = 2; j < nodes; ++j) {
      if (i != j && rng() % 10 == 0) edge(i, j);
    }
  }
}

TEST(ParallelTest, StatsIdenticalAcrossThreadCounts) {
  // The task stream depends only on the data, never on the worker count,
  // so every non-timing counter agrees between 1, 2 and 4 threads -- on
  // rules that take the multiway first-witness exit too, where each row
  // shard stops at its own first witness -- and every database equals
  // the sequential engine's. The counters need not equal the sequential
  // engine's (docs/parallel_eval.md).
  struct Case {
    const char* label;
    const char* program;
    bool hub_graph;
  };
  const Case cases[] = {
      {"tc", "g(x, z) :- e(x, z).\ng(x, z) :- e(x, y), g(y, z).\n", false},
      {"4-clique",
       "clq(x, w) :- e(x, y), e(x, z), e(x, w), e(y, z), e(y, w), e(z, w).\n",
       true},
      {"triangle exit", "h(x, z) :- e(x, y), e(y, z), e(z, x).\n", true},
      {"closure and square",
       "p(x, y) :- e(x, y).\np(x, z) :- p(x, y), e(y, z).\n"
       "q(x, z) :- p(x, y), p(y, z).\n",
       true},
  };
  for (const Case& c : cases) {
    auto symbols = MakeSymbols();
    Program p = ParseProgramOrDie(symbols, c.program);
    PredicateId e = symbols->LookupPredicate("e").value();
    Database base(symbols);
    if (c.hub_graph) {
      AddHubGraph(e, 40, &base);
      ASSERT_GT(base.relation(e).size(), 64u) << c.label;
    } else {
      AddGraphFacts({GraphShape::kRandom, 40, 120, 3}, e, &base);
    }
    Database sequential = base;
    ASSERT_TRUE(EvaluateSemiNaive(p, &sequential).ok()) << c.label;

    std::vector<EvalStats> all;
    for (std::size_t threads : {1u, 2u, 4u}) {
      Database db = base;
      all.push_back(EvaluateSemiNaiveParallel(p, &db, threads).value());
      EXPECT_EQ(db, sequential) << c.label << " threads=" << threads;
    }
    for (std::size_t i = 1; i < all.size(); ++i) {
      const EvalStats& got = all[i];
      const EvalStats& want = all[0];
      EXPECT_EQ(got.iterations, want.iterations) << c.label;
      EXPECT_EQ(got.facts_derived, want.facts_derived) << c.label;
      EXPECT_EQ(got.rule_applications, want.rule_applications) << c.label;
      EXPECT_EQ(got.match.substitutions, want.match.substitutions) << c.label;
      EXPECT_EQ(got.match.index_lookups, want.match.index_lookups) << c.label;
      EXPECT_EQ(got.match.tuples_scanned, want.match.tuples_scanned)
          << c.label;
      EXPECT_EQ(got.parallel_rounds, want.parallel_rounds) << c.label;
      EXPECT_EQ(got.parallel_tasks, want.parallel_tasks) << c.label;
      ASSERT_EQ(got.per_rule.size(), want.per_rule.size()) << c.label;
      for (std::size_t r = 0; r < got.per_rule.size(); ++r) {
        EXPECT_EQ(got.per_rule[r].applications, want.per_rule[r].applications)
            << c.label << " rule " << r;
        EXPECT_EQ(got.per_rule[r].facts, want.per_rule[r].facts)
            << c.label << " rule " << r;
        EXPECT_EQ(got.per_rule[r].substitutions,
                  want.per_rule[r].substitutions)
            << c.label << " rule " << r;
      }
    }
  }
}

}  // namespace
}  // namespace datalog
