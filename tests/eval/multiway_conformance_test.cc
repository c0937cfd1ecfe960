// Conformance of the multiway (worst-case-optimal intersection) plan
// shape against the left-deep executors: identical derived sets on every
// cyclic workload shape, identical substitution counts wherever no
// first-witness exit applies (and one witness per head row where it
// does), the first-witness variable order, candidates read in place in
// row order and materialized where they may repeat, deterministic
// counters within a shape, drift-driven shape flips that never change
// the fixpoint, and the knob interactions (multiway requires index
// lookups; SetIndexLookups(false) must fall back to left-deep).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "eval/compiled_rule.h"
#include "eval/hypergraph.h"
#include "eval/naive.h"
#include "eval/parallel.h"
#include "eval/seminaive.h"
#include "eval/stratified.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "workload/cyclic_gen.h"

namespace datalog {
namespace {

using testing::AddFullEnumerationTwins;
using testing::KnobGuard;
using testing::MakeSymbols;
using testing::ParseDatabaseOrDie;
using testing::ParseProgramOrDie;
using testing::ParseRuleOrDie;

Database MakeCyclicDb(const std::shared_ptr<SymbolTable>& symbols,
                      const CyclicOptions& options) {
  Database db(symbols);
  if (options.shape == CyclicShape::kDenseSameGen) {
    PredicateId up = symbols->InternPredicate("up", 2).value();
    PredicateId down = symbols->InternPredicate("down", 2).value();
    PredicateId flat = symbols->InternPredicate("flat", 2).value();
    AddDenseSameGenFacts(options, up, down, flat, &db);
  } else {
    AddCyclicFacts(options, symbols->InternPredicate("e", 2).value(), &db);
  }
  return db;
}

enum class RowOrder { kDescending, kShuffled };

/// A copy of `db`, whose only relation is `pred`, with the rows inserted
/// in descending dictionary-id order or in a seeded shuffle: posting
/// lists then run against id order, as the in-place candidates do.
Database Reordered(const Database& db, PredicateId pred, RowOrder order,
                   std::uint64_t seed) {
  const Relation& rel = db.relation(pred);
  std::vector<std::size_t> rows(rel.size());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  if (order == RowOrder::kDescending) {
    std::sort(rows.begin(), rows.end(), [&](std::size_t a, std::size_t b) {
      for (int c = 0; c < rel.arity(); ++c) {
        if (rel.column(c)[a] != rel.column(c)[b]) {
          return rel.column(c)[a] > rel.column(c)[b];
        }
      }
      return false;
    });
  } else {
    std::mt19937_64 rng(seed);
    std::shuffle(rows.begin(), rows.end(), rng);
  }
  Database out(db.symbols());
  for (std::size_t r : rows) out.AddFact(pred, Tuple(rel.row(r)));
  return out;
}

/// Runs `program` over a copy of `edb` under one plan-shape setting.
Database RunSemiNaive(const Program& program, const Database& edb,
                      bool multiway, EvalStats* stats) {
  SetMultiwayJoins(multiway);
  Database d(edb.symbols());
  d.UnionWith(edb);
  *stats = EvaluateSemiNaive(program, &d).value();
  return d;
}

Database RunNaive(const Program& program, const Database& edb) {
  Database d(edb.symbols());
  d.UnionWith(edb);
  EvaluateNaive(program, &d).value();
  return d;
}

TEST(MultiwayConformanceTest, MultiwayJoinsDefaultOn) {
  EXPECT_TRUE(MultiwayJoinsEnabled());
}

TEST(MultiwayConformanceTest, TriangleBodySelectsMultiwayShape) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(
      symbols, "e(1, 2). e(2, 3). e(3, 1). e(2, 4).");
  Rule rule = ParseRuleOrDie(symbols, "t(x, y, z) :- e(x, y), e(y, z), e(z, x).");

  CompiledRule plan = CompiledRule::Compile(
      rule, /*delta_pos=*/std::size_t(-1), /*use_old=*/false, db, nullptr);
  EXPECT_EQ(plan.shape(), PlanShape::kMultiway);
  EXPECT_EQ(plan.multiway_steps().size(), 3u);  // one step per variable

  // Acyclic bodies stay left-deep.
  Rule path = ParseRuleOrDie(symbols, "h(x, w) :- e(x, y), e(y, z), e(z, w).");
  CompiledRule path_plan = CompiledRule::Compile(
      path, std::size_t(-1), false, db, nullptr);
  EXPECT_EQ(path_plan.shape(), PlanShape::kLeftDeep);
}

/// Regression: multiway intersection is an index-only strategy, so
/// SetIndexLookups(false) must force the left-deep (scan) shape, not
/// silently keep probing indexes.
TEST(MultiwayConformanceTest, IndexKnobOffDisablesMultiway) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(
      symbols, "e(1, 2). e(2, 3). e(3, 1). e(2, 4). e(4, 2).");
  Rule rule = ParseRuleOrDie(symbols, "t(x, y, z) :- e(x, y), e(y, z), e(z, x).");

  SetIndexLookups(false);
  CompiledRule plan = CompiledRule::Compile(
      rule, std::size_t(-1), false, db, nullptr);
  EXPECT_EQ(plan.shape(), PlanShape::kLeftDeep);

  // And the knob flip on an existing multiway plan forces a replan.
  SetIndexLookups(true);
  CompiledRule mw_plan = CompiledRule::Compile(
      rule, std::size_t(-1), false, db, nullptr);
  ASSERT_EQ(mw_plan.shape(), PlanShape::kMultiway);
  SetIndexLookups(false);
  EXPECT_TRUE(mw_plan.NeedsReplan(db, nullptr));
  mw_plan.Replan(db, nullptr);
  EXPECT_EQ(mw_plan.shape(), PlanShape::kLeftDeep);

  // Same fixpoint with the knob off as with it on.
  auto run = [&](bool indexed) {
    SetIndexLookups(indexed);
    Database d(symbols);
    d.UnionWith(db);
    Program p = ParseProgramOrDie(
        symbols, "t(x, y, z) :- e(x, y), e(y, z), e(z, x).\n");
    EvalStats stats = EvaluateSemiNaive(p, &d).value();
    return std::pair<Database, std::uint64_t>(std::move(d),
                                              stats.match.substitutions);
  };
  auto [db_off, subs_off] = run(false);
  auto [db_on, subs_on] = run(true);
  EXPECT_EQ(db_off, db_on);
  EXPECT_EQ(subs_off, subs_on);
}

TEST(MultiwayConformanceTest, MultiwayKnobOffKeepsLeftDeep) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "e(1, 2). e(2, 3). e(3, 1).");
  Rule rule = ParseRuleOrDie(symbols, "t(x, y, z) :- e(x, y), e(y, z), e(z, x).");
  SetMultiwayJoins(false);
  CompiledRule plan = CompiledRule::Compile(
      rule, std::size_t(-1), false, db, nullptr);
  EXPECT_EQ(plan.shape(), PlanShape::kLeftDeep);
  SetMultiwayJoins(true);
  EXPECT_TRUE(plan.NeedsReplan(db, nullptr));
}

/// Every cyclic workload shape: the multiway and left-deep shapes derive
/// the same fixpoint. Each rule's full-enumeration twin (see
/// AddFullEnumerationTwins) counts the same substitutions under both
/// shapes (assignments are shape-independent; probe/scan counters are
/// not compared); the original rules, which may stop at one witness per
/// head row on the multiway plan, count no more than left-deep.
TEST(MultiwayConformanceTest, IdenticalDerivedSetsAcrossShapes) {
  KnobGuard guard;
  const CyclicShape shapes[] = {CyclicShape::kTriangle, CyclicShape::kKCycle,
                                CyclicShape::kClique,
                                CyclicShape::kDenseSameGen};
  for (CyclicShape shape : shapes) {
    CyclicOptions options;
    options.shape = shape;
    options.num_nodes = 24;
    options.num_edges = 72;
    options.num_hubs = 2;
    options.seed = 7;
    auto symbols = MakeSymbols();
    Program program =
        ParseProgramOrDie(symbols, CyclicProgramText(options));
    AddFullEnumerationTwins(&program);
    const std::size_t num_rules = program.NumRules() / 2;
    Database edb = MakeCyclicDb(symbols, options);

    SetMultiwayJoins(true);
    Database d1(symbols);
    d1.UnionWith(edb);
    EvalStats s1 = EvaluateSemiNaive(program, &d1).value();

    SetMultiwayJoins(false);
    Database d2(symbols);
    d2.UnionWith(edb);
    EvalStats s2 = EvaluateSemiNaive(program, &d2).value();

    EXPECT_EQ(d1, d2) << "shape " << static_cast<int>(shape);
    for (std::size_t i = 0; i < num_rules; ++i) {
      EXPECT_EQ(s1.per_rule[num_rules + i].substitutions,
                s2.per_rule[num_rules + i].substitutions)
          << "twin of rule " << i << ", shape " << static_cast<int>(shape);
      EXPECT_LE(s1.per_rule[i].substitutions, s2.per_rule[i].substitutions)
          << "rule " << i << ", shape " << static_cast<int>(shape);
    }
    EXPECT_GT(d1.NumFacts(), edb.NumFacts())
        << "workload derived nothing; shape " << static_cast<int>(shape);
  }
}

/// The first-witness exit: nonrecursive KCycle and Clique rules,
/// evaluated once from an empty head over hub-skewed graphs, find exactly
/// one witness per head row on the multiway plan and derive the
/// left-deep fixpoint.
TEST(MultiwayConformanceTest, FirstWitnessExitFindsOneWitnessPerHeadRow) {
  KnobGuard guard;
  std::uint64_t left_deep_substitutions = 0;
  std::uint64_t multiway_substitutions = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    CyclicOptions options;
    options.shape = CyclicShape::kClique;
    options.num_nodes = 20 + seed % 8;
    options.num_edges = 3 * options.num_nodes;
    options.num_hubs = 1 + seed % 2;
    options.seed = seed;
    auto symbols = MakeSymbols();
    Database edb = MakeCyclicDb(symbols, options);
    CyclicOptions cycle = options;
    cycle.shape = CyclicShape::kKCycle;
    cycle.cycle_length = 4 + seed % 3;
    Program program = ParseProgramOrDie(
        symbols, CyclicProgramText(cycle) + CyclicProgramText(options));

    auto run = [&](bool multiway, EvalStats* stats) {
      SetMultiwayJoins(multiway);
      Database d(symbols);
      d.UnionWith(edb);
      *stats = EvaluateSemiNaive(program, &d).value();
      return d;
    };
    EvalStats left_deep;
    const Database expected = run(false, &left_deep);
    left_deep_substitutions += left_deep.match.substitutions;
    EvalStats stats;
    EXPECT_EQ(run(true, &stats), expected) << "seed " << seed;
    EXPECT_EQ(stats.match.substitutions, stats.facts_derived)
        << "seed " << seed;
    multiway_substitutions += stats.match.substitutions;
  }
  // The graphs have heads with several witnesses, so the exit saved work.
  EXPECT_LT(multiway_substitutions, left_deep_substitutions);
}

/// A bound edge atom offers distinct candidates by construction, so the
/// multiway step reads them in place, in the row order of its posting
/// list. With the edges inserted in descending id order and shuffled,
/// the triangle, 4-clique and 4-cycle rules derive the left-deep and
/// naive fixpoints, and the first-witness exit still finds exactly one
/// witness per head row.
TEST(MultiwayConformanceTest, InPlaceCandidatesInRowOrderDeriveTheSameSets) {
  KnobGuard guard;
  for (const RowOrder row_order :
       {RowOrder::kDescending, RowOrder::kShuffled}) {
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
      const std::string where = "order " +
                                std::to_string(static_cast<int>(row_order)) +
                                ", seed " + std::to_string(seed);
      CyclicOptions options;
      options.shape = CyclicShape::kClique;
      options.num_nodes = 20 + seed;
      options.num_edges = 3 * options.num_nodes;
      options.num_hubs = 1 + seed % 2;
      options.seed = 31 + seed;
      auto symbols = MakeSymbols();
      const PredicateId e = symbols->InternPredicate("e", 2).value();
      Database generated(symbols);
      AddCyclicFacts(options, e, &generated);
      const Database edb = Reordered(generated, e, row_order, seed);
      const IdVector& sources = edb.relation(e).column(0);
      ASSERT_FALSE(std::is_sorted(sources.begin(), sources.end())) << where;

      CyclicOptions triangle = options;
      triangle.shape = CyclicShape::kTriangle;
      CyclicOptions cycle = options;
      cycle.shape = CyclicShape::kKCycle;
      cycle.cycle_length = 4;
      const Program program = ParseProgramOrDie(
          symbols, CyclicProgramText(triangle) + CyclicProgramText(options) +
                       CyclicProgramText(cycle));

      EvalStats left_deep;
      const Database expected = RunSemiNaive(program, edb, false, &left_deep);
      EvalStats stats;
      EXPECT_EQ(RunSemiNaive(program, edb, true, &stats), expected) << where;
      EXPECT_EQ(RunNaive(program, edb), expected) << where;
      // tri keeps every variable and clq and cyc exit at their first
      // witness: one substitution per head row either way.
      EXPECT_EQ(stats.match.substitutions, stats.facts_derived) << where;
      EXPECT_GT(stats.facts_derived, 0u) << where;
    }
  }
}

/// Winners whose candidates may repeat or fail a row-local check are
/// still projected, sorted and deduplicated: g's posting list for a bound
/// x repeats y across a column bound only later (w), and s's rows must
/// agree in both y columns. Every variable is in the head, so a repeated
/// candidate would show as extra substitutions, and an unchecked one as
/// an extra head row.
TEST(MultiwayConformanceTest, MaterializedWinnersKeepCandidatesDistinct) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  std::string facts;
  // A complete digraph on 1..6: out- and in-degree 5, so g's and s's
  // posting lists of two or three rows win every election they enter.
  for (int a = 1; a <= 6; ++a) {
    for (int b = 1; b <= 6; ++b) {
      if (a != b) {
        facts += "e(" + std::to_string(a) + ", " + std::to_string(b) + ").\n";
      }
    }
  }
  facts +=
      "g(1, 2, 10). g(1, 2, 11). g(1, 3, 10). g(2, 3, 12). g(2, 3, 13).\n"
      "g(4, 5, 10). g(4, 5, 12).\n"
      "s(1, 2, 2). s(1, 3, 4). s(2, 4, 4). s(2, 5, 6). s(3, 1, 2).\n";
  const Database edb = ParseDatabaseOrDie(symbols, facts);
  const char* const rules[] = {
      "h(x, y, z, w) :- e(x, y), e(y, z), e(z, x), g(x, y, w).",
      "r(x, y, z) :- e(x, y), e(y, z), e(z, x), s(x, y, y).",
  };
  for (const char* text : rules) {
    SetMultiwayJoins(true);
    const CompiledRule plan =
        CompiledRule::Compile(ParseRuleOrDie(symbols, text), std::size_t(-1),
                              /*use_old=*/false, edb, nullptr);
    ASSERT_EQ(plan.shape(), PlanShape::kMultiway) << text;

    const Program program = ParseProgramOrDie(symbols, text);
    EvalStats left_deep;
    const Database expected = RunSemiNaive(program, edb, false, &left_deep);
    EvalStats stats;
    EXPECT_EQ(RunSemiNaive(program, edb, true, &stats), expected) << text;
    EXPECT_EQ(stats.match.substitutions, left_deep.match.substitutions)
        << text;
    EXPECT_EQ(stats.match.substitutions, stats.facts_derived) << text;
    EXPECT_GT(stats.facts_derived, 0u) << text;
  }
}

/// A recursive cyclic rule over several semi-naive rounds: its multiway
/// passes elect delta-range and old-snapshot postings and read them in
/// place, over edges inserted in shuffled order. The fixpoint equals the
/// left-deep, naive and parallel ones.
TEST(MultiwayConformanceTest, InPlaceCandidatesAcrossSemiNaiveRounds) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  const PredicateId e = symbols->InternPredicate("e", 2).value();
  const PredicateId f = symbols->InternPredicate("f", 2).value();
  Database generated(symbols);
  // A 16-node chain with chords; f(z, x) admits most backward pairs.
  for (int i = 1; i < 16; ++i) {
    generated.AddFact(e, {Value::Int(i), Value::Int(i + 1)});
    if (i % 4 == 0) generated.AddFact(e, {Value::Int(i), Value::Int(i + 3)});
  }
  Database edb = Reordered(generated, e, RowOrder::kShuffled, 5);
  for (int z = 1; z <= 19; ++z) {
    for (int x = 1; x < z; ++x) {
      if ((z - x) % 5 != 0) edb.AddFact(f, {Value::Int(z), Value::Int(x)});
    }
  }
  const Program program = ParseProgramOrDie(
      symbols,
      "r(x, y) :- e(x, y).\n"
      "r(x, z) :- r(x, y), r(y, z), f(z, x).\n");

  EvalStats left_deep;
  const Database expected = RunSemiNaive(program, edb, false, &left_deep);
  EvalStats stats;
  EXPECT_EQ(RunSemiNaive(program, edb, true, &stats), expected);
  EXPECT_GE(stats.iterations, 3);
  EXPECT_EQ(RunNaive(program, edb), expected);
  Database par(symbols);
  par.UnionWith(edb);
  EvaluateSemiNaiveParallel(program, &par, /*num_threads=*/2).value();
  EXPECT_EQ(par, expected);
  const PredicateId r = symbols->LookupPredicate("r").value();
  EXPECT_GT(expected.relation(r).size(), edb.relation(e).size());
}

/// The first-witness variable order: variables the head or a negated
/// literal reads go first and the exit sits one past the last of them;
/// kept variables sharing no atom keep the plain key order; a body without
/// existential variables is planned exactly as before.
TEST(MultiwayConformanceTest, FirstWitnessOrderBindsKeptVariablesFirst) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  CyclicOptions options;
  options.shape = CyclicShape::kClique;
  options.num_nodes = 16;
  options.seed = 5;
  Database db = MakeCyclicDb(symbols, options);
  symbols->InternPredicate("b", 1).value();
  auto compile = [&](const char* text) {
    CompiledRule plan =
        CompiledRule::Compile(ParseRuleOrDie(symbols, text), std::size_t(-1),
                              /*use_old=*/false, db, nullptr);
    EXPECT_EQ(plan.shape(), PlanShape::kMultiway) << text;
    return plan;
  };
  auto order = [](const CompiledRule& plan) {
    std::vector<std::uint32_t> slots;
    for (const MultiwayStep& step : plan.multiway_steps()) {
      slots.push_back(static_cast<std::uint32_t>(step.slot));
    }
    return slots;
  };
  auto first_witness = [](const CompiledRule& plan) {
    const std::vector<bytecode::Insn>& code = plan.bytecode_program().code;
    return std::find_if(code.begin(), code.end(),
                        [](const bytecode::Insn& insn) {
                          return insn.op == bytecode::Op::kSeekEmitFirst;
                        });
  };

  // clq(x, w): x and w first, the exit at 2. The lowered first witness
  // returns to the advance of depth 1, the depth binding the last of them.
  const CompiledRule clq = compile(
      "clq(x, w) :- e(x, y), e(x, z), e(x, w), e(y, z), e(y, w), e(z, w).");
  const std::vector<std::uint32_t> clq_order = order(clq);
  ASSERT_EQ(clq_order.size(), 4u);
  const std::vector<bytecode::TermDesc>& head = clq.bytecode_program().head;
  EXPECT_EQ(std::set<std::uint32_t>(clq_order.begin(), clq_order.begin() + 2),
            (std::set<std::uint32_t>{head[0].value, head[1].value}));
  EXPECT_EQ(clq.multiway_exit_depth(), 2u);
  const auto clq_exit = first_witness(clq);
  ASSERT_NE(clq_exit, clq.bytecode_program().code.end());
  const bytecode::Insn& target = clq.bytecode_program().code[clq_exit->t];
  EXPECT_EQ(target.op, bytecode::Op::kSeekNext);
  EXPECT_EQ(target.a, 1u);

  // A negated literal's variables are kept too: x and y first.
  const CompiledRule neg =
      compile("q(x) :- e(x, y), e(y, z), e(z, x), not b(y).");
  const std::vector<std::uint32_t> neg_order = order(neg);
  ASSERT_EQ(neg_order.size(), 3u);
  const std::uint32_t x = neg.bytecode_program().head[0].value;
  const std::uint32_t y = neg.bytecode_program().negated[0].terms[0].value;
  EXPECT_EQ(std::set<std::uint32_t>(neg_order.begin(), neg_order.begin() + 2),
            (std::set<std::uint32_t>{x, y}));
  EXPECT_EQ(neg.multiway_exit_depth(), 2u);

  // Opposite corners x and z of a 4-cycle share no atom: binding both
  // first would be a cross product, so the order is the one the same body
  // gets with every variable in the head.
  const char* const corners =
      "p(x, z) :- e(x, y), e(y, z), e(z, w), e(w, x).";
  const char* const all_vars =
      "p4(x, y, z, w) :- e(x, y), e(y, z), e(z, w), e(w, x).";
  EXPECT_EQ(order(compile(corners)), order(compile(all_vars)));

  // tri(x, y, z) keeps every variable: the plain key order, no exit.
  const CompiledRule tri = compile("tri(x, y, z) :- e(x, y), e(y, z), e(z, x).");
  EXPECT_EQ(order(tri), (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(tri.multiway_exit_depth(), 3u);
  EXPECT_EQ(first_witness(tri), tri.bytecode_program().code.end());
}

/// Within one shape the engine is deterministic: every counter and the
/// result repeat bit for bit across runs (the frontier order is fixed).
TEST(MultiwayConformanceTest, DeterministicWithinShape) {
  KnobGuard guard;
  CyclicOptions options;
  options.num_nodes = 32;
  options.seed = 11;
  auto symbols = MakeSymbols();
  Program program = ParseProgramOrDie(symbols, CyclicProgramText(options));
  Database edb = MakeCyclicDb(symbols, options);

  EvalStats first;
  Database d1(symbols);
  d1.UnionWith(edb);
  first = EvaluateSemiNaive(program, &d1).value();

  EvalStats second;
  Database d2(symbols);
  d2.UnionWith(edb);
  second = EvaluateSemiNaive(program, &d2).value();

  EXPECT_EQ(d1, d2);
  EXPECT_EQ(first.match.substitutions, second.match.substitutions);
  EXPECT_EQ(first.match.index_lookups, second.match.index_lookups);
  EXPECT_EQ(first.match.tuples_scanned, second.match.tuples_scanned);
}

/// A plan compiled while a body relation is still empty stays left-deep;
/// the >= 4x cardinality drift check notices the fill-in, the replan
/// upgrades the shape, and the derived set is unchanged.
TEST(MultiwayConformanceTest, DriftReplanFlipsShapeWithoutChangingFixpoint) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  Database db(symbols);
  PredicateId e = symbols->InternPredicate("e", 2).value();
  Rule rule = ParseRuleOrDie(symbols, "t(x, y, z) :- e(x, y), e(y, z), e(z, x).");

  CompiledRule plan = CompiledRule::Compile(
      rule, std::size_t(-1), false, db, nullptr);
  EXPECT_EQ(plan.shape(), PlanShape::kLeftDeep);  // e is empty

  CyclicOptions options;
  options.num_nodes = 16;
  options.seed = 3;
  AddCyclicFacts(options, e, &db);
  ASSERT_TRUE(plan.NeedsReplan(db, nullptr));
  plan.Replan(db, nullptr);
  EXPECT_EQ(plan.shape(), PlanShape::kMultiway);

  plan.EnsureIndexes(db, nullptr);
  Database out_mw(symbols);
  MatchStats stats_mw;
  const std::size_t added_mw = plan.Apply(
      db, nullptr, &out_mw.MutableRelation(plan.head_predicate()), &stats_mw);

  SetMultiwayJoins(false);
  CompiledRule left = CompiledRule::Compile(
      rule, std::size_t(-1), false, db, nullptr);
  ASSERT_EQ(left.shape(), PlanShape::kLeftDeep);
  left.EnsureIndexes(db, nullptr);
  Database out_ld(symbols);
  MatchStats stats_ld;
  const std::size_t added_ld = left.Apply(
      db, nullptr, &out_ld.MutableRelation(left.head_predicate()), &stats_ld);

  EXPECT_EQ(added_mw, added_ld);
  EXPECT_EQ(out_mw, out_ld);
  EXPECT_EQ(stats_mw.substitutions, stats_ld.substitutions);
  EXPECT_GT(added_mw, 0u);
}

TEST(MultiwayConformanceTest, EmptyRelationDerivesNothing) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  Database db(symbols);
  symbols->InternPredicate("e", 2).value();
  Program program = ParseProgramOrDie(
      symbols, "t(x, y, z) :- e(x, y), e(y, z), e(z, x).\n");
  Database d(symbols);
  d.UnionWith(db);
  EvalStats stats = EvaluateSemiNaive(program, &d).value();
  EXPECT_EQ(d.NumFacts(), 0u);
  EXPECT_EQ(stats.match.substitutions, 0u);
}

TEST(MultiwayConformanceTest, SingleTupleEdgeCases) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  // A single self-loop closes a triangle through itself.
  Database loop_db = ParseDatabaseOrDie(symbols, "e(5, 5).");
  Program program = ParseProgramOrDie(
      symbols, "t(x, y, z) :- e(x, y), e(y, z), e(z, x).\n");
  for (bool multiway : {true, false}) {
    SetMultiwayJoins(multiway);
    Database d(symbols);
    d.UnionWith(loop_db);
    EvaluateSemiNaive(program, &d).value();
    PredicateId t = symbols->LookupPredicate("t").value();
    EXPECT_EQ(d.relation(t).size(), 1u) << "multiway=" << multiway;
  }
  // A single plain edge closes nothing.
  Database edge_db = ParseDatabaseOrDie(symbols, "e(1, 2).");
  for (bool multiway : {true, false}) {
    SetMultiwayJoins(multiway);
    Database d(symbols);
    d.UnionWith(edge_db);
    EvalStats stats = EvaluateSemiNaive(program, &d).value();
    EXPECT_EQ(stats.match.substitutions, 0u) << "multiway=" << multiway;
  }
}

/// The parallel engines share CompiledRule plans (EnsureIndexes runs
/// single-threaded, Apply is read-only): fixpoints and substitution
/// counts match the sequential run on multiway-shaped rules.
TEST(MultiwayConformanceTest, ParallelEnginesAgreeOnMultiwayRules) {
  KnobGuard guard;
  CyclicOptions options;
  options.num_nodes = 24;
  options.num_hubs = 2;
  options.seed = 19;
  auto symbols = MakeSymbols();
  Program program = ParseProgramOrDie(symbols, CyclicProgramText(options));
  Database edb = MakeCyclicDb(symbols, options);

  Database seq(symbols);
  seq.UnionWith(edb);
  EvalStats seq_stats = EvaluateSemiNaive(program, &seq).value();

  Database par(symbols);
  par.UnionWith(edb);
  EvalStats par_stats =
      EvaluateSemiNaiveParallel(program, &par, /*num_threads=*/4).value();

  EXPECT_EQ(seq, par);
  EXPECT_EQ(seq_stats.match.substitutions, par_stats.match.substitutions);

  Database scc(symbols);
  scc.UnionWith(edb);
  EvalStats scc_stats =
      EvaluateSemiNaiveSccParallel(program, &scc, /*num_threads=*/4).value();
  EXPECT_EQ(seq, scc);
  EXPECT_EQ(seq_stats.match.substitutions, scc_stats.match.substitutions);
}

/// Stratified negation on top of a cyclic positive body: the negated
/// literal is checked at the emit boundary in id space on the multiway
/// path; the fixpoint must match the left-deep shape.
TEST(MultiwayConformanceTest, StratifiedNegationAgreesAcrossShapes) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  Program program = ParseProgramOrDie(
      symbols,
      "banned(1).\n"
      "t(x, y, z) :- e(x, y), e(y, z), e(z, x), not banned(x).\n");
  CyclicOptions options;
  options.num_nodes = 16;
  options.seed = 23;
  Database edb(symbols);
  AddCyclicFacts(options, symbols->LookupPredicate("e").value(), &edb);

  SetMultiwayJoins(true);
  Database d1(symbols);
  d1.UnionWith(edb);
  EvalStats s1 = EvaluateStratified(program, &d1).value();

  SetMultiwayJoins(false);
  Database d2(symbols);
  d2.UnionWith(edb);
  EvalStats s2 = EvaluateStratified(program, &d2).value();

  EXPECT_EQ(d1, d2);
  EXPECT_EQ(s1.match.substitutions, s2.match.substitutions);
}

/// The workload generators themselves: planted structures guarantee a
/// non-empty answer for every shape, so benchmark speedup ratios are
/// never measured on empty outputs.
TEST(MultiwayConformanceTest, CyclicWorkloadsDeriveNonEmptyAnswers) {
  KnobGuard guard;
  const CyclicShape shapes[] = {CyclicShape::kTriangle, CyclicShape::kKCycle,
                                CyclicShape::kClique,
                                CyclicShape::kDenseSameGen};
  for (CyclicShape shape : shapes) {
    CyclicOptions options;
    options.shape = shape;
    options.num_nodes = 20;
    options.seed = 5;
    auto symbols = MakeSymbols();
    Program program = ParseProgramOrDie(symbols, CyclicProgramText(options));
    Database d = MakeCyclicDb(symbols, options);
    EvaluateSemiNaive(program, &d).value();
    PredicateId head =
        symbols->LookupPredicate(CyclicHeadName(shape)).value();
    EXPECT_GT(d.relation(head).size(), 0u)
        << "shape " << static_cast<int>(shape);
  }
}

}  // namespace
}  // namespace datalog
