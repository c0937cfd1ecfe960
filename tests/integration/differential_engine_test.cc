// Differential engine-agreement fuzzing, in the spirit of "Finding
// Cross-rule Optimization Bugs in Datalog Engines" (Zhang, Wang, Rigger):
// generate randomly structured positive programs and databases from fixed
// seeds, run every engine configuration -- naive, semi-naive, SCC-ordered
// semi-naive, parallel at 1/2/4 threads, incremental commits, tabled
// top-down and the magic-sets rewrite -- under every ablation knob
// (greedy ordering x index lookups x multiway joins), and assert they
// all tell exactly one story. The naive fixpoint, tabled top-down and a
// from-scratch recompute are the oracles, and the plans' depth-first
// Execute is the reference for the bytecode VM's rows and counters. Any
// divergence pinpoints the engine and the seed that reproduces it.

#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "datalog.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "workload/cyclic_gen.h"
#include "workload/graph_gen.h"
#include "workload/program_gen.h"

namespace datalog {
namespace {

using testing::AddFullEnumerationTwins;
using testing::ApplyPlan;
using testing::ExecutePlan;
using testing::ExpectSameRun;
using testing::KnobGuard;
using testing::MakeSymbols;
using testing::ParseProgramOrDie;
using testing::ParseQueryOrDie;
using testing::PlanRun;

/// Calls `check(plan, ranges, label)` for every plan the engines compile
/// for `program` over `db`: each rule's full join (no ranges) and each of
/// its semi-naive delta passes over a split of every relation into an
/// old first half and a delta second half, so kFull, kOld and kDelta
/// sources all read rows.
template <typename Check>
void ForEachPlan(const Program& program, const Database& db, Check check) {
  DeltaRanges ranges(/*use_old=*/true);
  for (PredicateId pred : db.NonEmptyPredicates()) {
    const std::size_t n = db.relation(pred).size();
    ranges.SetOld(pred, n / 2);
    ranges.SetDelta(pred, RowSpan{n / 2, n});
  }
  for (std::size_t ri = 0; ri < program.NumRules(); ++ri) {
    const Rule& rule = program.rules()[ri];
    if (rule.IsFact()) continue;
    const std::string label = "rule " + std::to_string(ri);
    check(CompiledRule::Compile(rule, /*delta_pos=*/std::size_t(-1),
                                /*use_old=*/false, db, nullptr),
          nullptr, label + " full");
    for (std::size_t p = 0; p < rule.body().size(); ++p) {
      if (rule.body()[p].negated) continue;
      check(CompiledRule::Compile(rule, p, /*use_old=*/true, db, &ranges),
            &ranges, label + " delta at " + std::to_string(p));
    }
  }
}

/// The VM (Apply) against Execute on every lowered plan of `program` over
/// `db` (ForEachPlan). Every program the VM runs must pass
/// bytecode::Validate. A left-deep plan must derive the same rows in the
/// same order with bit-identical MatchStats; a multiway plan, which has
/// its own probe counters and may stop at one witness per head row, the
/// same row set with at most Execute's substitutions. Returns how many
/// left-deep plans were checked.
std::size_t ExpectVmAgreesWithExecute(const Program& program,
                                      const Database& db,
                                      const std::string& config) {
  std::size_t left_deep = 0;
  ForEachPlan(program, db,
              [&](const CompiledRule& plan, const DeltaRanges* ranges,
                  const std::string& label) {
                if (plan.bytecode_program().empty()) return;
                const std::string where = label + ", " + config;
                std::string error;
                EXPECT_TRUE(bytecode::Validate(plan.bytecode_program(), &error))
                    << where << ": lowered program rejected: " << error;
                const PlanRun vm = ApplyPlan(plan, db, ranges);
                const PlanRun ref = ExecutePlan(plan, db, ranges);
                if (plan.shape() == PlanShape::kLeftDeep) {
                  ++left_deep;
                  ExpectSameRun(vm, ref, where);
                  return;
                }
                EXPECT_EQ(std::set<Tuple>(vm.rows.begin(), vm.rows.end()),
                          std::set<Tuple>(ref.rows.begin(), ref.rows.end()))
                    << where;
                EXPECT_LE(vm.stats.substitutions, ref.stats.substitutions)
                    << where;
              });
  return left_deep;
}

/// Replays a random insert/retract script on `view`: `batches` commits of
/// one to four operations over the extensional predicates `edb_preds`,
/// values drawn from [0, domain), mostly retracting facts that exist so
/// deletions do real work. Calls `after_commit(batch)` after each commit.
template <typename AfterCommit>
void RunCommitScript(MaterializedView* view, const SymbolTable& symbols,
                     const std::vector<std::string>& edb_preds,
                     std::uint64_t rng_seed, int batches, std::uint64_t domain,
                     AfterCommit after_commit) {
  std::mt19937_64 rng(rng_seed);
  for (int batch = 0; batch < batches; ++batch) {
    Transaction txn = view->Begin();
    const int num_ops = 1 + static_cast<int>(rng() % 4);
    for (int op = 0; op < num_ops; ++op) {
      PredicateId pred =
          symbols.LookupPredicate(edb_preds[rng() % edb_preds.size()])
              .value();
      const bool insert = rng() % 2 == 0;
      const auto& rows = view->base().relation(pred).rows();
      if (!insert && !rows.empty() && rng() % 4 != 0) {
        EXPECT_TRUE(txn.Retract(pred, Tuple(rows[rng() % rows.size()])).ok());
        continue;
      }
      Tuple tuple = {Value::Int(static_cast<std::int64_t>(rng() % domain)),
                     Value::Int(static_cast<std::int64_t>(rng() % domain))};
      EXPECT_TRUE((insert ? txn.Insert(pred, std::move(tuple))
                          : txn.Retract(pred, std::move(tuple)))
                      .ok());
    }
    Result<CommitStats> stats = txn.Commit();
    EXPECT_TRUE(stats.ok()) << "batch " << batch << ": "
                            << stats.status().ToString();
    after_commit(batch);
  }
}

struct GeneratedCase {
  std::shared_ptr<SymbolTable> symbols;
  Program program;
  Database edb;
  std::size_t num_intentional;

  explicit GeneratedCase(std::shared_ptr<SymbolTable> s)
      : symbols(std::move(s)), edb(symbols) {}
};

/// Derives a program/database pair from the seed alone, varying every
/// generator knob so the ~50 cases cover different rule counts, chain
/// lengths, recursion densities, planted redundancies, and graph shapes.
GeneratedCase MakeCase(std::uint64_t seed) {
  GeneratedCase c(MakeSymbols());
  PlantedProgramOptions options;
  options.seed = seed * 7919 + 1;
  options.num_extensional = 1 + seed % 3;
  options.num_intentional = 1 + (seed / 3) % 4;
  options.chain_rules = 2 + seed % 3;
  options.chain_length = 2 + (seed / 2) % 3;
  options.recursion_percent = 20 + static_cast<int>(seed % 5) * 15;
  options.planted_atoms = seed % 3;
  options.planted_rules = seed % 2;
  Result<PlantedProgram> planted = MakePlantedProgram(c.symbols, options);
  EXPECT_TRUE(planted.ok()) << planted.status().ToString();
  c.program = std::move(planted->program);
  c.num_intentional = options.num_intentional;

  const GraphShape shapes[] = {GraphShape::kChain, GraphShape::kCycle,
                               GraphShape::kBinaryTree, GraphShape::kRandom};
  for (std::size_t i = 0; i < options.num_extensional; ++i) {
    PredicateId pred =
        c.symbols->LookupPredicate("e" + std::to_string(i)).value();
    GraphOptions graph;
    graph.shape = shapes[(seed + i) % 4];
    graph.num_nodes = 5 + (seed + 2 * i) % 4;
    graph.num_edges = 8 + (seed + 3 * i) % 7;
    graph.seed = seed * 31 + i;
    AddGraphFacts(graph, pred, &c.edb);
  }
  return c;
}

class DifferentialEngineTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialEngineTest, AllEngineConfigurationsAgree) {
  GeneratedCase c = MakeCase(GetParam());

  // Reference: the naive fixpoint, the most direct reading of the
  // semantics (Section III).
  Database reference = c.edb;
  Result<EvalStats> naive = EvaluateNaive(c.program, &reference);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();

  struct EngineRun {
    const char* name;
    Result<EvalStats> (*run)(const Program&, Database*);
  };
  auto parallel1 = [](const Program& p, Database* db) {
    return EvaluateSemiNaiveParallel(p, db, 1);
  };
  auto parallel2 = [](const Program& p, Database* db) {
    return EvaluateSemiNaiveParallel(p, db, 2);
  };
  auto parallel4 = [](const Program& p, Database* db) {
    return EvaluateSemiNaiveParallel(p, db, 4);
  };
  auto scc_parallel4 = [](const Program& p, Database* db) {
    return EvaluateSemiNaiveSccParallel(p, db, 4);
  };
  const EngineRun engines[] = {
      {"semi-naive", EvaluateSemiNaive},
      {"scc semi-naive", EvaluateSemiNaiveScc},
      // On positive programs stratified evaluation must coincide with the
      // plain fixpoint (a single stratum per SCC chain).
      {"stratified", EvaluateStratified},
      {"parallel x1", parallel1},
      {"parallel x2", parallel2},
      {"parallel x4", parallel4},
      {"scc parallel x4", scc_parallel4},
  };
  for (const EngineRun& engine : engines) {
    Database db = c.edb;
    Result<EvalStats> stats = engine.run(c.program, &db);
    ASSERT_TRUE(stats.ok())
        << engine.name << ": " << stats.status().ToString();
    EXPECT_EQ(db, reference) << engine.name << " diverges on seed "
                             << GetParam() << "\nreference:\n"
                             << reference.ToString() << "\ngot:\n"
                             << db.ToString();
  }
}

TEST_P(DifferentialEngineTest, MagicSetsRewriteAgreesOnEveryIdbPredicate) {
  GeneratedCase c = MakeCase(GetParam());

  Database reference = c.edb;
  ASSERT_TRUE(EvaluateSemiNaive(c.program, &reference).ok());

  for (std::size_t k = 0; k < c.num_intentional; ++k) {
    const std::string name = "i" + std::to_string(k);
    PredicateId pred = c.symbols->LookupPredicate(name).value();
    Atom query = ParseQueryOrDie(c.symbols, "?- " + name + "(x, y).");
    Result<std::vector<Tuple>> magic =
        AnswerQuery(c.program, c.edb, query, EvalMethod::kMagicSemiNaive);
    ASSERT_TRUE(magic.ok()) << name << ": " << magic.status().ToString();
    std::set<Tuple> expected(reference.relation(pred).rows().begin(),
                             reference.relation(pred).rows().end());
    EXPECT_EQ(std::set<Tuple>(magic->begin(), magic->end()), expected)
        << "magic sets diverge on " << name << ", seed " << GetParam();
  }
}

TEST_P(DifferentialEngineTest, TabledTopDownAgreesOnEveryIdbPredicate) {
  // The tabled top-down solver answers an all-free query per IDB
  // predicate; its answer set must equal that predicate's relation in the
  // bottom-up fixpoint (completeness AND soundness of the memo tables).
  GeneratedCase c = MakeCase(GetParam());

  Database reference = c.edb;
  ASSERT_TRUE(EvaluateSemiNaive(c.program, &reference).ok());

  for (std::size_t k = 0; k < c.num_intentional; ++k) {
    const std::string name = "i" + std::to_string(k);
    PredicateId pred = c.symbols->LookupPredicate(name).value();
    Atom query = ParseQueryOrDie(c.symbols, "?- " + name + "(x, y).");
    Result<std::vector<Tuple>> answers =
        SolveTopDown(c.program, c.edb, query);
    ASSERT_TRUE(answers.ok()) << name << ": " << answers.status().ToString();
    std::set<Tuple> expected(reference.relation(pred).rows().begin(),
                             reference.relation(pred).rows().end());
    EXPECT_EQ(std::set<Tuple>(answers->begin(), answers->end()), expected)
        << "tabled top-down diverges on " << name << ", seed " << GetParam();
  }
}

TEST_P(DifferentialEngineTest, IncrementalViewMatchesFromScratchAfterCommits) {
  // The incremental oracle: drive a MaterializedView through random
  // insert/retract batches and assert that after every commit the view
  // equals a from-scratch semi-naive evaluation of the updated base.
  const std::uint64_t seed = GetParam();
  GeneratedCase c = MakeCase(seed);
  IncrOptions options;
  options.num_threads = seed % 2 == 0 ? 1 : 2;  // exercise both paths
  Result<MaterializedView> view =
      MaterializedView::Create(c.program, c.edb, options);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  {
    Database ref = c.edb;
    ASSERT_TRUE(EvaluateSemiNaive(c.program, &ref).ok());
    ASSERT_EQ(view->db(), ref) << "initial materialization, seed " << seed;
  }

  const std::size_t num_extensional = 1 + seed % 3;
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
  for (int batch = 0; batch < 20; ++batch) {
    Transaction txn = view->Begin();
    const int num_ops = 1 + static_cast<int>(rng() % 4);
    for (int op = 0; op < num_ops; ++op) {
      PredicateId pred =
          c.symbols
              ->LookupPredicate("e" + std::to_string(rng() % num_extensional))
              .value();
      const bool insert = rng() % 2 == 0;
      const auto& rows = view->base().relation(pred).rows();
      if (!insert && !rows.empty() && rng() % 4 != 0) {
        // Mostly retract facts that exist so deletions do real work.
        ASSERT_TRUE(
            txn.Retract(pred, Tuple(rows[rng() % rows.size()])).ok());
        continue;
      }
      Tuple tuple = {Value::Int(static_cast<std::int64_t>(rng() % 12)),
                     Value::Int(static_cast<std::int64_t>(rng() % 12))};
      ASSERT_TRUE((insert ? txn.Insert(pred, std::move(tuple))
                          : txn.Retract(pred, std::move(tuple)))
                      .ok());
    }
    Result<CommitStats> stats = txn.Commit();
    ASSERT_TRUE(stats.ok())
        << "seed " << seed << " batch " << batch << ": "
        << stats.status().ToString();

    Database ref = view->base();
    ASSERT_TRUE(EvaluateSemiNaive(c.program, &ref).ok());
    ASSERT_EQ(view->db(), ref)
        << "incremental view diverges on seed " << seed << ", batch "
        << batch << "\nreference:\n"
        << ref.ToString() << "\ngot:\n"
        << view->db().ToString();
  }
}

TEST_P(DifferentialEngineTest, CompiledPlansAgreeAcrossKnobMatrix) {
  // Compiled plans under the ablation knobs (greedy ordering on/off x
  // index lookups on/off): every configuration must reach the naive
  // fixpoint, and -- because substitutions count complete body matches,
  // which no join order or access path changes -- the identical
  // substitutions total, for semi-naive and for the parallel engine at 4
  // threads.
  KnobGuard guard;
  GeneratedCase c = MakeCase(GetParam());

  Database reference = c.edb;
  ASSERT_TRUE(EvaluateNaive(c.program, &reference).ok());

  Database seq_default = c.edb;
  Result<EvalStats> ref_stats = EvaluateSemiNaive(c.program, &seq_default);
  ASSERT_TRUE(ref_stats.ok()) << ref_stats.status().ToString();
  ASSERT_EQ(seq_default, reference);

  // The parallel engine's round structure legitimately counts a slightly
  // different substitutions total than sequential semi-naive (its deltas
  // are sharded per round), so it gets its own reference; within each
  // engine the count must be invariant across the whole knob matrix.
  Database par_default = c.edb;
  Result<EvalStats> par_ref_stats =
      EvaluateSemiNaiveParallel(c.program, &par_default, 4);
  ASSERT_TRUE(par_ref_stats.ok()) << par_ref_stats.status().ToString();
  ASSERT_EQ(par_default, reference);

  for (bool greedy : {true, false}) {
    for (bool indexed : {true, false}) {
      SetGreedyJoinOrdering(greedy);
      SetIndexLookups(indexed);
      const std::string config =
          std::string("greedy=") + (greedy ? "1" : "0") +
          " index=" + (indexed ? "1" : "0") +
          " seed=" + std::to_string(GetParam());

      Database seq = c.edb;
      Result<EvalStats> seq_stats = EvaluateSemiNaive(c.program, &seq);
      ASSERT_TRUE(seq_stats.ok())
          << config << ": " << seq_stats.status().ToString();
      EXPECT_EQ(seq, reference) << "semi-naive diverges, " << config;
      EXPECT_EQ(seq_stats->match.substitutions,
                ref_stats->match.substitutions)
          << "substitutions drift, " << config;

      Database par = c.edb;
      Result<EvalStats> par_stats =
          EvaluateSemiNaiveParallel(c.program, &par, 4);
      ASSERT_TRUE(par_stats.ok())
          << config << ": " << par_stats.status().ToString();
      EXPECT_EQ(par, reference) << "parallel x4 diverges, " << config;
      EXPECT_EQ(par_stats->match.substitutions,
                par_ref_stats->match.substitutions)
          << "parallel substitutions drift, " << config;
    }
  }
}

TEST_P(DifferentialEngineTest, BytecodeVmAgreesAcrossKnobMatrix) {
  // The bytecode VM against Execute, the reference for its counters, on
  // every left-deep plan of the case -- each rule's full join and each
  // delta pass over the saturated database -- under greedy ordering x
  // index lookups: the same rows in the same order and bit-identical
  // MatchStats.
  KnobGuard guard;
  const std::uint64_t seed = GetParam();
  GeneratedCase c = MakeCase(seed);
  Database db = c.edb;
  ASSERT_TRUE(EvaluateSemiNaive(c.program, &db).ok());

  std::size_t checked = 0;
  for (bool greedy : {true, false}) {
    for (bool indexed : {true, false}) {
      SetGreedyJoinOrdering(greedy);
      SetIndexLookups(indexed);
      checked += ExpectVmAgreesWithExecute(
          c.program, db,
          std::string("greedy=") + (greedy ? "1" : "0") +
              " index=" + (indexed ? "1" : "0") +
              " seed=" + std::to_string(seed));
    }
  }
  EXPECT_GT(checked, 0u) << "seed " << seed;
}

TEST_P(DifferentialEngineTest, BytecodeVmAgreesOnIncrementalCommits) {
  // The VM against Execute on the databases an incremental view passes
  // through: after every commit of a random script -- DRed erasures
  // compact relations and invalidate their indexes -- every left-deep
  // plan over the view must match Execute exactly, and the final view
  // must equal a from-scratch naive fixpoint of its base.
  KnobGuard guard;
  const std::uint64_t seed = GetParam();
  GeneratedCase c = MakeCase(seed);
  IncrOptions options;
  options.num_threads = seed % 2 == 0 ? 1 : 2;
  Result<MaterializedView> view =
      MaterializedView::Create(c.program, c.edb, options);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  std::vector<std::string> edb_preds;
  for (std::size_t i = 0; i < 1 + seed % 3; ++i) {
    edb_preds.push_back("e" + std::to_string(i));
  }
  RunCommitScript(
      &*view, *c.symbols, edb_preds, seed * 0x9E3779B97F4A7C15ull + 29, 8,
      12, [&](int batch) {
        ExpectVmAgreesWithExecute(c.program, view->db(),
                                  "seed=" + std::to_string(seed) +
                                      " batch=" + std::to_string(batch));
      });
  Database ref = view->base();
  ASSERT_TRUE(EvaluateNaive(c.program, &ref).ok());
  EXPECT_EQ(view->db(), ref) << "incremental view diverges on seed " << seed;
}

TEST_P(DifferentialEngineTest, CompiledPlansAgreeOnIncrementalCommits) {
  // The incremental commit path (delta joins + DRed re-derivation) run
  // over the same transaction script under every (greedy ordering, index
  // lookups) combination; the view must be identical after every commit,
  // and the last must equal a from-scratch fixpoint of its base.
  KnobGuard guard;
  const std::uint64_t seed = GetParam();

  auto run_script = [&](bool greedy, bool indexed) {
    SetGreedyJoinOrdering(greedy);
    SetIndexLookups(indexed);
    GeneratedCase c = MakeCase(seed);
    IncrOptions options;
    options.num_threads = seed % 2 == 0 ? 1 : 2;
    Result<MaterializedView> view =
        MaterializedView::Create(c.program, c.edb, options);
    EXPECT_TRUE(view.ok()) << view.status().ToString();
    std::vector<std::string> edb_preds;
    for (std::size_t i = 0; i < 1 + seed % 3; ++i) {
      edb_preds.push_back("e" + std::to_string(i));
    }
    std::vector<Database> snapshots;
    RunCommitScript(&*view, *c.symbols, edb_preds,
                    seed * 0x9E3779B97F4A7C15ull + 7, 8, 12,
                    [&](int) { snapshots.push_back(view->db()); });
    Database ref = view->base();
    EXPECT_TRUE(EvaluateSemiNaive(c.program, &ref).ok());
    EXPECT_EQ(view->db(), ref)
        << "incremental view diverges from from-scratch oracle, greedy="
        << greedy << " index=" << indexed << " seed=" << seed;
    return snapshots;
  };

  const std::vector<Database> reference = run_script(true, true);
  const struct {
    bool greedy;
    bool indexed;
    const char* name;
  } variants[] = {{false, true, "textual order"},
                  {true, false, "scans"},
                  {false, false, "textual order + scans"}};
  for (const auto& v : variants) {
    std::vector<Database> got = run_script(v.greedy, v.indexed);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], reference[i])
          << "incremental commit path (" << v.name << ") diverges on seed "
          << seed << ", batch " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialEngineTest,
                         ::testing::Range<std::uint64_t>(0, 50));

// ---------------------------------------------------------------------------
// Multiway-join differential matrix over the cyclic workload family.
//
// The cyclic generator produces exactly the bodies (triangles, k-cycles,
// cliques, dense same-generation) where the planner selects the
// worst-case-optimal multiway shape, so these cases exercise the
// multiway executor on every seed instead of relying on the planted
// generator to stumble into a cyclic body. Every knob combination --
// multiway x left-deep (x greedy ordering x index lookups on the
// incremental path) x {sequential, parallel x4, incremental commit
// scripts} -- must reach bit-identical fixpoints and (within an engine)
// identical substitution counts wherever no first-witness exit applies.
// ---------------------------------------------------------------------------

struct CyclicCase {
  std::shared_ptr<SymbolTable> symbols;
  Program program;
  Database edb;
  /// EDB predicate names for transaction scripts ("e", or the three
  /// tree predicates for kDenseSameGen).
  std::vector<std::string> edb_preds;

  explicit CyclicCase(std::shared_ptr<SymbolTable> s)
      : symbols(std::move(s)), edb(symbols) {}
};

/// Derives a cyclic program/database pair from the seed alone: the shape
/// rotates through the family and every size knob wiggles so the 50
/// cases cover skewed hubs, different cycle lengths, and both tree
/// geometries. Sizes stay small; the point is coverage, not load.
CyclicCase MakeCyclicCase(std::uint64_t seed) {
  CyclicCase c(MakeSymbols());
  CyclicOptions options;
  const CyclicShape shapes[] = {CyclicShape::kTriangle, CyclicShape::kKCycle,
                                CyclicShape::kClique,
                                CyclicShape::kDenseSameGen};
  options.shape = shapes[seed % 4];
  options.num_nodes = 6 + seed % 6;
  options.num_edges = 2 * options.num_nodes + seed % 5;
  options.num_hubs = 1;
  options.num_planted = 1 + seed % 2;
  options.cycle_length = 3 + (seed / 4) % 3;
  options.depth = 2 + seed % 2;
  options.fanout = 2 + (seed / 2) % 2;
  options.seed = seed * 6364136223846793005ull + 3;
  c.program = ParseProgramOrDie(c.symbols, CyclicProgramText(options));
  if (options.shape == CyclicShape::kDenseSameGen) {
    PredicateId up = c.symbols->LookupPredicate("up").value();
    PredicateId down = c.symbols->LookupPredicate("down").value();
    PredicateId flat = c.symbols->LookupPredicate("flat").value();
    AddDenseSameGenFacts(options, up, down, flat, &c.edb);
    c.edb_preds = {"up", "down", "flat"};
  } else {
    AddCyclicFacts(options, c.symbols->LookupPredicate("e").value(), &c.edb);
    c.edb_preds = {"e"};
  }
  return c;
}

class DifferentialEngineMultiwayTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialEngineMultiwayTest, MultiwayAndLeftDeepShapesAgree) {
  // Fixpoint + substitutions agreement across multiway on/off, for
  // sequential semi-naive and the parallel engine at 4 threads. Each rule
  // gets a full-enumeration twin (see AddFullEnumerationTwins): the twins
  // count every complete body match, which no plan shape changes, so
  // their per-rule substitutions must be bit-identical within each
  // engine. The original rules may stop at one witness per head row on
  // the multiway plan, so theirs may only fall.
  KnobGuard guard;
  const std::uint64_t seed = GetParam();

  // Reference: the left-deep shape (multiway off).
  SetMultiwayJoins(false);
  CyclicCase ref_case = MakeCyclicCase(seed);
  AddFullEnumerationTwins(&ref_case.program);
  const std::size_t num_rules = ref_case.program.NumRules() / 2;
  Database reference = ref_case.edb;
  Result<EvalStats> ref_stats =
      EvaluateSemiNaive(ref_case.program, &reference);
  ASSERT_TRUE(ref_stats.ok()) << ref_stats.status().ToString();

  Database par_reference = ref_case.edb;
  Result<EvalStats> par_ref_stats =
      EvaluateSemiNaiveParallel(ref_case.program, &par_reference, 4);
  ASSERT_TRUE(par_ref_stats.ok()) << par_ref_stats.status().ToString();
  ASSERT_EQ(par_reference, reference);

  auto expect_substitutions = [&](const EvalStats& got, const EvalStats& ref,
                                  const std::string& where) {
    ASSERT_EQ(got.per_rule.size(), 2 * num_rules) << where;
    for (std::size_t i = 0; i < num_rules; ++i) {
      EXPECT_EQ(got.per_rule[num_rules + i].substitutions,
                ref.per_rule[num_rules + i].substitutions)
          << "twin substitutions drift, rule " << i << ", " << where;
      EXPECT_LE(got.per_rule[i].substitutions, ref.per_rule[i].substitutions)
          << "more substitutions than left-deep, rule " << i << ", " << where;
    }
  };

  for (bool multiway : {true, false}) {
    SetMultiwayJoins(multiway);
    const std::string config = std::string("multiway=") +
                               (multiway ? "1" : "0") +
                               " seed=" + std::to_string(seed);

    Database seq = ref_case.edb;
    Result<EvalStats> seq_stats = EvaluateSemiNaive(ref_case.program, &seq);
    ASSERT_TRUE(seq_stats.ok())
        << config << ": " << seq_stats.status().ToString();
    EXPECT_EQ(seq, reference) << "semi-naive diverges, " << config;
    expect_substitutions(*seq_stats, *ref_stats, "semi-naive " + config);

    Database par = ref_case.edb;
    Result<EvalStats> par_stats =
        EvaluateSemiNaiveParallel(ref_case.program, &par, 4);
    ASSERT_TRUE(par_stats.ok())
        << config << ": " << par_stats.status().ToString();
    EXPECT_EQ(par, reference) << "parallel x4 diverges, " << config;
    expect_substitutions(*par_stats, *par_ref_stats, "parallel x4 " + config);
  }
}

TEST_P(DifferentialEngineMultiwayTest, MultiwayIncrementalCommitScriptsAgree) {
  // The incremental commit path over a cyclic program: the same random
  // insert/retract script replayed under every plan shape, crossed with
  // greedy ordering and index lookups (whose ablation also disables the
  // multiway shape), must produce identical view snapshots after every
  // commit, and each final view must equal a from-scratch fixpoint of
  // its final base (so all variants cannot agree on a wrong answer).
  KnobGuard guard;
  const std::uint64_t seed = GetParam();

  auto run_script = [&](bool multiway, bool greedy, bool indexed) {
    SetMultiwayJoins(multiway);
    SetGreedyJoinOrdering(greedy);
    SetIndexLookups(indexed);
    CyclicCase c = MakeCyclicCase(seed);
    IncrOptions options;
    options.num_threads = seed % 2 == 0 ? 1 : 4;
    Result<MaterializedView> view =
        MaterializedView::Create(c.program, c.edb, options);
    EXPECT_TRUE(view.ok()) << view.status().ToString();
    std::vector<Database> snapshots;
    RunCommitScript(&*view, *c.symbols, c.edb_preds,
                    seed * 0x9E3779B97F4A7C15ull + 13, 8, 16,
                    [&](int) { snapshots.push_back(view->db()); });
    Database ref = view->base();
    EXPECT_TRUE(EvaluateSemiNaive(c.program, &ref).ok());
    EXPECT_EQ(view->db(), ref)
        << "incremental view diverges from from-scratch oracle, multiway="
        << multiway << " greedy=" << greedy << " index=" << indexed
        << " seed=" << seed;
    return snapshots;
  };

  const std::vector<Database> reference = run_script(false, true, true);
  const struct {
    bool multiway;
    bool greedy;
    bool indexed;
    const char* name;
  } variants[] = {{true, true, true, "multiway"},
                  {true, false, true, "multiway/textual order"},
                  {true, true, false, "multiway/scans"}};
  for (const auto& v : variants) {
    std::vector<Database> got = run_script(v.multiway, v.greedy, v.indexed);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], reference[i])
          << "incremental commit path (" << v.name << ") diverges on seed "
          << seed << ", batch " << i;
    }
  }
}

TEST_P(DifferentialEngineMultiwayTest, BytecodeVmAgreesAcrossPlanShapes) {
  // The VM lowers both the left-deep schedule and the leapfrog multiway
  // schedule. Against Execute on every plan of the saturated cyclic case
  // (ExpectVmAgreesWithExecute): exact rows, order and MatchStats on
  // left-deep plans, the same row set with no more substitutions on
  // multiway ones -- with multiway joins on and off, and at both shapes
  // the sequential and 4-thread fixpoints must agree.
  KnobGuard guard;
  const std::uint64_t seed = GetParam();
  CyclicCase c = MakeCyclicCase(seed);
  for (bool multiway : {true, false}) {
    SetMultiwayJoins(multiway);
    const std::string config = std::string("multiway=") +
                               (multiway ? "1" : "0") +
                               " seed=" + std::to_string(seed);
    Database seq = c.edb;
    ASSERT_TRUE(EvaluateSemiNaive(c.program, &seq).ok()) << config;
    Database par = c.edb;
    ASSERT_TRUE(EvaluateSemiNaiveParallel(c.program, &par, 4).ok())
        << config;
    EXPECT_EQ(par, seq) << "parallel x4 diverges, " << config;
    const std::size_t left_deep =
        ExpectVmAgreesWithExecute(c.program, seq, config);
    if (!multiway) {
      EXPECT_GT(left_deep, 0u) << config;
    }
  }
}

TEST_P(DifferentialEngineMultiwayTest,
       BytecodeIncrementalCommitScriptsAgree) {
  // The same random commit script replayed under both plan shapes: after
  // every commit the view must equal a from-scratch naive fixpoint of its
  // base, and the VM must agree with Execute on every plan over it.
  KnobGuard guard;
  const std::uint64_t seed = GetParam();

  for (bool multiway : {true, false}) {
    SetMultiwayJoins(multiway);
    CyclicCase c = MakeCyclicCase(seed);
    IncrOptions options;
    options.num_threads = seed % 2 == 0 ? 1 : 4;
    Result<MaterializedView> view =
        MaterializedView::Create(c.program, c.edb, options);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    RunCommitScript(
        &*view, *c.symbols, c.edb_preds, seed * 0x9E3779B97F4A7C15ull + 31,
        8, 16, [&](int batch) {
          const std::string config =
              std::string("multiway=") + (multiway ? "1" : "0") +
              " seed=" + std::to_string(seed) +
              " batch=" + std::to_string(batch);
          Database ref = view->base();
          EXPECT_TRUE(EvaluateNaive(c.program, &ref).ok()) << config;
          EXPECT_EQ(view->db(), ref)
              << "incremental view diverges from naive oracle, " << config;
          ExpectVmAgreesWithExecute(c.program, view->db(), config);
        });
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialEngineMultiwayTest,
                         ::testing::Range<std::uint64_t>(0, 50));

}  // namespace
}  // namespace datalog
