// Differential engine-agreement fuzzing, in the spirit of "Finding
// Cross-rule Optimization Bugs in Datalog Engines" (Zhang, Wang, Rigger):
// generate randomly structured positive programs and databases from fixed
// seeds, run every engine configuration -- naive, semi-naive, SCC-ordered
// semi-naive, parallel at 1/2/4 threads, and the magic-sets rewrite -- and
// assert they all tell exactly one story. Any divergence pinpoints the
// engine and the seed that reproduces it.

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
using testing::MakeSymbols;
using testing::ParseProgramOrDie;
using testing::ParseQueryOrDie;

/// RAII reset for the full ablation-knob matrix so a failing assertion
/// cannot leak a disabled knob into other tests.
struct KnobMatrixGuard {
  ~KnobMatrixGuard() {
    SetGreedyJoinOrdering(true);
    SetIndexLookups(true);
    SetCompiledRulePlans(true);
    SetColumnarStorage(true);
    SetMultiwayJoins(true);
    SetBytecodeExecution(true);
  }
};

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
  // The compiled-vs-legacy matcher axis, crossed with the other three
  // ablation knobs (columnar storage on/off x greedy ordering on/off x
  // index lookups on/off). Every configuration must reach the identical
  // fixpoint, and -- because substitutions count complete body matches,
  // which no join order, access path, or storage backend changes -- the
  // identical substitutions total, for semi-naive and for the parallel
  // engine at 4 threads.
  KnobMatrixGuard guard;
  GeneratedCase c = MakeCase(GetParam());

  Database reference = c.edb;
  Result<EvalStats> ref_stats = EvaluateSemiNaive(c.program, &reference);
  ASSERT_TRUE(ref_stats.ok()) << ref_stats.status().ToString();

  // The parallel engine's round structure legitimately counts a slightly
  // different substitutions total than sequential semi-naive (its deltas
  // are sharded per round), so it gets its own reference; within each
  // engine the count must be invariant across the whole knob matrix.
  Database par_reference = c.edb;
  Result<EvalStats> par_ref_stats =
      EvaluateSemiNaiveParallel(c.program, &par_reference, 4);
  ASSERT_TRUE(par_ref_stats.ok()) << par_ref_stats.status().ToString();
  ASSERT_EQ(par_reference, reference);

  for (bool columnar : {true, false}) {
    SetColumnarStorage(columnar);
    // Regenerate the case under this backend: relations choose their
    // storage at construction, so a fresh EDB puts every relation --
    // base facts included -- on the backend under test. The generator
    // is seed-deterministic, so the facts are identical.
    GeneratedCase cc = MakeCase(GetParam());
    for (bool compiled : {true, false}) {
      for (bool greedy : {true, false}) {
        for (bool indexed : {true, false}) {
          SetCompiledRulePlans(compiled);
          SetGreedyJoinOrdering(greedy);
          SetIndexLookups(indexed);
          const std::string config =
              std::string("columnar=") + (columnar ? "1" : "0") +
              " compiled=" + (compiled ? "1" : "0") +
              " greedy=" + (greedy ? "1" : "0") +
              " index=" + (indexed ? "1" : "0") +
              " seed=" + std::to_string(GetParam());

          Database seq = cc.edb;
          Result<EvalStats> seq_stats = EvaluateSemiNaive(cc.program, &seq);
          ASSERT_TRUE(seq_stats.ok())
              << config << ": " << seq_stats.status().ToString();
          EXPECT_EQ(seq, reference) << "semi-naive diverges, " << config;
          EXPECT_EQ(seq_stats->match.substitutions,
                    ref_stats->match.substitutions)
              << "substitutions drift, " << config;

          Database par = cc.edb;
          Result<EvalStats> par_stats =
              EvaluateSemiNaiveParallel(cc.program, &par, 4);
          ASSERT_TRUE(par_stats.ok())
              << config << ": " << par_stats.status().ToString();
          EXPECT_EQ(par, reference) << "parallel x4 diverges, " << config;
          EXPECT_EQ(par_stats->match.substitutions,
                    par_ref_stats->match.substitutions)
              << "parallel substitutions drift, " << config;
        }
      }
    }
  }
}

TEST_P(DifferentialEngineTest, BytecodeVmAgreesAcrossKnobMatrix) {
  // The bytecode-VM axis: flipping SetBytecodeExecution must be invisible
  // -- not just the same fixpoint but bit-identical MatchStats (the VM
  // replicates the struct interpreters' counter bumps operation for
  // operation), across columnar on/off and for both sequential semi-naive
  // and the parallel engine at 4 threads. On the row store the VM
  // declines and falls through, so that leg checks the fallback is clean.
  KnobMatrixGuard guard;
  const std::uint64_t seed = GetParam();

  for (bool columnar : {true, false}) {
    SetColumnarStorage(columnar);
    GeneratedCase c = MakeCase(seed);

    struct RunResult {
      Database db;
      EvalStats seq;
      EvalStats par;
    };
    auto run_both = [&](bool bytecode) {
      SetBytecodeExecution(bytecode);
      Database seq_db = c.edb;
      Result<EvalStats> seq = EvaluateSemiNaive(c.program, &seq_db);
      EXPECT_TRUE(seq.ok()) << seq.status().ToString();
      Database par_db = c.edb;
      Result<EvalStats> par =
          EvaluateSemiNaiveParallel(c.program, &par_db, 4);
      EXPECT_TRUE(par.ok()) << par.status().ToString();
      EXPECT_EQ(par_db, seq_db);
      return RunResult{std::move(seq_db), *seq, *par};
    };

    RunResult vm = run_both(true);
    RunResult structs = run_both(false);
    const std::string config = std::string("columnar=") +
                               (columnar ? "1" : "0") +
                               " seed=" + std::to_string(seed);
    EXPECT_EQ(vm.db, structs.db) << "bytecode fixpoint diverges, " << config;
    EXPECT_EQ(vm.seq.match.substitutions, structs.seq.match.substitutions)
        << config;
    EXPECT_EQ(vm.seq.match.index_lookups, structs.seq.match.index_lookups)
        << config;
    EXPECT_EQ(vm.seq.match.tuples_scanned, structs.seq.match.tuples_scanned)
        << config;
    EXPECT_EQ(vm.par.match.substitutions, structs.par.match.substitutions)
        << "parallel, " << config;
    EXPECT_EQ(vm.par.match.index_lookups, structs.par.match.index_lookups)
        << "parallel, " << config;
    EXPECT_EQ(vm.par.match.tuples_scanned, structs.par.match.tuples_scanned)
        << "parallel, " << config;
  }
}

TEST_P(DifferentialEngineTest, BytecodeVmAgreesOnIncrementalCommits) {
  // The incremental commit path (three-part delta joins through the
  // CompiledRuleCache) with the VM on vs off over the same transaction
  // script: every snapshot must be identical.
  KnobMatrixGuard guard;
  const std::uint64_t seed = GetParam();

  auto run_script = [&](bool bytecode) {
    SetBytecodeExecution(bytecode);
    GeneratedCase c = MakeCase(seed);
    IncrOptions options;
    options.num_threads = seed % 2 == 0 ? 1 : 2;
    Result<MaterializedView> view =
        MaterializedView::Create(c.program, c.edb, options);
    EXPECT_TRUE(view.ok()) << view.status().ToString();
    const std::size_t num_extensional = 1 + seed % 3;
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 29);
    std::vector<Database> snapshots;
    for (int batch = 0; batch < 8; ++batch) {
      Transaction txn = view->Begin();
      const int num_ops = 1 + static_cast<int>(rng() % 4);
      for (int op = 0; op < num_ops; ++op) {
        PredicateId pred =
            c.symbols
                ->LookupPredicate("e" +
                                  std::to_string(rng() % num_extensional))
                .value();
        const bool insert = rng() % 2 == 0;
        const auto& rows = view->base().relation(pred).rows();
        if (!insert && !rows.empty() && rng() % 4 != 0) {
          EXPECT_TRUE(
              txn.Retract(pred, Tuple(rows[rng() % rows.size()])).ok());
          continue;
        }
        Tuple tuple = {Value::Int(static_cast<std::int64_t>(rng() % 12)),
                       Value::Int(static_cast<std::int64_t>(rng() % 12))};
        EXPECT_TRUE((insert ? txn.Insert(pred, std::move(tuple))
                            : txn.Retract(pred, std::move(tuple)))
                        .ok());
      }
      Result<CommitStats> stats = txn.Commit();
      EXPECT_TRUE(stats.ok()) << "seed " << seed << " batch " << batch
                              << ": " << stats.status().ToString();
      snapshots.push_back(view->db());
    }
    return snapshots;
  };

  const std::vector<Database> vm = run_script(true);
  const std::vector<Database> structs = run_script(false);
  ASSERT_EQ(vm.size(), structs.size());
  for (std::size_t i = 0; i < vm.size(); ++i) {
    EXPECT_EQ(vm[i], structs[i])
        << "bytecode incremental commit path diverges on seed " << seed
        << ", batch " << i;
  }
}

TEST_P(DifferentialEngineTest, CompiledPlansAgreeOnIncrementalCommits) {
  // The incremental commit path (delta joins + DRed re-derivation) run
  // over the same transaction script under every (matcher, storage
  // backend) combination; the view must be identical after every commit.
  KnobMatrixGuard guard;
  const std::uint64_t seed = GetParam();

  auto run_script = [&](bool compiled, bool columnar) {
    SetCompiledRulePlans(compiled);
    SetColumnarStorage(columnar);
    GeneratedCase c = MakeCase(seed);
    IncrOptions options;
    options.num_threads = seed % 2 == 0 ? 1 : 2;
    Result<MaterializedView> view =
        MaterializedView::Create(c.program, c.edb, options);
    EXPECT_TRUE(view.ok()) << view.status().ToString();
    const std::size_t num_extensional = 1 + seed % 3;
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 7);
    std::vector<Database> snapshots;
    for (int batch = 0; batch < 8; ++batch) {
      Transaction txn = view->Begin();
      const int num_ops = 1 + static_cast<int>(rng() % 4);
      for (int op = 0; op < num_ops; ++op) {
        PredicateId pred =
            c.symbols
                ->LookupPredicate("e" +
                                  std::to_string(rng() % num_extensional))
                .value();
        const bool insert = rng() % 2 == 0;
        const auto& rows = view->base().relation(pred).rows();
        if (!insert && !rows.empty() && rng() % 4 != 0) {
          EXPECT_TRUE(
              txn.Retract(pred, Tuple(rows[rng() % rows.size()])).ok());
          continue;
        }
        Tuple tuple = {Value::Int(static_cast<std::int64_t>(rng() % 12)),
                       Value::Int(static_cast<std::int64_t>(rng() % 12))};
        EXPECT_TRUE((insert ? txn.Insert(pred, std::move(tuple))
                            : txn.Retract(pred, std::move(tuple)))
                        .ok());
      }
      Result<CommitStats> stats = txn.Commit();
      EXPECT_TRUE(stats.ok()) << "seed " << seed << " batch " << batch
                              << ": " << stats.status().ToString();
      snapshots.push_back(view->db());
    }
    return snapshots;
  };

  const std::vector<Database> reference = run_script(true, true);
  const struct {
    bool compiled;
    bool columnar;
    const char* name;
  } variants[] = {{false, true, "legacy/columnar"},
                  {true, false, "compiled/rowstore"},
                  {false, false, "legacy/rowstore"}};
  for (const auto& v : variants) {
    std::vector<Database> got = run_script(v.compiled, v.columnar);
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
// multiway x left-deep x columnar x {sequential, parallel x4,
// incremental commit scripts} -- must reach bit-identical fixpoints and
// (within an engine) identical substitution counts wherever no
// first-witness exit applies.
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
  // Fixpoint + substitutions agreement across multiway on/off x columnar
  // on/off, for sequential semi-naive and the parallel engine at 4
  // threads. Each rule gets a full-enumeration twin (see
  // AddFullEnumerationTwins): the twins count every complete body match,
  // which no plan shape changes, so their per-rule substitutions must be
  // bit-identical within each engine. The original rules may stop at one
  // witness per head row on the multiway plan, so theirs may only fall.
  KnobMatrixGuard guard;
  const std::uint64_t seed = GetParam();

  // Reference: the left-deep shape (multiway off) on the default
  // columnar backend.
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

  for (bool columnar : {true, false}) {
    SetColumnarStorage(columnar);
    // Regenerate under this backend: relations choose their storage at
    // construction, and the generator is seed-deterministic.
    CyclicCase c = MakeCyclicCase(seed);
    AddFullEnumerationTwins(&c.program);
    for (bool multiway : {true, false}) {
      SetMultiwayJoins(multiway);
      const std::string config =
          std::string("multiway=") + (multiway ? "1" : "0") +
          " columnar=" + (columnar ? "1" : "0") +
          " seed=" + std::to_string(seed);

      Database seq = c.edb;
      Result<EvalStats> seq_stats = EvaluateSemiNaive(c.program, &seq);
      ASSERT_TRUE(seq_stats.ok())
          << config << ": " << seq_stats.status().ToString();
      EXPECT_EQ(seq, reference) << "semi-naive diverges, " << config;
      expect_substitutions(*seq_stats, *ref_stats, "semi-naive " + config);

      Database par = c.edb;
      Result<EvalStats> par_stats =
          EvaluateSemiNaiveParallel(c.program, &par, 4);
      ASSERT_TRUE(par_stats.ok())
          << config << ": " << par_stats.status().ToString();
      EXPECT_EQ(par, reference) << "parallel x4 diverges, " << config;
      expect_substitutions(*par_stats, *par_ref_stats,
                           "parallel x4 " + config);
    }
  }
}

TEST_P(DifferentialEngineMultiwayTest, MultiwayIncrementalCommitScriptsAgree) {
  // The incremental commit path over a cyclic program: the same random
  // insert/retract script replayed under every (multiway, storage)
  // combination must produce identical view snapshots after every
  // commit, and each final view must equal a from-scratch fixpoint of
  // its final base (so all variants cannot agree on a wrong answer).
  KnobMatrixGuard guard;
  const std::uint64_t seed = GetParam();

  auto run_script = [&](bool multiway, bool columnar) {
    SetMultiwayJoins(multiway);
    SetColumnarStorage(columnar);
    CyclicCase c = MakeCyclicCase(seed);
    IncrOptions options;
    options.num_threads = seed % 2 == 0 ? 1 : 4;
    Result<MaterializedView> view =
        MaterializedView::Create(c.program, c.edb, options);
    EXPECT_TRUE(view.ok()) << view.status().ToString();
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 13);
    std::vector<Database> snapshots;
    for (int batch = 0; batch < 8; ++batch) {
      Transaction txn = view->Begin();
      const int num_ops = 1 + static_cast<int>(rng() % 4);
      for (int op = 0; op < num_ops; ++op) {
        PredicateId pred =
            c.symbols
                ->LookupPredicate(c.edb_preds[rng() % c.edb_preds.size()])
                .value();
        const bool insert = rng() % 2 == 0;
        const auto& rows = view->base().relation(pred).rows();
        if (!insert && !rows.empty() && rng() % 4 != 0) {
          EXPECT_TRUE(
              txn.Retract(pred, Tuple(rows[rng() % rows.size()])).ok());
          continue;
        }
        Tuple tuple = {Value::Int(static_cast<std::int64_t>(rng() % 16)),
                       Value::Int(static_cast<std::int64_t>(rng() % 16))};
        EXPECT_TRUE((insert ? txn.Insert(pred, std::move(tuple))
                            : txn.Retract(pred, std::move(tuple)))
                        .ok());
      }
      Result<CommitStats> stats = txn.Commit();
      EXPECT_TRUE(stats.ok()) << "seed " << seed << " batch " << batch
                              << ": " << stats.status().ToString();
      snapshots.push_back(view->db());
    }
    Database ref = view->base();
    EXPECT_TRUE(EvaluateSemiNaive(c.program, &ref).ok());
    EXPECT_EQ(view->db(), ref)
        << "incremental view diverges from from-scratch oracle, multiway="
        << multiway << " columnar=" << columnar << " seed=" << seed;
    return snapshots;
  };

  const std::vector<Database> reference = run_script(false, true);
  const struct {
    bool multiway;
    bool columnar;
    const char* name;
  } variants[] = {{true, true, "multiway/columnar"},
                  {true, false, "multiway/rowstore"},
                  {false, false, "left-deep/rowstore"}};
  for (const auto& v : variants) {
    std::vector<Database> got = run_script(v.multiway, v.columnar);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], reference[i])
          << "incremental commit path (" << v.name << ") diverges on seed "
          << seed << ", batch " << i;
    }
  }
}

TEST_P(DifferentialEngineMultiwayTest, BytecodeVmAgreesAcrossPlanShapes) {
  // The bytecode axis crossed with plan shape: the VM lowers both the
  // left-deep batch schedule and the leapfrog multiway schedule, and on
  // each it must be invisible -- same fixpoint, bit-identical MatchStats
  // -- against the struct interpreter under the same knobs, sequentially
  // and at 4 threads, on both storage backends.
  KnobMatrixGuard guard;
  const std::uint64_t seed = GetParam();

  for (bool columnar : {true, false}) {
    SetColumnarStorage(columnar);
    CyclicCase c = MakeCyclicCase(seed);
    for (bool multiway : {true, false}) {
      SetMultiwayJoins(multiway);

      struct RunResult {
        Database db;
        EvalStats seq;
        EvalStats par;
      };
      auto run_both = [&](bool bytecode) {
        SetBytecodeExecution(bytecode);
        Database seq_db = c.edb;
        Result<EvalStats> seq = EvaluateSemiNaive(c.program, &seq_db);
        EXPECT_TRUE(seq.ok()) << seq.status().ToString();
        Database par_db = c.edb;
        Result<EvalStats> par =
            EvaluateSemiNaiveParallel(c.program, &par_db, 4);
        EXPECT_TRUE(par.ok()) << par.status().ToString();
        EXPECT_EQ(par_db, seq_db);
        return RunResult{std::move(seq_db), *seq, *par};
      };

      RunResult vm = run_both(true);
      RunResult structs = run_both(false);
      const std::string config =
          std::string("multiway=") + (multiway ? "1" : "0") +
          " columnar=" + (columnar ? "1" : "0") +
          " seed=" + std::to_string(seed);
      EXPECT_EQ(vm.db, structs.db)
          << "bytecode fixpoint diverges, " << config;
      EXPECT_EQ(vm.seq.match.substitutions, structs.seq.match.substitutions)
          << config;
      EXPECT_EQ(vm.seq.match.index_lookups, structs.seq.match.index_lookups)
          << config;
      EXPECT_EQ(vm.seq.match.tuples_scanned,
                structs.seq.match.tuples_scanned)
          << config;
      EXPECT_EQ(vm.par.match.substitutions, structs.par.match.substitutions)
          << "parallel, " << config;
      EXPECT_EQ(vm.par.match.index_lookups, structs.par.match.index_lookups)
          << "parallel, " << config;
      EXPECT_EQ(vm.par.match.tuples_scanned,
                structs.par.match.tuples_scanned)
          << "parallel, " << config;
    }
  }
}

TEST_P(DifferentialEngineMultiwayTest,
       BytecodeIncrementalCommitScriptsAgree) {
  // The same random commit script replayed with the VM on vs off, under
  // both plan shapes: identical snapshots after every commit.
  KnobMatrixGuard guard;
  const std::uint64_t seed = GetParam();

  auto run_script = [&](bool bytecode, bool multiway) {
    SetBytecodeExecution(bytecode);
    SetMultiwayJoins(multiway);
    CyclicCase c = MakeCyclicCase(seed);
    IncrOptions options;
    options.num_threads = seed % 2 == 0 ? 1 : 4;
    Result<MaterializedView> view =
        MaterializedView::Create(c.program, c.edb, options);
    EXPECT_TRUE(view.ok()) << view.status().ToString();
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 31);
    std::vector<Database> snapshots;
    for (int batch = 0; batch < 8; ++batch) {
      Transaction txn = view->Begin();
      const int num_ops = 1 + static_cast<int>(rng() % 4);
      for (int op = 0; op < num_ops; ++op) {
        PredicateId pred =
            c.symbols
                ->LookupPredicate(c.edb_preds[rng() % c.edb_preds.size()])
                .value();
        const bool insert = rng() % 2 == 0;
        const auto& rows = view->base().relation(pred).rows();
        if (!insert && !rows.empty() && rng() % 4 != 0) {
          EXPECT_TRUE(
              txn.Retract(pred, Tuple(rows[rng() % rows.size()])).ok());
          continue;
        }
        Tuple tuple = {Value::Int(static_cast<std::int64_t>(rng() % 16)),
                       Value::Int(static_cast<std::int64_t>(rng() % 16))};
        EXPECT_TRUE((insert ? txn.Insert(pred, std::move(tuple))
                            : txn.Retract(pred, std::move(tuple)))
                        .ok());
      }
      Result<CommitStats> stats = txn.Commit();
      EXPECT_TRUE(stats.ok()) << "seed " << seed << " batch " << batch
                              << ": " << stats.status().ToString();
      snapshots.push_back(view->db());
    }
    return snapshots;
  };

  for (bool multiway : {true, false}) {
    const std::vector<Database> vm = run_script(true, multiway);
    const std::vector<Database> structs = run_script(false, multiway);
    ASSERT_EQ(vm.size(), structs.size());
    for (std::size_t i = 0; i < vm.size(); ++i) {
      EXPECT_EQ(vm[i], structs[i])
          << "bytecode incremental commit path diverges on seed " << seed
          << ", multiway=" << multiway << ", batch " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialEngineMultiwayTest,
                         ::testing::Range<std::uint64_t>(0, 50));

}  // namespace
}  // namespace datalog
