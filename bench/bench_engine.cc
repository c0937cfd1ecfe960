// Experiment B5 (DESIGN.md): the evaluation substrate's own series --
// naive vs semi-naive fixpoint on transitive closure. Establishes that the
// engine behaves like a Datalog engine (semi-naive wins, gap grows with
// recursion depth) before any optimization claims are measured on it.

#include "benchmark/benchmark.h"
#include "bench_util.h"
#include "workload/graph_gen.h"

namespace datalog {
namespace bench {
namespace {

constexpr const char* kLinearTc =
    "g(x, z) :- a(x, z).\n"
    "g(x, z) :- a(x, y), g(y, z).\n";
constexpr const char* kDoubleTc =
    "g(x, z) :- a(x, z).\n"
    "g(x, z) :- g(x, y), g(y, z).\n";

template <typename Evaluator>
void RunEngine(benchmark::State& state, const char* program_text,
               GraphShape shape, Evaluator evaluate) {
  auto symbols = MakeSymbols();
  Program program = MustParseProgram(symbols, program_text);
  PredicateId a = MustOk(symbols->LookupPredicate("a"));
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Database edb(symbols);
  AddGraphFacts({shape, n, 2 * n, 23}, a, &edb);

  EvalStats last;
  for (auto _ : state) {
    Database db(symbols);
    db.UnionWith(edb);
    last = MustOk(evaluate(program, &db));
    benchmark::DoNotOptimize(db);
  }
  state.counters["joins"] = static_cast<double>(last.match.substitutions);
  // Named to dodge google-benchmark's built-in "iterations" field: a
  // counter with the same name made every JSON entry carry the key
  // twice, which strict parsers reject.
  state.counters["fixpoint_rounds"] = static_cast<double>(last.iterations);
}

void BM_LinearTcChain_Naive(benchmark::State& state) {
  RunEngine(state, kLinearTc, GraphShape::kChain, EvaluateNaive);
}
void BM_LinearTcChain_SemiNaive(benchmark::State& state) {
  RunEngine(state, kLinearTc, GraphShape::kChain, EvaluateSemiNaive);
}
BENCHMARK(BM_LinearTcChain_Naive)->RangeMultiplier(2)->Range(16, 128);
BENCHMARK(BM_LinearTcChain_SemiNaive)->RangeMultiplier(2)->Range(16, 128);

void BM_DoubleTcChain_Naive(benchmark::State& state) {
  RunEngine(state, kDoubleTc, GraphShape::kChain, EvaluateNaive);
}
void BM_DoubleTcChain_SemiNaive(benchmark::State& state) {
  RunEngine(state, kDoubleTc, GraphShape::kChain, EvaluateSemiNaive);
}
BENCHMARK(BM_DoubleTcChain_Naive)->RangeMultiplier(2)->Range(16, 128);
BENCHMARK(BM_DoubleTcChain_SemiNaive)->RangeMultiplier(2)->Range(16, 128);

void BM_LinearTcRandom_SemiNaive(benchmark::State& state) {
  RunEngine(state, kLinearTc, GraphShape::kRandom, EvaluateSemiNaive);
}
BENCHMARK(BM_LinearTcRandom_SemiNaive)->RangeMultiplier(2)->Range(32, 256);

void BM_LinearTcGrid_SemiNaive(benchmark::State& state) {
  RunEngine(state, kLinearTc, GraphShape::kGrid, EvaluateSemiNaive);
}
BENCHMARK(BM_LinearTcGrid_SemiNaive)->RangeMultiplier(4)->Range(16, 256);

/// Same-generation: the classic non-linear two-sided join; each delta pass
/// probes two indexed body atoms, so per-probe key-buffer reuse dominates.
constexpr const char* kSameGen =
    "sg(x, y) :- flat(x, y).\n"
    "sg(x, y) :- up(x, u), sg(u, v), down(v, y).\n";

template <typename Evaluator>
void RunSameGen(benchmark::State& state, Evaluator evaluate) {
  auto symbols = MakeSymbols();
  Program program = MustParseProgram(symbols, kSameGen);
  PredicateId up = MustOk(symbols->LookupPredicate("up"));
  PredicateId down = MustOk(symbols->LookupPredicate("down"));
  PredicateId flat = MustOk(symbols->LookupPredicate("flat"));
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Database edb(symbols);
  AddGraphFacts({GraphShape::kBinaryTree, n, 2 * n, 7}, up, &edb);
  AddGraphFacts({GraphShape::kBinaryTree, n, 2 * n, 7}, down, &edb);
  AddGraphFacts({GraphShape::kRandom, n, n, 13}, flat, &edb);

  EvalStats last;
  for (auto _ : state) {
    Database db(symbols);
    db.UnionWith(edb);
    last = MustOk(evaluate(program, &db));
    benchmark::DoNotOptimize(db);
  }
  state.counters["joins"] = static_cast<double>(last.match.substitutions);
  state.counters["fixpoint_rounds"] = static_cast<double>(last.iterations);
}

void BM_SameGen_SemiNaive(benchmark::State& state) {
  RunSameGen(state, EvaluateSemiNaive);
}
BENCHMARK(BM_SameGen_SemiNaive)->RangeMultiplier(2)->Range(32, 256);

/// SCC-ordered vs flat semi-naive on a layered program: the upper layers
/// must not pay for the closure's delta rounds.
constexpr const char* kLayered =
    "reach(x, z) :- a(x, z).\n"
    "reach(x, z) :- a(x, y), reach(y, z).\n"
    "pairs(x, z) :- reach(x, z), reach(z, x).\n"
    "tri(x) :- pairs(x, y), a(y, x).\n";

void BM_Layered_SemiNaive(benchmark::State& state) {
  RunEngine(state, kLayered, GraphShape::kRandom, EvaluateSemiNaive);
}
void BM_Layered_SccSemiNaive(benchmark::State& state) {
  RunEngine(state, kLayered, GraphShape::kRandom, EvaluateSemiNaiveScc);
}
BENCHMARK(BM_Layered_SemiNaive)->RangeMultiplier(2)->Range(32, 128);
BENCHMARK(BM_Layered_SccSemiNaive)->RangeMultiplier(2)->Range(32, 128);

/// Stratified negation overhead: unreachable-nodes over the closure.
void BM_StratifiedUnreachable(benchmark::State& state) {
  auto symbols = MakeSymbols();
  Program program = MustParseProgram(
      symbols,
      "reach(y) :- source(x), a(x, y).\n"
      "reach(y) :- reach(x), a(x, y).\n"
      "unreached(x) :- node(x), not reach(x).\n");
  PredicateId a = MustOk(symbols->LookupPredicate("a"));
  PredicateId node = MustOk(symbols->LookupPredicate("node"));
  PredicateId source = MustOk(symbols->LookupPredicate("source"));
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Database edb(symbols);
  AddGraphFacts({GraphShape::kRandom, n, 2 * n, 31}, a, &edb);
  for (std::size_t i = 0; i < n; ++i) {
    edb.AddFact(node, {Value::Int(static_cast<std::int64_t>(i))});
  }
  edb.AddFact(source, {Value::Int(0)});

  for (auto _ : state) {
    Database db(symbols);
    db.UnionWith(edb);
    EvalStats stats = MustOk(EvaluateStratified(program, &db));
    benchmark::DoNotOptimize(stats);
  }
}
BENCHMARK(BM_StratifiedUnreachable)->RangeMultiplier(2)->Range(64, 512);

}  // namespace
}  // namespace bench
}  // namespace datalog

int main(int argc, char** argv) {
  return datalog::bench::BenchmarkMainWithJson(argc, argv);
}
