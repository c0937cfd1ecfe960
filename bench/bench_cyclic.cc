// The cyclic-query series: worst-case-optimal multiway joins vs the
// greedy left-deep schedule on the workload family where the gap is
// provable (triangles, k-cycles, 4-cliques, dense same-generation --
// cyclic join hypergraphs of width >= 2, see docs/multiway_joins.md).
// Each shape runs as an A/B pair under SetMultiwayJoins(true/false) over
// identical facts; the `probes` counter (index seeks + candidate tuples
// inspected) is the work metric CI gates on: on the hub-skewed triangle
// at n=256 the multiway plan must do at least 3x fewer probes, because a
// left-deep plan enumerates every hub wedge while the intersection only
// pays min(deg) per edge pair.

#include "benchmark/benchmark.h"
#include "bench_util.h"
#include "workload/cyclic_gen.h"

namespace datalog {
namespace bench {
namespace {

/// Restores the multiway knob whatever path the benchmark takes.
struct MultiwayKnob {
  explicit MultiwayKnob(bool on) { SetMultiwayJoins(on); }
  ~MultiwayKnob() { SetMultiwayJoins(true); }
};

void RunCyclic(benchmark::State& state, const CyclicOptions& options,
               bool multiway) {
  MultiwayKnob knob(multiway);
  auto symbols = MakeSymbols();
  Program program = MustParseProgram(symbols, CyclicProgramText(options));
  Database edb(symbols);
  if (options.shape == CyclicShape::kDenseSameGen) {
    AddDenseSameGenFacts(options, MustOk(symbols->LookupPredicate("up")),
                         MustOk(symbols->LookupPredicate("down")),
                         MustOk(symbols->LookupPredicate("flat")), &edb);
  } else {
    AddCyclicFacts(options, MustOk(symbols->LookupPredicate("e")), &edb);
  }

  EvalStats last;
  for (auto _ : state) {
    Database db(symbols);
    db.UnionWith(edb);
    last = MustOk(EvaluateSemiNaive(program, &db));
    benchmark::DoNotOptimize(db);
  }
  state.counters["probes"] = static_cast<double>(last.match.index_lookups +
                                                 last.match.tuples_scanned);
  state.counters["index_lookups"] =
      static_cast<double>(last.match.index_lookups);
  state.counters["tuples_scanned"] =
      static_cast<double>(last.match.tuples_scanned);
  state.counters["joins"] = static_cast<double>(last.match.substitutions);
}

CyclicOptions GraphOptions(CyclicShape shape, std::int64_t n) {
  CyclicOptions options;
  options.shape = shape;
  options.num_nodes = static_cast<std::size_t>(n);
  options.seed = 97;
  return options;
}

void BM_Triangle_Multiway(benchmark::State& state) {
  RunCyclic(state, GraphOptions(CyclicShape::kTriangle, state.range(0)),
            /*multiway=*/true);
}
void BM_Triangle_LeftDeep(benchmark::State& state) {
  RunCyclic(state, GraphOptions(CyclicShape::kTriangle, state.range(0)),
            /*multiway=*/false);
}
BENCHMARK(BM_Triangle_Multiway)->RangeMultiplier(2)->Range(64, 256);
BENCHMARK(BM_Triangle_LeftDeep)->RangeMultiplier(2)->Range(64, 256);

void BM_KCycle_Multiway(benchmark::State& state) {
  CyclicOptions options = GraphOptions(CyclicShape::kKCycle, state.range(0));
  options.cycle_length = 4;
  RunCyclic(state, options, /*multiway=*/true);
}
void BM_KCycle_LeftDeep(benchmark::State& state) {
  CyclicOptions options = GraphOptions(CyclicShape::kKCycle, state.range(0));
  options.cycle_length = 4;
  RunCyclic(state, options, /*multiway=*/false);
}
BENCHMARK(BM_KCycle_Multiway)->RangeMultiplier(2)->Range(64, 256);
BENCHMARK(BM_KCycle_LeftDeep)->RangeMultiplier(2)->Range(64, 256);

void BM_Clique_Multiway(benchmark::State& state) {
  RunCyclic(state, GraphOptions(CyclicShape::kClique, state.range(0)),
            /*multiway=*/true);
}
void BM_Clique_LeftDeep(benchmark::State& state) {
  RunCyclic(state, GraphOptions(CyclicShape::kClique, state.range(0)),
            /*multiway=*/false);
}
BENCHMARK(BM_Clique_Multiway)->RangeMultiplier(2)->Range(32, 128);
BENCHMARK(BM_Clique_LeftDeep)->RangeMultiplier(2)->Range(32, 128);

// Dense same-generation: the recursive rule's 4-atom body is a 4-cycle
// in the hypergraph. The range is the tree depth at fanout 3.
void BM_SameGen_Multiway(benchmark::State& state) {
  CyclicOptions options;
  options.shape = CyclicShape::kDenseSameGen;
  options.depth = static_cast<std::size_t>(state.range(0));
  options.fanout = 3;
  RunCyclic(state, options, /*multiway=*/true);
}
void BM_SameGen_LeftDeep(benchmark::State& state) {
  CyclicOptions options;
  options.shape = CyclicShape::kDenseSameGen;
  options.depth = static_cast<std::size_t>(state.range(0));
  options.fanout = 3;
  RunCyclic(state, options, /*multiway=*/false);
}
BENCHMARK(BM_SameGen_Multiway)->DenseRange(3, 4);
BENCHMARK(BM_SameGen_LeftDeep)->DenseRange(3, 4);

}  // namespace
}  // namespace bench
}  // namespace datalog

int main(int argc, char** argv) {
  return datalog::bench::BenchmarkMainWithJson(argc, argv,
                                               "BENCH_cyclic.json");
}
