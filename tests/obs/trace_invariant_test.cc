// Structural invariants of the observability layer, held against every
// engine:
//
//  1. Spans nest: on each thread, begin/end events follow stack
//     discipline, every span closes exactly once, and the trace is
//     balanced when the run finishes.
//  2. A disabled tracer emits nothing, whatever runs underneath it.
//  3. The MetricsRegistry counters published by RecordEvalStats equal the
//     EvalStats an engine returned, bit for bit -- including the parallel
//     engine at 4 threads, the per-rule breakdown, and the per-rule-
//     application phase timers (plan_ns, index_ns, derive_ns,
//     insert_ns) -- and its
//     storage.cache.* gauges equal the block cache's counts.

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "datalog.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/block_cache.h"
#include "workload/graph_gen.h"

namespace datalog {
namespace {

using testing::MakeSymbols;
using testing::ParseDatabaseOrDie;
using testing::ParseProgramOrDie;
using testing::ParseQueryOrDie;

struct Workload {
  std::shared_ptr<SymbolTable> symbols;
  Program program;
  Database edb;

  explicit Workload(std::shared_ptr<SymbolTable> s)
      : symbols(std::move(s)), edb(symbols) {}
};

/// A small but non-trivial positive workload: two mutually dependent
/// recursive predicates over a random graph, enough for several fixpoint
/// rounds, multiple SCCs, and real parallel fan-out.
Workload MakeWorkload() {
  Workload w(MakeSymbols());
  w.program = ParseProgramOrDie(w.symbols,
                                "t(x, y) :- e(x, y).\n"
                                "t(x, z) :- t(x, y), e(y, z).\n"
                                "s(x, y) :- t(x, y), t(y, x).\n"
                                "s(x, z) :- s(x, y), s(y, z).\n");
  PredicateId e = w.symbols->LookupPredicate("e").value();
  GraphOptions graph;
  graph.shape = GraphShape::kRandom;
  graph.num_nodes = 12;
  graph.num_edges = 24;
  graph.seed = 7;
  AddGraphFacts(graph, e, &w.edb);
  return w;
}

struct EngineRun {
  const char* name;   // label RecordEvalStats publishes under
  Result<EvalStats> (*run)(const Program&, Database*);
};

Result<EvalStats> Parallel4(const Program& p, Database* db) {
  return EvaluateSemiNaiveParallel(p, db, 4);
}
Result<EvalStats> SccParallel4(const Program& p, Database* db) {
  return EvaluateSemiNaiveSccParallel(p, db, 4);
}

const EngineRun kEngines[] = {
    {"naive", EvaluateNaive},
    {"semi-naive", EvaluateSemiNaive},
    {"scc-semi-naive", EvaluateSemiNaiveScc},
    {"stratified", EvaluateStratified},
    {"parallel", Parallel4},
    {"scc-parallel", SccParallel4},
};

/// Walks the recorded events and asserts per-thread stack discipline:
/// every end matches the innermost open begin on its thread, and no span
/// is left open at the end.
void ExpectBalancedSpans(const std::vector<TraceEvent>& events,
                         const char* engine) {
  std::map<int, std::vector<const char*>> stacks;
  for (const TraceEvent& event : events) {
    std::vector<const char*>& stack = stacks[event.tid];
    if (event.phase == TraceEvent::Phase::kBegin) {
      stack.push_back(event.name);
    } else {
      ASSERT_FALSE(stack.empty())
          << engine << ": end of '" << event.name << "' on tid " << event.tid
          << " with no open span";
      EXPECT_STREQ(stack.back(), event.name)
          << engine << ": spans closed out of order on tid " << event.tid;
      stack.pop_back();
    }
  }
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty())
        << engine << ": " << stack.size() << " span(s) left open on tid "
        << tid << " (innermost: " << stack.back() << ")";
  }
}

class TraceInvariantTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Tracer::Get().Disable();
    Tracer::Get().Clear();
    MetricsRegistry::Get().Disable();
    MetricsRegistry::Get().Clear();
  }
};

TEST_F(TraceInvariantTest, EverySpanNestsAndClosesExactlyOnce) {
  Workload w = MakeWorkload();
  for (const EngineRun& engine : kEngines) {
    Tracer::Get().Enable();
    Database db = w.edb;
    ASSERT_TRUE(engine.run(w.program, &db).ok()) << engine.name;
    std::vector<TraceEvent> events = Tracer::Get().Events();
    EXPECT_FALSE(events.empty()) << engine.name << " recorded no spans";
    ExpectBalancedSpans(events, engine.name);
    // The engine's root span is the first event and the last to close.
    std::string root = std::string("eval/") + engine.name;
    EXPECT_EQ(std::string(events.front().name), root) << engine.name;
    EXPECT_EQ(std::string(events.back().name), root) << engine.name;
  }
}

TEST_F(TraceInvariantTest, TopDownAndPipelineSpansBalance) {
  Workload w = MakeWorkload();
  Tracer::Get().Enable();

  Atom query = ParseQueryOrDie(w.symbols, "?- t(x, y).");
  ASSERT_TRUE(SolveTopDown(w.program, w.edb, query).ok());
  ASSERT_TRUE(AnswerQuery(w.program, w.edb, query,
                          EvalMethod::kMagicSemiNaive)
                  .ok());
  ASSERT_TRUE(MinimizeProgram(w.program).ok());
  ASSERT_TRUE(PlanQuery(w.program, query).ok());

  ExpectBalancedSpans(Tracer::Get().Events(), "topdown+pipeline");
}

TEST_F(TraceInvariantTest, IncrementalCommitSpansBalance) {
  Workload w = MakeWorkload();
  Tracer::Get().Enable();

  Result<MaterializedView> view =
      MaterializedView::Create(w.program, w.edb, IncrOptions{});
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  PredicateId e = w.symbols->LookupPredicate("e").value();
  Transaction txn = view->Begin();
  ASSERT_TRUE(txn.Insert(e, {Value::Int(1), Value::Int(5)}).ok());
  ASSERT_TRUE(txn.Retract(e, Tuple(w.edb.relation(e).rows()[0])).ok());
  ASSERT_TRUE(txn.Commit().ok());

  std::vector<TraceEvent> events = Tracer::Get().Events();
  ExpectBalancedSpans(events, "incr");
  bool saw_commit = false;
  for (const TraceEvent& event : events) {
    if (std::strcmp(event.name, "incr/commit") == 0) saw_commit = true;
  }
  EXPECT_TRUE(saw_commit);
}

TEST_F(TraceInvariantTest, CacheGaugesReadTheBlockCache) {
  // The storage.cache.* gauges describe the process, not the run, so
  // they sit outside the bit-for-bit contract; each publication sets
  // them to the block cache's counts at that moment.
  Workload w = MakeWorkload();
  MetricsRegistry& m = MetricsRegistry::Get();
  m.Clear();
  m.Enable();
  {
    Database db = w.edb;
    ASSERT_TRUE(EvaluateSemiNaive(w.program, &db).ok());
    // One cacheable request, so the counts cannot all be zero.
    BlockVector<std::uint32_t> block(BlockCache::kFloorBytes);
  }
  RecordEvalStats("semi-naive", EvalStats{});
  const BlockCache::Stats cache = BlockCache::Global().stats();
  m.Disable();
  EXPECT_EQ(m.Value("storage.cache.retained_bytes", {}),
            cache.retained_bytes);
  EXPECT_EQ(m.Value("storage.cache.peak_bytes", {}), cache.peak_bytes);
  EXPECT_EQ(m.Value("storage.cache.hits", {}), cache.hits);
  EXPECT_EQ(m.Value("storage.cache.misses", {}), cache.misses);
  EXPECT_GT(cache.hits + cache.misses, 0u);
  EXPECT_GT(cache.peak_bytes, 0u);
  EXPECT_LE(cache.retained_bytes, cache.peak_bytes);
  EXPECT_LE(cache.peak_bytes, BlockCache::kCapBytes);
}

TEST_F(TraceInvariantTest, DisabledTracerEmitsNothing) {
  Workload w = MakeWorkload();
  ASSERT_FALSE(Tracer::Get().enabled());
  for (const EngineRun& engine : kEngines) {
    Database db = w.edb;
    Result<EvalStats> stats = engine.run(w.program, &db);
    ASSERT_TRUE(stats.ok()) << engine.name;
    // With metrics off the phase timers never read the clock.
    EXPECT_EQ(stats->plan_ns, 0u) << engine.name;
    EXPECT_EQ(stats->index_ns, 0u) << engine.name;
    EXPECT_EQ(stats->derive_ns, 0u) << engine.name;
    EXPECT_EQ(stats->insert_ns, 0u) << engine.name;
  }
  Atom query = ParseQueryOrDie(w.symbols, "?- t(x, y).");
  ASSERT_TRUE(SolveTopDown(w.program, w.edb, query).ok());
  ASSERT_TRUE(MinimizeProgram(w.program).ok());
  EXPECT_TRUE(Tracer::Get().Events().empty());
  EXPECT_TRUE(MetricsRegistry::Get().Snapshot().empty());
}

TEST_F(TraceInvariantTest, MetricsEqualEvalStatsBitForBit) {
  Workload w = MakeWorkload();
  for (const EngineRun& engine : kEngines) {
    MetricsRegistry& m = MetricsRegistry::Get();
    m.Clear();
    m.Enable();
    Database db = w.edb;
    Result<EvalStats> stats = engine.run(w.program, &db);
    ASSERT_TRUE(stats.ok()) << engine.name;
    m.Disable();

    const MetricLabels labels = {{"engine", engine.name}};
    EXPECT_EQ(m.Value("eval.iterations", labels),
              static_cast<std::uint64_t>(stats->iterations))
        << engine.name;
    EXPECT_EQ(m.Value("eval.facts_derived", labels), stats->facts_derived)
        << engine.name;
    EXPECT_EQ(m.Value("eval.rule_applications", labels),
              stats->rule_applications)
        << engine.name;
    EXPECT_EQ(m.Value("eval.substitutions", labels),
              stats->match.substitutions)
        << engine.name;
    EXPECT_EQ(m.Value("eval.index_lookups", labels),
              stats->match.index_lookups)
        << engine.name;
    EXPECT_EQ(m.Value("eval.tuples_scanned", labels),
              stats->match.tuples_scanned)
        << engine.name;
    EXPECT_EQ(m.Value("eval.parallel_rounds", labels),
              stats->parallel_rounds)
        << engine.name;
    EXPECT_EQ(m.Value("eval.parallel_tasks", labels), stats->parallel_tasks)
        << engine.name;
    // The phase timers are wall clock, so only their export is exact;
    // but with metrics on every engine fetches plans, prepares the VM's
    // sources, derives and inserts derived heads.
    EXPECT_EQ(m.Value("eval.plan_ns", labels), stats->plan_ns)
        << engine.name;
    EXPECT_EQ(m.Value("eval.index_ns", labels), stats->index_ns)
        << engine.name;
    EXPECT_EQ(m.Value("eval.derive_ns", labels), stats->derive_ns)
        << engine.name;
    EXPECT_EQ(m.Value("eval.insert_ns", labels), stats->insert_ns)
        << engine.name;
    EXPECT_GT(stats->plan_ns, 0u) << engine.name;
    EXPECT_GT(stats->index_ns, 0u) << engine.name;
    EXPECT_GT(stats->derive_ns, 0u) << engine.name;
    EXPECT_GT(stats->insert_ns, 0u) << engine.name;
    for (std::size_t i = 0; i < stats->per_rule.size(); ++i) {
      const MetricLabels rule_labels = {{"engine", engine.name},
                                        {"rule", std::to_string(i)}};
      EXPECT_EQ(m.Value("eval.rule.applications", rule_labels),
                stats->per_rule[i].applications)
          << engine.name << " rule " << i;
      EXPECT_EQ(m.Value("eval.rule.facts", rule_labels),
                stats->per_rule[i].facts)
          << engine.name << " rule " << i;
      EXPECT_EQ(m.Value("eval.rule.substitutions", rule_labels),
                stats->per_rule[i].substitutions)
          << engine.name << " rule " << i;
    }
  }
}

TEST_F(TraceInvariantTest, MetricsEqualTopDownStatsBitForBit) {
  Workload w = MakeWorkload();
  MetricsRegistry& m = MetricsRegistry::Get();
  m.Clear();
  m.Enable();
  Atom query = ParseQueryOrDie(w.symbols, "?- t(x, y).");
  TopDownStats stats;
  ASSERT_TRUE(SolveTopDown(w.program, w.edb, query, &stats).ok());
  m.Disable();

  const MetricLabels labels = {{"engine", "topdown"}};
  EXPECT_EQ(m.Value("topdown.subgoals", labels),
            static_cast<std::uint64_t>(stats.subgoals));
  EXPECT_EQ(m.Value("topdown.iterations", labels),
            static_cast<std::uint64_t>(stats.iterations));
  EXPECT_EQ(m.Value("topdown.answers", labels), stats.answers);
  EXPECT_EQ(m.Value("topdown.body_matches", labels), stats.body_matches);
}

TEST_F(TraceInvariantTest, MetricsEqualCommitStatsBitForBit) {
  Workload w = MakeWorkload();
  Result<MaterializedView> view =
      MaterializedView::Create(w.program, w.edb, IncrOptions{});
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  MetricsRegistry& m = MetricsRegistry::Get();
  m.Clear();
  m.Enable();
  PredicateId e = w.symbols->LookupPredicate("e").value();
  Transaction txn = view->Begin();
  ASSERT_TRUE(txn.Insert(e, {Value::Int(2), Value::Int(9)}).ok());
  ASSERT_TRUE(txn.Retract(e, Tuple(w.edb.relation(e).rows()[1])).ok());
  Result<CommitStats> stats = txn.Commit();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  m.Disable();

  const MetricLabels labels = {{"engine", "incr"}};
  EXPECT_EQ(m.Value("incr.base_inserted", labels), stats->base_inserted);
  EXPECT_EQ(m.Value("incr.base_retracted", labels), stats->base_retracted);
  EXPECT_EQ(m.Value("incr.derived_added", labels), stats->derived_added);
  EXPECT_EQ(m.Value("incr.derived_removed", labels), stats->derived_removed);
  EXPECT_EQ(m.Value("incr.overdeleted", labels), stats->overdeleted);
  EXPECT_EQ(m.Value("incr.rederived", labels), stats->rederived);
  EXPECT_EQ(m.Value("incr.sccs_touched", labels),
            static_cast<std::uint64_t>(stats->sccs_touched));
}

TEST_F(TraceInvariantTest, ParallelTaskSpansMatchTaskCountExactly) {
  Workload w = MakeWorkload();
  Tracer::Get().Enable();
  Database db = w.edb;
  Result<EvalStats> stats = EvaluateSemiNaiveParallel(w.program, &db, 4);
  ASSERT_TRUE(stats.ok());
  std::vector<TraceEvent> events = Tracer::Get().Events();
  ExpectBalancedSpans(events, "parallel x4");
  // Each submitted task opens exactly one parallel/task span on whatever
  // thread ran it (main helps at the barrier, so the tid split varies),
  // so the begin count must equal the engine's own task counter.
  std::uint64_t task_begins = 0;
  for (const TraceEvent& event : events) {
    if (event.phase == TraceEvent::Phase::kBegin &&
        std::strcmp(event.name, "parallel/task") == 0) {
      ++task_begins;
    }
  }
  EXPECT_GT(stats->parallel_tasks, 0u);
  EXPECT_EQ(task_begins, stats->parallel_tasks);
}

}  // namespace
}  // namespace datalog
