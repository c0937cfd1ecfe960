// The bytecode layer's own contract tests: lowered programs always
// validate, and a lowered program's run agrees with Execute on the plan
// it came from -- on a left-deep plan the same MatchStats, the same
// derived facts and the same insertion order; on a multiway plan the
// same facts with no more substitutions -- on a corpus of
// representative plan shapes and on generator-driven random programs
// (see docs/bytecode_vm.md).

#include "eval/bytecode/bytecode.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "eval/compiled_rule.h"
#include "eval/seminaive.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "workload/graph_gen.h"
#include "workload/program_gen.h"

namespace datalog {
namespace {

using testing::ExecutePlan;
using testing::ExpectSameRun;
using testing::KnobGuard;
using testing::MakeSymbols;
using testing::ParseDatabaseOrDie;
using testing::ParseProgramOrDie;
using testing::ParseRuleOrDie;
using testing::PlanRun;
using testing::RowsOf;

/// Validates the plan's lowered program, runs it with the VM into an
/// empty database, and holds the run to Execute on the same plan: a
/// left-deep plan must derive the same rows in the same order with the
/// same counters; a multiway plan, which has its own probe counters and
/// may stop at one witness per head row, the same row set with no more
/// substitutions.
void ExpectLoweredRunMatchesExecute(const CompiledRule& plan,
                                    const Database& full,
                                    const DeltaRanges* ranges,
                                    const std::string& label) {
  const bytecode::Program& program = plan.bytecode_program();
  ASSERT_FALSE(program.empty()) << label;

  std::string error;
  EXPECT_TRUE(bytecode::Validate(program, &error))
      << label << ": lowered program rejected: " << error;

  Database out(full.symbols());
  PlanRun vm;
  std::size_t new_facts = 0;
  ASSERT_TRUE(
      bytecode::Run(program, full, ranges, &out, &vm.stats, &new_facts))
      << label;
  vm.rows = RowsOf(out.relation(plan.head_predicate()));
  EXPECT_EQ(new_facts, vm.rows.size()) << label;

  const PlanRun ref = ExecutePlan(plan, full, ranges);
  if (plan.shape() == PlanShape::kLeftDeep) {
    ExpectSameRun(vm, ref, label);
    return;
  }
  EXPECT_EQ(std::set<Tuple>(vm.rows.begin(), vm.rows.end()),
            std::set<Tuple>(ref.rows.begin(), ref.rows.end()))
      << label;
  EXPECT_LE(vm.stats.substitutions, ref.stats.substitutions) << label;
}

TEST(BytecodeTest, RoundTripOnCorpusPlanShapes) {
  // One plan per shape the lowering handles: unbound scans, indexed
  // probes, delta/old sources, constants, repeated variables, negation,
  // and the leapfrog multiway schedule.
  KnobGuard guard;
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols,
                                   "a(1, 2). a(2, 3). a(3, 1). a(2, 2).\n"
                                   "g(1, 2). g(2, 3).\n"
                                   "b(2, 3).\n"
                                   "e(1, 2). e(2, 3). e(3, 1). e(1, 3).\n"
                                   "up(1, 2). up(2, 3). down(3, 4).\n"
                                   "flat(2, 2). flat(3, 3).\n");
  Database delta(symbols);
  delta.AddFact(symbols->LookupPredicate("g").value(),
                {Value::Int(2), Value::Int(3)});

  struct Case {
    const char* label;
    const char* rule;
    std::size_t delta_pos;
    bool use_old;
  };
  const Case cases[] = {
      {"tc-join", "h0(x, z) :- a(x, y), g(y, z).", std::size_t(-1), false},
      {"tc-delta", "h1(x, z) :- a(x, y), g(y, z).", 1, false},
      {"tc-delta-old", "h2(x, z) :- g(x, y), g(y, z).", 0, true},
      {"const-filter", "h3(x, y) :- a(x, y), g(2, y).", std::size_t(-1),
       false},
      {"repeated-var", "h4(x) :- a(x, x).", std::size_t(-1), false},
      {"negation", "h5(x, y) :- a(x, y), not b(x, y).", std::size_t(-1),
       false},
      {"same-gen", "h6(x, y) :- up(x, u), g(u, v), down(v, y).",
       std::size_t(-1), false},
  };
  for (const Case& c : cases) {
    Rule rule = ParseRuleOrDie(symbols, c.rule);
    DeltaRanges ranges = DeltaRanges::Whole(delta, c.use_old);
    ranges.SetOld(symbols->LookupPredicate("g").value(), 1);
    const DeltaRanges* d =
        c.delta_pos == std::size_t(-1) ? nullptr : &ranges;
    CompiledRule plan =
        CompiledRule::Compile(rule, c.delta_pos, c.use_old, db, d);
    ASSERT_TRUE(plan.compiled()) << c.label;
    plan.EnsureIndexes(db, d);
    ExpectLoweredRunMatchesExecute(plan, db, d, c.label);
  }
}

TEST(BytecodeTest, RoundTripOnMultiwayTriangle) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(
      symbols, "e(1, 2). e(2, 3). e(3, 1). e(1, 3). e(3, 2). e(2, 1).");
  Rule rule =
      ParseRuleOrDie(symbols, "t(x, y, z) :- e(x, y), e(y, z), e(x, z).");
  CompiledRule plan = CompiledRule::Compile(
      rule, /*delta_pos=*/std::size_t(-1), /*use_old=*/false, db, nullptr);
  ASSERT_TRUE(plan.compiled());
  ASSERT_EQ(plan.bytecode_program().shape, 1)
      << "triangle should lower to the multiway shape";
  plan.EnsureIndexes(db, nullptr);
  ExpectLoweredRunMatchesExecute(plan, db, nullptr, "triangle");
}

TEST(BytecodeTest, RoundTripOnTwentyRandomSeeds) {
  // Generator-driven property: saturate a planted program, then for each
  // of its rules compile the full-join variant, validate its lowered
  // program and run it against Execute. 20 seeds x several rules each.
  KnobGuard guard;
  std::size_t lowered = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    auto symbols = MakeSymbols();
    PlantedProgramOptions options;
    options.seed = seed * 2654435761u + 17;
    options.num_extensional = 1 + seed % 3;
    options.num_intentional = 1 + seed % 4;
    options.chain_rules = 2 + seed % 3;
    options.chain_length = 2 + seed % 3;
    options.recursion_percent = 20 + static_cast<int>(seed % 5) * 15;
    Result<PlantedProgram> planted = MakePlantedProgram(symbols, options);
    ASSERT_TRUE(planted.ok()) << planted.status().ToString();

    Database db(symbols);
    const GraphShape shapes[] = {GraphShape::kChain, GraphShape::kCycle,
                                 GraphShape::kBinaryTree, GraphShape::kRandom};
    for (std::size_t i = 0; i < options.num_extensional; ++i) {
      GraphOptions graph;
      graph.shape = shapes[(seed + i) % 4];
      graph.num_nodes = 5 + (seed + i) % 4;
      graph.num_edges = 8 + (seed + 2 * i) % 7;
      graph.seed = seed * 101 + i;
      AddGraphFacts(graph,
                    symbols->LookupPredicate("e" + std::to_string(i)).value(),
                    &db);
    }
    // Saturate so IDB relations are non-empty and plans see real sizes.
    ASSERT_TRUE(EvaluateSemiNaive(planted->program, &db).ok());

    for (const Rule& rule : planted->program.rules()) {
      CompiledRule plan = CompiledRule::Compile(
          rule, /*delta_pos=*/std::size_t(-1), /*use_old=*/false, db,
          nullptr);
      if (!plan.compiled() || plan.bytecode_program().empty()) continue;
      plan.EnsureIndexes(db, nullptr);
      ++lowered;
      ExpectLoweredRunMatchesExecute(plan, db, nullptr,
                              "seed " + std::to_string(seed));
    }
  }
  // The generator must actually exercise the lowering; if this drops to
  // zero the property above is vacuous.
  EXPECT_GE(lowered, 20u);
}

TEST(BytecodeTest, ValidatorRejectsCorruptedPrograms) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "a(1, 2). g(2, 3).");
  Rule rule = ParseRuleOrDie(symbols, "h(x, z) :- a(x, y), g(y, z).");
  CompiledRule plan = CompiledRule::Compile(
      rule, /*delta_pos=*/std::size_t(-1), /*use_old=*/false, db, nullptr);
  const bytecode::Program& good = plan.bytecode_program();
  ASSERT_TRUE(bytecode::Validate(good));

  {
    bytecode::Program p = good;  // jump target past the end
    p.code[0].t = static_cast<std::uint32_t>(p.code.size()) + 5;
    p.code[0].op = bytecode::Op::kJump;
    EXPECT_FALSE(bytecode::Validate(p));
  }
  {
    bytecode::Program p = good;  // slot operand out of range
    p.num_slots = 0;
    EXPECT_FALSE(bytecode::Validate(p));
  }
  {
    bytecode::Program p = good;  // non-increasing key columns
    if (!p.steps.empty()) {
      p.steps[0].key_cols = {1, 0};
      EXPECT_FALSE(bytecode::Validate(p));
    }
  }
  {
    bytecode::Program p = good;  // key template longer than its columns
    p.steps.back().key_template_ids.push_back(0);
    EXPECT_FALSE(bytecode::Validate(p));
  }
  {
    bytecode::Program p = good;  // row access before any Next op ran
    p.code.assign({{bytecode::Op::kLoad, 0, 0, 0, 0},
                   {bytecode::Op::kHalt, 0, 0, 0, 0}});
    EXPECT_FALSE(bytecode::Validate(p));
  }
  {
    bytecode::Program p = good;  // reachable fall-through off the end
    p.code.pop_back();
    while (!p.code.empty() && p.code.back().op == bytecode::Op::kHalt) {
      p.code.pop_back();
    }
    if (!p.code.empty()) {
      EXPECT_FALSE(bytecode::Validate(p));
    }
  }
}

TEST(BytecodeTest, RunDeclinesGracefullyOnBadDatabases) {
  // Run must return false -- with no partial inserts and no counter
  // drift -- when the databases contradict the program, so Apply can
  // fall back to Execute.
  KnobGuard guard;
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "a(1, 2). g(2, 3).");
  Rule rule = ParseRuleOrDie(symbols, "h(x, z) :- a(x, y), g(y, z).");
  CompiledRule plan = CompiledRule::Compile(
      rule, /*delta_pos=*/std::size_t(-1), /*use_old=*/false, db, nullptr);
  const bytecode::Program& program = plan.bytecode_program();
  ASSERT_FALSE(program.empty());

  // Missing delta for a delta-source program.
  Rule delta_rule = ParseRuleOrDie(symbols, "h(x, z) :- a(x, y), g(y, z).");
  Database delta(symbols);
  delta.AddFact(symbols->LookupPredicate("g").value(),
                {Value::Int(2), Value::Int(3)});
  const DeltaRanges delta_ranges =
      DeltaRanges::Whole(delta, /*use_old=*/false);
  CompiledRule delta_plan =
      CompiledRule::Compile(delta_rule, /*delta_pos=*/1, /*use_old=*/false,
                            db, &delta_ranges);
  ASSERT_FALSE(delta_plan.bytecode_program().empty());
  MatchStats stats;
  std::size_t new_facts = 0;
  Database out(symbols);
  EXPECT_FALSE(bytecode::Run(delta_plan.bytecode_program(), db,
                             /*ranges=*/nullptr, &out, &stats, &new_facts));
  EXPECT_EQ(stats.substitutions + stats.index_lookups + stats.tuples_scanned,
            0u);
  EXPECT_EQ(out.NumFacts(), 0u);

  // An output database whose symbol table lacks the head predicate.
  Database foreign(MakeSymbols());
  EXPECT_FALSE(
      bytecode::Run(program, db, nullptr, &foreign, &stats, &new_facts));
  EXPECT_EQ(stats.substitutions + stats.index_lookups + stats.tuples_scanned,
            0u);
  EXPECT_EQ(foreign.NumFacts(), 0u);
}

bool HasOp(const bytecode::Program& program, bytecode::Op op) {
  return std::any_of(program.code.begin(), program.code.end(),
                     [op](const bytecode::Insn& insn) { return insn.op == op; });
}

TEST(BytecodeTest, FusedEmitsSkipRowsRejectedMidSegment) {
  // A fused emit op makes room for its whole segment of candidates and
  // writes each accepted row through a cursor. In every case below a
  // segment rejects rows between accepted ones -- by a negated literal,
  // or by a repeated-variable check -- and the run must still give
  // Execute's rows in Execute's order. The left-deep ops must also give
  // its counters; the multiway op has its own probe counters, so only
  // its substitutions are compared.
  KnobGuard guard;
  SetGreedyJoinOrdering(false);  // textual order: the segments below
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(
      symbols,
      "a(1, 1). a(1, 2). a(2, 2). a(2, 3). a(3, 3). a(3, 4).\n"
      "g(2, 5). g(2, 6). g(2, 7). g(3, 5). g(3, 6). g(3, 7).\n"
      "c(2, 5, 5). c(2, 5, 6). c(2, 6, 6). c(2, 7, 8). c(2, 8, 8).\n"
      "b(1, 2). b(1, 6). b(2, 6). b(3, 6). b(2, 4).\n"
      "e(1, 2). e(1, 3). e(1, 4). e(1, 5). e(2, 3). e(2, 4). e(2, 5).\n"
      "e(3, 4). e(3, 5).\n"
      "s(3, 3). s(4, 5). s(5, 5).\n");

  struct Case {
    const char* label;
    const char* rule;
    bool use_index;
    bytecode::Op op;  // the fused op the innermost depth must lower to
  };
  const Case cases[] = {
      {"loop/negation", "h1(x, y) :- a(x, y), not b(x, y).", true,
       bytecode::Op::kLoopEmitAll},
      {"loop/repeated", "h2(x) :- a(x, x).", true,
       bytecode::Op::kLoopEmitAll},
      {"filtered-loop/negation", "h3(x, z) :- a(x, y), g(y, z), not b(x, z).",
       false, bytecode::Op::kLoopEmitAll},
      {"filtered-loop/repeated", "h4(x, z) :- a(x, y), c(y, z, z).", false,
       bytecode::Op::kLoopEmitAll},
      {"probe/negation", "h5(x, z) :- a(x, y), g(y, z), not b(x, z).", true,
       bytecode::Op::kProbeEmitAll},
      {"probe/repeated", "h6(x, z) :- a(x, y), c(y, z, z).", true,
       bytecode::Op::kProbeEmitAll},
      {"seek/negation",
       "t1(x, y, z) :- e(x, y), e(y, z), e(x, z), not b(y, z).", true,
       bytecode::Op::kSeekEmitAll},
      {"seek/repeated",
       "t2(x, y, z) :- e(x, y), e(y, z), e(x, z), s(z, z).", true,
       bytecode::Op::kSeekEmitAll},
  };
  for (const Case& c : cases) {
    SetIndexLookups(c.use_index);
    Rule rule = ParseRuleOrDie(symbols, c.rule);
    CompiledRule plan = CompiledRule::Compile(
        rule, /*delta_pos=*/std::size_t(-1), /*use_old=*/false, db, nullptr);
    ASSERT_TRUE(HasOp(plan.bytecode_program(), c.op)) << c.label;
    plan.EnsureIndexes(db, nullptr);
    if (plan.shape() == PlanShape::kLeftDeep) {
      ExpectLoweredRunMatchesExecute(plan, db, nullptr, c.label);
      continue;
    }
    Database out(symbols);
    PlanRun vm;
    std::size_t new_facts = 0;
    ASSERT_TRUE(bytecode::Run(plan.bytecode_program(), db, nullptr, &out,
                              &vm.stats, &new_facts))
        << c.label;
    vm.rows = RowsOf(out.relation(plan.head_predicate()));
    const PlanRun ref = ExecutePlan(plan, db, nullptr);
    EXPECT_EQ(vm.rows, ref.rows) << c.label;
    EXPECT_EQ(new_facts, ref.rows.size()) << c.label;
    EXPECT_EQ(vm.stats.substitutions, ref.stats.substitutions) << c.label;
  }
}

TEST(BytecodeTest, DeriveRejectsIdsTheDictionaryNeverIssued) {
  // A validated hand-written program whose head holds a constant id the
  // dictionary never issued: Derive declines it, and Run inserts
  // nothing. The bad id is the last id of the one derived row, then the
  // first, so a check that skips either end of the rows would miss it.
  KnobGuard guard;
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "a(1, 2). g(2, 3).");
  Rule rule = ParseRuleOrDie(symbols, "h(x, z) :- a(x, y), g(y, z).");
  CompiledRule plan = CompiledRule::Compile(
      rule, /*delta_pos=*/std::size_t(-1), /*use_old=*/false, db, nullptr);
  plan.EnsureIndexes(db, nullptr);
  ASSERT_FALSE(plan.bytecode_program().empty());
  const std::uint32_t unissued = ValueDictionary::Global().size() + 7;

  for (const std::size_t position : {std::size_t{1}, std::size_t{0}}) {
    bytecode::Program p = plan.bytecode_program();
    bytecode::TermDesc& term = p.head[position];
    term.is_constant = true;
    term.value = unissued;
    std::string error;
    ASSERT_TRUE(bytecode::Validate(p, &error)) << error;

    // The same program with an issued id derives the one row.
    term.value = ValueDictionary::Global().Intern(Value::Int(1));
    IdRowBuffer issued;
    MatchStats stats;
    ASSERT_TRUE(bytecode::Derive(p, db, nullptr, &stats, &issued));
    EXPECT_EQ(issued.count, 1u);

    term.value = unissued;
    IdRowBuffer rows;
    EXPECT_FALSE(bytecode::Derive(p, db, nullptr, &stats, &rows))
        << "position " << position;
    // Declined, the buffer is as it was: Apply derives into it next.
    EXPECT_EQ(rows.count, 0u) << "position " << position;
    EXPECT_TRUE(rows.ids.empty()) << "position " << position;
    Database out(symbols);
    std::size_t new_facts = 0;
    EXPECT_FALSE(bytecode::Run(p, db, nullptr, &out, &stats, &new_facts))
        << "position " << position;
    EXPECT_EQ(out.NumFacts(), 0u) << "position " << position;
  }
}

TEST(BytecodeTest, CachedHeadBufferStartsEmptyForEveryApplication) {
  // The engines' rule applications share their cache's head buffer,
  // whichever executor derives into it: the VM, or Execute for a plan it
  // cannot run (an empty body) or declines (a delta atom without
  // ranges). Each application must see only its own rows -- a row left
  // over from the previous application would land in the next rule's
  // head -- and give Execute's rows, order, new-fact count and counters.
  // Every case but the delta plan goes through ApplyRule, the engines'
  // entry point; ApplyRule cannot pass a delta position without ranges.
  KnobGuard guard;
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(
      symbols, "a(1, 2). a(2, 3). a(3, 4). g(5, 6).");
  constexpr std::size_t kNoDelta = std::size_t(-1);  // ApplyRule's plan
  struct Case {
    const char* rule;
    std::size_t rule_index;  // the plan's key in the cache
    std::size_t delta_pos;
    bool vm;  // the VM derives (else Execute)
  };
  const Case cases[] = {
      {"p(x, y) :- a(x, y).", 0, kNoDelta, true},
      {"f(7, 8).", 1, kNoDelta, false},
      {"q(x, y) :- g(x, y).", 2, kNoDelta, true},
      {"d(x, z) :- a(x, y), a(y, z).", 3, 1, false},
      {"r(x, z) :- a(x, y), a(y, z).", 4, kNoDelta, true},
      // Again, into an output that already holds its row.
      {"q(x, y) :- g(x, y).", 2, kNoDelta, true},
  };
  CompiledRuleCache cache;
  Database out(symbols);
  for (const Case& c : cases) {
    const Rule rule = ParseRuleOrDie(symbols, c.rule);
    const PredicateId pred = rule.head().predicate();
    const std::size_t before = out.relation(pred).size();
    PlanRun got;
    std::size_t added;
    if (c.delta_pos == kNoDelta) {
      added = ApplyRule(rule, db, &out, &got.stats, &cache, c.rule_index);
    } else {
      added = cache.Get(c.rule_index, rule, c.delta_pos, /*use_old=*/false,
                        db, nullptr)
                  .Apply(db, nullptr, &out.MutableRelation(pred), &got.stats,
                         {}, cache.head_rows());
    }
    // The plan just applied: the relation sizes have not moved.
    const CompiledRule& plan = cache.Get(c.rule_index, rule, c.delta_pos,
                                         /*use_old=*/false, db, nullptr);
    IdRowBuffer probe;
    EXPECT_EQ(!plan.bytecode_program().empty() &&
                  bytecode::Derive(plan.bytecode_program(), db, nullptr,
                                   nullptr, &probe),
              c.vm)
        << c.rule;

    // Each head predicate's rows come from its rule alone, so the
    // output holds Execute's rows whether or not the rule ran before.
    got.rows = RowsOf(out.relation(pred));
    const PlanRun want = ExecutePlan(plan, db, nullptr);
    ExpectSameRun(got, want, c.rule);
    // Applied again, a rule does the same work and adds nothing.
    EXPECT_EQ(added, before == 0 ? want.rows.size() : 0u) << c.rule;
    // The buffer holds this application's derived rows, and only them.
    EXPECT_EQ(cache.head_rows()->count, want.rows.size()) << c.rule;
    EXPECT_EQ(cache.head_rows()->ids.size(),
              want.rows.size() * static_cast<std::size_t>(rule.head().arity()))
        << c.rule;
  }
  const PredicateId q = symbols->LookupPredicate("q").value();
  const PredicateId r = symbols->LookupPredicate("r").value();
  EXPECT_EQ(RowsOf(out.relation(q)),
            (std::vector<Tuple>{{Value::Int(5), Value::Int(6)}}));
  EXPECT_EQ(RowsOf(out.relation(r)),
            (std::vector<Tuple>{{Value::Int(1), Value::Int(3)},
                                {Value::Int(2), Value::Int(4)}}));
  EXPECT_EQ(cache.head_rows()->count, 1u);  // the last application's row
}

}  // namespace
}  // namespace datalog
