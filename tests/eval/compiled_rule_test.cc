// The compiled-plan layer (eval/compiled_rule.h): the bytecode VM that
// Apply runs must agree with the plan's depth-first Execute -- the same
// rows in the same order and identical MatchStats on a single
// application -- the semi-naive fixpoint must equal the naive one,
// Execute's minus and plus parts and pre-bound variables must match
// their plain-atom oracles, and the cache must behave as the layer
// promises: join orders persist across rounds and replan only on >= 4x
// cardinality drift or an ablation-knob flip.

#include "eval/compiled_rule.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ast/pretty_print.h"
#include "eval/naive.h"
#include "eval/seminaive.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "workload/graph_gen.h"

namespace datalog {
namespace {

using testing::ExpectApplyRuleMatchesExecute;
using testing::KnobGuard;
using testing::MakeSymbols;
using testing::ParseDatabaseOrDie;
using testing::ParseProgramOrDie;
using testing::ParseRuleOrDie;

/// One ApplyRule call (the VM) against Execute on the plan compiled from
/// the same sizes: every counter -- not just substitutions -- must agree
/// bit for bit, and the rows must come out in the same order.
TEST(CompiledRuleTest, SingleApplicationStatsMatchLegacyExactly) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(
      symbols, "e(1, 2). e(2, 3). e(3, 4). e(4, 1). e(2, 5). t(1, 1).");
  Rule rule = ParseRuleOrDie(symbols, "h(x, z) :- e(x, y), e(y, z).");

  for (bool greedy : {true, false}) {
    for (bool indexed : {true, false}) {
      SetGreedyJoinOrdering(greedy);
      SetIndexLookups(indexed);
      ExpectApplyRuleMatchesExecute(
          rule, db,
          "greedy=" + std::to_string(greedy) +
              " idx=" + std::to_string(indexed));
    }
  }
}

/// Repeated variables within one atom and a fully bound membership atom:
/// the VM's lowering of the schedule classification (writes vs checks vs
/// key) must match Execute's, including with index lookups ablated (the
/// membership path then scans and filters, honoring the knob).
TEST(CompiledRuleTest, RepeatedVarsAndFullyBoundAtomAgreeAcrossKnobs) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(
      symbols,
      "e(1, 2). e(2, 1). e(2, 3). e(3, 3). e(1, 1). s(1). s(3).");
  Rule loop = ParseRuleOrDie(symbols, "h(x) :- e(x, x), s(x).");
  Rule back = ParseRuleOrDie(symbols, "p(x, y) :- e(x, y), e(y, x).");

  for (const Rule& rule : {loop, back}) {
    for (bool greedy : {true, false}) {
      for (bool indexed : {true, false}) {
        SetGreedyJoinOrdering(greedy);
        SetIndexLookups(indexed);
        ExpectApplyRuleMatchesExecute(
            rule, db,
            ToString(rule, *symbols) + " greedy=" + std::to_string(greedy) +
                " idx=" + std::to_string(indexed));
      }
    }
  }
}

/// The MatchAtoms adapter materializes a Binding per complete match: the
/// chained pairs of a three-edge cycle, one substitution each.
TEST(CompiledRuleTest, MatchAtomsAdapterEnumeratesSameBindings) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "a(1, 2). a(2, 3). a(3, 1).");
  PredicateId a = symbols->LookupPredicate("a").value();
  VariableId x = symbols->InternVariable("x");
  VariableId y = symbols->InternVariable("y");
  VariableId z = symbols->InternVariable("z");
  std::vector<PlannedAtom> atoms = {
      {Atom(a, {Term::Variable(x), Term::Variable(y)}), AtomSource::kFull},
      {Atom(a, {Term::Variable(y), Term::Variable(z)}), AtomSource::kFull}};

  auto collect = [&] {
    std::set<std::vector<std::pair<VariableId, Value>>> seen;
    MatchStats stats;
    MatchAtoms(db, nullptr, atoms,
               [&](const Binding& b) {
                 std::vector<std::pair<VariableId, Value>> sorted(b.begin(),
                                                                  b.end());
                 std::sort(sorted.begin(), sorted.end(),
                           [](const auto& l, const auto& r) {
                             return l.first < r.first;
                           });
                 seen.insert(std::move(sorted));
                 return true;
               },
               &stats);
    return std::make_pair(seen, stats.substitutions);
  };

  auto binding = [&](std::int64_t vx, std::int64_t vy, std::int64_t vz) {
    std::vector<std::pair<VariableId, Value>> b = {
        {x, Value::Int(vx)}, {y, Value::Int(vy)}, {z, Value::Int(vz)}};
    std::sort(b.begin(), b.end(), [](const auto& l, const auto& r) {
      return l.first < r.first;
    });
    return b;
  };
  for (bool greedy : {true, false}) {
    for (bool indexed : {true, false}) {
      SetGreedyJoinOrdering(greedy);
      SetIndexLookups(indexed);
      auto [seen, subs] = collect();
      EXPECT_EQ(seen, (std::set<std::vector<std::pair<VariableId, Value>>>{
                          binding(1, 2, 3), binding(2, 3, 1),
                          binding(3, 1, 2)}))
          << "greedy=" << greedy << " idx=" << indexed;
      EXPECT_EQ(subs, 3u);
    }
  }
}

using BindingPairs = std::vector<std::pair<VariableId, Value>>;

BindingPairs SortedPairs(const Binding& b) {
  BindingPairs pairs(b.begin(), b.end());
  std::sort(pairs.begin(), pairs.end(),
            [](const auto& l, const auto& r) { return l.first < r.first; });
  return pairs;
}

/// Every binding an enumeration produced, and its substitution count.
struct Enumeration {
  std::multiset<BindingPairs> bindings;
  std::uint64_t substitutions = 0;
};

Enumeration EnumerateMatches(const Database& full, const DeltaRanges* ranges,
                             const std::vector<PlannedAtom>& atoms) {
  Enumeration result;
  MatchStats stats;
  MatchAtoms(full, ranges, atoms,
             [&](const Binding& b) {
               result.bindings.insert(SortedPairs(b));
               return true;
             },
             &stats);
  result.substitutions = stats.substitutions;
  return result;
}

/// The oracle for minus and plus parts: atom i's rows -- its source's
/// rows not in its minus part, then its plus part's -- copied under a
/// fresh predicate of one database of their own, and matched there by
/// plain kFull atoms.
Enumeration EnumerateCopiedParts(const Database& full,
                                 const DeltaRanges* ranges,
                                 const std::vector<PlannedAtom>& atoms) {
  SymbolTable& symbols = *full.symbols();
  Database copy(full.symbols());
  std::vector<PlannedAtom> plain;
  for (const PlannedAtom& atom : atoms) {
    const PredicateId pred = atom.atom.predicate();
    const PredicateId part =
        symbols.FreshPredicate("part", atom.atom.arity());
    const AtomRows src = ResolveAtomRows(full, ranges, atom.source, pred);
    for (std::size_t i = src.rows.begin; i < src.rows.end; ++i) {
      const Tuple row(src.rel->row(i));
      if (atom.minus == nullptr || !atom.minus->Contains(pred, row)) {
        copy.AddFact(part, row);
      }
    }
    if (atom.plus != nullptr) {
      for (RowRef row : atom.plus->relation(pred).rows()) {
        copy.AddFact(part, Tuple(row));
      }
    }
    plain.push_back(PlannedAtom{Atom(part, atom.atom.args())});
  }
  return EnumerateMatches(copy, nullptr, plain);
}

/// Atoms with minus and plus parts enumerate exactly what plain atoms
/// over copies of their parts do: the same multiset of bindings and the
/// same substitutions, under every greedy x index setting.
TEST(CompiledRuleTest, MinusAndPlusPartsMatchCopiedRelations) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(
      symbols,
      "e(1, 2). e(2, 3). e(3, 1). e(1, 3). e(3, 3). e(2, 2). s(1). s(2).");
  Database minus = ParseDatabaseOrDie(symbols, "e(1, 3). e(2, 2). s(2).");
  Database plus = ParseDatabaseOrDie(
      symbols, "e(4, 1). e(3, 4). e(4, 4). s(4). f(1, 2). f(4, 3).");
  Database no_e = ParseDatabaseOrDie(symbols, "s(3).");
  Database delta = ParseDatabaseOrDie(symbols, "e(2, 3). e(5, 5).");
  const DeltaRanges whole = DeltaRanges::Whole(delta, /*use_old=*/false);
  const PredicateId e = symbols->LookupPredicate("e").value();
  const PredicateId s = symbols->LookupPredicate("s").value();
  const PredicateId f = symbols->LookupPredicate("f").value();
  const Term x = Term::Variable(symbols->InternVariable("x"));
  const Term y = Term::Variable(symbols->InternVariable("y"));
  const Term z = Term::Variable(symbols->InternVariable("z"));
  auto atom = [](PredicateId pred, std::vector<Term> args,
                 const Database* minus_part, const Database* plus_part,
                 AtomSource source = AtomSource::kFull) {
    return PlannedAtom{Atom(pred, std::move(args)), source, minus_part,
                       plus_part};
  };
  const Term one = Term::Constant(Value::Int(1));
  const Term three = Term::Constant(Value::Int(3));

  struct Case {
    const char* label;
    std::vector<PlannedAtom> atoms;
  };
  const Case cases[] = {
      {"constants",
       {atom(e, {one, y}, &minus, &plus), atom(e, {y, z}, nullptr, &plus)}},
      {"repeated variable",
       {atom(e, {x, x}, &minus, &plus), atom(s, {x}, &minus, &plus)}},
      {"fully bound row in minus",
       {atom(e, {x, y}, nullptr, nullptr), atom(e, {y, x}, &minus, nullptr)}},
      {"constant fully bound row in minus",
       {atom(s, {x}, nullptr, nullptr), atom(e, {x, three}, &minus, &plus)}},
      {"empty primary, non-empty plus",
       {atom(e, {x, y}, &minus, nullptr), atom(f, {y, z}, &minus, &plus)}},
      {"plus lacks the predicate",
       {atom(e, {x, y}, &minus, &no_e), atom(s, {y}, nullptr, &no_e)}},
      {"one predicate, different parts",
       {atom(e, {x, y}, &minus, nullptr), atom(e, {y, z}, &minus, &plus),
        atom(e, {z, x}, nullptr, &plus)}},
      {"delta over Whole",
       {atom(e, {x, y}, nullptr, nullptr, AtomSource::kDelta),
        atom(e, {y, z}, &minus, &plus)}},
  };
  for (const Case& c : cases) {
    const Enumeration want = EnumerateCopiedParts(db, &whole, c.atoms);
    EXPECT_FALSE(want.bindings.empty()) << c.label;
    for (bool greedy : {true, false}) {
      for (bool indexed : {true, false}) {
        SetGreedyJoinOrdering(greedy);
        SetIndexLookups(indexed);
        const Enumeration got = EnumerateMatches(db, &whole, c.atoms);
        EXPECT_EQ(got.bindings, want.bindings)
            << c.label << " greedy=" << greedy << " idx=" << indexed;
        EXPECT_EQ(got.substitutions, want.substitutions)
            << c.label << " greedy=" << greedy << " idx=" << indexed;
      }
    }
  }
}

/// A plus part whose database lacks the atom's predicate reads the
/// shared empty relation Database::relation hands out, which nothing may
/// index (docs/parallel_eval.md): two threads that each pre-build and
/// run such a plan over databases of their own touch no common state,
/// which the TSan build of this suite checks.
TEST(CompiledRuleTest, PlusPartWithoutThePredicateIndexesNothingShared) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  const std::string facts = "e(1, 2). e(2, 3). e(3, 1). e(1, 3).";
  Database dbs[] = {ParseDatabaseOrDie(symbols, facts),
                    ParseDatabaseOrDie(symbols, facts)};
  Database pluses[] = {ParseDatabaseOrDie(symbols, "s(1)."),
                       ParseDatabaseOrDie(symbols, "s(2).")};
  const PredicateId e = symbols->LookupPredicate("e").value();
  const Term x = Term::Variable(symbols->InternVariable("x"));
  const Term y = Term::Variable(symbols->InternVariable("y"));
  const Term z = Term::Variable(symbols->InternVariable("z"));
  std::vector<CompiledRule> plans;
  for (int i = 0; i < 2; ++i) {
    plans.push_back(CompiledRule::CompileAtoms(
        {PlannedAtom{Atom(e, {x, y}), AtomSource::kFull, nullptr, &pluses[i]},
         PlannedAtom{Atom(e, {y, z}), AtomSource::kFull, nullptr,
                     &pluses[i]}},
        dbs[i], nullptr));
  }
  std::uint64_t substitutions[2] = {0, 0};
  auto run = [&](int i) {
    plans[i].EnsureIndexes(dbs[i], nullptr);
    MatchFrame frame(plans[i]);
    MatchStats stats;
    plans[i].Execute(dbs[i], nullptr, &frame, &stats,
                     [](const MatchFrame&) { return true; });
    substitutions[i] = stats.substitutions;
  };
  std::thread other(run, 1);
  run(0);
  other.join();
  EXPECT_EQ(substitutions[0], 5u);
  EXPECT_EQ(substitutions[1], 5u);
}

/// Variables bound before the first atom enumerate exactly what the
/// atoms with those variables substituted as constants do (core/tgd.cc's
/// BindAtom), with minus and plus parts too, under every greedy x index
/// setting.
TEST(CompiledRuleTest, PreBoundVariablesMatchSubstitutedConstants) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(
      symbols, "e(1, 2). e(2, 3). e(3, 1). e(1, 3). e(3, 3). s(1). s(3).");
  Database minus = ParseDatabaseOrDie(symbols, "e(1, 3).");
  Database plus = ParseDatabaseOrDie(symbols, "e(3, 2). e(2, 2).");
  const PredicateId e = symbols->LookupPredicate("e").value();
  const PredicateId s = symbols->LookupPredicate("s").value();
  const VariableId x = symbols->InternVariable("x");
  const VariableId y = symbols->InternVariable("y");
  const VariableId z = symbols->InternVariable("z");
  const Term tx = Term::Variable(x);
  const Term ty = Term::Variable(y);
  const Term tz = Term::Variable(z);

  struct Case {
    const char* label;
    std::vector<PlannedAtom> atoms;
    std::vector<VariableId> bound;
  };
  const Case cases[] = {
      {"chain from a bound start",
       {{Atom(e, {tx, ty})}, {Atom(e, {ty, tz})}},
       {x}},
      {"bound variable only a key",
       {{Atom(e, {tx, ty})}, {Atom(s, {tx})}},
       {y}},
      {"bound repeated variable",
       {{Atom(e, {tx, tx})}, {Atom(s, {tx})}},
       {x}},
      {"bound ends with parts",
       {{Atom(e, {tx, ty}), AtomSource::kFull, &minus, &plus},
        {Atom(e, {ty, tz}), AtomSource::kFull, &minus, &plus}},
       {z, x}},
  };
  for (const Case& c : cases) {
    for (bool greedy : {true, false}) {
      for (bool indexed : {true, false}) {
        SetGreedyJoinOrdering(greedy);
        SetIndexLookups(indexed);
        const CompiledRule plan =
            CompiledRule::CompileAtoms(c.atoms, db, nullptr, c.bound);
        // Every assignment of the bound variables over the active domain.
        std::vector<std::vector<Value>> assignments = {{}};
        for (std::size_t i = 0; i < c.bound.size(); ++i) {
          std::vector<std::vector<Value>> longer;
          for (const std::vector<Value>& prefix : assignments) {
            for (std::int64_t v = 1; v <= 4; ++v) {
              longer.push_back(prefix);
              longer.back().push_back(Value::Int(v));
            }
          }
          assignments = std::move(longer);
        }
        for (const std::vector<Value>& values : assignments) {
          Binding bound;
          for (std::size_t i = 0; i < c.bound.size(); ++i) {
            bound[c.bound[i]] = values[i];
          }
          const std::string where =
              std::string(c.label) + " greedy=" + std::to_string(greedy) +
              " idx=" + std::to_string(indexed) + " first=" +
              std::to_string(values[0].payload());

          Enumeration got;
          MatchStats stats;
          MatchFrame frame(plan);
          for (std::size_t i = 0; i < values.size(); ++i) {
            frame.slots[i] = ValueDictionary::Global().Intern(values[i]);
          }
          Binding binding;
          plan.Execute(db, nullptr, &frame, &stats, [&](const MatchFrame& f) {
            plan.FillBinding(f, &binding);
            got.bindings.insert(SortedPairs(binding));
            return true;
          });
          got.substitutions = stats.substitutions;

          std::vector<PlannedAtom> substituted = c.atoms;
          for (PlannedAtom& atom : substituted) {
            std::vector<Term> args;
            for (const Term& t : atom.atom.args()) {
              const bool is_bound = t.is_variable() && bound.contains(t.var());
              args.push_back(is_bound ? Term::Constant(bound.at(t.var())) : t);
            }
            atom.atom = Atom(atom.atom.predicate(), std::move(args));
          }
          Enumeration want;
          MatchStats want_stats;
          MatchAtoms(db, nullptr, substituted,
                     [&](const Binding& b) {
                       Binding full = b;
                       full.insert(bound.begin(), bound.end());
                       want.bindings.insert(SortedPairs(full));
                       return true;
                     },
                     &want_stats);
          want.substitutions = want_stats.substitutions;
          EXPECT_EQ(got.bindings, want.bindings) << where;
          EXPECT_EQ(got.substitutions, want.substitutions) << where;
        }
      }
    }
  }
}

/// Early exit must propagate through the compiled enumeration.
TEST(CompiledRuleTest, MatchAtomsCallbackCanStopEnumeration) {
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "a(1, 2). a(2, 3). a(3, 4).");
  PredicateId a = symbols->LookupPredicate("a").value();
  VariableId x = symbols->InternVariable("x");
  VariableId y = symbols->InternVariable("y");
  std::vector<PlannedAtom> atoms = {
      {Atom(a, {Term::Variable(x), Term::Variable(y)}), AtomSource::kFull}};
  int count = 0;
  MatchAtoms(db, nullptr, atoms,
             [&](const Binding&) {
               ++count;
               return false;  // stop after the first match
             },
             nullptr);
  EXPECT_EQ(count, 1);
}

TEST(CompiledRuleTest, CacheReplansOnlyOnFourfoldDrift) {
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "e(1, 2). e(2, 3). s(1).");
  Rule rule = ParseRuleOrDie(symbols, "h(x, y) :- e(x, y), s(x).");
  PredicateId e = symbols->LookupPredicate("e").value();

  CompiledRule plan = CompiledRule::Compile(
      rule, /*delta_pos=*/std::size_t(-1), /*use_old=*/false, db, nullptr);
  EXPECT_FALSE(plan.NeedsReplan(db, nullptr));

  // Under 4x growth (2 -> 7 rows is < 4x): the cached order stands.
  for (std::int64_t i = 0; i < 5; ++i) {
    db.AddFact(e, {Value::Int(10 + i), Value::Int(11 + i)});
  }
  EXPECT_FALSE(plan.NeedsReplan(db, nullptr));

  // Crossing 4x (2 -> 8) invalidates.
  db.AddFact(e, {Value::Int(90), Value::Int(91)});
  EXPECT_TRUE(plan.NeedsReplan(db, nullptr));
  plan.Replan(db, nullptr);
  EXPECT_FALSE(plan.NeedsReplan(db, nullptr));
}

TEST(CompiledRuleTest, CacheInvalidatesOnKnobFlip) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "e(1, 2). s(1).");
  Rule rule = ParseRuleOrDie(symbols, "h(x, y) :- e(x, y), s(x).");
  CompiledRule plan = CompiledRule::Compile(
      rule, /*delta_pos=*/std::size_t(-1), /*use_old=*/false, db, nullptr);
  EXPECT_FALSE(plan.NeedsReplan(db, nullptr));
  SetGreedyJoinOrdering(false);
  EXPECT_TRUE(plan.NeedsReplan(db, nullptr));
  SetGreedyJoinOrdering(true);
  SetIndexLookups(false);
  EXPECT_TRUE(plan.NeedsReplan(db, nullptr));
  SetIndexLookups(true);
  SetMultiwayJoins(false);
  EXPECT_TRUE(plan.NeedsReplan(db, nullptr));
}

/// With greedy planning off the order is textual and fixed, so pure
/// growth must NOT trigger replanning (nothing about the plan depends on
/// sizes).
TEST(CompiledRuleTest, FixedOrderPlansNeverReplanOnGrowth) {
  KnobGuard guard;
  SetGreedyJoinOrdering(false);
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "e(1, 2). s(1).");
  Rule rule = ParseRuleOrDie(symbols, "h(x, y) :- e(x, y), s(x).");
  PredicateId e = symbols->LookupPredicate("e").value();
  CompiledRule plan = CompiledRule::Compile(
      rule, /*delta_pos=*/std::size_t(-1), /*use_old=*/false, db, nullptr);
  for (std::int64_t i = 0; i < 64; ++i) {
    db.AddFact(e, {Value::Int(100 + i), Value::Int(101 + i)});
  }
  EXPECT_FALSE(plan.NeedsReplan(db, nullptr));
}

/// Full engine run: the cached-plan semi-naive fixpoint must equal the
/// naive one -- the same facts, each derived once -- and find each
/// complete body match at most as often as naive evaluation, which
/// rediscovers every old match in every round.
TEST(CompiledRuleTest, SemiNaiveFixpointMatchesLegacy) {
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols,
                                "g(x, z) :- a(x, z).\n"
                                "g(x, z) :- a(x, y), g(y, z).\n");
  PredicateId a = symbols->LookupPredicate("a").value();
  Database base(symbols);
  AddGraphFacts({GraphShape::kRandom, 24, 48, 11}, a, &base);

  Database d1(symbols);
  d1.UnionWith(base);
  EvalStats semi_naive = EvaluateSemiNaive(p, &d1).value();

  Database d2(symbols);
  d2.UnionWith(base);
  EvalStats naive = EvaluateNaive(p, &d2).value();

  EXPECT_EQ(d1, d2);
  EXPECT_EQ(semi_naive.facts_derived, naive.facts_derived);
  EXPECT_GT(semi_naive.facts_derived, 0u);
  EXPECT_LE(semi_naive.match.substitutions, naive.match.substitutions);
}

/// Negated literals are tested against the full database after the
/// positive part binds: the VM's membership probe must filter exactly
/// the matches Execute's does.
TEST(CompiledRuleTest, NegationAgreesWithLegacy) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(
      symbols, "e(1, 2). e(2, 3). e(3, 1). blocked(2).");
  Rule rule = ParseRuleOrDie(symbols, "h(x, y) :- e(x, y), not blocked(y).");

  Database out(symbols);
  EXPECT_EQ(ApplyRule(rule, db, &out, nullptr), 2u);
  for (bool greedy : {true, false}) {
    for (bool indexed : {true, false}) {
      SetGreedyJoinOrdering(greedy);
      SetIndexLookups(indexed);
      ExpectApplyRuleMatchesExecute(
          rule, db,
          "greedy=" + std::to_string(greedy) +
              " idx=" + std::to_string(indexed));
    }
  }
}

}  // namespace
}  // namespace datalog
