// A realistic deductive-database scenario: bill-of-materials (the classic
// recursive-query workload the 1980s Datalog literature motivates).
// Subparts, cost rollup via stratified negation (basic vs assembled
// parts), a magic-sets bound query, and the optimizer cleaning up a
// machine-generated program with redundant guards.
//
//   $ ./bill_of_materials

#include <cstdio>
#include <memory>

#include "datalog.h"

int main() {
  using namespace datalog;

  auto symbols = std::make_shared<SymbolTable>();
  Parser parser(symbols);

  // component(P, C): part P directly contains part C.
  // basic(P): P is purchased, not assembled.
  // A generated ruleset -- note the redundant duplicated atoms a query
  // generator might emit.
  Program program =
      parser
          .ParseProgram(
              "subpart(p, c) :- component(p, c), component(p, d).\n"
              "subpart(p, c) :- component(p, q), subpart(q, c).\n"
              "assembled(p) :- component(p, c).\n"
              "basicpart(p) :- part(p), not assembled(p).\n"
              "uses_basic(p, c) :- subpart(p, c), basicpart(c).\n")
          .value();
  std::printf("generated program:\n%s\n", ToString(program).c_str());

  // Minimize the positive core; the negation rules ride along untouched
  // (MinimizeStratifiedProgram handles the split and its soundness
  // argument -- see core/minimize.h).
  MinimizeReport report;
  Program optimized = MinimizeStratifiedProgram(program, &report).value();
  std::printf("after Fig. 2 minimization (%zu atoms removed):\n%s\n",
              report.atoms_removed, ToString(optimized).c_str());

  // The bound query below runs on the positive core only.
  Program minimized_core(symbols);
  for (const Rule& rule : optimized.rules()) {
    if (rule.IsPositive()) minimized_core.AddRule(rule);
  }

  // A small product catalog.
  Database edb = ParseDatabase(symbols,
                               "component('bike', 'frame')."
                               "component('bike', 'wheel')."
                               "component('wheel', 'rim')."
                               "component('wheel', 'spoke')."
                               "component('wheel', 'hub')."
                               "component('hub', 'axle')."
                               "component('hub', 'bearing')."
                               "part('bike'). part('frame'). part('wheel')."
                               "part('rim'). part('spoke'). part('hub')."
                               "part('axle'). part('bearing').")
                     .value();

  Database db = edb;
  EvalStats stats = EvaluateStratified(optimized, &db).value();
  std::printf("stratified fixpoint: %llu facts derived in %d rounds\n",
              static_cast<unsigned long long>(stats.facts_derived),
              stats.iterations);

  PredicateId uses_basic = symbols->LookupPredicate("uses_basic").value();
  std::printf("\nbasic parts used by each assembly:\n");
  for (RowRef t : db.relation(uses_basic).rows()) {
    std::printf("  %s needs %s\n", ToString(t[0], *symbols).c_str(),
                ToString(t[1], *symbols).c_str());
  }

  // Bound query on the positive core via magic sets: which subparts does
  // the wheel transitively contain?
  Atom query = parser.ParseQuery("?- subpart('wheel', x).").value();
  std::vector<Tuple> answers =
      AnswerQuery(minimized_core, edb, query, EvalMethod::kMagicSemiNaive)
          .value();
  std::printf("\nsubpart('wheel', x) via magic sets: %zu answers\n",
              answers.size());
  for (const Tuple& t : answers) {
    std::printf("  %s\n", ToString(t[1], *symbols).c_str());
  }
  return 0;
}
