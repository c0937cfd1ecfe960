// Datalog as a program-analysis engine: Andersen-style (inclusion-based)
// points-to analysis, the workload that made bottom-up Datalog engines
// mainstream in static analysis. Shows the optimizer cleaning up a
// generated ruleset and magic sets answering a targeted "what does v
// point to?" query without computing the whole analysis.
//
//   $ ./points_to

#include <cstdio>
#include <memory>

#include "datalog.h"

int main() {
  using namespace datalog;

  auto symbols = std::make_shared<SymbolTable>();
  Parser parser(symbols);

  // EDB predicates, one per statement form:
  //   addr(v, h)   v = &h        copy(d, s)   d = s
  //   load(d, s)   d = *s        store(d, s)  *d = s
  //
  // The generated rules contain a duplicated-with-renaming atom (the kind
  // a template-based rule generator emits), which Fig. 2 removes.
  Program analysis =
      parser
          .ParseProgram(
              "pts(v, h) :- addr(v, h).\n"
              "pts(d, h) :- copy(d, s), pts(s, h), pts(s, h2).\n"
              "pts(d, h) :- load(d, s), pts(s, p), pts(p, h).\n"
              "pts(q, h) :- store(d, s), pts(d, q), pts(s, h).\n")
          .value();
  std::printf("generated analysis:\n%s\n", ToString(analysis).c_str());

  MinimizeReport report;
  Program minimized = MinimizeProgram(analysis, &report).value();
  std::printf("minimized (%zu redundant atoms removed):\n%s\n",
              report.atoms_removed, ToString(minimized).c_str());

  // A small program to analyze:
  //   a = &o1; b = &o2; p = a; *p = b; c = *a;
  Database edb = ParseDatabase(symbols,
                               "addr('a', 'o1')."
                               "addr('b', 'o2')."
                               "copy('p', 'a')."
                               "store('p', 'b')."
                               "load('c', 'a').")
                     .value();

  Database db = edb;
  EvalStats stats = EvaluateSemiNaive(minimized, &db).value();
  PredicateId pts = symbols->LookupPredicate("pts").value();
  std::printf("full analysis: %zu points-to facts (%llu joins)\n",
              db.relation(pts).size(),
              static_cast<unsigned long long>(stats.match.substitutions));
  for (RowRef t : db.relation(pts).rows()) {
    std::printf("  %s -> %s\n", ToString(t[0], *symbols).c_str(),
                ToString(t[1], *symbols).c_str());
  }

  // Targeted query via magic sets: what may 'c' point to?
  Atom query = parser.ParseQuery("?- pts('c', h).").value();
  std::vector<Tuple> answers =
      AnswerQuery(minimized, edb, query, EvalMethod::kMagicSemiNaive).value();
  std::printf("\npts('c', h) via magic sets:\n");
  for (const Tuple& t : answers) {
    std::printf("  c -> %s\n", ToString(t[1], *symbols).c_str());
  }

  // Why does c point to o2? Ask for the derivation.
  if (!answers.empty()) {
    std::int32_t o2 = symbols->InternSymbol("o2");
    Result<Derivation> why = ExplainFact(
        minimized, edb, pts,
        {Value::Symbol(symbols->InternSymbol("c")), Value::Symbol(o2)});
    if (why.ok()) {
      std::printf("\nderivation of pts('c', 'o2'):\n%s",
                  ToString(*why, *symbols).c_str());
    }
  }
  return 0;
}
