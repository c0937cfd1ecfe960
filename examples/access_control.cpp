// Role-based access control as Datalog: recursive role inheritance,
// permission propagation, explicit deny via stratified negation, and a
// magic-sets "may user U read R?" check. A generated policy compiler
// tends to emit duplicated guard atoms -- the minimizer cleans them up
// before the policy is installed.
//
//   $ ./access_control

#include <cstdio>
#include <memory>

#include "datalog.h"

int main() {
  using namespace datalog;

  auto symbols = std::make_shared<SymbolTable>();
  Parser parser(symbols);

  Program policy =
      parser
          .ParseProgram(
              // role(u, r): user u holds role r (directly).
              // parent(r1, r2): role r1 inherits everything r2 has.
              "holds(u, r) :- role(u, r), role(u, r2).\n"  // generated dup
              "holds(u, r) :- holds(u, r1), parent(r1, r).\n"
              "may(u, p, o) :- holds(u, r), grant(r, p, o).\n"
              "allowed(u, p, o) :- may(u, p, o), not deny(u, o).\n")
          .value();
  std::printf("generated policy:\n%s\n", ToString(policy).c_str());

  MinimizeReport report;
  Program installed = MinimizeStratifiedProgram(policy, &report).value();
  std::printf("installed policy (%zu redundant atoms removed):\n%s\n",
              report.atoms_removed, ToString(installed).c_str());

  Database edb = ParseDatabase(symbols,
                               "role('ann', 'admin')."
                               "role('bob', 'dev')."
                               "role('cao', 'intern')."
                               "parent('admin', 'dev')."
                               "parent('dev', 'reader')."
                               "parent('intern', 'reader')."
                               "grant('reader', 'read', 'wiki')."
                               "grant('dev', 'write', 'repo')."
                               "grant('admin', 'admin', 'repo')."
                               "deny('cao', 'wiki').")
                     .value();

  Database db = edb;
  EvaluateStratified(installed, &db).value();
  PredicateId allowed = symbols->LookupPredicate("allowed").value();
  std::printf("effective permissions:\n");
  for (RowRef t : db.relation(allowed).rows()) {
    std::printf("  %s may %s %s\n", ToString(t[0], *symbols).c_str(),
                ToString(t[1], *symbols).c_str(),
                ToString(t[2], *symbols).c_str());
  }

  // A point lookup via magic sets runs on the positive core (the deny
  // check is re-applied on the result).
  Program core(symbols);
  for (const Rule& rule : installed.rules()) {
    if (rule.IsPositive()) core.AddRule(rule);
  }
  Atom query = parser.ParseQuery("?- may('bob', 'read', 'wiki').").value();
  std::vector<Tuple> hits =
      AnswerQuery(core, edb, query, EvalMethod::kMagicSemiNaive).value();
  PredicateId deny = symbols->LookupPredicate("deny").value();
  bool denied = edb.Contains(
      deny, {Value::Symbol(symbols->InternSymbol("bob")),
             Value::Symbol(symbols->InternSymbol("wiki"))});
  std::printf("\nbob read wiki? %s\n",
              (!hits.empty() && !denied) ? "ALLOW" : "DENY");

  // Why is bob allowed to read the wiki? Walk the derivation.
  PredicateId may = symbols->LookupPredicate("may").value();
  Result<Derivation> why = ExplainFact(
      core, edb, may,
      {Value::Symbol(symbols->InternSymbol("bob")),
       Value::Symbol(symbols->InternSymbol("read")),
       Value::Symbol(symbols->InternSymbol("wiki"))});
  if (why.ok()) {
    std::printf("\nbecause:\n%s", ToString(*why, *symbols).c_str());
  }
  return 0;
}
