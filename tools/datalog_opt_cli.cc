// datalog-opt: command-line front end for the library.
//
//   datalog-opt minimize  PROGRAM            Fig. 2 minimization
//   datalog-opt optimize  PROGRAM            Fig. 2 + Section XI pipeline
//   datalog-opt eval      PROGRAM FACTS      semi-naive fixpoint
//   datalog-opt query     PROGRAM FACTS Q    magic-sets query, e.g. 'g(1, x).'
//   datalog-opt contains  P1 P2              P2 subseteq^u P1? (with witness)
//   datalog-opt prove     P1 P2 TGDS         Section X containment recipe
//   datalog-opt explain   PROGRAM FACTS F    derivation tree of fact F
//   datalog-opt incr      PROGRAM FACTS S    incremental update script S
//   datalog-opt serve     PROGRAM FACTS SOCK epoch-snapshot server on SOCK
//   datalog-opt client    SOCK SCRIPT        run a batch script against SOCK
//   datalog-opt analyze   PROGRAM            structure report
//   datalog-opt check     PROGRAM            static analysis diagnostics
//
// PROGRAM/FACTS/TGDS are file paths; pass '-' to read stdin.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "datalog.h"

namespace datalog {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: datalog-opt COMMAND ARGS...\n"
      "  minimize PROGRAM          remove atoms/rules redundant under\n"
      "                            uniform equivalence (Fig. 2)\n"
      "  optimize PROGRAM          minimize, then remove atoms redundant\n"
      "                            under equivalence (Section XI)\n"
      "  eval PROGRAM FACTS        compute the semi-naive fixpoint\n"
      "       [--threads N]        ... on N threads (positive programs;\n"
      "                            N=0 picks the hardware concurrency)\n"
      "       [--hints]            ... with the analyzer's static\n"
      "                            join-order hints installed\n"
      "  query PROGRAM FACTS Q     answer Q (e.g. 'g(1, x).') via magic sets\n"
      "  contains P1 P2            test P2 subseteq^u P1, print witness on\n"
      "                            failure\n"
      "  prove P1 P2 TGDS [-v]     prove P2 subseteq P1 via the Section X\n"
      "                            recipe with the given tgds; -v narrates\n"
      "                            the chase\n"
      "  minimize-sat PROGRAM TGDS minimize relative to databases\n"
      "                            satisfying the tgds (Section VIII)\n"
      "  explain PROGRAM FACTS F   print a derivation tree for fact F\n"
      "  incr PROGRAM FACTS SCRIPT maintain the fixpoint incrementally\n"
      "       [--threads N]        while applying the update script\n"
      "                            (+fact / -fact / ?query / commit lines,\n"
      "                            see docs/FILE_FORMAT.md)\n"
      "  serve PROGRAM FACTS SOCK  host the materialized fixpoint behind\n"
      "       [--workers N]        epoch snapshots on the unix socket SOCK,\n"
      "       [--threads N]        answering N clients concurrently\n"
      "                            (docs/server.md); --threads sets the\n"
      "                            view's maintenance parallelism\n"
      "  client SOCK SCRIPT        run an update script (incr grammar plus\n"
      "                            ping / stats / base / shutdown) against\n"
      "                            a running server\n"
      "  plan PROGRAM Q            show the relevance -> Fig. 2 -> magic\n"
      "                            pipeline for query Q\n"
      "  analyze PROGRAM           recursion/linearity/strata report\n"
      "  check PROGRAM             run the static analyzer (safety,\n"
      "       [--format=FMT]       stratification, dead code, redundancy,\n"
      "       [--budget N]         binding); FMT is text (default), json,\n"
      "       [--werror]           or sarif; N bounds containment tests\n"
      "       [--query Q]          and adornments (0 = unlimited); Q\n"
      "       [--pass LIST]        directs dead-code/binding analysis;\n"
      "                            LIST is a comma-separated pass subset;\n"
      "                            --werror fails on warnings too\n"
      "\n"
      "global flags (any command):\n"
      "  --trace FILE              write a Chrome trace-event JSON of the\n"
      "                            run (load at chrome://tracing)\n"
      "  --metrics FILE            write flat metrics JSON (counters from\n"
      "                            every engine and optimizer pass)\n");
  return 2;
}

bool ReadInput(const std::string& path, std::string* out) {
  if (path == "-") {
    std::stringstream buffer;
    buffer << std::cin.rdbuf();
    *out = buffer.str();
    return true;
  }
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "error: cannot open '%s'\n", path.c_str());
    return false;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  *out = buffer.str();
  return true;
}

template <typename T>
bool Check(const Result<T>& result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "error (%s): %s\n", what,
                 result.status().ToString().c_str());
    return false;
  }
  return true;
}

int CmdMinimize(const std::string& text,
                const std::shared_ptr<SymbolTable>& symbols) {
  Parser parser(symbols);
  Result<Program> program = parser.ParseProgram(text);
  if (!Check(program, "parse")) return 1;
  MinimizeReport report;
  Result<Program> minimized = MinimizeProgram(*program, &report);
  if (!Check(minimized, "minimize")) return 1;
  std::printf("%s", ToString(*minimized).c_str());
  for (const MinimizeReport::RemovedAtom& removal : report.removed_atoms) {
    std::fprintf(stderr, "rule %zu: removed atom %s\n", removal.rule_index,
                 ToString(removal.atom, *symbols).c_str());
  }
  for (const Rule& rule : report.removed_rules) {
    std::fprintf(stderr, "removed rule: %s\n",
                 ToString(rule, *symbols).c_str());
  }
  std::fprintf(stderr, "removed %zu atoms, %zu rules (%zu containment tests)\n",
               report.atoms_removed, report.rules_removed,
               report.containment_tests);
  return 0;
}

int CmdOptimize(const std::string& text,
                const std::shared_ptr<SymbolTable>& symbols) {
  Parser parser(symbols);
  Result<Program> program = parser.ParseProgram(text);
  if (!Check(program, "parse")) return 1;
  Result<Program> minimized = MinimizeProgram(*program);
  if (!Check(minimized, "minimize")) return 1;
  Result<EquivalenceOptimizeResult> optimized =
      OptimizeUnderEquivalence(*minimized);
  if (!Check(optimized, "optimize")) return 1;
  std::printf("%s", ToString(optimized->program).c_str());
  for (const EquivalenceRemoval& removal : optimized->removals) {
    std::fprintf(stderr, "rule %zu: removed", removal.rule_index);
    for (const Atom& atom : removal.removed) {
      std::fprintf(stderr, " %s", ToString(atom, *symbols).c_str());
    }
    std::fprintf(stderr, "  (witness: %s)\n",
                 ToString(removal.witness, *symbols).c_str());
  }
  return 0;
}

int CmdMinimizeSat(const std::string& program_text,
                   const std::string& tgds_text,
                   const std::shared_ptr<SymbolTable>& symbols) {
  Parser parser(symbols);
  Result<Program> program = parser.ParseProgram(program_text);
  if (!Check(program, "parse program")) return 1;
  Result<std::vector<Tgd>> tgds = parser.ParseTgds(tgds_text);
  if (!Check(tgds, "parse tgds")) return 1;
  MinimizeReport report;
  Result<Program> minimized =
      MinimizeProgramUnderConstraints(*program, *tgds, {}, &report);
  if (!Check(minimized, "minimize")) return 1;
  std::printf("%s", ToString(*minimized).c_str());
  std::fprintf(stderr,
               "removed %zu atoms, %zu rules relative to SAT(T)\n",
               report.atoms_removed, report.rules_removed);
  return 0;
}

int CmdEval(const std::string& program_text, const std::string& facts_text,
            std::size_t num_threads, bool use_hints,
            const std::shared_ptr<SymbolTable>& symbols) {
  Parser parser(symbols);
  Result<Program> program = parser.ParseProgram(program_text);
  if (!Check(program, "parse program")) return 1;
  Result<Database> db = ParseDatabase(symbols, facts_text);
  if (!Check(db, "parse facts")) return 1;
  Database work = *db;
  // With --hints, install the analyzer's static join-order hints for the
  // duration of the run. Hints only reorder joins; results are identical.
  JoinOrderHints hints;
  if (use_hints) {
    hints = StaticJoinHints(*program);
    SetJoinOrderHints(&hints);
    std::fprintf(stderr, "installed %zu join-order hints\n",
                 hints.order.size());
  }
  // The parallel engine handles positive programs; programs with
  // stratified negation stay on the sequential stratified engine.
  const bool parallel =
      num_threads != 1 && ValidatePositiveProgram(*program).ok();
  Result<EvalStats> stats =
      program->rules().empty() ? Result<EvalStats>(EvalStats{})
      : parallel ? EvaluateSemiNaiveParallel(*program, &work, num_threads)
                 : EvaluateStratified(*program, &work);
  if (use_hints) SetJoinOrderHints(nullptr);  // `hints` dies with this frame
  if (!Check(stats, "evaluate")) return 1;
  std::printf("%s", work.ToString().c_str());
  std::fprintf(stderr, "%d iterations, %llu facts derived, %llu joins\n",
               stats->iterations,
               static_cast<unsigned long long>(stats->facts_derived),
               static_cast<unsigned long long>(stats->match.substitutions));
  if (parallel) {
    std::fprintf(stderr,
                 "parallel: %llu rounds, %llu tasks "
                 "(index %.2fms, match %.2fms, merge %.2fms)\n",
                 static_cast<unsigned long long>(stats->parallel_rounds),
                 static_cast<unsigned long long>(stats->parallel_tasks),
                 static_cast<double>(stats->index_build_ns) / 1e6,
                 static_cast<double>(stats->parallel_match_ns) / 1e6,
                 static_cast<double>(stats->merge_ns) / 1e6);
  }
  return 0;
}

int CmdQuery(const std::string& program_text, const std::string& facts_text,
             const std::string& query_text,
             const std::shared_ptr<SymbolTable>& symbols) {
  Parser parser(symbols);
  Result<Program> program = parser.ParseProgram(program_text);
  if (!Check(program, "parse program")) return 1;
  Result<Database> db = ParseDatabase(symbols, facts_text);
  if (!Check(db, "parse facts")) return 1;
  std::string q = query_text;
  if (q.rfind("?-", 0) != 0) q = "?- " + q;
  Result<Atom> query = parser.ParseQuery(q);
  if (!Check(query, "parse query")) return 1;
  Result<std::vector<Tuple>> answers =
      AnswerQuery(*program, *db, *query, EvalMethod::kMagicSemiNaive);
  if (!answers.ok()) {
    // Extensional or non-rewritable queries fall back to semi-naive.
    answers = AnswerQuery(*program, *db, *query, EvalMethod::kSemiNaive);
  }
  if (!Check(answers, "query")) return 1;
  for (const Tuple& tuple : *answers) {
    std::string line = symbols->PredicateName(query->predicate());
    if (!tuple.empty()) {
      line += "(";
      for (std::size_t i = 0; i < tuple.size(); ++i) {
        if (i != 0) line += ", ";
        line += ToString(tuple[i], *symbols);
      }
      line += ")";
    }
    std::printf("%s.\n", line.c_str());
  }
  std::fprintf(stderr, "%zu answers\n", answers->size());
  return 0;
}

int CmdContains(const std::string& p1_text, const std::string& p2_text,
                const std::shared_ptr<SymbolTable>& symbols) {
  Parser parser(symbols);
  Result<Program> p1 = parser.ParseProgram(p1_text);
  if (!Check(p1, "parse P1")) return 1;
  Result<Program> p2 = parser.ParseProgram(p2_text);
  if (!Check(p2, "parse P2")) return 1;
  for (const Rule& rule : p2->rules()) {
    Result<std::optional<UniformContainmentWitness>> witness =
        RefuteUniformContainment(*p1, rule);
    if (!Check(witness, "containment test")) return 1;
    if (witness->has_value()) {
      std::printf("NOT uniformly contained.\n");
      std::printf("witness rule: %s\n", ToString(rule, *symbols).c_str());
      std::printf("counterexample input:\n%s",
                  (*witness)->input.ToString().c_str());
      std::printf("P2 derives a fact for %s that P1 does not.\n",
                  symbols->PredicateName((*witness)->missing_pred).c_str());
      return 1;
    }
  }
  std::printf("P2 is uniformly contained in P1.\n");
  return 0;
}

int CmdProve(const std::string& p1_text, const std::string& p2_text,
             const std::string& tgds_text, bool verbose,
             const std::shared_ptr<SymbolTable>& symbols) {
  Parser parser(symbols);
  Result<Program> p1 = parser.ParseProgram(p1_text);
  if (!Check(p1, "parse P1")) return 1;
  Result<Program> p2 = parser.ParseProgram(p2_text);
  if (!Check(p2, "parse P2")) return 1;
  Result<std::vector<Tgd>> tgds = parser.ParseTgds(tgds_text);
  if (!Check(tgds, "parse tgds")) return 1;
  if (verbose) {
    // Narrate condition (1) per rule, in the style of the paper's worked
    // examples: freeze the rule body and chase it with [P1, T].
    for (const Rule& rule : p2->rules()) {
      ChaseTranscript transcript;
      Result<ProofOutcome> outcome =
          ModelContainmentForRule(*p1, *tgds, rule, {}, &transcript);
      if (!Check(outcome, "chase")) return 1;
      std::printf("chasing the frozen body of: %s   [%s]\n",
                  ToString(rule, *symbols).c_str(),
                  std::string(ToString(outcome.value())).c_str());
      std::printf("%s", transcript.ToString(*symbols, *tgds).c_str());
    }
  }
  Result<ContainmentProof> proof = ProveContainmentWithTgds(*p1, *p2, *tgds);
  if (!Check(proof, "prove")) return 1;
  std::printf("(1) SAT(T) ∩ M(P1) ⊆ M(P2):    %s\n",
              std::string(ToString(proof->model_containment)).c_str());
  std::printf("(2) P1 preserves T:            %s\n",
              std::string(ToString(proof->preservation)).c_str());
  std::printf("(3') preliminary DB satisfies: %s\n",
              std::string(ToString(proof->preliminary_db)).c_str());
  std::printf("=> P2 ⊆ P1: %s\n",
              std::string(ToString(proof->overall)).c_str());
  return proof->overall == ProofOutcome::kProved ? 0 : 1;
}

int CmdExplain(const std::string& program_text, const std::string& facts_text,
               const std::string& fact_text,
               const std::shared_ptr<SymbolTable>& symbols) {
  Parser parser(symbols);
  Result<Program> program = parser.ParseProgram(program_text);
  if (!Check(program, "parse program")) return 1;
  Result<Database> db = ParseDatabase(symbols, facts_text);
  if (!Check(db, "parse facts")) return 1;
  std::string f = fact_text;
  if (f.empty() || f.back() != '.') f += '.';
  Result<std::vector<Atom>> atoms = parser.ParseGroundAtoms(f);
  if (!Check(atoms, "parse fact") || atoms->empty()) return 1;
  const Atom& atom = atoms->front();
  Tuple tuple;
  for (const Term& t : atom.args()) tuple.push_back(t.value());
  Result<Derivation> derivation =
      ExplainFact(*program, *db, atom.predicate(), tuple);
  if (!Check(derivation, "explain")) return 1;
  std::printf("%s", ToString(*derivation, *symbols).c_str());
  return 0;
}

int CmdIncr(const std::string& program_text, const std::string& facts_text,
            const std::string& script_text, std::size_t num_threads,
            const std::shared_ptr<SymbolTable>& symbols) {
  Parser parser(symbols);
  Result<Program> program = parser.ParseProgram(program_text);
  if (!Check(program, "parse program")) return 1;
  Result<Database> db = ParseDatabase(symbols, facts_text);
  if (!Check(db, "parse facts")) return 1;
  // The whole script is validated (with line numbers) before any work.
  Result<std::vector<ScriptOp>> script =
      ParseUpdateScript(script_text, &parser, ScriptDialect::kIncr);
  if (!Check(script, "parse script")) return 1;
  IncrOptions options;
  options.num_threads = num_threads;
  Result<MaterializedView> view =
      MaterializedView::Create(*program, *db, options);
  if (!Check(view, "materialize")) return 1;
  std::fprintf(
      stderr, "materialized %zu facts (%llu joins)\n", view->db().NumFacts(),
      static_cast<unsigned long long>(
          view->initial_stats().match.substitutions));

  Transaction txn = view->Begin();
  int commit_number = 0;
  // Commits the pending transaction (if it buffered anything) and starts
  // a fresh one. Queries and end-of-script commit implicitly.
  auto commit = [&]() -> bool {
    if (txn.NumPendingOps() == 0) return true;
    Result<CommitStats> stats = txn.Commit();
    txn = view->Begin();
    if (!Check(stats, "commit")) return false;
    std::fprintf(stderr, "commit %d: %s\n", ++commit_number,
                 stats->ToString().c_str());
    return true;
  };

  for (const ScriptOp& op : *script) {
    switch (op.kind) {
      case ScriptOp::Kind::kCommit:
        if (!commit()) return 1;
        break;
      case ScriptOp::Kind::kInsert:
      case ScriptOp::Kind::kRetract:
        for (const Atom& atom : op.facts) {
          Status status = op.kind == ScriptOp::Kind::kInsert
                              ? txn.Insert(atom)
                              : txn.Retract(atom);
          if (!status.ok()) {
            std::fprintf(stderr, "error (script line %d): %s\n", op.line,
                         status.ToString().c_str());
            return 1;
          }
        }
        break;
      case ScriptOp::Kind::kQuery: {
        if (!commit()) return 1;  // queries see all preceding updates
        const Atom& query = op.query;
        std::vector<std::string> answers;
        MatchAtoms(
            view->db(), /*ranges=*/nullptr, {PlannedAtom{query}},
            [&](const Binding& binding) {
              Tuple tuple = InstantiateHead(query, binding);
              std::string text = symbols->PredicateName(query.predicate());
              if (!tuple.empty()) {
                text += "(";
                for (std::size_t i = 0; i < tuple.size(); ++i) {
                  if (i != 0) text += ", ";
                  text += ToString(tuple[i], *symbols);
                }
                text += ")";
              }
              answers.push_back(std::move(text));
              return true;
            },
            nullptr);
        std::sort(answers.begin(), answers.end());
        for (const std::string& answer : answers) {
          std::printf("%s.\n", answer.c_str());
        }
        std::fprintf(stderr, "?%s %zu answers\n",
                     ToString(query, *symbols).c_str(), answers.size());
        break;
      }
      default:  // client-only verbs cannot appear in the kIncr dialect
        break;
    }
  }
  return commit() ? 0 : 1;
}

/// `datalog-opt serve`: materialize the program and host it behind epoch
/// snapshots until a client sends `shutdown` (docs/server.md).
int CmdServe(const std::string& program_text, const std::string& facts_text,
             const std::string& socket_path, std::size_t num_workers,
             std::size_t num_threads,
             const std::shared_ptr<SymbolTable>& symbols) {
  Parser parser(symbols);
  Result<Program> program = parser.ParseProgram(program_text);
  if (!Check(program, "parse program")) return 1;
  Result<Database> db = ParseDatabase(symbols, facts_text);
  if (!Check(db, "parse facts")) return 1;
  ServerOptions options;
  options.socket_path = socket_path;
  options.num_workers = num_workers;
  options.incr_threads = num_threads;
  Result<std::unique_ptr<DatalogServer>> server =
      DatalogServer::Start(*program, *db, options);
  if (!Check(server, "serve")) return 1;
  std::fprintf(stderr, "serving on %s: %zu facts, %zu worker(s)\n",
               socket_path.c_str(), (*server)->Stats().view_facts,
               num_workers == 0 ? std::size_t{1} : num_workers);
  std::fflush(stderr);  // readiness line; smoke tests wait for the socket
  (*server)->WaitUntilStopped();
  (*server)->Stop();
  ServerStats stats = (*server)->Stats();
  std::fprintf(stderr, "server stopped: %s\n", stats.ToJson().c_str());
  return 0;
}

/// `datalog-opt client`: run a batch script (the incr grammar plus the
/// ping / stats / base / shutdown verbs) against a running server. Query
/// answers, stats JSON, and base dumps go to stdout; acks to stderr.
int CmdClient(const std::string& socket_path, const std::string& script_text) {
  auto symbols = std::make_shared<SymbolTable>();
  Parser parser(symbols);
  Result<std::vector<ScriptOp>> script =
      ParseUpdateScript(script_text, &parser, ScriptDialect::kClient);
  if (!Check(script, "parse script")) return 1;
  Result<DatalogClient> client = DatalogClient::Connect(socket_path);
  if (!Check(client, "connect")) return 1;

  // Transport failures and server-side errors both abort the batch with a
  // line-numbered message; nothing is silently skipped.
  Reply last;
  auto call = [&](const char* what, int line,
                  Result<Reply> reply) -> const Reply* {
    if (!reply.ok()) {
      std::fprintf(stderr, "error (%s, script line %d): %s\n", what, line,
                   reply.status().ToString().c_str());
      return nullptr;
    }
    if (!reply->ok) {
      std::fprintf(stderr, "error (%s, script line %d): %s\n", what, line,
                   reply->body.c_str());
      return nullptr;
    }
    last = *std::move(reply);
    return &last;
  };
  auto facts_text_of = [&](const std::vector<Atom>& facts) {
    std::string text;
    for (const Atom& atom : facts) {
      text += ToString(atom, *symbols);
      text += ". ";
    }
    return text;
  };

  for (const ScriptOp& op : *script) {
    switch (op.kind) {
      case ScriptOp::Kind::kInsert:
      case ScriptOp::Kind::kRetract: {
        const bool insert = op.kind == ScriptOp::Kind::kInsert;
        const Reply* reply =
            call(insert ? "insert" : "retract", op.line,
                 insert ? client->Insert(facts_text_of(op.facts))
                        : client->Retract(facts_text_of(op.facts)));
        if (reply == nullptr) return 1;
        break;
      }
      case ScriptOp::Kind::kCommit: {
        const Reply* reply = call("commit", op.line, client->Commit());
        if (reply == nullptr) return 1;
        std::fprintf(stderr, "commit @ epoch %llu: %s\n",
                     static_cast<unsigned long long>(reply->epoch),
                     reply->body.c_str());
        break;
      }
      case ScriptOp::Kind::kQuery: {
        // Same semantics as `incr`: a query first commits pending ops (an
        // empty commit just refreshes the pinned snapshot).
        if (call("commit", op.line, client->Commit()) == nullptr) return 1;
        const std::string query_text = ToString(op.query, *symbols);
        const Reply* reply = call("query", op.line, client->Query(query_text));
        if (reply == nullptr) return 1;
        std::fputs(reply->body.c_str(), stdout);
        std::fprintf(stderr, "?%s %zu answers @ epoch %llu\n",
                     query_text.c_str(),
                     static_cast<std::size_t>(std::count(
                         reply->body.begin(), reply->body.end(), '\n')),
                     static_cast<unsigned long long>(reply->epoch));
        break;
      }
      case ScriptOp::Kind::kPing: {
        const Reply* reply = call("ping", op.line, client->Ping());
        if (reply == nullptr) return 1;
        std::fprintf(stderr, "%s @ epoch %llu\n", reply->body.c_str(),
                     static_cast<unsigned long long>(reply->epoch));
        break;
      }
      case ScriptOp::Kind::kStats: {
        const Reply* reply = call("stats", op.line, client->Stats());
        if (reply == nullptr) return 1;
        std::printf("%s\n", reply->body.c_str());
        break;
      }
      case ScriptOp::Kind::kDumpBase: {
        const Reply* reply = call("base", op.line, client->DumpBase());
        if (reply == nullptr) return 1;
        std::fputs(reply->body.c_str(), stdout);
        std::fprintf(stderr, "base @ epoch %llu\n",
                     static_cast<unsigned long long>(reply->epoch));
        break;
      }
      case ScriptOp::Kind::kShutdown: {
        const Reply* reply = call("shutdown", op.line, client->Shutdown());
        if (reply == nullptr) return 1;
        std::fprintf(stderr, "%s\n", reply->body.c_str());
        break;
      }
    }
  }
  return 0;
}

int CmdPlan(const std::string& program_text, const std::string& query_text,
            const std::shared_ptr<SymbolTable>& symbols) {
  Parser parser(symbols);
  Result<Program> program = parser.ParseProgram(program_text);
  if (!Check(program, "parse program")) return 1;
  std::string q = query_text;
  if (q.rfind("?-", 0) != 0) q = "?- " + q;
  Result<Atom> query = parser.ParseQuery(q);
  if (!Check(query, "parse query")) return 1;
  PlanOptions options;
  options.equivalence_pass = true;
  Result<QueryPlan> plan = PlanQuery(*program, *query, options);
  if (!Check(plan, "plan")) return 1;
  std::printf("== after relevance restriction (%zu of %zu rules) ==\n%s\n",
              plan->restricted.NumRules(), program->NumRules(),
              ToString(plan->restricted).c_str());
  std::printf("== after minimization (%zu atoms, %zu rules removed) ==\n%s\n",
              plan->report.atoms_removed, plan->report.rules_removed,
              ToString(plan->optimized).c_str());
  std::printf("== magic-sets rewrite (answers in %s) ==\n%s",
              symbols->PredicateName(plan->magic.answer_predicate).c_str(),
              ToString(plan->magic.program).c_str());
  return 0;
}

int CmdAnalyze(const std::string& text,
               const std::shared_ptr<SymbolTable>& symbols) {
  Parser parser(symbols);
  Result<Program> program = parser.ParseProgram(text);
  if (!Check(program, "parse")) return 1;
  Status valid = ValidateProgram(*program);
  std::printf("rules:        %zu\n", program->NumRules());
  std::printf("body atoms:   %zu\n", program->TotalBodyLiterals());
  std::printf("valid:        %s\n",
              valid.ok() ? "yes" : valid.ToString().c_str());
  DependenceGraph graph(*program);
  std::printf("recursive:    %s\n", graph.IsRecursive() ? "yes" : "no");
  std::printf("linear:       %s\n",
              graph.IsLinear(*program) ? "yes" : "no");
  std::printf("intentional: ");
  for (PredicateId pred : program->IntentionalPredicates()) {
    std::printf(" %s", symbols->PredicateName(pred).c_str());
  }
  std::printf("\nextensional: ");
  for (PredicateId pred : program->ExtensionalPredicates()) {
    std::printf(" %s", symbols->PredicateName(pred).c_str());
  }
  std::printf("\n");
  Result<std::vector<std::vector<PredicateId>>> strata = graph.Stratify();
  if (strata.ok()) {
    std::printf("strata:       %zu\n", strata->size());
  } else {
    std::printf("strata:       not stratifiable\n");
  }
  return 0;
}

/// `datalog-opt check`: parse with exact token spans, run the analyzer,
/// render diagnostics. Exit code 0 = clean (infos/warnings allowed),
/// 1 = errors (or warnings under --werror), 2 = usage. A parse failure is
/// itself reported as a diagnostic so --format=json stays machine-readable.
int CmdCheck(const std::string& text, const std::string& label,
             const std::vector<std::string>& flags,
             const std::shared_ptr<SymbolTable>& symbols) {
  std::string format = "text";
  std::string query_text;
  std::string pass_list;
  bool werror = false;
  AnalyzerOptions options;

  for (std::size_t i = 0; i < flags.size(); ++i) {
    const std::string& flag = flags[i];
    auto value_of = [&](const std::string& name,
                        std::string* out) -> int {
      // --name=VALUE or --name VALUE; returns slots consumed (0 = no
      // match, -1 = malformed).
      if (flag.rfind(name + "=", 0) == 0) {
        *out = flag.substr(name.size() + 1);
        return out->empty() ? -1 : 1;
      }
      if (flag == name) {
        if (i + 1 >= flags.size()) return -1;
        *out = flags[i + 1];
        return 2;
      }
      return 0;
    };
    if (flag == "--werror") {
      werror = true;
      continue;
    }
    std::string value;
    int consumed = value_of("--format", &value);
    if (consumed > 0) {
      if (value != "text" && value != "json" && value != "sarif") {
        std::fprintf(stderr, "error: unknown --format '%s'\n", value.c_str());
        return 2;
      }
      format = value;
      i += static_cast<std::size_t>(consumed) - 1;
      continue;
    }
    if (consumed == 0 && (consumed = value_of("--budget", &value)) > 0) {
      char* end = nullptr;
      unsigned long budget = std::strtoul(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        std::fprintf(stderr, "error: --budget expects a number, got '%s'\n",
                     value.c_str());
        return 2;
      }
      options.budget = static_cast<std::size_t>(budget);
      i += static_cast<std::size_t>(consumed) - 1;
      continue;
    }
    if (consumed == 0) consumed = value_of("--query", &query_text);
    if (consumed == 0) consumed = value_of("--pass", &pass_list);
    if (consumed < 0) {
      std::fprintf(stderr, "error: %s expects a value\n", flag.c_str());
      return 2;
    }
    if (consumed > 0) {
      i += static_cast<std::size_t>(consumed) - 1;
      continue;
    }
    std::fprintf(stderr, "error: unknown check flag '%s'\n", flag.c_str());
    return 2;
  }

  if (!pass_list.empty()) {
    options.safety = options.stratification = options.dead_code =
        options.redundancy = options.binding = false;
    std::size_t start = 0;
    while (start <= pass_list.size()) {
      std::size_t comma = pass_list.find(',', start);
      if (comma == std::string::npos) comma = pass_list.size();
      const std::string name = pass_list.substr(start, comma - start);
      if (name == "safety") options.safety = true;
      else if (name == "stratification") options.stratification = true;
      else if (name == "dead_code") options.dead_code = true;
      else if (name == "redundancy") options.redundancy = true;
      else if (name == "binding") options.binding = true;
      else {
        std::fprintf(stderr, "error: unknown pass '%s'\n", name.c_str());
        return 2;
      }
      start = comma + 1;
    }
  }

  Parser parser(symbols);
  std::vector<Diagnostic> diagnostics;
  bool budget_exhausted = false;
  Result<ParsedProgram> parsed = parser.ParseProgramWithSource(text);
  if (!parsed.ok()) {
    Diagnostic d;
    d.severity = Severity::kError;
    d.pass = "parse";
    d.code = "syntax-error";
    d.message = parsed.status().message();
    diagnostics.push_back(std::move(d));
  } else {
    if (!query_text.empty()) {
      std::string q = query_text;
      if (q.rfind("?-", 0) != 0) q = "?- " + q;
      Result<Atom> query = parser.ParseQuery(q);
      if (!Check(query, "parse query")) return 2;
      options.query = *query;
    }
    AnalysisResult result = AnalyzeParsed(*parsed, options);
    diagnostics = std::move(result.diagnostics);
    budget_exhausted = result.budget_exhausted;
  }

  if (format == "json") {
    std::printf("%s",
                DiagnosticsToJson(diagnostics, label, budget_exhausted)
                    .c_str());
  } else if (format == "sarif") {
    std::printf("%s", DiagnosticsToSarif(diagnostics, label).c_str());
  } else {
    std::printf("%s", DiagnosticsToText(diagnostics).c_str());
  }
  DiagnosticCounts counts = CountBySeverity(diagnostics);
  std::fprintf(stderr, "%s: %zu errors, %zu warnings, %zu infos%s\n",
               label.c_str(), counts.errors, counts.warnings, counts.infos,
               budget_exhausted ? " (budget exhausted)" : "");
  if (counts.errors > 0) return 1;
  if (werror && counts.warnings > 0) return 1;
  return 0;
}

/// Consumes `--NAME FILE` or `--NAME=FILE` at args[i]; on a match stores
/// the file into `*out` and returns the number of argv slots consumed
/// (1 or 2). Returns 0 when args[i] is not this flag, -1 on a malformed
/// occurrence (missing value).
int MatchPathFlag(char** argv, int argc, int i, const char* flag_name,
                  std::string* out) {
  const std::size_t name_len = std::strlen(flag_name);
  if (std::strncmp(argv[i], flag_name, name_len) != 0) return 0;
  if (argv[i][name_len] == '=') {
    *out = argv[i] + name_len + 1;
    return out->empty() ? -1 : 1;
  }
  if (argv[i][name_len] != '\0') return 0;  // e.g. --tracey
  if (i + 1 >= argc) return -1;
  *out = argv[i + 1];
  return 2;
}

int Main(int argc, char** argv) {
  // Extract `--threads N`, `--trace FILE`, and `--metrics FILE` (anywhere
  // after the command) before positional parsing; only `eval`/`incr`
  // consume --threads, while --trace/--metrics apply to every command.
  std::size_t num_threads = 1;
  std::size_t num_workers = 2;
  bool use_hints = false;
  std::string trace_path;
  std::string metrics_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--hints") == 0) {
      use_hints = true;
      continue;
    }
    if (std::strcmp(argv[i], "--threads") == 0 ||
        std::strcmp(argv[i], "--workers") == 0) {
      const bool threads = std::strcmp(argv[i], "--threads") == 0;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s expects a number\n", argv[i]);
        return 2;
      }
      char* end = nullptr;
      unsigned long value = std::strtoul(argv[i + 1], &end, 10);
      // strtoul silently wraps negative input ("-1" parses as ULONG_MAX),
      // so cap at a sane thread count instead of trusting the raw value.
      if (end == argv[i + 1] || *end != '\0' || value > 1024) {
        std::fprintf(stderr, "error: %s expects a number, got '%s'\n",
                     argv[i], argv[i + 1]);
        return 2;
      }
      (threads ? num_threads : num_workers) = static_cast<std::size_t>(value);
      ++i;
      continue;
    }
    int consumed = MatchPathFlag(argv, argc, i, "--trace", &trace_path);
    if (consumed == 0) {
      consumed = MatchPathFlag(argv, argc, i, "--metrics", &metrics_path);
    }
    if (consumed < 0) {
      std::fprintf(stderr, "error: %s expects a file path\n", argv[i]);
      return 2;
    }
    if (consumed > 0) {
      i += consumed - 1;
      continue;
    }
    args.push_back(argv[i]);
  }
  argc = static_cast<int>(args.size());
  argv = args.data();

  if (!trace_path.empty()) Tracer::Get().Enable();
  if (!metrics_path.empty()) MetricsRegistry::Get().Enable();

  // Dispatch through a lambda so the trace/metrics files are written on
  // every exit path, including usage errors after flags were parsed.
  auto dispatch = [&]() -> int {
    if (argc < 3) return Usage();
    const std::string command = argv[1];
    auto symbols = std::make_shared<SymbolTable>();

    // client's second argument is a socket path, not an input file.
    if (command == "client") {
      if (argc < 4) return Usage();
      std::string script;
      if (!ReadInput(argv[3], &script)) return 1;
      return CmdClient(argv[2], script);
    }

    std::string first;
    if (!ReadInput(argv[2], &first)) return 1;

    if (command == "minimize") return CmdMinimize(first, symbols);
    if (command == "optimize") return CmdOptimize(first, symbols);
    if (command == "analyze") return CmdAnalyze(first, symbols);
    if (command == "check") {
      const std::string label =
          std::strcmp(argv[2], "-") == 0 ? "<stdin>" : argv[2];
      std::vector<std::string> flags(argv + 3, argv + argc);
      return CmdCheck(first, label, flags, symbols);
    }

    if (argc < 4) return Usage();
    // plan's second argument is the query text itself, not a file.
    if (command == "plan") return CmdPlan(first, argv[3], symbols);

    std::string second;
    if (!ReadInput(argv[3], &second)) return 1;

    if (command == "eval") {
      return CmdEval(first, second, num_threads, use_hints, symbols);
    }
    if (command == "contains") return CmdContains(first, second, symbols);
    if (command == "minimize-sat") {
      return CmdMinimizeSat(first, second, symbols);
    }

    if (argc < 5) return Usage();
    // serve's third argument is the socket path to create, not a file.
    if (command == "serve") {
      return CmdServe(first, second, argv[4], num_workers, num_threads,
                      symbols);
    }
    if (command == "query") return CmdQuery(first, second, argv[4], symbols);
    if (command == "explain") {
      return CmdExplain(first, second, argv[4], symbols);
    }
    if (command == "incr") {
      std::string third;
      if (!ReadInput(argv[4], &third)) return 1;
      return CmdIncr(first, second, third, num_threads, symbols);
    }
    if (command == "prove") {
      std::string third;
      if (!ReadInput(argv[4], &third)) return 1;
      bool verbose = argc > 5 && std::strcmp(argv[5], "-v") == 0;
      return CmdProve(first, second, third, verbose, symbols);
    }
    return Usage();
  };

  int code = dispatch();
  if (!trace_path.empty() && !Tracer::Get().WriteJsonFile(trace_path)) {
    code = code == 0 ? 1 : code;
  }
  if (!metrics_path.empty() &&
      !MetricsRegistry::Get().WriteJsonFile(metrics_path)) {
    code = code == 0 ? 1 : code;
  }
  return code;
}

}  // namespace
}  // namespace datalog

int main(int argc, char** argv) { return datalog::Main(argc, argv); }
