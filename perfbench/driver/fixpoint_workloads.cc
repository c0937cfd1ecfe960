// The two batch workloads: a from-scratch bottom-up fixpoint over an EDB
// the benchmark generates from its seed.
//
//  - tc-random: transitive closure over the union of random permutations
//    (every node has the same in- and out-degree, so every seed does the
//    same amount of left-deep semi-naive work);
//  - cyclic-clique: the 4-clique rule over a hub-skewed random graph, a
//    cyclic body the planner gives the worst-case-optimal multiway shape.
//
// One operation copies the loaded EDB into a fresh database and runs the
// fixpoint to completion. A set-up starts from program and fact text and
// ends once every expected answer has been read back.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "datalog.h"
#include "harness.h"

namespace perfbench {
namespace {

using datalog::Database;
using datalog::EvalStats;
using datalog::PredicateId;
using datalog::Program;
using datalog::Value;

constexpr std::size_t kSetups = 21;

/// A square bit matrix over the nodes 0..n-1.
class BitMatrix {
 public:
  explicit BitMatrix(std::size_t n) : n_(n), words_((n + 63) / 64), bits_(n * words_) {}
  void Set(std::size_t r, std::size_t c) { bits_[r * words_ + c / 64] |= 1ULL << (c % 64); }
  bool Get(std::size_t r, std::size_t c) const {
    return (bits_[r * words_ + c / 64] >> (c % 64)) & 1;
  }
  const std::uint64_t* Row(std::size_t r) const { return &bits_[r * words_]; }
  std::size_t words() const { return words_; }
  std::size_t n() const { return n_; }

 private:
  std::size_t n_;
  std::size_t words_;
  std::vector<std::uint64_t> bits_;
};

/// A generated instance: program text, EDB fact text, and the answers the
/// head predicate must hold at the fixpoint.
struct Instance {
  std::string program;
  std::string facts;
  std::string head;
  std::vector<std::pair<std::size_t, std::size_t>> answers;
};

std::string EdgeFacts(const char* pred, const BitMatrix& edges) {
  std::string text;
  for (std::size_t a = 0; a < edges.n(); ++a) {
    for (std::size_t b = 0; b < edges.n(); ++b) {
      if (edges.Get(a, b)) {
        text += std::string(pred) + "(" + std::to_string(a) + ", " +
                std::to_string(b) + ").\n";
      }
    }
  }
  return text;
}

std::vector<std::pair<std::size_t, std::size_t>> Pairs(const BitMatrix& m) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t a = 0; a < m.n(); ++a) {
    for (std::size_t b = 0; b < m.n(); ++b) {
      if (m.Get(a, b)) out.emplace_back(a, b);
    }
  }
  return out;
}

/// Adds i -> perm(i) for `degree` random permutations of the nodes.
void AddPermutationEdges(std::size_t degree, bool allow_loops, Rng& rng,
                         BitMatrix* edges) {
  for (std::size_t k = 0; k < degree; ++k) {
    const std::vector<std::size_t> perm = rng.Permutation(edges->n());
    for (std::size_t i = 0; i < edges->n(); ++i) {
      if (allow_loops || perm[i] != i) edges->Set(i, perm[i]);
    }
  }
}

Instance TcRandomInstance(std::uint64_t seed) {
  constexpr std::size_t kNodes = 128;
  constexpr std::size_t kDegree = 3;
  Rng rng(seed);
  BitMatrix edge(kNodes);
  AddPermutationEdges(kDegree, /*allow_loops=*/true, rng, &edge);

  // Reference closure: a graph search from every node.
  BitMatrix path(kNodes);
  for (std::size_t s = 0; s < kNodes; ++s) {
    std::vector<std::size_t> stack;
    for (std::size_t t = 0; t < kNodes; ++t) {
      if (edge.Get(s, t)) stack.push_back(t);
    }
    while (!stack.empty()) {
      const std::size_t u = stack.back();
      stack.pop_back();
      if (path.Get(s, u)) continue;
      path.Set(s, u);
      for (std::size_t t = 0; t < kNodes; ++t) {
        if (edge.Get(u, t) && !path.Get(s, t)) stack.push_back(t);
      }
    }
  }
  return {"path(x, y) :- edge(x, y).\n"
          "path(x, z) :- path(x, y), edge(y, z).\n",
          EdgeFacts("edge", edge), "path", Pairs(path)};
}

Instance CyclicCliqueInstance(std::uint64_t seed) {
  constexpr std::size_t kNodes = 128;
  constexpr std::size_t kHubs = 4;
  constexpr std::size_t kDegree = 4;
  constexpr std::size_t kPlanted = 16;
  Rng rng(seed);
  BitMatrix e(kNodes);
  // Hubs adjacent to every node both ways: the skew that makes left-deep
  // plans enumerate every wedge through a hub.
  for (std::size_t h = 0; h < kHubs; ++h) {
    for (std::size_t i = 0; i < kNodes; ++i) {
      if (i != h) {
        e.Set(h, i);
        e.Set(i, h);
      }
    }
  }
  AddPermutationEdges(kDegree, /*allow_loops=*/false, rng, &e);
  for (std::size_t t = 0; t < kPlanted; ++t) {
    std::vector<std::size_t> q;
    while (q.size() < 4) {
      const std::size_t v = rng.Below(kNodes);
      bool fresh = true;
      for (std::size_t u : q) fresh = fresh && u != v;
      if (fresh) q.push_back(v);
    }
    for (std::size_t i = 0; i < 4; ++i) {
      for (std::size_t j = i + 1; j < 4; ++j) e.Set(q[i], q[j]);
    }
  }

  // Reference answers: clq(x, w) when x, y, z, w form an ordered 4-clique
  // x->y, x->z, x->w, y->z, y->w, z->w.
  BitMatrix clq(kNodes);
  const std::size_t words = e.words();
  std::vector<std::uint64_t> xy(words);
  for (std::size_t x = 0; x < kNodes; ++x) {
    for (std::size_t y = 0; y < kNodes; ++y) {
      if (!e.Get(x, y)) continue;
      for (std::size_t wd = 0; wd < words; ++wd) {
        xy[wd] = e.Row(x)[wd] & e.Row(y)[wd];
      }
      for (std::size_t z = 0; z < kNodes; ++z) {
        if (!((xy[z / 64] >> (z % 64)) & 1)) continue;
        for (std::size_t wd = 0; wd < words; ++wd) {
          std::uint64_t ws = xy[wd] & e.Row(z)[wd];
          while (ws != 0) {
            clq.Set(x, wd * 64 + static_cast<std::size_t>(__builtin_ctzll(ws)));
            ws &= ws - 1;
          }
        }
      }
    }
  }
  return {"clq(x, w) :- e(x, y), e(x, z), e(x, w), e(y, z), e(y, w), "
          "e(z, w).\n",
          EdgeFacts("e", e), "clq", Pairs(clq)};
}

datalog::Tuple PairTuple(const std::pair<std::size_t, std::size_t>& p) {
  return {Value::Int(static_cast<std::int64_t>(p.first)),
          Value::Int(static_cast<std::int64_t>(p.second))};
}

/// Reads every expected answer back from `db`; true when the head relation
/// holds exactly those facts.
bool HoldsExactly(const Database& db, PredicateId head, const Instance& inst) {
  if (db.relation(head).size() != inst.answers.size()) return false;
  for (const auto& p : inst.answers) {
    if (!db.Contains(head, PairTuple(p))) return false;
  }
  return true;
}

/// What a set-up leaves behind for the operations that follow it.
struct Session {
  std::shared_ptr<datalog::SymbolTable> symbols;
  Program program;
  PredicateId head = 0;
};

/// One set-up: from program and fact text, with a fresh symbol table as a
/// new session would have, to every expected answer read back. Records its
/// time in `result`; false (with the failure recorded) if any step fails.
bool SetUp(const Instance& inst, SpanLog& spans, std::uint64_t op,
           RunResult* result, Session* session) {
  const Clock::time_point start = Clock::now();
  ScopedSpan setup_span(spans, "setup", op);
  session->symbols = std::make_shared<datalog::SymbolTable>();
  ScopedSpan parse_span(spans, "parse", op);
  datalog::Parser parser(session->symbols);
  datalog::Result<Program> parsed = parser.ParseProgram(inst.program);
  datalog::Result<Database> facts = datalog::ParseDatabase(session->symbols, inst.facts);
  parse_span.End();
  if (!parsed.ok() || !facts.ok()) {
    result->Fail("parse: " + (parsed.ok() ? facts.status() : parsed.status()).ToString());
    return false;
  }
  session->program = std::move(parsed).value();
  Database& db = *facts;

  ScopedSpan materialize_span(spans, "materialize", op);
  datalog::Result<EvalStats> stats = datalog::EvaluateStratified(session->program, &db);
  materialize_span.End();
  if (!stats.ok()) {
    result->Fail("evaluate: " + stats.status().ToString());
    return false;
  }
  ScopedSpan answer_span(spans, "answer", op);
  datalog::Result<PredicateId> head_id = session->symbols->LookupPredicate(inst.head);
  const bool exact = head_id.ok() && HoldsExactly(db, *head_id, inst);
  answer_span.End();
  setup_span.End();
  result->setup_s.push_back(SecondsSince(start));
  if (!exact) {
    result->Fail("set-up answers differ from the reference fixpoint");
    return false;
  }
  session->head = *head_id;
  return true;
}

RunResult RunFixpoint(const Instance& inst, const RunOptions& options,
                      SpanLog& spans) {
  RunResult result;
  std::uint64_t op = 0;
  // The first set-up's session serves every operation.
  Session session;
  if (!SetUp(inst, spans, ++op, &result, &session)) return result;
  const PredicateId head = session.head;
  // The loop's EDB: the facts alone, over the session's symbols.
  datalog::Result<Database> loaded = datalog::ParseDatabase(session.symbols, inst.facts);
  if (!loaded.ok()) {
    result.Fail("parse: " + loaded.status().ToString());
    return result;
  }
  const Database edb = std::move(loaded).value();

  // The other set-ups are spread evenly over the window, between
  // operations. On a shared VM this code runs up to ~1.5x faster for
  // stretches of seconds (see README.md), so set-ups made back to back
  // would all land in one stretch.
  const double setup_gap_s = options.seconds / kSetups;
  EvalStats first;
  const Clock::time_point begin = Clock::now();
  while (result.attempted == 0 || SecondsSince(begin) < options.seconds) {
    if (result.setup_s.size() < kSetups &&
        SecondsSince(begin) >= setup_gap_s * static_cast<double>(result.setup_s.size())) {
      Session scratch;
      if (!SetUp(inst, spans, ++op, &result, &scratch)) return result;
      continue;
    }
    const Clock::time_point start = Clock::now();
    ScopedSpan op_span(spans, "op", ++op);
    ScopedSpan copy_span(spans, "edb_copy", op);
    Database db(session.symbols);
    db.UnionWith(edb);
    copy_span.End();
    ScopedSpan fixpoint_span(spans, "fixpoint", op);
    datalog::Result<EvalStats> stats = datalog::EvaluateStratified(session.program, &db);
    fixpoint_span.End();
    op_span.End();
    const double ms = SecondsSince(start) * 1e3;

    ++result.attempted;
    if (!stats.ok()) {
      result.Fail("evaluate: " + stats.status().ToString());
      continue;
    }
    // Every operation checks the answer count; the first checks each fact.
    const bool exact = result.attempted == 1
                           ? HoldsExactly(db, head, inst)
                           : db.relation(head).size() == inst.answers.size();
    if (!exact) {
      result.Fail("operation " + std::to_string(result.attempted) +
                  " differs from the reference fixpoint");
      continue;
    }
    if (result.attempted == 1) first = *stats;
    result.op_ms.push_back(ms);
  }
  result.measured_s = SecondsSince(begin);

  const double subs = static_cast<double>(first.match.substitutions);
  result.layers = {
      {"setup_parse_ms", spans.P90Ms("parse")},
      {"setup_materialize_ms", spans.P90Ms("materialize")},
      {"setup_answer_ms", spans.P90Ms("answer")},
      {"op_engine_ms", spans.P90Ms("fixpoint")},
      {"op_io_ms", spans.P90Ms("edb_copy")},
      {"rounds_per_op", static_cast<double>(first.iterations)},
      {"rule_applications_per_op", static_cast<double>(first.rule_applications)},
      {"substitutions_per_op", subs},
      {"index_lookups_per_op", static_cast<double>(first.match.index_lookups)},
      {"tuples_scanned_per_op", static_cast<double>(first.match.tuples_scanned)},
      {"facts_changed_per_op", static_cast<double>(first.facts_derived)},
      {"new_fact_pct",
       subs > 0 ? 100.0 * static_cast<double>(first.facts_derived) / subs : 0},
  };
  return result;
}

}  // namespace

RunResult RunTcRandom(const RunOptions& options, SpanLog& spans) {
  return RunFixpoint(TcRandomInstance(options.seed), options, spans);
}

RunResult RunCyclicClique(const RunOptions& options, SpanLog& spans) {
  return RunFixpoint(CyclicCliqueInstance(options.seed), options, spans);
}

}  // namespace perfbench
