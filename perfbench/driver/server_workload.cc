// server-rw: closed-loop clients against a live DatalogServer over its
// AF_UNIX socket.
//
// The server hosts transitive closure over many small random DAGs
// ("clusters"). Each of kClients client threads owns half the clusters and
// sends its next request only after the previous reply: 90% reads (QUERY
// path(k, x) for a random node it owns) and 10% writes. A write is a
// transaction of two requests, INSERT or RETRACT then COMMIT: a client
// alternately adds one random forward edge inside one of its clusters and
// retracts it again, so the view oscillates around the base state and
// every commit runs real incremental maintenance and an epoch publish.
// Because each client alone writes its clusters and COMMIT re-pins its
// snapshot, every read has one correct answer, computed here.
//
// A set-up starts from program and fact text, starts the server (the
// initial materialization), connects, and ends at the first correct reply.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datalog.h"
#include "harness.h"

namespace perfbench {
namespace {

constexpr std::size_t kClusters = 64;
constexpr std::size_t kClusterSize = 16;
constexpr std::size_t kNodes = kClusters * kClusterSize;
constexpr std::size_t kClients = 2;
constexpr std::size_t kWorkers = 2;
// A read that arrives while the other client commits waits for the commit
// (its parse needs the symbol lock the commit holds). With one write in
// ten the 90th percentile of latency lies well inside the slow group of
// commits and waiting reads; with three in ten the percentiles that
// describe reads sat on the edge between that group and the fast reads,
// and moved from run to run.
constexpr std::size_t kWritePercent = 10;
constexpr std::size_t kSetups = 21;
constexpr std::size_t kSetupsBefore = 11;
constexpr const char* kProgram =
    "path(x, y) :- edge(x, y).\n"
    "path(x, z) :- path(x, y), edge(y, z).\n";

/// Edges by source node; every edge runs forward inside its cluster.
using Graph = std::vector<std::vector<std::size_t>>;

Graph BaseGraph(std::uint64_t seed) {
  Rng rng(seed);
  Graph g(kNodes);
  for (std::size_t c = 0; c < kClusters; ++c) {
    const std::size_t base = c * kClusterSize;
    for (std::size_t i = 0; i + 1 < kClusterSize; ++i) {
      // Two distinct forward edges where the cluster leaves room.
      const std::size_t later = kClusterSize - 1 - i;
      const std::size_t a = i + 1 + rng.Below(later);
      g[base + i].push_back(base + a);
      if (later > 1) {
        std::size_t b = i + 1 + rng.Below(later - 1);
        if (b >= a) ++b;
        g[base + i].push_back(base + b);
      }
    }
  }
  return g;
}

bool HasEdge(const Graph& g, std::size_t a, std::size_t b) {
  for (std::size_t t : g[a]) {
    if (t == b) return true;
  }
  return false;
}

std::string EdgeFact(std::size_t a, std::size_t b) {
  return "edge(" + std::to_string(a) + ", " + std::to_string(b) + ").";
}

std::string FactsText(const Graph& g) {
  std::string text;
  for (std::size_t a = 0; a < g.size(); ++a) {
    for (std::size_t b : g[a]) text += EdgeFact(a, b) + "\n";
  }
  return text;
}

/// The sorted targets of path(k, x) in `g` plus the optional extra edge.
std::vector<std::size_t> Reachable(const Graph& g, std::size_t k,
                                   const std::pair<std::size_t, std::size_t>* extra) {
  std::vector<bool> seen(kNodes, false);
  std::vector<std::size_t> stack = {k};
  std::vector<std::size_t> out;
  while (!stack.empty()) {
    const std::size_t u = stack.back();
    stack.pop_back();
    auto visit = [&](std::size_t t) {
      if (!seen[t]) {
        seen[t] = true;
        out.push_back(t);
        stack.push_back(t);
      }
    };
    for (std::size_t t : g[u]) visit(t);
    if (extra != nullptr && extra->first == u) visit(extra->second);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The second argument of every `path(a, b).` line of a QUERY reply, sorted.
std::vector<std::size_t> ReplyTargets(const std::string& body) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while ((pos = body.find(", ", pos)) != std::string::npos) {
    pos += 2;
    out.push_back(static_cast<std::size_t>(std::stoul(body.substr(pos))));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string QueryText(std::size_t k) {
  return "path(" + std::to_string(k) + ", x)";
}

/// One client thread's share of the run.
struct ClientRun {
  std::vector<double> op_ms;
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  /// The forward edge this client inserted and has not yet retracted.
  bool has_extra = false;
  std::pair<std::size_t, std::size_t> extra;
};

void RunClient(const std::string& socket, const Graph& g, std::size_t index,
               std::uint64_t seed, Clock::time_point deadline,
               std::uint64_t first_op, SpanLog* spans, ClientRun* run) {
  datalog::Result<datalog::DatalogClient> connected =
      datalog::DatalogClient::Connect(socket);
  if (!connected.ok()) {
    run->failures.push_back("connect: " + connected.status().ToString());
    return;
  }
  datalog::DatalogClient client = std::move(connected).value();
  Rng rng(seed);
  std::uint64_t op = first_op;
  auto own_cluster = [&] {
    return rng.Below(kClusters / kClients) * kClients + index;
  };
  while (Clock::now() < deadline) {
    ++run->attempted;
    ++op;
    const bool write = rng.Below(100) < kWritePercent;
    const Clock::time_point start = Clock::now();
    if (!write) {
      const std::size_t k = own_cluster() * kClusterSize + rng.Below(kClusterSize);
      ScopedSpan op_span(*spans, "op", op);
      ScopedSpan query_span(*spans, "query", op);
      datalog::Result<datalog::Reply> reply = client.Query(QueryText(k));
      query_span.End();
      op_span.End();
      const double ms = SecondsSince(start) * 1e3;
      ++run->reads;
      if (!reply.ok() || !reply->ok) {
        run->failures.push_back("query " + QueryText(k) + " failed");
        continue;
      }
      if (ReplyTargets(reply->body) !=
          Reachable(g, k, run->has_extra ? &run->extra : nullptr)) {
        run->failures.push_back("query " + QueryText(k) + " answered wrongly");
        continue;
      }
      run->op_ms.push_back(ms);
      continue;
    }

    // A write toggles this client's extra edge.
    if (!run->has_extra) {
      std::size_t a = 0;
      std::size_t b = 0;
      do {
        const std::size_t base = own_cluster() * kClusterSize;
        a = base + rng.Below(kClusterSize - 1);
        b = a + 1 + rng.Below(base + kClusterSize - 1 - a);
      } while (HasEdge(g, a, b));
      run->extra = {a, b};
    }
    const std::string fact = EdgeFact(run->extra.first, run->extra.second);
    ScopedSpan op_span(*spans, "op", op);
    ScopedSpan update_span(*spans, "update", op);
    datalog::Result<datalog::Reply> update =
        run->has_extra ? client.Retract(fact) : client.Insert(fact);
    update_span.End();
    ScopedSpan commit_span(*spans, "commit", op);
    datalog::Result<datalog::Reply> commit = client.Commit();
    commit_span.End();
    op_span.End();
    const double ms = SecondsSince(start) * 1e3;
    ++run->writes;
    if (!update.ok() || !update->ok || !commit.ok() || !commit->ok) {
      run->failures.push_back("write of " + fact + " failed");
      break;  // the client's model no longer matches the server
    }
    run->has_extra = !run->has_extra;
    run->op_ms.push_back(ms);
  }
  client.Close();
}

/// The library's counter `name` summed over its series; with `op`, only
/// the series labeled with that server opcode.
double SumMetric(const std::string& name, const std::string& op = "") {
  double total = 0;
  for (const auto& entry : datalog::MetricsRegistry::Get().Snapshot()) {
    if (entry.name != name) continue;
    bool match = op.empty();
    for (const auto& [key, value] : entry.labels) {
      match = match || (key == "op" && value == op);
    }
    if (match) total += static_cast<double>(entry.value);
  }
  return total;
}

/// One set-up: from program and fact text, through starting a server on
/// `socket` (the initial materialization), to the first correct reply.
/// Returns the running server, or null with the failure recorded.
std::unique_ptr<datalog::DatalogServer> SetUp(const Graph& g, const std::string& facts,
                                              const std::string& socket, SpanLog& spans,
                                              std::uint64_t op, RunResult* result) {
  const Clock::time_point start = Clock::now();
  ScopedSpan setup_span(spans, "setup", op);
  auto symbols = std::make_shared<datalog::SymbolTable>();
  ScopedSpan parse_span(spans, "parse", op);
  datalog::Parser parser(symbols);
  datalog::Result<datalog::Program> program = parser.ParseProgram(kProgram);
  datalog::Result<datalog::Database> edb = datalog::ParseDatabase(symbols, facts);
  parse_span.End();
  if (!program.ok() || !edb.ok()) {
    result->Fail("parse: " + (program.ok() ? edb.status() : program.status()).ToString());
    return nullptr;
  }
  ScopedSpan materialize_span(spans, "materialize", op);
  datalog::ServerOptions server_options;
  server_options.socket_path = socket;
  server_options.num_workers = kWorkers;
  datalog::Result<std::unique_ptr<datalog::DatalogServer>> started =
      datalog::DatalogServer::Start(std::move(program).value(), std::move(edb).value(),
                                    server_options);
  materialize_span.End();
  if (!started.ok()) {
    result->Fail("server start: " + started.status().ToString());
    return nullptr;
  }
  std::unique_ptr<datalog::DatalogServer> server = std::move(started).value();
  ScopedSpan answer_span(spans, "answer", op);
  datalog::Result<datalog::DatalogClient> client = datalog::DatalogClient::Connect(socket);
  datalog::Result<datalog::Reply> reply = client.status();
  if (client.ok()) reply = client->Query(QueryText(0));
  answer_span.End();
  setup_span.End();
  result->setup_s.push_back(SecondsSince(start));
  if (!reply.ok() || !reply->ok || ReplyTargets(reply->body) != Reachable(g, 0, nullptr)) {
    result->Fail("set-up: first answer is wrong");
    server->Stop();
    return nullptr;
  }
  return server;
}

}  // namespace

RunResult RunServerRw(const RunOptions& options, SpanLog& spans) {
  RunResult result;
  const Graph g = BaseGraph(options.seed);
  const std::string facts = FactsText(g);
  const std::string socket = options.out_dir + "/server-" +
                             std::to_string(options.seed) + ".sock";
  std::uint64_t op = 0;

  // The set-ups come in two bursts, before and after the window. A burst
  // lasts well under a second, so on a shared VM it meets one fast or slow
  // stretch (see README.md); two bursts a window apart meet two. The
  // last server of the first burst serves the window.
  std::unique_ptr<datalog::DatalogServer> server;
  for (std::size_t s = 0; s < kSetupsBefore; ++s) {
    if (server != nullptr) server->Stop();
    server = SetUp(g, facts, socket, spans, ++op, &result);
    if (server == nullptr) return result;
  }

  datalog::MetricsRegistry::Get().Clear();
  std::vector<ClientRun> runs(kClients);
  std::vector<std::unique_ptr<SpanLog>> client_spans;
  std::vector<std::thread> threads;
  const Clock::time_point begin = Clock::now();
  const Clock::time_point deadline =
      begin + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  for (std::size_t c = 0; c < kClients; ++c) {
    client_spans.push_back(std::make_unique<SpanLog>(spans.enabled()));
    // Op ids of different clients never collide: each starts in its own
    // range of 2^40.
    threads.emplace_back(RunClient, socket, std::cref(g), c,
                         options.seed * 1000003 + c, deadline,
                         (c + 1) << 40, client_spans[c].get(), &runs[c]);
  }
  for (std::thread& t : threads) t.join();
  result.measured_s = SecondsSince(begin);

  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    ClientRun& run = runs[c];
    spans.Absorb(*client_spans[c]);
    result.attempted += run.attempted;
    reads += run.reads;
    writes += run.writes;
    result.op_ms.insert(result.op_ms.end(), run.op_ms.begin(), run.op_ms.end());
    for (const std::string& why : run.failures) result.Fail(why);
  }

  // Library-side counters: server handler time and incremental work.
  const double ops = static_cast<double>(reads + writes);
  const double commits = SumMetric("server.requests", "commit");
  const double subs = SumMetric("incr.substitutions") + SumMetric("incr.recompute_substitutions");
  const double changed = SumMetric("incr.derived_added") + SumMetric("incr.derived_removed");
  const double engine_ms = ops > 0 ? SumMetric("server.latency_ns") / 1e6 / ops : 0;
  double mean_ms = 0;
  for (double ms : result.op_ms) mean_ms += ms;
  if (!result.op_ms.empty()) mean_ms /= static_cast<double>(result.op_ms.size());
  auto per = [](double total, double count) { return count > 0 ? total / count : 0; };
  result.layers = {
      {"op_engine_ms", engine_ms},
      {"op_io_ms", mean_ms - engine_ms},
      {"rounds_per_op", 0},
      {"rule_applications_per_op", per(SumMetric("incr.rule_applications"), commits)},
      {"substitutions_per_op", per(subs, commits)},
      {"index_lookups_per_op", per(SumMetric("incr.index_lookups"), commits)},
      {"tuples_scanned_per_op", per(SumMetric("incr.tuples_scanned"), commits)},
      {"facts_changed_per_op", per(changed, commits)},
      {"new_fact_pct", subs > 0 ? 100.0 * changed / subs : 0},
      {"overdeleted_per_commit", per(SumMetric("incr.overdeleted"), commits)},
      {"rederived_per_commit", per(SumMetric("incr.rederived"), commits)},
  };
  // Final state: a fresh connection at the head epoch must see every
  // client's last write.
  datalog::Result<datalog::DatalogClient> checker =
      datalog::DatalogClient::Connect(socket);
  if (!checker.ok()) {
    result.Fail("final connect: " + checker.status().ToString());
  } else {
    Graph final_graph = g;
    for (const ClientRun& run : runs) {
      if (run.has_extra) final_graph[run.extra.first].push_back(run.extra.second);
    }
    for (std::size_t k = 0; k < kNodes; k += 7) {
      datalog::Result<datalog::Reply> reply = checker->Query(QueryText(k));
      if (!reply.ok() || !reply->ok ||
          ReplyTargets(reply->body) != Reachable(final_graph, k, nullptr)) {
        result.Fail("final state: " + QueryText(k) + " answered wrongly");
        break;
      }
    }
    checker->Close();
  }
  server->Stop();

  for (std::size_t s = kSetupsBefore; s < kSetups; ++s) {
    server = SetUp(g, facts, socket, spans, ++op, &result);
    if (server == nullptr) return result;
    server->Stop();
  }
  result.layers["setup_parse_ms"] = spans.P90Ms("parse");
  result.layers["setup_materialize_ms"] = spans.P90Ms("materialize");
  result.layers["setup_answer_ms"] = spans.P90Ms("answer");
  return result;
}

}  // namespace perfbench
