#include "server/server.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <map>
#include <optional>
#include <shared_mutex>
#include <sstream>
#include <tuple>

#include "ast/parser.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/snapshot_query.h"

namespace datalog {

namespace {

Status ErrnoStatus(const std::string& what) {
  return Status::Internal("server: " + what + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return ErrnoStatus("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

/// Normalizes a QUERY payload to the `?- atom.` form ParseQuery expects:
/// clients may send a bare atom (`g(1, x)`), with or without the trailing
/// period.
std::string NormalizeQueryText(const std::string& text) {
  std::size_t begin = text.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return text;
  std::size_t end = text.find_last_not_of(" \t\r\n");
  std::string body = text.substr(begin, end - begin + 1);
  std::string out;
  if (body.rfind("?-", 0) != 0) out = "?- ";
  out += body;
  if (body.empty() || body.back() != '.') out += ".";
  return out;
}

std::uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

std::string ServerStats::ToJson() const {
  std::ostringstream out;
  out << "{\"connections_accepted\": " << connections_accepted
      << ", \"pings\": " << pings << ", \"queries\": " << queries
      << ", \"inserts\": " << inserts << ", \"retracts\": " << retracts
      << ", \"commits\": " << commits
      << ", \"empty_commits\": " << empty_commits
      << ", \"stats_requests\": " << stats_requests
      << ", \"errors\": " << errors << ", \"head_epoch\": " << head_epoch
      << ", \"epochs_published\": " << epochs_published
      << ", \"live_epochs\": " << live_epochs
      << ", \"base_facts\": " << base_facts
      << ", \"view_facts\": " << view_facts << "}";
  return out.str();
}

/// Per-connection state. The fd, reader, and `closing` belong to the I/O
/// thread; `pinned` and `ops` belong to whichever worker runs the
/// connection's current frame (at most one -- `busy` both enforces that
/// and carries the release/acquire edge that orders one worker's writes
/// before the next worker's reads).
struct DatalogServer::Connection {
  int fd = -1;
  FrameReader reader;
  bool closing = false;           // EOF seen; close once idle
  std::atomic<bool> busy{false};  // a worker owns this connection
  std::atomic<bool> dead{false};  // response write failed; close once idle

  /// The epoch snapshot this connection reads from: pinned lazily by the
  /// first QUERY / DUMP_BASE, advanced to the new head by every COMMIT.
  std::shared_ptr<const EpochSnapshot> pinned;
  /// Buffered transaction: (is_insert, predicate, tuple) in arrival order.
  std::vector<std::tuple<bool, PredicateId, Tuple>> ops;
};

DatalogServer::DatalogServer(Program program, ServerOptions options)
    : program_(std::move(program)), options_(std::move(options)) {}

Result<std::unique_ptr<DatalogServer>> DatalogServer::Start(
    Program program, Database edb, ServerOptions options) {
  if (options.socket_path.empty()) {
    return Status::InvalidArgument("server: socket_path is required");
  }
  if (options.num_workers == 0) options.num_workers = 1;
  std::unique_ptr<DatalogServer> server(
      new DatalogServer(std::move(program), std::move(options)));
  DATALOG_RETURN_IF_ERROR(server->Initialize(std::move(edb)));
  return server;
}

Status DatalogServer::Initialize(Database edb) {
  IncrOptions incr;
  incr.num_threads = options_.incr_threads;
  DATALOG_ASSIGN_OR_RETURN(
      MaterializedView view,
      MaterializedView::Create(program_, std::move(edb), incr));
  view_ = std::make_unique<MaterializedView>(std::move(view));
  symbols_ = view_->symbols();
  epochs_ = std::make_unique<EpochManager>(view_->db(), view_->base(),
                                           CommitStats{});

  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("server: socket path too long (max " +
                                   std::to_string(sizeof(addr.sun_path) - 1) +
                                   " bytes): " + options_.socket_path);
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return ErrnoStatus("socket()");
  ::unlink(options_.socket_path.c_str());
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options_.socket_path.data(),
              options_.socket_path.size());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return ErrnoStatus("bind(" + options_.socket_path + ")");
  }
  if (::listen(listen_fd_, 64) != 0) return ErrnoStatus("listen()");
  DATALOG_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));

  if (::pipe(wake_fds_) != 0) return ErrnoStatus("pipe()");
  DATALOG_RETURN_IF_ERROR(SetNonBlocking(wake_fds_[0]));
  DATALOG_RETURN_IF_ERROR(SetNonBlocking(wake_fds_[1]));

  pool_ = std::make_unique<ThreadPool>(options_.num_workers);
  io_thread_ = std::thread([this] { IoLoop(); });
  return Status::OK();
}

DatalogServer::~DatalogServer() {
  Stop();
  for (int fd : {wake_fds_[0], wake_fds_[1], listen_fd_}) {
    if (fd >= 0) ::close(fd);
  }
  listen_fd_ = -1;
  wake_fds_[0] = wake_fds_[1] = -1;
}

void DatalogServer::Stop() {
  stop_requested_.store(true, std::memory_order_release);
  Wake();
  // Teardown is serialized and idempotent, but must not hold stopped_mu_
  // while joining (the I/O thread takes stopped_mu_ to signal exit).
  {
    std::lock_guard<std::mutex> lock(stopped_mu_);
    if (teardown_done_) return;
    teardown_done_ = true;
  }
  if (io_thread_.joinable()) io_thread_.join();
  // The I/O thread never exits while a request is in flight, so the pool
  // is quiescent here; Shutdown just retires the workers.
  if (pool_ != nullptr) pool_->Shutdown(ThreadPool::DrainPolicy::kDrain);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
}

void DatalogServer::WaitUntilStopped() {
  std::unique_lock<std::mutex> lock(stopped_mu_);
  stopped_cv_.wait(
      lock, [this] { return stopped_.load(std::memory_order_acquire); });
}

void DatalogServer::Wake() {
  char byte = 1;
  ssize_t n;
  do {
    n = ::write(wake_fds_[1], &byte, 1);
  } while (n < 0 && errno == EINTR);
  // A full pipe is fine: the I/O thread is already due to wake.
}

void DatalogServer::IoLoop() {
  std::vector<pollfd> pfds;
  std::vector<int> poll_conn_fds;  // conn fd per pollfd, past the fixed ones
  bool listen_open = true;
  while (true) {
    const bool stopping = stop_requested_.load(std::memory_order_acquire);
    if (stopping) {
      if (listen_open) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        ::unlink(options_.socket_path.c_str());
        listen_open = false;
      }
      // Close every idle connection; in-flight requests finish first and
      // their wake brings us back here.
      std::vector<int> idle;
      for (const auto& entry : conns_) {
        if (!entry.second->busy.load(std::memory_order_acquire)) {
          idle.push_back(entry.first);
        }
      }
      for (int fd : idle) CloseConnection(fd);
      if (conns_.empty()) break;
    }

    pfds.clear();
    poll_conn_fds.clear();
    pfds.push_back(pollfd{wake_fds_[0], POLLIN, 0});
    if (listen_open) pfds.push_back(pollfd{listen_fd_, POLLIN, 0});
    const std::size_t fixed = pfds.size();
    for (const auto& entry : conns_) {
      if (!entry.second->busy.load(std::memory_order_acquire)) {
        pfds.push_back(pollfd{entry.first, POLLIN, 0});
        poll_conn_fds.push_back(entry.first);
      }
    }

    if (::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), -1) < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable; tear down
    }

    if ((pfds[0].revents & POLLIN) != 0) {
      char buf[64];
      while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
      }
    }
    if (listen_open && (pfds[1].revents & POLLIN) != 0) AcceptReady();
    for (std::size_t i = fixed; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        auto it = conns_.find(poll_conn_fds[i - fixed]);
        if (it != conns_.end()) ReadReady(it->second.get());
      }
    }

    // Dispatch / reap pass. Dispatching is skipped while stopping, so a
    // shutdown drains in-flight work but never starts more.
    std::vector<int> to_close;
    for (const auto& entry : conns_) {
      const std::shared_ptr<Connection>& conn = entry.second;
      if (conn->busy.load(std::memory_order_acquire)) continue;
      if (conn->dead.load(std::memory_order_acquire) || !conn->reader.ok()) {
        to_close.push_back(entry.first);
        continue;
      }
      if (!stopping) MaybeDispatch(conn);
      if (!conn->busy.load(std::memory_order_acquire) && conn->closing) {
        to_close.push_back(entry.first);
      }
    }
    for (int fd : to_close) CloseConnection(fd);
  }

  for (const auto& entry : conns_) ::close(entry.second->fd);
  conns_.clear();
  {
    std::lock_guard<std::mutex> lock(stopped_mu_);
    stopped_.store(true, std::memory_order_release);
  }
  stopped_cv_.notify_all();
}

void DatalogServer::AcceptReady() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept error; poll again
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conns_.emplace(fd, std::move(conn));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

void DatalogServer::ReadReady(Connection* conn) {
  char buf[65536];
  while (true) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->reader.Append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      conn->closing = true;
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    conn->closing = true;  // read error: treat as hangup
    return;
  }
}

void DatalogServer::MaybeDispatch(const std::shared_ptr<Connection>& conn) {
  std::uint8_t tag = 0;
  std::string payload;
  if (!conn->reader.Next(&tag, &payload)) return;
  conn->busy.store(true, std::memory_order_release);
  const bool accepted = pool_->Submit(
      [this, conn, tag, payload = std::move(payload)]() mutable {
        HandleFrame(conn, tag, std::move(payload));
        conn->busy.store(false, std::memory_order_release);
        Wake();
      });
  if (!accepted) {  // pool already shut down (teardown race): drop the conn
    conn->busy.store(false, std::memory_order_relaxed);
    conn->dead.store(true, std::memory_order_relaxed);
  }
}

void DatalogServer::CloseConnection(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  ::close(it->second->fd);
  conns_.erase(it);
}

void DatalogServer::HandleFrame(const std::shared_ptr<Connection>& conn,
                                std::uint8_t tag, std::string payload) {
  const auto start = std::chrono::steady_clock::now();
  RespStatus status = RespStatus::kOk;
  std::uint64_t epoch = 0;
  std::string body;
  const char* op = "unknown";
  bool shutdown_after_reply = false;

  switch (static_cast<Opcode>(tag)) {
    case Opcode::kPing: {
      op = "ping";
      TraceSpan span("server/ping");
      pings_.fetch_add(1, std::memory_order_relaxed);
      epoch = epochs_->head_id();
      body = "pong";
      break;
    }
    case Opcode::kQuery: {
      op = "query";
      TraceSpan span("server/query");
      body = HandleQuery(conn, payload, &status, &epoch);
      break;
    }
    case Opcode::kInsert: {
      op = "insert";
      TraceSpan span("server/insert");
      body = HandleUpdate(conn, payload, /*insert=*/true, &status, &epoch);
      break;
    }
    case Opcode::kRetract: {
      op = "retract";
      TraceSpan span("server/retract");
      body = HandleUpdate(conn, payload, /*insert=*/false, &status, &epoch);
      break;
    }
    case Opcode::kCommit: {
      op = "commit";
      TraceSpan span("server/commit");
      body = HandleCommit(conn, &status, &epoch);
      span.Note("epoch", epoch);
      break;
    }
    case Opcode::kStats: {
      op = "stats";
      TraceSpan span("server/stats");
      stats_requests_.fetch_add(1, std::memory_order_relaxed);
      epoch = epochs_->head_id();
      body = Stats().ToJson();
      break;
    }
    case Opcode::kDumpBase: {
      op = "dump_base";
      TraceSpan span("server/dump_base");
      if (conn->pinned == nullptr) conn->pinned = epochs_->head();
      epoch = conn->pinned->id;
      std::shared_lock<std::shared_mutex> lock(symbols_mu_);
      body = conn->pinned->base.ToString();
      break;
    }
    case Opcode::kShutdown: {
      op = "shutdown";
      TraceSpan span("server/shutdown");
      epoch = epochs_->head_id();
      body = "bye";
      shutdown_after_reply = true;
      break;
    }
    default: {
      status = RespStatus::kError;
      body = "unknown opcode " + std::to_string(static_cast<int>(tag));
      break;
    }
  }

  if (status == RespStatus::kError) {
    errors_.fetch_add(1, std::memory_order_relaxed);
  }
  Respond(conn, status, epoch, body);
  if (shutdown_after_reply) {
    stop_requested_.store(true, std::memory_order_release);
    // The caller's busy-clear + Wake() get the I/O thread moving.
  }

  auto& metrics = MetricsRegistry::Get();
  metrics.Add("server.requests", {{"op", op}}, 1);
  metrics.Add("server.latency_ns", {{"op", op}}, ElapsedNs(start));
}

std::string DatalogServer::HandleQuery(const std::shared_ptr<Connection>& conn,
                                       const std::string& text,
                                       RespStatus* status,
                                       std::uint64_t* epoch) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  const std::string normalized = NormalizeQueryText(text);
  std::optional<Atom> pattern;
  std::string parse_error;
  {
    std::unique_lock<std::shared_mutex> lock(symbols_mu_);  // parse interns
    Parser parser(symbols_);
    Result<Atom> parsed = parser.ParseQuery(normalized);
    if (parsed.ok()) {
      pattern.emplace(*std::move(parsed));
    } else {
      parse_error = parsed.status().message();
    }
  }
  if (!pattern.has_value()) {
    *status = RespStatus::kError;
    *epoch = conn->pinned != nullptr ? conn->pinned->id : epochs_->head_id();
    return parse_error;
  }

  if (conn->pinned == nullptr) conn->pinned = epochs_->head();
  *epoch = conn->pinned->id;

  MatchStats mstats;
  std::shared_lock<std::shared_mutex> lock(symbols_mu_);
  Result<std::vector<Tuple>> answers =
      QuerySnapshot(conn->pinned->db, *pattern, &mstats);
  if (!answers.ok()) {
    *status = RespStatus::kError;
    return answers.status().message();
  }
  std::string body = RenderAnswers(pattern->predicate(), *answers, *symbols_);
  auto& metrics = MetricsRegistry::Get();
  metrics.Add("server.query_tuples_scanned", {}, mstats.tuples_scanned);
  metrics.Add("server.query_answers", {}, answers->size());
  return body;
}

std::string DatalogServer::HandleUpdate(const std::shared_ptr<Connection>& conn,
                                        const std::string& text, bool insert,
                                        RespStatus* status,
                                        std::uint64_t* epoch) {
  (insert ? inserts_ : retracts_).fetch_add(1, std::memory_order_relaxed);
  *epoch = conn->pinned != nullptr ? conn->pinned->id : epochs_->head_id();
  std::vector<Atom> atoms;
  {
    std::unique_lock<std::shared_mutex> lock(symbols_mu_);  // parse interns
    Parser parser(symbols_);
    Result<std::vector<Atom>> parsed = parser.ParseGroundAtoms(text);
    if (!parsed.ok()) {
      *status = RespStatus::kError;
      return parsed.status().message();
    }
    atoms = *std::move(parsed);
  }
  for (const Atom& atom : atoms) {
    Tuple tuple;
    tuple.reserve(atom.args().size());
    for (const Term& term : atom.args()) tuple.push_back(term.value());
    conn->ops.emplace_back(insert, atom.predicate(), std::move(tuple));
  }
  return "buffered " + std::to_string(conn->ops.size()) + " op(s)";
}

std::string DatalogServer::HandleCommit(const std::shared_ptr<Connection>& conn,
                                        RespStatus* status,
                                        std::uint64_t* epoch) {
  std::lock_guard<std::mutex> commit_lock(commit_mu_);
  if (conn->ops.empty()) {
    // An empty commit still advances the connection to the newest epoch --
    // that is how a pure reader refreshes its snapshot.
    empty_commits_.fetch_add(1, std::memory_order_relaxed);
    conn->pinned = epochs_->head();
    *epoch = conn->pinned->id;
    return "nop (pinned epoch " + std::to_string(conn->pinned->id) + ")";
  }
  commits_.fetch_add(1, std::memory_order_relaxed);

  // Net the buffered ops, last-op-wins per fact, so Apply() sees each
  // (predicate, tuple) in at most one list -- its contract. The ordered
  // map keeps the batch deterministic regardless of arrival interleaving.
  std::map<std::pair<PredicateId, Tuple>, bool> net;
  for (const auto& op : conn->ops) {
    net[{std::get<1>(op), std::get<2>(op)}] = std::get<0>(op);
  }
  conn->ops.clear();
  std::vector<std::pair<PredicateId, Tuple>> inserts;
  std::vector<std::pair<PredicateId, Tuple>> retracts;
  for (const auto& entry : net) {
    (entry.second ? inserts : retracts).push_back(entry.first);
  }

  // The maintenance passes read predicate names/arities, hence the reader
  // lock; a concurrent QUERY parse (writer side) waits, queries already
  // past parsing share the lock and proceed. The lock covers Apply only:
  // the epoch copies and the publish below read no symbol-table state,
  // and commit_mu_ still serializes them against other commits, so a
  // parse never waits behind another client's whole-database copy.
  std::shared_lock<std::shared_mutex> sym_lock(symbols_mu_);
  Result<CommitStats> applied = view_->Apply(inserts, retracts);
  sym_lock.unlock();
  if (!applied.ok()) {
    *status = RespStatus::kError;
    *epoch = epochs_->head_id();
    return applied.status().message();
  }
  Database db_copy = view_->db();
  Database base_copy = view_->base();
  conn->pinned = epochs_->Publish(std::move(db_copy), std::move(base_copy),
                                  *applied);
  *epoch = conn->pinned->id;
  return applied->ToString();
}

void DatalogServer::Respond(const std::shared_ptr<Connection>& conn,
                            RespStatus status, std::uint64_t epoch,
                            std::string_view body) {
  std::string payload;
  payload.reserve(8 + body.size());
  AppendU64(&payload, epoch);
  payload.append(body);
  const std::string frame =
      EncodeFrame(static_cast<std::uint8_t>(status), payload);
  const char* data = frame.data();
  std::size_t left = frame.size();
  while (left > 0) {
    const ssize_t n = ::send(conn->fd, data, left, MSG_NOSIGNAL);
    if (n > 0) {
      data += n;
      left -= static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{conn->fd, POLLOUT, 0};
      ::poll(&pfd, 1, /*timeout_ms=*/1000);
      continue;
    }
    conn->dead.store(true, std::memory_order_release);  // client went away
    return;
  }
}

ServerStats DatalogServer::Stats() const {
  ServerStats s;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.pings = pings_.load(std::memory_order_relaxed);
  s.queries = queries_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.retracts = retracts_.load(std::memory_order_relaxed);
  s.commits = commits_.load(std::memory_order_relaxed);
  s.empty_commits = empty_commits_.load(std::memory_order_relaxed);
  s.stats_requests = stats_requests_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  const std::shared_ptr<const EpochSnapshot> head = epochs_->head();
  s.head_epoch = head->id;
  s.epochs_published = epochs_->epochs_published();
  s.live_epochs = epochs_->LiveEpochs();
  s.base_facts = head->base.NumFacts();
  s.view_facts = head->db.NumFacts();
  return s;
}

}  // namespace datalog
