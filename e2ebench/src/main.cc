// qpbench — end-to-end benchmark of the qpricerd serving stack.
//
//   qpbench drive --workload=NAME --seed=N --seconds=S --trace=0|1 [params]
//   qpbench serve --workload=NAME --seed=N [params]
//
// `drive` is the load process: it starts a PricingServer in a child process
// (`serve`, the same binary), drives it over the wire protocol with two
// connections through an open-loop and a closed-loop phase (plus a publish
// probe on workloads without a writer), verifies every quote against an
// exact in-process reference, and prints the end-to-end metrics. With
// --trace=1 it prints the per-layer metrics instead: METRICS-frame deltas
// from the same kind of server session, and span timings from an
// in-process replay of the workload's requests. The last line of stdout is
// one JSON object; the exit code is 0 only when the run is correct.

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "logic.h"
#include "qp/market/snapshot.h"
#include "qp/query/parser.h"
#include "qp/server/client.h"
#include "qp/server/pricing_server.h"
#include "trace.h"
#include "workload.h"

namespace qpbench {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Waits until `t`: sleeps while more than kSpinNs remain, then spins.
/// Spinning keeps the load thread's CPU awake, so a send is neither late
/// by a scheduler tick nor by the wake-up of an idle virtual CPU.
void WaitUntil(uint64_t t) {
  constexpr uint64_t kSpinNs = 2000000;
  for (;;) {
    const uint64_t now = NowNs();
    if (now >= t) return;
    if (t - now > kSpinNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(t - now - kSpinNs));
    }
  }
}

/// Run shape, the same for every workload.
constexpr int kServerWorkers = 2;
/// Share of the measured time spent in the open-loop phase; the closed-loop
/// phase takes the rest.
constexpr double kOpenShare = 0.6;
/// Set-ups per run, kSetupsBefore of them before the measured phases and
/// the rest after; setup_s is their median.
constexpr int kSetups = 12;
constexpr int kSetupsBefore = 6;
/// The traced replay runs this many open-phase requests and at most this
/// many probe cycles through the layers.
constexpr int kReplayRequests = 3000;
constexpr int kReplayProbes = 200;
/// Open-phase windows hold about this many quotes each, so a window's p99
/// has at least ten samples above it. The closed phase is cut into
/// kClosedWindows equal windows.
constexpr size_t kQuotesPerWindow = 1100;
constexpr int kClosedWindows = 8;
/// Threads that re-price quotes exactly after the run.
constexpr int kVerifyThreads = 3;

// ---- The server process ----

int Serve(const Params& params) {
  std::vector<std::unique_ptr<qp::Seller>> sellers;
  qp::Status status = BuildSellers(params, &sellers);
  qp::ShardMap shards;
  for (size_t s = 0; status.ok() && s < sellers.size(); ++s) {
    status = shards.AddShard("shard" + std::to_string(s), std::move(sellers[s]));
  }
  if (!status.ok()) {
    std::fprintf(stderr, "qpbench serve: %s\n", status.ToString().c_str());
    return 1;
  }
  qp::PricingServerOptions options;
  options.num_workers = kServerWorkers;
  // qpricerd's defaults: the overload controller defends a 50 ms target.
  options.target_p99_ms = 50;
  options.controller_tick_ms = 50;
  qp::PricingServer server(std::move(shards), options);
  status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "qpbench serve: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("READY %u\n", static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  while (!server.stop_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server.Stop();
  return 0;
}

/// A `qpbench serve` child. The destructor kills and reaps it if it is
/// still running; the child also dies with its parent.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  qp::Status Spawn(const std::vector<std::string>& args) {
    int fds[2];
    if (pipe(fds) != 0) return qp::Status::Internal("pipe failed");
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0) return qp::Status::Internal("fork failed");
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(1);
      dup2(fds[1], STDOUT_FILENO);
      close(fds[0]);
      close(fds[1]);
      execv("/proc/self/exe", argv.data());
      _exit(127);
    }
    close(fds[1]);
    // Wait for "READY <port>".
    std::string line;
    const uint64_t deadline = NowNs() + 60ull * 1000000000ull;
    while (line.find('\n') == std::string::npos) {
      pollfd p{fds[0], POLLIN, 0};
      const uint64_t now = NowNs();
      if (now >= deadline || poll(&p, 1, static_cast<int>((deadline - now) / 1000000 + 1)) <= 0) {
        close(fds[0]);
        return qp::Status::Internal("server did not become ready");
      }
      char buf[64];
      const ssize_t n = read(fds[0], buf, sizeof(buf));
      if (n <= 0) {
        close(fds[0]);
        return qp::Status::Internal("server exited before it was ready");
      }
      line.append(buf, static_cast<size_t>(n));
    }
    close(fds[0]);
    if (line.rfind("READY ", 0) != 0) {
      return qp::Status::Internal("unexpected server output: " + line);
    }
    port_ = static_cast<uint16_t>(std::atoi(line.c_str() + 6));
    return qp::Status::Ok();
  }

  uint16_t port() const { return port_; }

  /// Peak resident set (VmHWM) of the server, in MB.
  double PeakRssMb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::atof(line.c_str() + 6) / 1024.0;
      }
    }
    return 0;
  }

  /// CPU time the server has used so far (user + system, all threads), in
  /// seconds, from /proc/<pid>/stat; -1 when it cannot be read.
  double CpuSeconds() const {
    std::ifstream stat("/proc/" + std::to_string(pid_) + "/stat");
    std::string text((std::istreambuf_iterator<char>(stat)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15.
    const size_t paren = text.rfind(')');
    if (paren == std::string::npos) return -1;
    std::istringstream fields(text.substr(paren + 1));
    std::string field;
    double ticks = 0;
    for (int f = 3; f <= 15 && fields >> field; ++f) {
      if (f >= 14) ticks += std::atof(field.c_str());
    }
    return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
  }

  /// Asks the server to stop over `client` and reaps it.
  qp::Status Shutdown(qp::PricingClient* client) {
    qp::Status status = client->Shutdown();
    const uint64_t deadline = NowNs() + 20ull * 1000000000ull;
    while (pid_ > 0 && NowNs() < deadline) {
      int wstatus = 0;
      if (waitpid(pid_, &wstatus, WNOHANG) == pid_) {
        pid_ = -1;
        if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
          return qp::Status::Internal("server exited abnormally");
        }
        return status;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    Kill();
    return qp::Status::Internal("server did not stop");
  }

 private:
  void Kill() {
    if (pid_ <= 0) return;
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

// ---- The load process ----

enum Phase : uint8_t { kOpen = 0, kClosed = 1, kProbe = 2 };

struct Sample {
  Phase phase = kOpen;
  Request::Type type = Request::kQuote;
  bool ok = false;
  uint64_t scheduled_ns = 0;
  uint64_t sent_ns = 0;
  uint64_t done_ns = 0;
};

/// One connection's client and everything it observed.
struct Conn {
  std::unique_ptr<qp::PricingClient> client;
  std::vector<Sample> samples;
  /// Every quote answered, in send order (warm-up included).
  std::vector<QuoteRecord> quotes;
  /// Per quote: the index of its QUOTE frame's sample, kWarmupQuote or
  /// kBatchItem.
  std::vector<int64_t> quote_sample;
  std::vector<InsertRecord> inserts;
  /// Open-loop schedules (open phase; the writer's closed phase too).
  std::vector<ScheduleTrace> schedules;
  uint64_t refused = 0;
  uint64_t failed = 0;
  uint64_t approximate = 0;
  /// INSERT replies that did not insert every row (no real publish).
  uint64_t insert_not_fresh = 0;
  std::string first_error;
};

void NoteError(Conn* c, qp::StatusCode code, const std::string& what) {
  if (code == qp::StatusCode::kResourceExhausted) {
    ++c->refused;
  } else {
    ++c->failed;
  }
  if (c->first_error.empty()) c->first_error = what;
}

void NoteError(Conn* c, const qp::Status& status) {
  NoteError(c, status.code(), status.ToString());
}

constexpr int64_t kWarmupQuote = -1;
constexpr int64_t kBatchItem = -2;

/// Sends one request and records the reply; returns whether it was OK.
/// `sample` is the index the request's sample will take in c->samples, or
/// kWarmupQuote.
bool Execute(Conn* c, const Request& r, int64_t sample) {
  switch (r.type) {
    case Request::kQuote: {
      auto reply = c->client->Quote(r.shard, *r.texts[0]);
      if (!reply.ok()) {
        NoteError(c, reply.status());
        return false;
      }
      c->quotes.push_back({r.shard, reply->snapshot_version, r.texts[0],
                           reply->price, reply->approximate});
      c->quote_sample.push_back(sample);
      if (reply->approximate) ++c->approximate;
      return true;
    }
    case Request::kBatch: {
      std::vector<std::string> texts;
      for (const std::string* t : r.texts) texts.push_back(*t);
      auto reply = c->client->QuoteBatch(r.shard, texts);
      if (!reply.ok()) {
        NoteError(c, reply.status());
        return false;
      }
      bool all_ok = reply->items.size() == r.texts.size();
      for (size_t i = 0; i < reply->items.size() && i < r.texts.size(); ++i) {
        const auto& item = reply->items[i];
        if (item.status_code != 0) {
          NoteError(c, static_cast<qp::StatusCode>(item.status_code),
                    item.message);
          all_ok = false;
          continue;
        }
        c->quotes.push_back({r.shard, reply->snapshot_version, r.texts[i],
                             item.price, item.approximate});
        c->quote_sample.push_back(kBatchItem);
        if (item.approximate) ++c->approximate;
      }
      return all_ok;
    }
    case Request::kInsert: {
      auto reply = c->client->Insert(r.shard, r.relation, r.rows);
      if (!reply.ok()) {
        NoteError(c, reply.status());
        return false;
      }
      if (reply->rows_inserted != r.rows.size()) ++c->insert_not_fresh;
      c->inserts.push_back(
          {r.shard, reply->snapshot_version, r.relation, r.rows});
      return true;
    }
  }
  return false;
}

/// Open loop: request k is due at start + (k + offset) / rate; it is sent
/// at its due time or, when the connection is behind, right away.
void RunOpenLoop(Conn* c, Workload* w, int conn, Phase phase, uint64_t start,
                 uint64_t end, double rate, double offset) {
  prctl(PR_SET_TIMERSLACK, 1);
  const double period = 1e9 / rate;
  // Sends due in the last tenth of the phase may still be queued behind a
  // stall when it ends; those due earlier must have gone out.
  const uint64_t checked_end = end - (end - start) / 10;
  ScheduleTrace trace;
  for (uint64_t k = 0;; ++k) {
    const uint64_t due =
        start + static_cast<uint64_t>((static_cast<double>(k) + offset) * period);
    if (due >= end) break;
    Request r = w->Next(conn);
    WaitUntil(due);
    Sample s;
    s.phase = phase;
    s.type = r.type;
    s.scheduled_ns = due;
    s.sent_ns = NowNs();
    if (due < checked_end) {
      ++trace.scheduled;
      if (s.sent_ns < end) ++trace.sent_in_time;
    }
    trace.lag_ns.push_back(s.sent_ns - due);
    s.ok = Execute(c, r, static_cast<int64_t>(c->samples.size()));
    s.done_ns = NowNs();
    c->samples.push_back(s);
  }
  c->schedules.push_back(std::move(trace));
}

/// Closed loop: the next request goes out when the previous reply is in.
void RunClosedLoop(Conn* c, Workload* w, int conn, uint64_t end) {
  for (;;) {
    Request r = w->Next(conn);
    Sample s;
    s.phase = kClosed;
    s.type = r.type;
    s.sent_ns = s.scheduled_ns = NowNs();
    if (s.sent_ns >= end) break;
    s.ok = Execute(c, r, static_cast<int64_t>(c->samples.size()));
    s.done_ns = NowNs();
    c->samples.push_back(s);
  }
}

qp::Result<MetricsSample> ReadMetrics(qp::PricingClient* client) {
  auto reply = client->Metrics();
  if (!reply.ok()) return reply.status();
  return ParseMetricsJson(reply->json);
}

/// What one server session measured.
struct Session {
  std::vector<double> setup_s;
  /// Warm-up replies of the set-ups whose server was not measured.
  std::vector<QuoteRecord> setup_quotes;
  MetricsSample m_start, m_mid, m_read_end, m_end;
  /// Server CPU seconds at the kClosedWindows + 1 closed-window bounds.
  std::vector<double> closed_cpu;
  double rss_mb = 0;
  /// Phase boundaries (steady-clock ns).
  uint64_t open_start = 0, open_end = 0;
  uint64_t closed_start = 0, closed_end = 0;
  std::vector<Conn> conns;
  size_t db_tuples = 0;
  size_t distinct_texts = 0;
  size_t hot_set = 0;
};

/// One set-up: starts a server, connects kConnections clients to it and
/// sends the warm-up on the connection that will quote (which also sets
/// the requote baselines). Returns its wall time in seconds.
qp::Result<double> SetUp(const std::vector<std::string>& serve_args,
                         const Workload& w, ServerProcess* server,
                         std::vector<Conn>* conns) {
  conns->clear();
  const uint64_t t0 = NowNs();
  QP_RETURN_IF_ERROR(server->Spawn(serve_args));
  conns->resize(Workload::kConnections);
  for (Conn& c : *conns) {
    auto client = qp::PricingClient::Connect("127.0.0.1", server->port());
    if (!client.ok()) return client.status();
    c.client = std::make_unique<qp::PricingClient>(std::move(*client));
  }
  Conn* warm = &(*conns)[w.role(0) == Role::kWriter ? 1 : 0];
  for (const Request& r : w.warmup()) {
    if (!Execute(warm, r, kWarmupQuote)) {
      return qp::Status::Internal("warm-up request failed: " + warm->first_error);
    }
  }
  return static_cast<double>(NowNs() - t0) / 1e9;
}

/// Sets up the server kSetupsBefore times (process start, market
/// generation, server start, connect, warm-up) and runs the measured
/// phases on the last of them; then sets up the rest of kSetups times
/// after the phases, so setup_s samples the machine at both ends of the
/// run. `args` are the workload flags, passed on to the server process.
/// The load process's own sellers and workload are built first, untimed:
/// only the requests and the verification need them. Warm-up replies of
/// the set-ups not measured are kept in out->setup_quotes for
/// verification.
qp::Status RunSession(const Params& params, const std::vector<std::string>& args,
                      std::vector<std::unique_ptr<qp::Seller>>* sellers,
                      std::unique_ptr<Workload>* workload, Session* out) {
  const int kConns = Workload::kConnections;
  QP_RETURN_IF_ERROR(BuildSellers(params, sellers));
  *workload = std::make_unique<Workload>(params, *sellers);
  std::vector<std::string> serve_args = {"qpbench", "serve"};
  serve_args.insert(serve_args.end(), args.begin(), args.end());
  ServerProcess server;
  auto set_up_and_stop = [&]() -> qp::Status {
    std::vector<Conn> conns;
    QP_ASSIGN_OR_RETURN(double seconds,
                        SetUp(serve_args, **workload, &server, &conns));
    out->setup_s.push_back(seconds);
    for (const Conn& c : conns) {
      out->setup_quotes.insert(out->setup_quotes.end(), c.quotes.begin(),
                               c.quotes.end());
    }
    return server.Shutdown(conns[0].client.get());
  };
  for (int rep = 0; rep + 1 < kSetupsBefore; ++rep) {
    QP_RETURN_IF_ERROR(set_up_and_stop());
  }
  QP_ASSIGN_OR_RETURN(double seconds,
                      SetUp(serve_args, **workload, &server, &out->conns));
  out->setup_s.push_back(seconds);
  Workload* w = workload->get();
  out->db_tuples = 0;
  for (const auto& s : *sellers) out->db_tuples += s->db().TotalTuples();
  out->distinct_texts = w->distinct_texts();
  out->hot_set = w->hot_set_size();
  qp::PricingClient* control = out->conns[0].client.get();

  const double total_ns = params.seconds * 1e9;
  const uint64_t open_ns = static_cast<uint64_t>(total_ns * kOpenShare);
  const uint64_t closed_ns = static_cast<uint64_t>(total_ns) - open_ns;

  QP_ASSIGN_OR_RETURN(out->m_start, ReadMetrics(control));
  {
    const uint64_t start = NowNs() + 1000000;  // 1 ms to spawn threads
    out->open_start = start;
    out->open_end = start + open_ns;
    std::vector<std::thread> threads;
    for (int c = 0; c < kConns; ++c) {
      threads.emplace_back([&, c] {
        RunOpenLoop(&out->conns[c], w, c, kOpen, start, start + open_ns,
                    w->open_rate(c), w->open_offset(c));
      });
    }
    for (std::thread& t : threads) t.join();
  }
  QP_ASSIGN_OR_RETURN(out->m_mid, ReadMetrics(control));
  {
    const uint64_t start = NowNs();
    out->closed_start = start;
    out->closed_end = start + closed_ns;
    std::vector<std::thread> threads;
    threads.emplace_back([&] {
      for (int i = 0; i <= kClosedWindows; ++i) {
        const uint64_t due = start + closed_ns * i / kClosedWindows;
        const uint64_t now = NowNs();
        if (due > now) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        out->closed_cpu.push_back(server.CpuSeconds());
      }
    });
    for (int c = 0; c < kConns; ++c) {
      threads.emplace_back([&, c] {
        // A writer keeps its fixed rate: a closed-loop writer would publish
        // as fast as the server copies instances.
        if (w->role(c) == Role::kWriter) {
          RunOpenLoop(&out->conns[c], w, c, kClosed, start, start + closed_ns,
                      w->open_rate(c), 0);
        } else {
          RunClosedLoop(&out->conns[c], w, c, start + closed_ns);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  QP_ASSIGN_OR_RETURN(out->m_read_end, ReadMetrics(control));
  // Peak memory of the workload's own traffic; the probe only adds
  // short-lived snapshots.
  out->rss_mb = server.PeakRssMb();
  Conn* probe = &out->conns[0];
  for (int i = 0; i < params.probe_publishes; ++i) {
    Request insert, quote;
    w->NextProbe(&insert, &quote);
    for (const Request* r : {&insert, &quote}) {
      Sample s;
      s.phase = kProbe;
      s.type = r->type;
      s.sent_ns = s.scheduled_ns = NowNs();
      s.ok = Execute(probe, *r, static_cast<int64_t>(probe->samples.size()));
      s.done_ns = NowNs();
      probe->samples.push_back(s);
    }
  }
  QP_ASSIGN_OR_RETURN(out->m_end, ReadMetrics(control));
  QP_RETURN_IF_ERROR(server.Shutdown(control));
  while (out->setup_s.size() < static_cast<size_t>(kSetups)) {
    QP_RETURN_IF_ERROR(set_up_and_stop());
  }
  return qp::Status::Ok();
}

/// The requests the traced replay runs: the warm-up, then the first
/// kReplayRequests open-phase requests interleaved by due time, then up to
/// kReplayProbes probe cycles.
std::vector<Request> ReplayRequests(const Params& params, Workload* w) {
  std::vector<Request> out = w->warmup();
  const int kConns = Workload::kConnections;
  const uint64_t open_ns =
      static_cast<uint64_t>(params.seconds * 1e9 * kOpenShare);
  std::vector<uint64_t> k(kConns, 0);
  std::vector<double> period(kConns);
  for (int c = 0; c < kConns; ++c) period[c] = 1e9 / w->open_rate(c);
  for (int n = 0; n < kReplayRequests; ++n) {
    int next = -1;
    double best = 0;
    for (int c = 0; c < kConns; ++c) {
      const double due = (static_cast<double>(k[c]) + w->open_offset(c)) * period[c];
      if (due < static_cast<double>(open_ns) && (next < 0 || due < best)) {
        next = c;
        best = due;
      }
    }
    if (next < 0) break;
    ++k[next];
    out.push_back(w->Next(next));
  }
  for (int i = 0; i < std::min(params.probe_publishes, kReplayProbes); ++i) {
    Request insert, quote;
    w->NextProbe(&insert, &quote);
    out.push_back(std::move(insert));
    out.push_back(std::move(quote));
  }
  return out;
}

double Us(uint64_t ns) { return static_cast<double>(ns) / 1000.0; }

/// Median over windows of each window's q-th percentile, in microseconds.
double WindowMedian(const std::vector<std::vector<uint64_t>>& windows, int q) {
  std::vector<double> per_window;
  for (const auto& w : windows) per_window.push_back(Us(Percentile(w, q)));
  return Median(per_window);
}

/// A metric for the result line and the table.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  /// False when the workload does not exercise the metric ("—").
  bool present = true;
  std::string note;
};

std::string FormatValue(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string Json(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << m.name << "\": {\"value\": " << m.value << ", \"unit\": \""
        << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

void PrintTable(const std::string& title, const std::vector<Metric>& metrics) {
  std::printf("\n%s\n", title.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-38s %-6s %14s  %s\n", m.name.c_str(), m.unit.c_str(),
                m.present ? FormatValue(m.value).c_str() : "—", m.note.c_str());
  }
}

int Drive(const Params& params, const std::vector<std::string>& args,
          bool traced, const std::string& trace_out) {
  std::vector<std::unique_ptr<qp::Seller>> sellers;
  std::unique_ptr<Workload> workload;
  Session session;
  qp::Status status = RunSession(params, args, &sellers, &workload, &session);
  if (!status.ok()) {
    std::fprintf(stderr, "qpbench: %s\n", status.ToString().c_str());
    return 2;
  }

  // ---- Gather samples ----
  std::vector<InsertRecord> inserts;
  // Open-phase quote latency and closed-phase replies per window: the
  // reported figures are medians over windows, so one stall of the box
  // moves one window, not the run.
  std::vector<const Sample*> open_samples;
  std::vector<double> closed_win(kClosedWindows, 0);
  const uint64_t open_len = session.open_end - session.open_start;
  const uint64_t closed_len = session.closed_end - session.closed_start;
  std::vector<uint64_t> insert_lat, requote_lat, lag, rtt;
  uint64_t attempted = 0, failed = 0, approximate = 0;
  uint64_t insert_not_fresh = 0;
  std::vector<std::string> invalid;
  std::string first_error;
  std::vector<QuoteRecord> quotes = session.setup_quotes;
  for (Conn& c : session.conns) {
    quotes.insert(quotes.end(), c.quotes.begin(), c.quotes.end());
    for (InsertRecord& r : c.inserts) inserts.push_back(std::move(r));
    failed += c.failed + c.refused;
    approximate += c.approximate;
    insert_not_fresh += c.insert_not_fresh;
    if (first_error.empty()) first_error = c.first_error;
    for (const ScheduleTrace& t : c.schedules) {
      const std::string why =
          CheckSchedule(t, static_cast<uint64_t>(params.limit_us * 1000));
      if (!why.empty()) invalid.push_back(why);
      lag.insert(lag.end(), t.lag_ns.begin(), t.lag_ns.end());
    }
    for (const Sample& s : c.samples) {
      ++attempted;
      const uint64_t latency = s.done_ns - s.scheduled_ns;
      if (s.phase == kOpen) open_samples.push_back(&s);
      if (s.phase == kClosed && s.ok && s.done_ns < session.closed_end) {
        closed_win[(s.done_ns - session.closed_start) * kClosedWindows /
                   closed_len] += 1;
      }
      if (s.phase != kProbe) rtt.push_back(s.done_ns - s.sent_ns);
      if (!s.ok) continue;
      if (s.type == Request::kInsert) insert_lat.push_back(latency);
    }
  }

  // Requotes, found after the run from the insert acknowledgements: the
  // first quote of each query after a publish that mutated a relation the
  // query reads.
  std::vector<std::map<uint64_t, std::string>> published(sellers.size());
  for (const InsertRecord& r : inserts) published[r.shard][r.version] = r.relation;
  std::map<std::pair<uint32_t, const std::string*>, std::vector<std::string>> reads;
  for (const Conn& c : session.conns) {
    RequoteDetector detector;
    for (size_t i = 0; i < c.quotes.size(); ++i) {
      if (c.quote_sample[i] == kBatchItem) continue;
      const QuoteRecord& q = c.quotes[i];
      auto [rels, fresh] = reads.try_emplace({q.shard, q.text});
      if (fresh) {
        const qp::Schema& schema = sellers[q.shard]->catalog().schema();
        auto query = qp::ParseQuery(schema, *q.text);
        if (query.ok()) {
          for (qp::RelationId rel : query->ReferencedRelations()) {
            rels->second.push_back(schema.relation_name(rel));
          }
        }
      }
      const auto& publishes = published[q.shard];
      const bool requote = detector.Observe(
          q.shard, *q.text, q.version, [&](uint64_t from, uint64_t to) {
            for (auto it = publishes.upper_bound(from);
                 it != publishes.end() && it->first <= to; ++it) {
              if (std::find(rels->second.begin(), rels->second.end(),
                            it->second) != rels->second.end()) {
                return true;
              }
            }
            return false;
          });
      if (requote && c.quote_sample[i] >= 0) {
        const Sample& s = c.samples[static_cast<size_t>(c.quote_sample[i])];
        requote_lat.push_back(s.done_ns - s.scheduled_ns);
      }
    }
  }

  size_t open_quotes = 0;
  for (const Sample* s : open_samples) open_quotes += s->type == Request::kQuote;
  const size_t windows =
      std::max<size_t>(1, open_quotes / kQuotesPerWindow);
  std::vector<std::vector<uint64_t>> quote_win(windows);
  std::vector<std::vector<Outcome>> outcome_win(windows);
  for (const Sample* s : open_samples) {
    const size_t w = std::min<uint64_t>(
        windows - 1, (s->scheduled_ns - session.open_start) * windows / open_len);
    const uint64_t latency = s->done_ns - s->scheduled_ns;
    outcome_win[w].push_back({s->ok, latency});
    if (s->ok && s->type == Request::kQuote) quote_win[w].push_back(latency);
  }
  std::vector<double> on_time;
  for (const auto& w : outcome_win) {
    on_time.push_back(OnTimeShare(w, static_cast<uint64_t>(params.limit_us * 1000)));
  }

  // ---- Verify every quote against the exact reference ----
  const uint64_t verify_start = NowNs();
  VerifyResult verify = Verify(sellers, inserts, quotes, kVerifyThreads);
  std::printf("verified %llu quotes (%llu exact re-solves at %zu insert "
              "versions) in %.1f s: %llu mismatches\n",
              static_cast<unsigned long long>(verify.quotes_verified),
              static_cast<unsigned long long>(verify.exact_solves),
              inserts.size(), static_cast<double>(NowNs() - verify_start) / 1e9,
              static_cast<unsigned long long>(verify.mismatches));
  for (const std::string& e : verify.examples) std::printf("  MISMATCH %s\n", e.c_str());
  if (!first_error.empty()) std::printf("  first request error: %s\n", first_error.c_str());
  failed += verify.mismatches;

  // ---- METRICS-frame deltas ----
  const MetricsDelta read(session.m_start, session.m_read_end);
  const MetricsDelta whole(session.m_start, session.m_end);
  const double server_mean_us = read.HistMean("qp.server.request_ns") / 1000.0;
  double client_rtt_us = 0;
  for (uint64_t r : rtt) client_rtt_us += Us(r);
  client_rtt_us = Ratio(client_rtt_us, static_cast<double>(rtt.size()));
  if (server_mean_us > client_rtt_us) {
    invalid.push_back("server mean request time exceeds the client mean RTT");
  }
  const double inserts_ok = whole.Counter("qp.server.inserts_ok");
  const double publishes_per_insert =
      Ratio(whole.Counter("qp.market.snapshot_publishes"), inserts_ok);
  if (inserts_ok > 0 && publishes_per_insert != 1.0) {
    invalid.push_back("publishes per insert is " + FormatValue(publishes_per_insert));
  }
  if (insert_not_fresh > 0) {
    invalid.push_back(std::to_string(insert_not_fresh) + " inserts added no row");
  }

  std::printf("\nworkload %s seed %llu: %zu shard(s), |D| = %zu tuples, %zu "
              "distinct query texts, hot set %zu; rate %.0f/s quotes + %.0f/s "
              "inserts, limit %.0f us, 2 connections, %d server workers\n",
              params.name.c_str(), static_cast<unsigned long long>(params.seed),
              sellers.size(), session.db_tuples, session.distinct_texts,
              session.hot_set, params.rate, params.insert_rate, params.limit_us,
              kServerWorkers);

  // ---- End-to-end metrics ----
  const double quotes_ok = static_cast<double>(quotes.size());
  size_t min_window = quote_win[0].size();
  for (const auto& w : quote_win) min_window = std::min(min_window, w.size());
  if (min_window < 1000) {
    invalid.push_back("an open-loop window holds " + std::to_string(min_window) +
                      " quotes; p99 needs at least 1000");
  }
  // Server CPU time per OK reply in each closed-loop window.
  std::vector<double> closed_cpu_win;
  for (int i = 0; i < kClosedWindows; ++i) {
    if (session.closed_cpu[i] < 0 || session.closed_cpu[i + 1] < 0) {
      invalid.push_back("cannot read the server's CPU time");
      break;
    }
    closed_cpu_win.push_back(
        Ratio((session.closed_cpu[i + 1] - session.closed_cpu[i]) * 1e6,
              closed_win[i]));
  }
  const bool correct_quotes = verify.mismatches == 0;
  // The end-to-end metrics BENCHMARK.json bounds: shares, memory and
  // set-up time. The latency, throughput and CPU-time figures below them
  // are reported too, but their run-to-run spread on a shared virtual
  // machine (CPU speed and the wake-up time of an idle virtual CPU vary
  // several-fold with the host's load) is wider than any bound a gate
  // could use.
  std::vector<Metric> e2e = {
      {"on_time_share", "ratio", Median(on_time), true,
       "median of " + std::to_string(windows) + " windows, n=" +
           std::to_string(open_samples.size())},
      {"ok_share", "ratio",
       1.0 - Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
       true, "attempted=" + std::to_string(attempted)},
      {"server_rss_mb", "MB", session.rss_mb, true, "VmHWM after the read phases"},
      {"setup_s", "s", Median(session.setup_s), true,
       "median of " + std::to_string(session.setup_s.size())},
  };
  std::vector<Metric> extra = {
      {"quote_p50_us", "us", WindowMedian(quote_win, 50), true,
       "median of " + std::to_string(windows) + " windows, n>=" +
           std::to_string(min_window)},
      {"quote_p99_us", "us", WindowMedian(quote_win, 99), true,
       "median of " + std::to_string(windows) + " windows, n>=" +
           std::to_string(min_window)},
      {"insert_p50_us", "us", Us(Percentile(insert_lat, 50)), !insert_lat.empty(),
       "n=" + std::to_string(insert_lat.size())},
      // p95 needs at least ten samples above it.
      {"insert_p95_us", "us", Us(Percentile(insert_lat, 95)), insert_lat.size() >= 200,
       "n=" + std::to_string(insert_lat.size())},
      {"requote_p50_us", "us", Us(Percentile(requote_lat, 50)), !requote_lat.empty(),
       "n=" + std::to_string(requote_lat.size())},
      {"throughput_rps", "1/s",
       Median(closed_win) * 1e9 * kClosedWindows / static_cast<double>(closed_len),
       true, "median of " + std::to_string(kClosedWindows) + " closed-loop windows"},
      {"failed_share", "ratio",
       Ratio(static_cast<double>(failed), static_cast<double>(attempted)), true, ""},
      {"approx_share", "ratio", Ratio(static_cast<double>(approximate), quotes_ok),
       true, ""},
      {"server_cpu_us_per_request", "us", Median(closed_cpu_win), true,
       "median of " + std::to_string(kClosedWindows) + " closed-loop windows"},
      {"quotes_verified", "count", static_cast<double>(verify.quotes_verified), true, ""},
  };

  // ---- Per-layer metrics ----
  const double quote_frames = read.Counter("qp.server.quotes_ok");
  const double lookups = read.Counter("qp.cache.hits") +
                         read.Counter("qp.cache.misses") +
                         read.Counter("qp.cache.invalidations");
  const double dispatches = read.CounterPrefix("qp.engine.dispatch.");
  const double maxflow_runs = read.Counter("qp.flow.maxflow_runs");
  const double memo_hits = read.Counter("qp.server.parse_memo_hits");
  const double memo_lookups = memo_hits + read.Counter("qp.server.parse_memo_misses");
  std::vector<Metric> layers = {
      {"server.request_mean_us", "us", server_mean_us, true, "M"},
      {"server.rtt_minus_request_us", "us", client_rtt_us - server_mean_us, true,
       "client mean RTT " + FormatValue(client_rtt_us) + " us"},
      {"server.parse_memo_hit_ratio", "ratio", Ratio(memo_hits, memo_lookups), true, "M"},
      {"server.warm_tasks_per_publish", "ratio",
       Ratio(read.Counter("qp.server.warm_tasks"),
             read.Counter("qp.market.snapshot_publishes")),
       true, "M"},
      {"server.warm_hit_ratio", "ratio",
       Ratio(read.Counter("qp.server.warm_hits"), read.Counter("qp.cache.hits")),
       true, "M: warm hits / cache hits"},
      {"server.ctl_tightenings", "count", read.Counter("qp.server.ctl.tightenings"),
       true, "M"},
      {"server.connections_shed", "count",
       read.Counter("qp.server.connections_shed"), true, "M"},
      {"util.lane_wait_interactive_mean_us", "us",
       read.HistMean("qp.pool.lane_wait_ns.interactive") / 1000.0, true, "M"},
      {"util.lane_wait_background_mean_us", "us",
       read.HistMean("qp.pool.lane_wait_ns.background") / 1000.0, true, "M"},
      {"market.publishes_per_insert", "ratio", publishes_per_insert, true,
       "M, whole run"},
      {"pricing.cache_hit_ratio", "ratio", Ratio(read.Counter("qp.cache.hits"), lookups),
       true, "M"},
      {"pricing.cache_entries", "count", read.GaugeAfter("qp.cache.size"), true,
       "M gauge"},
      {"pricing.dispatch_share.gchq", "ratio",
       Ratio(read.Counter("qp.engine.dispatch.gchq"), dispatches), true, "M"},
      {"pricing.dispatch_share.boolean_witness", "ratio",
       Ratio(read.Counter("qp.engine.dispatch.boolean_witness"), dispatches), true, "M"},
      {"pricing.dispatch_share.clause", "ratio",
       Ratio(read.Counter("qp.engine.dispatch.clause"), dispatches), true, "M"},
      {"pricing.solves_per_quote", "ratio",
       Ratio(read.Counter("qp.engine.price.calls"), quote_frames), true,
       "M: engine calls / OK quotes"},
      {"pricing.approx_ratio", "ratio",
       Ratio(read.Counter("qp.engine.approx_quotes"),
             read.Counter("qp.engine.price.calls")),
       true, "M"},
      {"flow.maxflow_runs_per_quote", "ratio", Ratio(maxflow_runs, quote_frames),
       true, "M"},
      {"flow.augmenting_paths_per_run", "ratio",
       Ratio(read.Counter("qp.flow.augmenting_paths"), maxflow_runs), true, "M"},
      {"flow.warm_start_ratio", "ratio",
       Ratio(read.Counter("qp.flow.warm_starts"), maxflow_runs), true, "M"},
      {"loadgen.lag_p99_us", "us", Us(Percentile(lag, 99)), true,
       "n=" + std::to_string(lag.size())},
  };
  // M-sourced means shown in the table only: they read 0 where the layer
  // idles, which is the prediction there, not a measurement.
  std::vector<Metric> idle_means = {
      {"pricing.engine_price_mean_us", "us",
       read.HistMean("qp.engine.price_ns") / 1000.0,
       read.HistCount("qp.engine.price_ns") > 0, "M"},
      {"flow.maxflow_mean_us", "us", read.HistMean("qp.flow.maxflow_ns") / 1000.0,
       read.HistCount("qp.flow.maxflow_ns") > 0, "M"},
  };

  const bool correct = correct_quotes && invalid.empty();
  for (const std::string& why : invalid) std::printf("INVALID RUN: %s\n", why.c_str());

  if (!traced) {
    PrintTable("end-to-end, bounded (" + params.name + ")", e2e);
    PrintTable("end-to-end, reported", extra);
    std::printf("%s\n", Json(correct, attempted, failed, e2e).c_str());
    return correct ? 0 : 1;
  }

  // ---- Traced replay ----
  std::vector<std::unique_ptr<qp::Seller>> replay_sellers;
  status = BuildSellers(params, &replay_sellers);
  if (!status.ok()) {
    std::fprintf(stderr, "qpbench: %s\n", status.ToString().c_str());
    return 2;
  }
  Workload replay_workload(params, replay_sellers);
  const std::vector<Request> requests = ReplayRequests(params, &replay_workload);
  SpanRecorder untraced(false), tracer(true);
  auto plain_ns = Replay(params, requests, &untraced);
  auto traced_ns = Replay(params, requests, &tracer);
  if (!plain_ns.ok() || !traced_ns.ok()) {
    std::fprintf(stderr, "qpbench: replay failed\n");
    return 2;
  }
  if (!trace_out.empty()) {
    status = tracer.WriteTsv(trace_out);
    if (!status.ok()) std::fprintf(stderr, "qpbench: %s\n", status.ToString().c_str());
  }
  const std::vector<LayerStats> stats = Summarize(tracer.spans());
  auto p50_us = [&stats](Layer l) { return Us(stats[static_cast<size_t>(l)].p50_ns); };
  const double overhead_us =
      (static_cast<double>(*traced_ns) - static_cast<double>(*plain_ns)) /
      1000.0 / static_cast<double>(requests.size());
  const std::vector<std::pair<const char*, Layer>> spans = {
      {"server.wire_decode_us", Layer::kWireDecode},
      {"server.wire_encode_us", Layer::kWireEncode},
      {"server.memo_get_us", Layer::kMemoGet},
      {"query.parse_us", Layer::kParse},
      {"market.acquire_us", Layer::kAcquire},
      {"market.insert_batch_us", Layer::kInsertBatch},
      {"relational.instance_copy_us", Layer::kInstanceCopy},
      {"pricing.cache_lookup_us", Layer::kCacheLookup},
      {"pricing.classify_us", Layer::kClassify},
      {"pricing.work_problem_us", Layer::kWorkProblem},
      {"pricing.engine_price_us", Layer::kEnginePrice},
  };
  for (const auto& [name, layer] : spans) {
    layers.push_back({name, "us", p50_us(layer), true, "T p50"});
  }
  layers.push_back({"trace.overhead_us", "us", overhead_us, true,
                    "traced minus untraced replay time per request"});

  // Where the time went: self time per layer in the replay, beside the
  // server's own means for the same layers. The steps the replay also
  // times on their own (parse, classify, work problem, instance copy) are
  // counted once, inside the call that runs them.
  uint64_t total_self = 0;
  for (const LayerStats& s : stats) total_self += s.self_ns;
  std::printf("\nwhere the time went (%s): replay of %zu requests, %.1f ms "
              "traced, %.1f ms untraced, %.1f ms of self time with each "
              "separately timed step counted once\n",
              params.name.c_str(), requests.size(),
              static_cast<double>(*traced_ns) / 1e6,
              static_cast<double>(*plain_ns) / 1e6,
              static_cast<double>(total_self) / 1e6);
  std::printf("  %-26s %8s %10s %10s %7s\n", "layer", "spans", "p50_us",
              "self_ms", "self%");
  for (size_t l = 0; l < stats.size(); ++l) {
    std::printf("  %-26s %8llu %10.3f %10.3f %6.1f%%\n",
                LayerName(static_cast<Layer>(l)),
                static_cast<unsigned long long>(stats[l].spans),
                Us(stats[l].p50_ns), static_cast<double>(stats[l].self_ns) / 1e6,
                100.0 * Ratio(static_cast<double>(stats[l].self_ns),
                              static_cast<double>(total_self)));
  }
  const MetricsDelta open_phase(session.m_start, session.m_mid);
  const MetricsDelta closed_phase(session.m_mid, session.m_read_end);
  std::printf("  server means over the read phases (M): request %.3f us "
              "(open %.3f, closed %.3f), engine price %s us, max-flow %s us, "
              "interactive lane wait %.3f us\n",
              server_mean_us,
              open_phase.HistMean("qp.server.request_ns") / 1000.0,
              closed_phase.HistMean("qp.server.request_ns") / 1000.0,
              idle_means[0].present ? FormatValue(idle_means[0].value).c_str() : "—",
              idle_means[1].present ? FormatValue(idle_means[1].value).c_str() : "—",
              read.HistMean("qp.pool.lane_wait_ns.interactive") / 1000.0);
  PrintTable("per-layer (" + params.name + ")", layers);
  PrintTable("idle-or-mean (table only)", idle_means);

  // The predictions the layer table is meant to bear out.
  const double hit_ratio = Ratio(read.Counter("qp.cache.hits"), lookups);
  const double clause = read.Counter("qp.engine.dispatch.clause");
  auto verdict = [](bool holds) { return holds ? "holds" : "DOES NOT HOLD"; };
  switch (params.kind) {
    case Kind::kHotRead:
      std::printf("prediction hot_read cache_hit_ratio >= 0.99: %s\n",
                  verdict(hit_ratio >= 0.99));
      std::printf("prediction hot_read no max-flow runs: %s\n",
                  verdict(maxflow_runs == 0));
      break;
    case Kind::kColdPrice:
      std::printf("prediction cold_price cache_hit_ratio <= 0.1: %s\n",
                  verdict(hit_ratio <= 0.1));
      break;
    default:
      break;
  }
  std::printf("prediction only hard_join dispatches clause: %s\n",
              verdict((params.kind == Kind::kHardJoin) == (clause > 0)));
  std::printf("%s\n", Json(correct, attempted, failed, layers).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace qpbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: qpbench drive|serve --workload=NAME --seed=N ...\n");
    return 2;
  }
  const std::string mode = argv[1];
  bool traced = false;
  std::string trace_out;
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--trace=", 0) == 0) {
      traced = a.substr(8) == "1";
    } else if (a.rfind("--trace_out=", 0) == 0) {
      trace_out = a.substr(12);
    } else {
      args.push_back(a);
    }
  }
  qpbench::Params params;
  qp::Status status = qpbench::ParseParams(args, &params);
  if (!status.ok()) {
    std::fprintf(stderr, "qpbench: %s\n", status.ToString().c_str());
    return 2;
  }
  if (mode == "serve") return qpbench::Serve(params);
  if (mode == "drive") return qpbench::Drive(params, args, traced, trace_out);
  std::fprintf(stderr, "qpbench: unknown mode %s\n", mode.c_str());
  return 2;
}
