// service_mix: the shipped tsvstress_server daemon on a Unix socket with two
// 2k-TSV sessions at 1 um (certified surrogate on, eco journal fsync on --
// the defaults). One load process runs three closed-loop clients with no
// think time, because the client library is synchronous: each caller waits
// for its reply. Clients 0 and 1 share session A (moving even and odd ids),
// client 2 owns session B. A cycle is 1 eco (one move within +-0.5 um of
// nominal, unique seq), 1 region (50 x 50 um around it) and 10 queries (32
// random points each). After the timed phase the daemon is shut down and
// restarted on the same snapshot directory, and every session is queried
// again. JSON, wire, journal fsync, session-lock contention and snapshot
// save/load do the work here; bulk Stage II runs only when a session opens.
//
// An op is one request; a failed or refused request counts as an infinite
// latency. The correctness gate queries 256 points per session from the
// restarted daemon and compares them with an exact-series evaluation of the
// placement the clients tracked, and checks the daemon's counters against
// the acknowledged requests.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "analytic/surrogate.h"
#include "core/incremental_engine.h"
#include "core/metrics.h"
#include "harness.h"
#include "io/journal.h"
#include "io/snapshot.h"
#include "server/client.h"
#include "server/server.h"
#include "stats/sampler.h"
#include "tsv/placement_io.h"

extern char** environ;

namespace bench_e2e {
namespace {

using namespace tsv;
using server::Client;
using server::JsonValue;

constexpr double kSpacing = 1.0;  // um, session grid
constexpr double kMargin = 25.0;  // um, the session default halo
constexpr double kMoveUm = 0.5;
constexpr double kRegionUm = 50.0;
constexpr std::size_t kQueriesPerCycle = 10;
constexpr std::size_t kPointsPerQuery = 32;
constexpr std::size_t kGateProbes = 256;

/// A tsvstress_server child process. The destructor kills and reaps a
/// daemon that is still running, so no exit path leaves one behind.
class Daemon {
 public:
  Daemon(const std::string& bin, const std::string& socket,
         const std::string& snapshot_dir) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    posix_spawn_file_actions_addclose(&fa, fds[1]);
    std::string a1 = "--unix=" + socket;
    std::string a2 = "--snapshot-dir=" + snapshot_dir;
    char* argv[] = {const_cast<char*>(bin.c_str()), a1.data(), a2.data(),
                    nullptr};
    const int rc = posix_spawn(&pid_, bin.c_str(), &fa, nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(fds[1]);
    out_ = fds[0];
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + bin);
    }
    // The daemon prints "listening on ..." once it accepts connections.
    std::string text;
    const Clock::time_point t0 = Clock::now();
    while (text.find("listening on") == std::string::npos) {
      pollfd pfd{out_, POLLIN, 0};
      if (seconds_since(t0) > 60.0 || ::poll(&pfd, 1, 1000) < 0)
        throw std::runtime_error("daemon did not come up");
      if (!(pfd.revents & (POLLIN | POLLHUP))) continue;
      char buf[512];
      const ssize_t n = ::read(out_, buf, sizeof buf);
      if (n <= 0) throw std::runtime_error("daemon exited during startup");
      text.append(buf, static_cast<std::size_t>(n));
    }
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      wait();
    }
    if (out_ >= 0) ::close(out_);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Reaps the daemon (after a shutdown request); returns its peak RSS, MB.
  double wait() {
    int status = 0;
    rusage usage{};
    while (::wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }

 private:
  pid_t pid_ = -1;
  int out_ = -1;
};

bool ok(const JsonValue& resp) { return resp.bool_or("ok", false); }

JsonValue point_list(const std::vector<geo::Point>& pts) {
  JsonValue arr = JsonValue::array();
  for (const geo::Point& p : pts) {
    JsonValue xy = JsonValue::array();
    xy.items().push_back(JsonValue(p.x));
    xy.items().push_back(JsonValue(p.y));
    arr.items().push_back(std::move(xy));
  }
  return arr;
}

struct SessionInput {
  std::string name;
  std::string text;  ///< placement file contents, sent as-is
  tsvlib::Placement placement;
  geo::Box box;      ///< the session grid's extent
};

JsonValue open_request(const SessionInput& s) {
  JsonValue req = Client::request("open", s.name);
  req.set("placement", JsonValue(s.text));
  req.set("spacing", JsonValue(kSpacing));
  req.set("surrogate", JsonValue(true));
  return req;
}

/// One request as the client saw it.
struct Request {
  char kind = 'q';  ///< 'e' eco, 'r' region, 'q' query
  int session = 0;  ///< 0 = A, 1 = B
  bool ok = false;
  Clock::time_point start;
  double ms = 0.0;
  std::string body;  ///< the request text (traced phase only)
};

struct ClientLog {
  std::vector<Request> requests;
  std::map<std::uint32_t, geo::Point> moved;  ///< last acked position per id
  std::size_t acked[2][3] = {{0, 0, 0}, {0, 0, 0}};  ///< [session][e, r, q]
};

/// Per-session eco ordering: seqs must reach the daemon in increasing order
/// per session (it dedupes against a watermark), so the clients sharing a
/// session take the next seq and send under one lock.
struct SeqGate {
  std::mutex mu;
  std::uint64_t next = 0;
};

struct Phase {
  std::vector<ClientLog> logs;
  Clock::time_point start;
  double wall_s = 0.0;
};

/// Acknowledged requests per second: the median over the phase's whole
/// one-second windows, so a stall of a second or two moves it little.
double median_rate(const Phase& ph) {
  std::vector<double> per_window(
      static_cast<std::size_t>(std::max(1.0, std::floor(ph.wall_s))), 0.0);
  for (const ClientLog& log : ph.logs)
    for (const Request& r : log.requests) {
      if (!r.ok) continue;
      const auto w = static_cast<std::size_t>(
          ms_between(ph.start, r.start) * 1e-3 + r.ms * 1e-3);
      if (w < per_window.size()) per_window[w] += 1.0;
    }
  return median(per_window);
}

Phase run_clients(const std::string& socket,
                  const std::vector<SessionInput>& sessions, std::uint64_t seed,
                  double seconds, Trace* trace, SeqGate* gates,
                  std::uint64_t stream) {
  constexpr int kClients = 3;
  Phase ph;
  ph.logs.resize(kClients);
  const Clock::time_point t0 = ph.start = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = ph.logs[static_cast<std::size_t>(c)];
      const int si = c < 2 ? 0 : 1;
      const SessionInput& s = sessions[static_cast<std::size_t>(si)];
      const std::vector<geo::Point>& nominal = s.placement.centers();
      std::optional<Client> client;
      std::uint64_t draw = 0;
      const auto unit = [&] {
        return stats::rng::to_unit(stats::rng::draw(
            seed, stream, static_cast<std::uint64_t>(c), draw++));
      };
      const auto call = [&](char kind, const JsonValue& req) {
        Request r;
        r.kind = kind;
        r.session = si;
        if (trace) r.body = req.dump();
        r.start = Clock::now();
        JsonValue resp;
        try {
          if (!client) client.emplace(Client::connect_unix(socket));
          resp = client->call_raw(req);
          r.ok = ok(resp);
        } catch (const std::exception&) {
          client.reset();  // reconnect on the next request
        }
        const Clock::time_point end = Clock::now();
        r.ms = r.ok ? ms_between(r.start, end)
                    : std::numeric_limits<double>::infinity();
        if (trace)
          trace->record(kind == 'e'   ? "client.eco"
                        : kind == 'r' ? "client.region"
                                      : "client.query",
                        0, r.start, end);
        log.requests.push_back(std::move(r));
        if (log.requests.back().ok)
          ++log.acked[si][kind == 'e' ? 0 : kind == 'r' ? 1 : 2];
        return log.requests.back().ok;
      };
      while (Clock::now() < deadline) {
        // Clients sharing session A move disjoint (even / odd) ids.
        std::uint32_t id = static_cast<std::uint32_t>(
            unit() * static_cast<double>(nominal.size()));
        id = std::min<std::uint32_t>(id, static_cast<std::uint32_t>(
                                             nominal.size() - 1));
        if (si == 0) id = (id & ~1u) | static_cast<std::uint32_t>(c);
        if (id >= nominal.size()) id -= 2;
        const geo::Point to{nominal[id].x + kMoveUm * (2.0 * unit() - 1.0),
                            nominal[id].y + kMoveUm * (2.0 * unit() - 1.0)};
        {
          SeqGate& gate = gates[si];
          std::lock_guard<std::mutex> lk(gate.mu);
          JsonValue op = JsonValue::object();
          op.set("op", JsonValue("move"));
          op.set("id", JsonValue(id));
          op.set("x", JsonValue(to.x));
          op.set("y", JsonValue(to.y));
          JsonValue ops = JsonValue::array();
          ops.items().push_back(std::move(op));
          JsonValue req = Client::request("eco", s.name);
          req.set("ops", std::move(ops));
          req.set("seq", JsonValue(++gate.next));
          if (call('e', req)) log.moved[id] = to;
        }
        JsonValue region = Client::request("region", s.name);
        region.set("x0", JsonValue(to.x - kRegionUm / 2));
        region.set("y0", JsonValue(to.y - kRegionUm / 2));
        region.set("x1", JsonValue(to.x + kRegionUm / 2));
        region.set("y1", JsonValue(to.y + kRegionUm / 2));
        call('r', region);
        for (std::size_t q = 0; q < kQueriesPerCycle; ++q) {
          std::vector<geo::Point> pts(kPointsPerQuery);
          for (geo::Point& p : pts)
            p = {s.box.lo.x + unit() * s.box.width(),
                 s.box.lo.y + unit() * s.box.height()};
          JsonValue req = Client::request("query", s.name);
          req.set("points", point_list(pts));
          call('q', req);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ph.wall_s = seconds_since(t0);
  return ph;
}

/// Latencies of the phase's requests of `kind` ('*' = all), optionally of
/// one session only.
std::vector<double> latencies(const Phase& ph, char kind, int session = -1) {
  std::vector<double> out;
  for (const ClientLog& log : ph.logs)
    for (const Request& r : log.requests)
      if ((kind == '*' || r.kind == kind) &&
          (session < 0 || r.session == session))
        out.push_back(r.ms);
  return out;
}

const JsonValue* session_row(const JsonValue& stats, const std::string& name) {
  for (const JsonValue& row : stats.at("sessions").as_array())
    if (row.at("name").as_string() == name) return &row;
  return nullptr;
}

}  // namespace

Result run_service(const Config& cfg, Trace* trace) {
  const std::size_t tsvs = cfg.quick ? 500 : 2000;
  std::vector<std::string> paths = {
      write_design(cfg.workdir, "A", tsvs, sub_seed(cfg.seed, 2)),
      write_design(cfg.workdir, "B", tsvs, sub_seed(cfg.seed, 3))};
  const std::string socket = cfg.workdir + "/d.sock";
  Result res;

  // Setup: daemon start to both sessions open (opened concurrently, one
  // connection each, as independent users would), several times.
  std::vector<SessionInput> sessions;
  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  std::string snaps;
  for (int b = 0; b < (cfg.trace ? 1 : 3); ++b) {
    daemon.reset();
    snaps = cfg.workdir + "/snaps" + std::to_string(b);
    std::filesystem::create_directories(snaps);
    Span setup(trace, "setup");
    const Clock::time_point t0 = Clock::now();
    {
      Span s(trace, "server.daemon_start", setup.id());
      daemon = std::make_unique<Daemon>(cfg.server_bin, socket, snaps);
    }
    {
      Span s(trace, "tsv.placement_read", setup.id());
      sessions.clear();
      for (std::size_t i = 0; i < paths.size(); ++i) {
        SessionInput in;
        in.name = i == 0 ? "A" : "B";
        std::ifstream f(paths[i]);
        in.text.assign(std::istreambuf_iterator<char>(f), {});
        std::istringstream text(in.text);
        in.placement = tsvlib::read_placement(text);
        in.box = in.placement.bounding_box().expanded(kMargin);
        sessions.push_back(std::move(in));
      }
    }
    Span s(trace, "server.open", setup.id());
    std::atomic<bool> opened{true};
    std::vector<std::thread> openers;
    for (const SessionInput& in : sessions)
      openers.emplace_back([&socket, &opened, &in] {
        try {
          Client c = Client::connect_unix(socket);
          if (!ok(c.call_raw(open_request(in)))) opened = false;
        } catch (const std::exception&) {
          opened = false;
        }
      });
    for (std::thread& t : openers) t.join();
    if (!opened) throw std::runtime_error("session open failed");
    setups.push_back(seconds_since(t0));
  }

  // Measured phase (the traced run adds a second, traced phase).
  SeqGate gates[2];
  std::vector<Phase> phases;
  phases.push_back(run_clients(socket, sessions, cfg.seed, cfg.seconds,
                               nullptr, gates, 0));
  if (trace)
    phases.push_back(run_clients(socket, sessions, cfg.seed, cfg.seconds,
                                 trace, gates, 1));
  const Phase& phase = phases.front();
  std::vector<double> all_ms = latencies(phase, '*');
  std::uint64_t failed = 0;
  for (const double ms : all_ms)
    if (!std::isfinite(ms)) ++failed;

  // Counters must match what the clients saw acknowledged.
  Client admin = Client::connect_unix(socket);
  const JsonValue stats = admin.call(Client::request("stats"));
  for (int si = 0; si < 2; ++si) {
    std::size_t acked[3] = {0, 0, 0};
    for (const Phase& ph : phases)
      for (const ClientLog& log : ph.logs)
        for (int k = 0; k < 3; ++k) acked[k] += log.acked[si][k];
    const JsonValue* row = session_row(stats, sessions[si].name);
    if (row == nullptr) {
      res.fail("stats lost session " + sessions[si].name);
      continue;
    }
    const JsonValue& ctr = row->at("counters");
    const auto count = [&](const char* key) {
      return static_cast<std::size_t>(ctr.at(key).as_number());
    };
    std::printf("session %s counters: edits %zu, journaled %zu, duplicates "
                "%zu, regions %zu, queries %zu\n",
                sessions[si].name.c_str(), count("edits"), count("journaled"),
                count("duplicates"), count("regions"), count("queries"));
    if (count("edits") != acked[0] || count("journaled") != acked[0] ||
        count("regions") != acked[1] || count("queries") != acked[2] ||
        count("duplicates") != 0)
      res.fail("session " + sessions[si].name +
               " counters disagree with the acknowledged requests");
  }
  if (stats.at("wire").at("frame_errors").as_number() != 0.0)
    res.fail("daemon saw frame errors");

  // Restart: shutdown -> daemon gone -> new daemon on the same snapshots ->
  // every session answered.
  const Clock::time_point r0 = Clock::now();
  admin.call(Client::request("shutdown"));
  const double daemon_rss_mb = daemon->wait();
  const double shutdown_s = seconds_since(r0);
  const Clock::time_point r1 = Clock::now();
  daemon.reset();
  daemon = std::make_unique<Daemon>(cfg.server_bin, socket, snaps);
  Client after = Client::connect_unix(socket);
  for (const SessionInput& s : sessions) {
    JsonValue q = Client::request("query", s.name);
    q.set("points", point_list({s.placement.centers().front()}));
    if (!ok(after.call_raw(q))) res.fail("restarted daemon lost " + s.name);
  }
  const double restart_s = seconds_since(r0);
  const double first_query_s = seconds_since(r1);

  const std::vector<double> eco = latencies(phase, 'e');
  const std::vector<double> region = latencies(phase, 'r');
  const std::vector<double> query = latencies(phase, 'q');
  res.attempted = all_ms.size();
  res.failed = failed;
  res.end_to_end = {
      {"setup_s", median(setups), "s"},
      {"ops_per_s", median_rate(phase), "1/s"},
      {"op_p50_ms", median(all_ms), "ms"},
      {"peak_rss_mb", daemon_rss_mb, "MB"},
  };
  std::printf("sessions: 2 x %zu TSVs at %.3g um; phase %.2f s, %zu requests "
              "(%zu failed)\n",
              tsvs, kSpacing, phase.wall_s, all_ms.size(),
              static_cast<std::size_t>(failed));
  std::printf("eco p50 %.4g ms, %s; query p50 %.4g ms, %s; region %s\n",
              median(eco), describe_tail(eco).c_str(), median(query),
              describe_tail(query).c_str(), describe_tail(region).c_str());
  std::printf("restart_s %.3f (server.shutdown_s %.3f, server.first_query_s "
              "%.3f)\n",
              restart_s, shutdown_s, first_query_s);

  // Correctness gate: served values against the exact series on the
  // placement the clients tracked.
  const Characterization ch = characterize(sessions[0].placement.structure());
  double max_err = 0.0;
  std::uint64_t draw = 0;
  for (int si = 0; si < 2; ++si) {
    // Clients 0 and 1 drive session A, client 2 session B; the phases run
    // one after the other, so a later phase's move wins.
    std::vector<geo::Point> centers = sessions[si].placement.centers();
    for (const Phase& ph : phases)
      for (std::size_t c = 0; c < ph.logs.size(); ++c)
        if ((c < 2) == (si == 0))
          for (const auto& [id, at] : ph.logs[c].moved) centers[id] = at;
    std::vector<geo::Point> pts(kGateProbes);
    const geo::Box& box = sessions[si].box;
    for (geo::Point& p : pts)
      p = {box.lo.x + stats::rng::to_unit(
                          stats::rng::draw(cfg.seed, 9, si, draw++)) *
                          box.width(),
           box.lo.y + stats::rng::to_unit(
                          stats::rng::draw(cfg.seed, 9, si, draw++)) *
                          box.height()};
    JsonValue q = Client::request("query", sessions[si].name);
    q.set("points", point_list(pts));
    const JsonValue resp = after.call(q);
    std::vector<geo::Point> snapped;
    for (std::size_t i = 0; i < pts.size(); ++i)
      snapped.push_back({resp.at("x").as_array()[i].as_number(),
                         resp.at("y").as_array()[i].as_number()});
    const core::StressFramework exact(
        tsvlib::Placement(sessions[si].placement.structure(), centers),
        ch.table, ch.model, framework_options(cfg.threads));
    const std::vector<num::SymTensor2> ex = exact.evaluate(snapped).stress;
    ErrorGauge gauge;
    for (std::size_t i = 0; i < ex.size(); ++i)
      gauge.add_scalar(resp.at("value").as_array()[i].as_number(),
                       core::extract(core::StressMeasure::kVonMises, ex[i]));
    max_err = std::max(max_err, gauge.frac());
  }
  const JsonValue restarted = after.call(Client::request("stats"));
  for (const SessionInput& s : sessions) {
    const JsonValue* row = session_row(restarted, s.name);
    if (row == nullptr ||
        row->at("counters").at("reloads").as_number() != 1.0)
      res.fail("session " + s.name + " was not reloaded exactly once");
  }
  std::printf("max_err_frac %.3g over 2 x %zu probes vs the exact series; "
              "failed_frac %.3g\n",
              max_err, kGateProbes,
              ratio(static_cast<double>(failed),
                    static_cast<double>(all_ms.size())));
  if (!(max_err <= Result::kMaxErrFrac))
    res.fail("served values deviate from the exact series");
  after.call(Client::request("shutdown"));
  daemon->wait();
  daemon.reset();
  if (!trace) return res;

  // ---- traced run: per-layer attribution ----
  const Phase& traced = phases.back();
  std::printf("server.query_p999_ms.shared %.4g, .private %.4g\n",
              quantile(latencies(traced, 'q', 0), 0.999),
              quantile(latencies(traced, 'q', 1), 0.999));

  // The daemon's open is one request; its layers are timed by doing the
  // same work per session through the public calls. Session A's engine is
  // kept for the eco-path and snapshot timings below.
  std::optional<core::IncrementalEngine> engine_a;
  for (const SessionInput& s : sessions) {
    Characterization sc;
    {
      Span sp(trace, "analytic.characterize");
      sc = characterize(s.placement.structure());
    }
    {
      Span sp(trace, "analytic.surrogate_fit");
      fit_surrogate(sc);
    }
    Span sp(trace, "core.engine_build");
    core::IncrementalEngine built(
        s.placement, geo::SampleGrid::with_spacing(s.box, kSpacing), sc.table,
        sc.model, core::IncrementalOptions{});
    if (!engine_a) engine_a.emplace(std::move(built));
  }
  core::IncrementalEngine& ea = *engine_a;
  const geo::SampleGrid grid_a = ea.grid();
  const auto census = [&](std::size_t threads) {
    Span sp(trace, "census.t" + std::to_string(threads));
    return core::StressFramework(sessions[0].placement, ea.shared_table(),
                                 ea.model(), framework_options(threads))
        .evaluate(grid_a);
  };
  const core::StressResult c1 = census(1);
  const core::StressResult cn = census(cfg.threads);

  // Replay the traced request stream in-process, in send order, through
  // JsonValue::parse -> StressServer::handle -> dump, with no socket.
  server::ServerOptions sopt;
  sopt.unix_path = cfg.workdir + "/r.sock";
  sopt.snapshot_dir = cfg.workdir + "/replay";
  std::filesystem::create_directories(sopt.snapshot_dir);
  server::StressServer local(sopt);
  for (const SessionInput& s : sessions) {
    Span sp(trace, "server.open_inproc");
    if (!ok(local.handle(open_request(s))))
      throw std::runtime_error("in-process open failed");
  }
  std::vector<const Request*> stream;
  for (const ClientLog& log : traced.logs)
    for (const Request& r : log.requests)
      if (r.ok) stream.push_back(&r);
  std::sort(stream.begin(), stream.end(),
            [](const Request* a, const Request* b) {
              return a->start < b->start;
            });
  const std::size_t replayed = std::min<std::size_t>(stream.size(), 6000);
  std::map<char, std::vector<double>> parse_us, handle_ms, dump_us, residual;
  std::vector<double> inproc_ms, outside_ms;
  for (std::size_t i = 0; i < replayed; ++i) {
    const Request& r = *stream[i];
    const Clock::time_point t0 = Clock::now();
    const JsonValue req = JsonValue::parse(r.body);
    const Clock::time_point t1 = Clock::now();
    const JsonValue resp = local.handle(req);
    const Clock::time_point t2 = Clock::now();
    const std::string text = resp.dump();
    const Clock::time_point t3 = Clock::now();
    if (!ok(resp)) res.fail("replayed request failed: " + text.substr(0, 200));
    parse_us[r.kind].push_back(1e3 * ms_between(t0, t1));
    handle_ms[r.kind].push_back(ms_between(t1, t2));
    dump_us[r.kind].push_back(1e3 * ms_between(t2, t3));
    const double outside = r.ms - ms_between(t0, t3);
    residual[r.kind].push_back(outside);
    inproc_ms.push_back(ms_between(t1, t2));
    outside_ms.push_back(outside);
  }
  for (const char k : {'e', 'r', 'q'}) {
    const char* name = k == 'e' ? "eco" : k == 'r' ? "region" : "query";
    std::printf("server.handle_ms.%s p50 %.4g p99 %.4g; "
                "server.json_parse_us.%s p50 %.4g; server.json_dump_us.%s "
                "p50 %.4g; wire.residual_ms.%s p50 %.4g (n=%zu)\n",
                name, quantile(handle_ms[k], 0.5), quantile(handle_ms[k], 0.99),
                name, quantile(parse_us[k], 0.5), name,
                quantile(dump_us[k], 0.5), name, quantile(residual[k], 0.5),
                handle_ms[k].size());
  }

  // The eco path's layers: engine apply, journal append with fsync, and the
  // snapshot save/load a restart pays.
  const std::shared_ptr<const ana::PairSurrogate> sur = ea.model()->surrogate();
  sur->reset_use_stats();
  std::vector<double> apply_ms;
  std::size_t pairs = 0;
  io::EcoJournal journal(cfg.workdir + "/bench.jrnl");
  std::vector<double> journal_ms;
  std::uint64_t seq = 0;
  for (const Request* r : stream) {
    if (r->kind != 'e' || r->session != 0) continue;
    const JsonValue req = JsonValue::parse(r->body);
    const JsonValue& op = req.at("ops").as_array()[0];
    const core::Delta delta = {core::EcoOp::move(
        static_cast<std::uint32_t>(op.at("id").as_number()),
        {op.at("x").as_number(), op.at("y").as_number()})};
    const Clock::time_point t0 = Clock::now();
    const core::ApplyStats st = ea.apply(delta);
    const Clock::time_point t1 = Clock::now();
    io::JournalEco rec;
    rec.sequence = ++seq;
    rec.delta = delta;
    journal.append(io::JournalRecord::make_eco(std::move(rec)));
    const Clock::time_point t2 = Clock::now();
    apply_ms.push_back(ms_between(t0, t1));
    journal_ms.push_back(ms_between(t1, t2));
    pairs += st.added_pairs + st.removed_pairs;
    if (apply_ms.size() >= 500) break;
  }
  const ana::SurrogateUseStats use = sur->use_stats();
  const std::string snap = cfg.workdir + "/bench.snap";
  double save_s = 0.0;
  double load_s = 0.0;
  {
    const Clock::time_point t0 = Clock::now();
    io::save_engine_state(snap, ea);
    save_s = seconds_since(t0);
    const Clock::time_point t1 = Clock::now();
    const core::IncrementalEngine loaded = io::load_engine_state(snap);
    load_s = seconds_since(t1);
  }
  std::printf("core.apply_ms p50 %.4g p99 %.4g; io.journal_append_ms p50 "
              "%.4g p99 %.4g; io.snapshot_save_s %.3f; io.snapshot_load_s "
              "%.3f; server.open_s %.3f\n",
              quantile(apply_ms, 0.5), quantile(apply_ms, 0.99),
              quantile(journal_ms, 0.5), quantile(journal_ms, 0.99), save_s,
              load_s, trace->total_seconds("server.open"));

  const double n = static_cast<double>(cfg.threads);
  const double ops_untraced = static_cast<double>(all_ms.size()) / phase.wall_s;
  double traced_ops = 0.0;
  for (const ClientLog& log : traced.logs)
    traced_ops += static_cast<double>(log.requests.size());
  res.per_layer = {
      {"tsv.placement_read_s", trace->total_seconds("tsv.placement_read"), "s"},
      {"analytic.characterize_s", trace->total_seconds("analytic.characterize"),
       "s"},
      {"analytic.surrogate_fit_s",
       trace->total_seconds("analytic.surrogate_fit"), "s"},
      {"core.build_s", trace->total_seconds("core.engine_build"), "s"},
      {"core.stage1_s", c1.stage1_seconds, "s"},
      {"core.stage2_s", c1.stage2_seconds, "s"},
      {"core.stage2_ar", ratio(c1.stage2_seconds, c1.stage1_seconds), "ratio"},
      {"core.pairs_evaluated", static_cast<double>(pairs), "count"},
      {"analytic.surrogate_pairs", static_cast<double>(use.surrogate_pairs),
       "count"},
      {"analytic.fallback_pairs", static_cast<double>(use.fallback_pairs),
       "count"},
      {"numeric.scaling_eff_stage1",
       ratio(c1.stage1_seconds, n * cn.stage1_seconds), "fraction"},
      {"numeric.scaling_eff_stage2",
       ratio(c1.stage2_seconds, n * cn.stage2_seconds), "fraction"},
      {"op.inproc_ms_p50", median(inproc_ms), "ms"},
      {"op.outside_ms_p50", median(outside_ms), "ms"},
      {"trace.overhead_frac",
       ratio(ops_untraced, traced_ops / traced.wall_s) - 1.0, "fraction"},
  };
  return res;
}

}  // namespace bench_e2e
