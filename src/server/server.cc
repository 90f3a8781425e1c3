#include "server/server.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <sstream>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/error.h"
#include "core/koz.h"
#include "core/metrics.h"
#include "server/protocol.h"
#include "tsv/placement_io.h"

namespace tsv::server {
namespace {

core::StressMeasure parse_measure(const std::string& name) {
  if (name == "sigma_xx") return core::StressMeasure::kSigmaXX;
  if (name == "sigma_yy") return core::StressMeasure::kSigmaYY;
  if (name == "sigma_xy") return core::StressMeasure::kSigmaXY;
  if (name == "von_mises") return core::StressMeasure::kVonMises;
  if (name == "max_tensile") return core::StressMeasure::kMaxTensile;
  throw InvalidInputError("unknown measure: " + name);
}

geo::Point parse_point(const JsonValue& v) {
  const JsonValue::Array& xy = v.as_array();
  if (xy.size() != 2)
    throw InvalidInputError("a point must be a [x, y] pair");
  return {xy[0].as_number(), xy[1].as_number()};
}

/// The wire error object for a failure outside the taxonomy (code 1, like
/// the CLI's uncategorized exit).
JsonValue make_unknown_error(const std::string& message) {
  JsonValue err = JsonValue::object();
  err.set("category", JsonValue("unknown"));
  err.set("code", JsonValue(1));
  err.set("message", JsonValue(message));
  JsonValue v = JsonValue::object();
  v.set("ok", JsonValue(false));
  v.set("error", std::move(err));
  return v;
}

JsonValue counters_json(const SessionCounters& c) {
  JsonValue v = JsonValue::object();
  v.set("queries", JsonValue(c.queries));
  v.set("points", JsonValue(c.points));
  v.set("regions", JsonValue(c.regions));
  v.set("koz_queries", JsonValue(c.koz_queries));
  v.set("edits", JsonValue(c.edits));
  v.set("eco_ops", JsonValue(c.eco_ops));
  v.set("evictions", JsonValue(c.evictions));
  v.set("reloads", JsonValue(c.reloads));
  v.set("journaled", JsonValue(c.journaled));
  v.set("duplicates", JsonValue(c.duplicates));
  v.set("replays", JsonValue(c.replays));
  v.set("journal_fallbacks", JsonValue(c.journal_fallbacks));
  return v;
}

}  // namespace

StressServer::StressServer(ServerOptions options)
    : options_(std::move(options)),
      sessions_(options_.snapshot_dir, options_.limits) {
  if (!options_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path))
      throw InvalidInputError("unix socket path too long: " +
                              options_.unix_path);
    std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0)
      throw InvalidInputError("cannot create unix socket");
    ::unlink(options_.unix_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw InvalidInputError("cannot bind unix socket at " +
                              options_.unix_path + ": " +
                              std::strerror(errno));
    }
    endpoint_ = "unix:" + options_.unix_path;
  } else {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
    if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1)
      throw InvalidInputError("cannot parse bind host: " + options_.host);
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0)
      throw InvalidInputError("cannot create TCP socket");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw InvalidInputError("cannot bind " + options_.host + ":" +
                              std::to_string(options_.port) + ": " +
                              std::strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = static_cast<int>(ntohs(bound.sin_port));
    endpoint_ = options_.host + ":" + std::to_string(port_);
  }
}

StressServer::~StressServer() {
  stop();
  std::map<std::uint64_t, Connection> remaining;
  {
    std::lock_guard<std::mutex> lk(threads_mu_);
    // Wake reads blocked in connection threads so they observe stop_.
    for (auto& [id, conn] : connections_) ::shutdown(conn.fd, SHUT_RDWR);
    remaining.swap(connections_);
    finished_.clear();
  }
  for (auto& [id, conn] : remaining)
    if (conn.thread.joinable()) conn.thread.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
}

void StressServer::stop() { stop_.store(true); }

void StressServer::reap_finished_locked() {
  for (const std::uint64_t id : finished_) {
    const auto it = connections_.find(id);
    if (it == connections_.end()) continue;  // already claimed by shutdown
    if (it->second.thread.joinable()) it->second.thread.join();
    connections_.erase(it);
  }
  finished_.clear();
}

std::size_t StressServer::connection_threads() {
  std::lock_guard<std::mutex> lk(threads_mu_);
  reap_finished_locked();
  return connections_.size();
}

WireStats StressServer::wire_stats() const {
  WireStats w;
  w.connections = connections_total_.load(std::memory_order_relaxed);
  w.idle_disconnects = idle_disconnects_.load(std::memory_order_relaxed);
  w.deadline_disconnects =
      deadline_disconnects_.load(std::memory_order_relaxed);
  w.frame_errors = frame_errors_.load(std::memory_order_relaxed);
  return w;
}

void StressServer::run() {
  while (!stop_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int n = ::poll(&pfd, 1, /*timeout_ms=*/100);
    {
      // Reap every tick, not just on accepts, so a burst of short-lived
      // connections doesn't linger as dead threads through a quiet spell.
      std::lock_guard<std::mutex> lk(threads_mu_);
      reap_finished_locked();
    }
    if (n <= 0) continue;  // timeout or EINTR: re-check the stop flag
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    connections_total_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(threads_mu_);
    const std::uint64_t id = ++next_conn_id_;
    Connection conn;
    conn.fd = fd;
    conn.thread = std::thread([this, fd, id] { serve_connection(fd, id); });
    connections_.emplace(id, std::move(conn));
  }
  std::map<std::uint64_t, Connection> remaining;
  {
    std::lock_guard<std::mutex> lk(threads_mu_);
    for (auto& [id, conn] : connections_) ::shutdown(conn.fd, SHUT_RDWR);
    remaining.swap(connections_);
    finished_.clear();
  }
  for (auto& [id, conn] : remaining)
    if (conn.thread.joinable()) conn.thread.join();
  // Durable shutdown: every resident session lands in the snapshot
  // directory, where the next daemon's crash-recovery scan finds it.
  sessions_.evict_all();
}

void StressServer::serve_connection(int fd, std::uint64_t id) {
  // Kernel-level backstops behind the poll-based deadlines: SO_RCVTIMEO
  // caps any single blocking read, SO_SNDTIMEO bounds response writes to a
  // peer that stopped reading (write_all maps the resulting EAGAIN to a
  // ResourceLimitError).
  const auto set_timeout = [fd](int opt, int ms) {
    if (ms <= 0) return;
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
    ::setsockopt(fd, SOL_SOCKET, opt, &tv, sizeof(tv));
  };
  set_timeout(SO_RCVTIMEO, std::max(options_.io_timeout_ms,
                                    options_.op_deadline_ms));
  set_timeout(SO_SNDTIMEO, options_.op_deadline_ms);

  try {
    while (!stop_.load()) {
      std::string frame;
      FrameRead fr;
      try {
        fr = read_frame_bounded(fd, options_.io_timeout_ms,
                                options_.op_deadline_ms, &frame);
      } catch (const ResourceLimitError& e) {
        // Slow-loris: the frame started but never finished. Typed error,
        // then disconnect — best effort, the peer may be beyond caring.
        deadline_disconnects_.fetch_add(1, std::memory_order_relaxed);
        try {
          write_frame(fd, make_error(ErrorCategory::kResourceLimit,
                                     e.what()).dump());
        } catch (...) {
        }
        break;
      } catch (const IoCorruptionError& e) {
        // Oversized prefix or truncation mid-frame: the stream is
        // unframeable from here on, so answer typed and disconnect.
        frame_errors_.fetch_add(1, std::memory_order_relaxed);
        try {
          write_frame(fd, make_error(ErrorCategory::kIoCorruption,
                                     e.what()).dump());
        } catch (...) {
        }
        break;
      }
      if (fr == FrameRead::kEof) break;  // peer closed cleanly
      if (fr == FrameRead::kIdleTimeout) {
        idle_disconnects_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      std::string op;
      JsonValue response = JsonValue::object();
      try {
        const JsonValue request = JsonValue::parse(frame);
        op = request.string_or("op", "");
        response = handle(request);
      } catch (const Error& e) {
        response = make_error(e.category(), e.what());
      } catch (const std::exception& e) {
        response = make_unknown_error(e.what());
      }
      try {
        write_frame(fd, response.dump());
      } catch (const ResourceLimitError&) {
        deadline_disconnects_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      if (op == "shutdown" && response.bool_or("ok", false)) {
        stop();
        break;
      }
    }
  } catch (const std::exception&) {
    // Wire error (peer vanished mid-frame): drop the connection.
  }
  ::close(fd);
  std::lock_guard<std::mutex> lk(threads_mu_);
  finished_.push_back(id);
}

JsonValue StressServer::handle(const JsonValue& request) {
  try {
    const std::string op = request.at("op").as_string();

    if (op == "ping") {
      JsonValue resp = make_ok();
      resp.set("service", JsonValue("tsvstress"));
      resp.set("protocol", JsonValue(1));
      return resp;
    }

    if (op == "open") {
      const std::string name = request.at("session").as_string();
      std::istringstream in(request.at("placement").as_string());
      const tsvlib::Placement placement = tsvlib::read_placement(in);
      SessionSpec spec;
      spec.spacing = request.number_or("spacing", spec.spacing);
      spec.margin = request.number_or("margin", spec.margin);
      // The lookup-table Stage II path is gone; refuse its knobs instead
      // of serving the session on another path without saying so.
      for (const char* removed : {"lookup", "quant"})
        if (request.find(removed) != nullptr)
          throw InvalidInputError(std::string("open: '") + removed +
                                  "' is no longer supported (Stage II uses "
                                  "the certified surrogate or the exact "
                                  "series)");
      spec.surrogate = request.bool_or("surrogate", spec.surrogate);
      spec.journal_fsync =
          request.bool_or("journal_fsync", spec.journal_fsync);
      sessions_.open(name, placement, spec);
      SessionManager::Guard guard = sessions_.use(name);
      JsonValue resp = make_ok();
      resp.set("session", JsonValue(name));
      resp.set("tsvs", JsonValue(guard.engine().active_count()));
      resp.set("grid_nx", JsonValue(guard.engine().grid().nx()));
      resp.set("grid_ny", JsonValue(guard.engine().grid().ny()));
      return resp;
    }

    if (op == "stats") {
      const ManagerStats stats = sessions_.stats();
      JsonValue resp = make_ok();
      resp.set("resident_sessions", JsonValue(stats.resident_sessions));
      resp.set("evicted_sessions", JsonValue(stats.evicted_sessions));
      resp.set("resident_bytes", JsonValue(stats.resident_bytes));
      resp.set("session_budget_bytes", JsonValue(stats.session_budget_bytes));
      resp.set("global_budget_bytes", JsonValue(stats.global_budget_bytes));
      resp.set("admission_refusals", JsonValue(stats.admission_refusals));
      resp.set("evictions", JsonValue(stats.evictions));
      resp.set("reloads", JsonValue(stats.reloads));
      resp.set("journal_replays", JsonValue(stats.journal_replays));
      resp.set("journal_torn_tails", JsonValue(stats.journal_torn_tails));
      resp.set("journal_fallbacks", JsonValue(stats.journal_fallbacks));
      resp.set("durability_failures", JsonValue(stats.durability_failures));
      const WireStats w = wire_stats();
      JsonValue wire = JsonValue::object();
      wire.set("connections", JsonValue(w.connections));
      wire.set("idle_disconnects", JsonValue(w.idle_disconnects));
      wire.set("deadline_disconnects", JsonValue(w.deadline_disconnects));
      wire.set("frame_errors", JsonValue(w.frame_errors));
      resp.set("wire", std::move(wire));
      JsonValue sessions = JsonValue::array();
      for (const SessionStats& s : stats.sessions) {
        JsonValue row = JsonValue::object();
        row.set("name", JsonValue(s.name));
        row.set("resident", JsonValue(s.resident));
        row.set("tsvs", JsonValue(s.tsvs));
        row.set("grid_points", JsonValue(s.grid_points));
        row.set("estimated_bytes", JsonValue(s.estimated_bytes));
        row.set("has_surrogate", JsonValue(s.has_surrogate));
        row.set("counters", counters_json(s.counters));
        sessions.items().push_back(std::move(row));
      }
      resp.set("sessions", std::move(sessions));
      return resp;
    }

    if (op == "evict") {
      sessions_.evict(request.at("session").as_string());
      return make_ok();
    }

    if (op == "close") {
      sessions_.close(request.at("session").as_string(),
                      request.bool_or("discard", false));
      return make_ok();
    }

    if (op == "shutdown") {
      sessions_.evict_all();
      return make_ok();
    }

    // Everything below evaluates against a resident session.
    SessionManager::Guard guard = sessions_.use(request.at("session").as_string());
    core::IncrementalEngine& engine = guard.engine();
    const geo::SampleGrid& grid = engine.grid();
    const std::vector<num::SymTensor2>& s1 = engine.stage1_field();
    const std::vector<num::SymTensor2>& s2 = engine.stage2_field();

    if (op == "query") {
      const core::StressMeasure measure =
          parse_measure(request.string_or("measure", "von_mises"));
      const JsonValue::Array& pts = request.at("points").as_array();
      JsonValue xs = JsonValue::array();
      JsonValue ys = JsonValue::array();
      JsonValue values = JsonValue::array();
      for (const JsonValue& pv : pts) {
        // Snap to the nearest grid point: the response carries the exact
        // bits a full-grid evaluation produced there (no interpolation).
        const std::size_t i = grid.nearest_index(parse_point(pv));
        const geo::Point snapped = grid.point(i);
        xs.items().push_back(JsonValue(snapped.x));
        ys.items().push_back(JsonValue(snapped.y));
        values.items().push_back(
            JsonValue(core::extract(measure, s1[i] + s2[i])));
      }
      guard.count_query(pts.size());
      JsonValue resp = make_ok();
      resp.set("x", std::move(xs));
      resp.set("y", std::move(ys));
      resp.set("value", std::move(values));
      return resp;
    }

    if (op == "region") {
      const core::StressMeasure measure =
          parse_measure(request.string_or("measure", "von_mises"));
      const geo::Box& box = grid.box();
      // Index window of grid points inside the requested box (default: all).
      const auto lo_idx = [](double v, double origin, double d) {
        if (d <= 0.0) return std::size_t{0};
        const double f = std::ceil((v - origin) / d - 1e-9);
        return f <= 0.0 ? std::size_t{0} : static_cast<std::size_t>(f);
      };
      const auto hi_idx = [](double v, double origin, double d,
                             std::size_t n) {
        if (d <= 0.0) return n - 1;
        const double f = std::floor((v - origin) / d + 1e-9);
        if (f < 0.0) return std::size_t{0};
        return std::min(static_cast<std::size_t>(f), n - 1);
      };
      const std::size_t ix0 = lo_idx(request.number_or("x0", box.lo.x),
                                     box.lo.x, grid.dx());
      const std::size_t iy0 = lo_idx(request.number_or("y0", box.lo.y),
                                     box.lo.y, grid.dy());
      const std::size_t ix1 = hi_idx(request.number_or("x1", box.hi.x),
                                     box.lo.x, grid.dx(), grid.nx());
      const std::size_t iy1 = hi_idx(request.number_or("y1", box.hi.y),
                                     box.lo.y, grid.dy(), grid.ny());
      if (ix0 >= grid.nx() || ix1 < ix0 || iy0 >= grid.ny() || iy1 < iy0)
        throw InvalidInputError("region: window contains no grid points");
      JsonValue values = JsonValue::array();
      for (std::size_t iy = iy0; iy <= iy1; ++iy)
        for (std::size_t ix = ix0; ix <= ix1; ++ix) {
          const std::size_t i = iy * grid.nx() + ix;
          values.items().push_back(
              JsonValue(core::extract(measure, s1[i] + s2[i])));
        }
      guard.count_region();
      JsonValue resp = make_ok();
      resp.set("nx", JsonValue(ix1 - ix0 + 1));
      resp.set("ny", JsonValue(iy1 - iy0 + 1));
      resp.set("x0", JsonValue(grid.point(ix0, iy0).x));
      resp.set("y0", JsonValue(grid.point(ix0, iy0).y));
      resp.set("dx", JsonValue(grid.dx()));
      resp.set("dy", JsonValue(grid.dy()));
      resp.set("value", std::move(values));
      return resp;
    }

    if (op == "koz") {
      const core::StressMeasure measure =
          parse_measure(request.string_or("measure", "von_mises"));
      const double limit = request.number_or("limit", 100.0);
      const auto rays =
          static_cast<std::size_t>(request.number_or("rays", 64.0));
      const double radial_step = request.number_or("radial_step", 0.1);
      const double max_radius = request.number_or("max_radius", 25.0);
      const double r0 = engine.structure().outer_radius();
      if (rays < 8 || radial_step <= 0.0 || max_radius <= r0)
        throw InvalidInputError(
            "koz: need rays >= 8, radial_step > 0, max_radius beyond the "
            "TSV outer radius");

      // One pass over the resident field, then ray marching on the scalar
      // metric through the shared bilinear interpolant (the variation
      // engine's KOZ path uses the same scheme on exceedance maps).
      std::vector<double> metric(grid.size());
      for (std::size_t i = 0; i < grid.size(); ++i)
        metric[i] = std::abs(core::extract(measure, s1[i] + s2[i]));

      std::vector<core::KozContour> contours;
      const double dtheta = 2.0 * std::numbers::pi /
                            static_cast<double>(rays);
      for (const std::uint32_t id : engine.active_ids()) {
        const geo::Point& c = engine.center(id);
        core::KozContour contour;
        contour.tsv_index = id;
        contour.radius.resize(rays, r0);
        const double attribution_cap = max_radius / 2.0;
        for (std::size_t k = 0; k < rays; ++k) {
          const double th = dtheta * static_cast<double>(k);
          const geo::Point dir{std::cos(th), std::sin(th)};
          double last_violation = r0;
          for (double r = r0; r <= attribution_cap; r += radial_step) {
            const geo::Point p = c + r * dir;
            if (geo::bilinear(grid, metric, p) > limit) last_violation = r;
          }
          contour.radius[k] = last_violation;
        }
        contour.max_radius = *std::max_element(contour.radius.begin(),
                                               contour.radius.end());
        contour.min_radius = *std::min_element(contour.radius.begin(),
                                               contour.radius.end());
        double area = 0.0;
        for (std::size_t k = 0; k < rays; ++k)
          area += 0.5 * contour.radius[k] * contour.radius[(k + 1) % rays] *
                  std::sin(dtheta);
        contour.area = area;
        contours.push_back(std::move(contour));
      }
      const core::KozReport report = core::summarize_koz(contours);
      guard.count_koz();

      JsonValue rows = JsonValue::array();
      for (const core::KozContour& contour : contours) {
        JsonValue row = JsonValue::object();
        row.set("id", JsonValue(contour.tsv_index));
        row.set("max_radius", JsonValue(contour.max_radius));
        row.set("min_radius", JsonValue(contour.min_radius));
        row.set("area", JsonValue(contour.area));
        JsonValue radii = JsonValue::array();
        for (const double r : contour.radius)
          radii.items().push_back(JsonValue(r));
        row.set("radius", std::move(radii));
        rows.items().push_back(std::move(row));
      }
      JsonValue resp = make_ok();
      resp.set("contours", std::move(rows));
      resp.set("mean_radius", JsonValue(report.mean_radius));
      resp.set("worst_radius", JsonValue(report.worst_radius));
      resp.set("worst_tsv", JsonValue(report.worst_tsv));
      resp.set("total_area", JsonValue(report.total_area));
      resp.set("worst_asymmetry", JsonValue(report.worst_asymmetry));
      return resp;
    }

    if (op == "eco") {
      const JsonValue::Array& ops = request.at("ops").as_array();
      core::Delta delta;
      delta.reserve(ops.size());
      for (const JsonValue& ov : ops) {
        const std::string kind = ov.at("op").as_string();
        if (kind == "add") {
          delta.push_back(core::EcoOp::add(
              {ov.at("x").as_number(), ov.at("y").as_number()}));
        } else if (kind == "move") {
          delta.push_back(core::EcoOp::move(
              static_cast<std::uint32_t>(ov.at("id").as_number()),
              {ov.at("x").as_number(), ov.at("y").as_number()}));
        } else if (kind == "remove") {
          delta.push_back(core::EcoOp::remove(
              static_cast<std::uint32_t>(ov.at("id").as_number())));
        } else {
          throw InvalidInputError("eco: unknown op kind '" + kind + "'");
        }
      }
      // The idempotency token: a retry resends the same "seq" and gets a
      // duplicate ack instead of a double apply (0/absent opts out). The
      // wire value is a double, so a negative or fractional seq would be
      // UB / silently lossy in the unsigned cast — reject it typed, and
      // cap at 2^53 where doubles stop holding integers exactly.
      const double seq_raw = request.number_or("seq", 0.0);
      if (!(seq_raw >= 0.0) || seq_raw != std::floor(seq_raw) ||
          seq_raw > 9007199254740992.0)
        throw InvalidInputError(
            "eco: \"seq\" must be a non-negative integer <= 2^53");
      const std::uint64_t seq = static_cast<std::uint64_t>(seq_raw);
      const SessionManager::EcoResult result = guard.apply_eco(delta, seq);
      // Adds allocate slot ids sequentially in op order. A duplicate ack
      // repeats them when they are reconstructible (retry of the newest
      // batch); "added_ids_known" tells the client which case it got.
      JsonValue added = JsonValue::array();
      if (result.ids_known) {
        std::size_t next_id = result.pre_slots;
        for (const core::EcoOp& o : delta)
          if (o.kind == core::EcoOp::Kind::kAdd)
            added.items().push_back(JsonValue(next_id++));
      }
      JsonValue resp = make_ok();
      resp.set("ops", JsonValue(result.stats.ops));
      resp.set("dirty_points", JsonValue(result.stats.dirty_points));
      resp.set("stage1_point_updates",
               JsonValue(result.stats.stage1_point_updates));
      resp.set("stage2_point_updates",
               JsonValue(result.stats.stage2_point_updates));
      resp.set("removed_pairs", JsonValue(result.stats.removed_pairs));
      resp.set("added_pairs", JsonValue(result.stats.added_pairs));
      resp.set("tsvs", JsonValue(engine.active_count()));
      resp.set("added_ids", std::move(added));
      resp.set("added_ids_known", JsonValue(result.ids_known));
      resp.set("seq", JsonValue(seq));
      resp.set("duplicate", JsonValue(result.duplicate));
      return resp;
    }

    throw InvalidInputError("unknown op: " + op);
  } catch (const Error& e) {
    return make_error(e.category(), e.what());
  } catch (const std::invalid_argument& e) {
    // TSV_REQUIRE-style contract violations (bad edit, bad argument).
    return make_error(ErrorCategory::kInvalidInput, e.what());
  } catch (const std::exception& e) {
    return make_unknown_error(e.what());
  }
}

}  // namespace tsv::server
