// The stress service: JSON layer exactness, wire framing, session manager
// control plane (admission, eviction, recovery), and the daemon's core
// contract — responses on a resident session are bitwise identical to an
// in-process engine evaluated with the same knobs.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>

#include "analytic/interaction.h"
#include "analytic/single_tsv.h"
#include "core/error.h"
#include "core/metrics.h"
#include "core/stress_table.h"
#include "io/snapshot.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/session_manager.h"
#include "tsv/placement_io.h"

namespace {

using namespace tsv;

constexpr const char* kPlacementText =
    "structure 2.5 0.1 BCB\n"
    "tsv 0 0\n"
    "tsv 10 0\n"
    "tsv 5 8\n";

tsvlib::Placement test_placement() {
  std::istringstream in(kPlacementText);
  return tsvlib::read_placement(in);
}

server::SessionSpec test_spec() {
  server::SessionSpec spec;
  spec.spacing = 1.0;
  spec.margin = 5.0;
  return spec;
}

/// The engine the daemon builds for test_spec(), constructed in-process —
/// the bitwise reference for wire responses.
core::IncrementalEngine reference_engine(const tsvlib::Placement& placement,
                                         const server::SessionSpec& spec) {
  const mat::ThermalLoad load{};
  const ana::SingleTsvModel single(placement.structure(), load);
  const auto table = std::make_shared<const core::RadialStressTable>(
      core::RadialStressTable::from_analytic(single, 30.0, 4096));
  const auto model = std::make_shared<const ana::InteractiveStressModel>(
      std::make_shared<const ana::InclusionResponse>(placement.structure()),
      single.k_hat());
  core::IncrementalOptions opt;
  opt.num_threads = 1;
  const geo::Box roi = placement.bounding_box().expanded(spec.margin);
  const geo::SampleGrid grid = geo::SampleGrid::with_spacing(roi, spec.spacing);
  return core::IncrementalEngine(placement, grid, table, model, opt);
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/tsv_server_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// --- JSON ------------------------------------------------------------------

TEST(ServerJson, DoubleRoundTripIsBitwiseExact) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t bits = rng();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    if (!std::isfinite(v)) continue;
    const server::JsonValue parsed =
        server::JsonValue::parse(server::JsonValue(v).dump());
    const double back = parsed.as_number();
    EXPECT_EQ(std::memcmp(&v, &back, sizeof(v)), 0) << v;
  }
}

TEST(ServerJson, ParsesNestedDocuments) {
  const server::JsonValue v = server::JsonValue::parse(
      R"({"a": [1, 2.5, -3e2], "b": {"c": "x\ny"}, "d": true, "e": null})");
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_EQ(v.at("a").as_array()[2].as_number(), -300.0);
  EXPECT_EQ(v.at("b").at("c").as_string(), "x\ny");
  EXPECT_TRUE(v.at("d").as_bool());
  EXPECT_TRUE(v.at("e").is_null());
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), InvalidInputError);
}

TEST(ServerJson, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "1.2.3", "\"unterminated",
        "{\"a\":1} trailing", "\"bad \\q escape\"", "\"\\ud800\"", "nan"}) {
    EXPECT_THROW(server::JsonValue::parse(bad), InvalidInputError) << bad;
  }
  EXPECT_THROW(
      server::JsonValue(std::numeric_limits<double>::infinity()).dump(),
      InvalidInputError);
}

TEST(ServerJson, ObjectsSerializeInInsertionOrder) {
  server::JsonValue v = server::JsonValue::object();
  v.set("z", server::JsonValue(1));
  v.set("a", server::JsonValue("two"));
  EXPECT_EQ(v.dump(), R"({"z":1,"a":"two"})");
}

// --- Framing ---------------------------------------------------------------

TEST(ServerProtocol, FramesRoundTripOverSocketpair) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string body = R"({"op":"ping","blob":"xyzzy"})";
  server::write_frame(fds[0], body);
  server::write_frame(fds[0], "");
  EXPECT_EQ(server::read_frame(fds[1]).value(), body);
  EXPECT_EQ(server::read_frame(fds[1]).value(), "");
  ::close(fds[0]);
  // Clean EOF at a frame boundary reads as "no more requests"...
  EXPECT_FALSE(server::read_frame(fds[1]).has_value());
  ::close(fds[1]);

  // ...but EOF mid-frame is corruption.
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const char truncated[] = {64, 0, 0, 0, 'x'};  // promises 64 bytes, sends 1
  ASSERT_EQ(::write(fds[0], truncated, sizeof(truncated)),
            static_cast<ssize_t>(sizeof(truncated)));
  ::close(fds[0]);
  EXPECT_THROW(server::read_frame(fds[1]), IoCorruptionError);
  ::close(fds[1]);
}

TEST(ServerProtocol, ExpectOkMapsWireCategoriesToExceptions) {
  EXPECT_THROW(server::expect_ok(server::make_error(
                   ErrorCategory::kInvalidInput, "x")),
               InvalidInputError);
  EXPECT_THROW(server::expect_ok(server::make_error(
                   ErrorCategory::kNumericFailure, "x")),
               NumericFailureError);
  EXPECT_THROW(server::expect_ok(server::make_error(
                   ErrorCategory::kIoCorruption, "x")),
               IoCorruptionError);
  EXPECT_THROW(server::expect_ok(server::make_error(
                   ErrorCategory::kResourceLimit, "x")),
               ResourceLimitError);
  EXPECT_TRUE(server::expect_ok(server::make_ok()).at("ok").as_bool());
}

// --- SessionManager --------------------------------------------------------

TEST(SessionManager, RefusesOversizedSessionWithResourceLimit) {
  server::SessionLimits limits;
  limits.session_budget_bytes = 1024;  // nothing real fits
  server::SessionManager manager(fresh_dir("tiny_budget"), limits);
  EXPECT_THROW(manager.open("big", test_placement(), test_spec()),
               ResourceLimitError);
  EXPECT_THROW(manager.use("big"), InvalidInputError);  // not registered
  EXPECT_EQ(manager.stats().admission_refusals, 1u);
}

TEST(SessionManager, RejectsBadNamesAndDuplicates) {
  server::SessionManager manager(fresh_dir("names"), {});
  EXPECT_THROW(manager.open("../escape", test_placement(), test_spec()),
               InvalidInputError);
  EXPECT_THROW(manager.open("", test_placement(), test_spec()),
               InvalidInputError);
  manager.open("ok-name.v1", test_placement(), test_spec());
  EXPECT_THROW(manager.open("ok-name.v1", test_placement(), test_spec()),
               InvalidInputError);
}

TEST(SessionManager, EvictionReloadsBitwiseIdenticalFields) {
  const std::string dir = fresh_dir("evict_reload");
  server::SessionManager manager(dir, {});
  manager.open("a", test_placement(), test_spec());

  std::vector<num::SymTensor2> before;
  {
    server::SessionManager::Guard g = manager.use("a");
    g.engine().apply({core::EcoOp::move(1, {11.0, 0.5})});
    before = g.engine().total_field();
  }
  manager.evict("a");
  EXPECT_TRUE(std::filesystem::exists(dir + "/a.snap"));
  {
    const server::ManagerStats st = manager.stats();
    EXPECT_EQ(st.resident_sessions, 0u);
    EXPECT_EQ(st.evicted_sessions, 1u);
    EXPECT_EQ(st.evictions, 1u);
  }

  server::SessionManager::Guard g = manager.use("a");  // transparent reload
  const std::vector<num::SymTensor2> after = g.engine().total_field();
  ASSERT_EQ(before.size(), after.size());
  EXPECT_EQ(std::memcmp(before.data(), after.data(),
                        before.size() * sizeof(num::SymTensor2)),
            0);
  EXPECT_EQ(manager.stats().reloads, 1u);
}

TEST(SessionManager, GlobalBudgetEvictsLruSessionToAdmitNew) {
  const std::string dir = fresh_dir("lru");
  server::SessionManager probe_mgr(fresh_dir("lru_probe"), {});
  probe_mgr.open("probe", test_placement(), test_spec());
  const std::uint64_t one_session =
      probe_mgr.stats().sessions.at(0).estimated_bytes;

  server::SessionLimits limits;
  limits.global_budget_bytes = one_session + one_session / 2;
  server::SessionManager manager(dir, limits);
  manager.open("first", test_placement(), test_spec());
  manager.open("second", test_placement(), test_spec());  // evicts "first"

  const server::ManagerStats st = manager.stats();
  EXPECT_EQ(st.resident_sessions, 1u);
  EXPECT_EQ(st.evicted_sessions, 1u);
  EXPECT_TRUE(std::filesystem::exists(dir + "/first.snap"));
  // Both still answer queries; "first" transparently reloads (and "second"
  // gets evicted in its turn to make room).
  EXPECT_EQ(manager.use("first").engine().active_count(), 3u);
  EXPECT_EQ(manager.use("second").engine().active_count(), 3u);
  EXPECT_GE(manager.stats().reloads, 1u);
}

TEST(SessionManager, RecoversSessionsFromSnapshotDirectory) {
  const std::string dir = fresh_dir("recovery");
  std::vector<num::SymTensor2> before;
  {
    server::SessionManager manager(dir, {});
    manager.open("survivor", test_placement(), test_spec());
    before = manager.use("survivor").engine().total_field();
    manager.evict_all();
  }  // daemon "crashes"

  server::SessionManager reborn(dir, {});
  ASSERT_EQ(reborn.recovered().size(), 1u);
  EXPECT_EQ(reborn.recovered().at(0), "survivor");
  server::SessionManager::Guard g = reborn.use("survivor");
  const std::vector<num::SymTensor2> after = g.engine().total_field();
  ASSERT_EQ(before.size(), after.size());
  EXPECT_EQ(std::memcmp(before.data(), after.data(),
                        before.size() * sizeof(num::SymTensor2)),
            0);
}

TEST(SessionManager, CorruptSnapshotSurfacesIoCorruptionOnReload) {
  const std::string dir = fresh_dir("corrupt");
  server::SessionManager manager(dir, {});
  manager.open("fragile", test_placement(), test_spec());
  manager.evict("fragile");

  // Flip one payload byte; the snapshot checksum must catch it on reload.
  const std::string path = dir + "/fragile.snap";
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(256);
  char byte = 0;
  f.seekg(256);
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  f.seekp(256);
  f.write(&byte, 1);
  f.close();
  EXPECT_THROW(manager.use("fragile"), IoCorruptionError);

  // A corrupt file is also skipped (not trusted) by the recovery scan.
  server::SessionManager reborn(dir, {});
  EXPECT_TRUE(reborn.recovered().empty());
}

/// Overwrites the u32 format version that follows an 8-byte magic.
void stamp_version(const std::string& path, std::uint32_t version) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(8);
  f.write(reinterpret_cast<const char*>(&version), sizeof(version));
}

TEST(SessionManager, DaemonSkipsOldFormatFilesLoudlyAndServesTheRest) {
  // A snapshot directory left behind by an older build: a v3 engine
  // snapshot and a v1 journal (no snapshot) next to a current session.
  const std::string dir = fresh_dir("old_formats");
  {
    server::SessionManager manager(dir, {});
    manager.open("current", test_placement(), test_spec());
    manager.open("old", test_placement(), test_spec());
    manager.open("legacy", test_placement(), test_spec());
    manager.evict("current");
    manager.evict("old");
  }  // "legacy" never reached a snapshot: only its journal is on disk
  ASSERT_FALSE(std::filesystem::exists(dir + "/legacy.snap"));
  stamp_version(dir + "/old.snap", 3);
  stamp_version(dir + "/legacy.jrnl", 1);
  EXPECT_THROW(io::read_snapshot_info(dir + "/old.snap"), IoCorruptionError);

  server::ServerOptions options;
  options.unix_path = dir + "/daemon.sock";
  options.snapshot_dir = dir;
  ::testing::internal::CaptureStderr();
  server::StressServer daemon(options);
  const std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(log.find("skipping " + dir + "/old.snap"), std::string::npos)
      << log;
  EXPECT_NE(log.find("skipping " + dir + "/legacy.jrnl (unreadable journal: "
                     "unsupported journal version 1)"),
            std::string::npos)
      << log;
  ASSERT_EQ(daemon.sessions().recovered().size(), 1u);
  EXPECT_EQ(daemon.sessions().recovered().at(0), "current");

  server::JsonValue q = server::Client::request("query", "current");
  q.set("points", server::JsonValue::parse("[[5,4]]"));
  EXPECT_EQ(server::expect_ok(daemon.handle(q)).at("value").as_array().size(),
            1u);
  for (const char* name : {"old", "legacy"}) {
    server::JsonValue gone = server::Client::request("query", name);
    gone.set("points", server::JsonValue::parse("[[5,4]]"));
    const server::JsonValue raw = daemon.handle(gone);
    EXPECT_FALSE(raw.at("ok").as_bool()) << name;
    EXPECT_EQ(raw.at("error").at("code").as_number(), 2.0) << name;
  }
}

TEST(SessionManager, CloseDiscardRemovesSessionAndSnapshot) {
  const std::string dir = fresh_dir("close");
  server::SessionManager manager(dir, {});
  manager.open("gone", test_placement(), test_spec());
  manager.evict("gone");
  manager.close("gone", /*discard=*/true);
  EXPECT_FALSE(std::filesystem::exists(dir + "/gone.snap"));
  EXPECT_THROW(manager.use("gone"), InvalidInputError);
}

// --- Daemon end to end -----------------------------------------------------

class ServerEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest runs the fixture's tests in parallel.
    dir_ = fresh_dir(std::string("daemon_") +
                     ::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name());
    server::ServerOptions options;
    options.unix_path = dir_ + "/daemon.sock";
    options.snapshot_dir = dir_ + "/snaps";
    daemon_ = std::make_unique<server::StressServer>(options);
    thread_ = std::thread([this] { daemon_->run(); });
  }

  void TearDown() override {
    daemon_->stop();
    thread_.join();
    daemon_.reset();
  }

  server::Client connect() {
    return server::Client::connect_unix(dir_ + "/daemon.sock");
  }

  std::string dir_;
  std::unique_ptr<server::StressServer> daemon_;
  std::thread thread_;
};

TEST_F(ServerEndToEnd, WireResponsesAreBitwiseIdenticalToInProcessEngine) {
  server::Client client = connect();
  EXPECT_EQ(client.call(server::Client::request("ping"))
                .at("service")
                .as_string(),
            "tsvstress");

  server::JsonValue open = server::Client::request("open", "chip");
  open.set("placement", server::JsonValue(kPlacementText));
  open.set("spacing", server::JsonValue(test_spec().spacing));
  open.set("margin", server::JsonValue(test_spec().margin));
  client.call(open);

  core::IncrementalEngine reference =
      reference_engine(test_placement(), test_spec());

  // Edit both through the same batch, then compare bits through the wire.
  server::JsonValue eco = server::Client::request("eco", "chip");
  server::JsonValue ops = server::JsonValue::parse(
      R"([{"op":"add","x":12,"y":10},{"op":"move","id":1,"x":11,"y":0.5}])");
  eco.set("ops", ops);
  const server::JsonValue eco_resp = client.call(eco);
  EXPECT_EQ(eco_resp.at("added_ids").as_array().at(0).as_number(), 3.0);
  reference.apply({core::EcoOp::add({12.0, 10.0}),
                   core::EcoOp::move(1, {11.0, 0.5})});

  const std::vector<num::SymTensor2> total = reference.total_field();
  const geo::SampleGrid& grid = reference.grid();

  server::JsonValue query = server::Client::request("query", "chip");
  server::JsonValue points = server::JsonValue::parse(
      R"([[0,0],[5.2,4.1],[12,10],[-100,-100]])");
  query.set("points", points);
  const server::JsonValue qresp = client.call(query);
  const auto& values = qresp.at("value").as_array();
  const auto& xs = qresp.at("x").as_array();
  const auto& ys = qresp.at("y").as_array();
  ASSERT_EQ(values.size(), 4u);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::size_t idx =
        grid.nearest_index({xs[i].as_number(), ys[i].as_number()});
    const double expected =
        core::extract(core::StressMeasure::kVonMises, total[idx]);
    const double got = values[i].as_number();
    EXPECT_EQ(std::memcmp(&expected, &got, sizeof(double)), 0)
        << "point " << i << ": " << expected << " vs " << got;
  }

  // Full-grid region window: every point, still bitwise.
  const server::JsonValue rresp =
      client.call(server::Client::request("region", "chip"));
  const auto& rvalues = rresp.at("value").as_array();
  ASSERT_EQ(rvalues.size(), grid.size());
  for (std::size_t i = 0; i < rvalues.size(); ++i) {
    const double expected =
        core::extract(core::StressMeasure::kVonMises, total[i]);
    const double got = rvalues[i].as_number();
    ASSERT_EQ(std::memcmp(&expected, &got, sizeof(double)), 0) << i;
  }
}

TEST_F(ServerEndToEnd, WireErrorsCarryTaxonomyCodes) {
  server::Client client = connect();
  // Unknown session: invalid-input, wire code 2.
  server::JsonValue bad = server::Client::request("query", "ghost");
  bad.set("points", server::JsonValue::parse("[[0,0]]"));
  const server::JsonValue raw = client.call_raw(bad);
  EXPECT_FALSE(raw.at("ok").as_bool());
  EXPECT_EQ(raw.at("error").at("code").as_number(), 2.0);
  EXPECT_EQ(raw.at("error").at("category").as_string(), "invalid-input");
  EXPECT_THROW(client.call(bad), InvalidInputError);

  // Malformed JSON still yields a framed invalid-input response.
  EXPECT_THROW(client.call(server::JsonValue::parse(R"({"op":"nope"})")),
               InvalidInputError);

  // An illegal edit (overlap) reports invalid-input and leaves the session
  // serving.
  server::JsonValue open = server::Client::request("open", "chip");
  open.set("placement", server::JsonValue(kPlacementText));
  open.set("spacing", server::JsonValue(1.0));
  open.set("margin", server::JsonValue(5.0));
  client.call(open);
  server::JsonValue eco = server::Client::request("eco", "chip");
  eco.set("ops", server::JsonValue::parse(
                     R"([{"op":"move","id":1,"x":0.5,"y":0}])"));
  EXPECT_THROW(client.call(eco), InvalidInputError);
  server::JsonValue q = server::Client::request("query", "chip");
  q.set("points", server::JsonValue::parse("[[0,0]]"));
  EXPECT_EQ(client.call(q).at("value").as_array().size(), 1u);
}

TEST_F(ServerEndToEnd, KozAndStatsEndpointsServeResidentSessions) {
  server::Client client = connect();
  server::JsonValue open = server::Client::request("open", "chip");
  open.set("placement", server::JsonValue(kPlacementText));
  open.set("spacing", server::JsonValue(1.0));
  open.set("margin", server::JsonValue(5.0));
  client.call(open);

  server::JsonValue koz = server::Client::request("koz", "chip");
  koz.set("limit", server::JsonValue(60.0));
  koz.set("rays", server::JsonValue(16));
  const server::JsonValue kresp = client.call(koz);
  ASSERT_EQ(kresp.at("contours").as_array().size(), 3u);
  const auto& contour = kresp.at("contours").as_array().at(0);
  EXPECT_EQ(contour.at("radius").as_array().size(), 16u);
  EXPECT_GE(contour.at("max_radius").as_number(),
            contour.at("min_radius").as_number());
  EXPECT_GT(kresp.at("total_area").as_number(), 0.0);

  const server::JsonValue stats =
      client.call(server::Client::request("stats"));
  EXPECT_EQ(stats.at("resident_sessions").as_number(), 1.0);
  const auto& session = stats.at("sessions").as_array().at(0);
  EXPECT_EQ(session.at("name").as_string(), "chip");
  EXPECT_EQ(session.at("counters").at("koz_queries").as_number(), 1.0);
  EXPECT_GT(session.at("estimated_bytes").as_number(), 0.0);
}

TEST_F(ServerEndToEnd, ShutdownPersistsSessionsForRecovery) {
  {
    server::Client client = connect();
    server::JsonValue open = server::Client::request("open", "durable");
    open.set("placement", server::JsonValue(kPlacementText));
    open.set("spacing", server::JsonValue(1.0));
    open.set("margin", server::JsonValue(5.0));
    client.call(open);
    client.call(server::Client::request("shutdown"));
  }
  thread_.join();  // run() returns after shutdown drains
  thread_ = std::thread([] {});  // keep TearDown's join happy
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/snaps/durable.snap"));

  server::ServerOptions options;
  options.unix_path = dir_ + "/daemon2.sock";
  options.snapshot_dir = dir_ + "/snaps";
  server::StressServer reborn(options);
  ASSERT_EQ(reborn.sessions().recovered().size(), 1u);
  EXPECT_EQ(reborn.sessions().recovered().at(0), "durable");
  // handle() drives the same dispatch the socket path uses.
  server::JsonValue q = server::Client::request("query", "durable");
  q.set("points", server::JsonValue::parse("[[5,4]]"));
  const server::JsonValue resp = server::expect_ok(reborn.handle(q));
  EXPECT_EQ(resp.at("value").as_array().size(), 1u);
}

TEST_F(ServerEndToEnd, OpenWithRemovedLookupKnobsIsInvalidInput) {
  // The lookup-table Stage II path is gone: an open that still asks for it
  // must fail with a typed invalid-input error, not be served silently on
  // another path.
  server::Client client = connect();
  for (const char* knob : {"lookup", "quant"}) {
    server::JsonValue open = server::Client::request("open", "legacy");
    open.set("placement", server::JsonValue(kPlacementText));
    open.set("spacing", server::JsonValue(1.0));
    if (std::string(knob) == "lookup")
      open.set("lookup", server::JsonValue(true));
    else
      open.set("quant", server::JsonValue(0.25));
    const server::JsonValue raw = client.call_raw(open);
    EXPECT_FALSE(raw.at("ok").as_bool()) << knob;
    EXPECT_EQ(raw.at("error").at("code").as_number(), 2.0) << knob;
    EXPECT_EQ(raw.at("error").at("category").as_string(), "invalid-input")
        << knob;
  }
  // Nothing was opened, and a plain open of the same name still works.
  server::JsonValue q = server::Client::request("query", "legacy");
  q.set("points", server::JsonValue::parse("[[0,0]]"));
  EXPECT_THROW(client.call(q), InvalidInputError);
  server::JsonValue open = server::Client::request("open", "legacy");
  open.set("placement", server::JsonValue(kPlacementText));
  open.set("spacing", server::JsonValue(1.0));
  client.call(open);
  EXPECT_EQ(client.call(q).at("value").as_array().size(), 1u);
}

TEST_F(ServerEndToEnd, EcoSequenceNumbersDedupeOverTheWire) {
  server::Client client = connect();
  server::JsonValue open = server::Client::request("open", "chip");
  open.set("placement", server::JsonValue(kPlacementText));
  open.set("spacing", server::JsonValue(1.0));
  open.set("margin", server::JsonValue(5.0));
  client.call(open);

  server::JsonValue eco = server::Client::request("eco", "chip");
  eco.set("ops", server::JsonValue::parse(R"([{"op":"add","x":12,"y":10}])"));
  eco.set("seq", server::JsonValue(1));
  const server::JsonValue first = client.call(eco);
  EXPECT_FALSE(first.at("duplicate").as_bool());
  EXPECT_EQ(first.at("seq").as_number(), 1.0);
  EXPECT_EQ(first.at("added_ids").as_array().size(), 1u);
  const double allocated_id = first.at("added_ids").as_array().at(0).as_number();

  // The retry after a "lost ack": same sequence, acked as a no-op — and
  // since it retries the newest batch, the original slot ids come back.
  const server::JsonValue again = client.call(eco);
  EXPECT_TRUE(again.at("duplicate").as_bool());
  EXPECT_TRUE(again.at("added_ids_known").as_bool());
  ASSERT_EQ(again.at("added_ids").as_array().size(), 1u);
  EXPECT_EQ(again.at("added_ids").as_array().at(0).as_number(), allocated_id);
  EXPECT_EQ(again.at("ops").as_number(), 0.0);  // nothing re-applied

  // Apply a newer batch, then retry seq 1 once more: still a no-op ack,
  // but the original ids are no longer reconstructible and the response
  // says so instead of guessing.
  server::JsonValue eco2 = server::Client::request("eco", "chip");
  eco2.set("ops", server::JsonValue::parse(R"([{"op":"add","x":0,"y":12}])"));
  eco2.set("seq", server::JsonValue(2));
  EXPECT_FALSE(client.call(eco2).at("duplicate").as_bool());
  const server::JsonValue stale = client.call(eco);
  EXPECT_TRUE(stale.at("duplicate").as_bool());
  EXPECT_FALSE(stale.at("added_ids_known").as_bool());
  EXPECT_EQ(stale.at("added_ids").as_array().size(), 0u);

  const server::JsonValue stats =
      client.call(server::Client::request("stats"));
  const auto& counters =
      stats.at("sessions").as_array().at(0).at("counters");
  EXPECT_EQ(counters.at("edits").as_number(), 2.0);
  EXPECT_EQ(counters.at("journaled").as_number(), 2.0);
  EXPECT_EQ(counters.at("duplicates").as_number(), 2.0);
}

TEST_F(ServerEndToEnd, EcoRejectsNegativeOrFractionalSequenceNumbers) {
  server::Client client = connect();
  server::JsonValue open = server::Client::request("open", "chip");
  open.set("placement", server::JsonValue(kPlacementText));
  open.set("spacing", server::JsonValue(1.0));
  open.set("margin", server::JsonValue(5.0));
  client.call(open);

  // A client-controlled double must never reach the unsigned cast: -1 is
  // UB in double->uint64_t, fractions silently truncate, and above 2^53
  // doubles cannot represent the token exactly. All are typed refusals
  // that leave the session untouched.
  for (const double bad : {-1.0, 1.5, 9007199254740994.0}) {
    server::JsonValue eco = server::Client::request("eco", "chip");
    eco.set("ops",
            server::JsonValue::parse(R"([{"op":"add","x":12,"y":10}])"));
    eco.set("seq", server::JsonValue(bad));
    EXPECT_THROW(client.call(eco), InvalidInputError) << bad;
  }
  const server::JsonValue stats =
      client.call(server::Client::request("stats"));
  const auto& counters =
      stats.at("sessions").as_array().at(0).at("counters");
  EXPECT_EQ(counters.at("edits").as_number(), 0.0);
}

// Wire numbers that become integers (an eco "id", koz "rays", the region
// window's grid indices) must be finite integers inside the target type:
// an out-of-range double-to-integer cast is undefined behaviour, and in
// practice id 4294967296 wrapped to 0 and removed TSV 0. Each case is a
// typed invalid-input refusal (wire code 2) that leaves the session as it
// was.
TEST_F(ServerEndToEnd, OutOfRangeWireIntegersAreInvalidInput) {
  server::Client client = connect();
  server::JsonValue open = server::Client::request("open", "chip");
  open.set("placement", server::JsonValue(kPlacementText));
  open.set("spacing", server::JsonValue(1.0));
  open.set("margin", server::JsonValue(5.0));
  client.call(open);
  server::JsonValue q = server::Client::request("query", "chip");
  q.set("points", server::JsonValue::parse("[[0,0],[1.5,0.5],[10,0]]"));
  const server::JsonValue before = client.call(q);

  const auto expect_code_2 = [&](const server::JsonValue& request,
                                 const std::string& label) {
    const server::JsonValue raw = client.call_raw(request);
    EXPECT_FALSE(raw.at("ok").as_bool()) << label;
    EXPECT_EQ(raw.at("error").at("code").as_number(), 2.0) << label;
  };
  for (const char* ops : {R"([{"op":"remove","id":4294967296}])",
                          R"([{"op":"remove","id":1.5}])",
                          R"([{"op":"move","id":-1,"x":20,"y":20}])"}) {
    server::JsonValue eco = server::Client::request("eco", "chip");
    eco.set("ops", server::JsonValue::parse(ops));
    expect_code_2(eco, ops);
  }
  server::JsonValue koz = server::Client::request("koz", "chip");
  koz.set("rays", server::JsonValue::parse("1e300"));
  expect_code_2(koz, "koz rays 1e300");
  server::JsonValue region = server::Client::request("region", "chip");
  region.set("x0", server::JsonValue::parse("1e300"));
  expect_code_2(region, "region x0 1e300");

  // TSV 0 survived, nothing was applied or journaled, and the field is
  // bitwise what it was.
  const server::JsonValue stats =
      client.call(server::Client::request("stats"));
  const auto& counters =
      stats.at("sessions").as_array().at(0).at("counters");
  EXPECT_EQ(counters.at("edits").as_number(), 0.0);
  EXPECT_EQ(counters.at("journaled").as_number(), 0.0);
  const server::JsonValue after = client.call(q);
  const auto& want = before.at("value").as_array();
  const auto& got = after.at("value").as_array();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double a = got[i].as_number();
    const double b = want[i].as_number();
    EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << i;
  }
  // A remove of TSV 0 by its real id still works: the session serves.
  server::JsonValue eco = server::Client::request("eco", "chip");
  eco.set("ops", server::JsonValue::parse(R"([{"op":"remove","id":0}])"));
  EXPECT_EQ(client.call(eco).at("ops").as_number(), 1.0);
}

// A koz request's work is rays x samples per ray x TSVs, all inside one
// request. Rays 1e12 used to die in the contour allocation with an unknown
// error, and radial_step 1e-300 never advanced the march past the TSV edge,
// so a worker spun forever. Both are now code-2 refusals, as is a ray count
// and a step that are each fine alone but together exceed the work budget,
// and the daemon keeps serving.
TEST_F(ServerEndToEnd, KozRequestsBeyondTheWorkBudgetAreInvalidInput) {
  server::Client client = connect();
  server::JsonValue open = server::Client::request("open", "chip");
  open.set("placement", server::JsonValue(kPlacementText));
  open.set("spacing", server::JsonValue(1.0));
  open.set("margin", server::JsonValue(5.0));
  client.call(open);

  const auto koz_with = [](const std::string& rays, const std::string& step) {
    server::JsonValue koz = server::Client::request("koz", "chip");
    if (!rays.empty()) koz.set("rays", server::JsonValue::parse(rays));
    if (!step.empty())
      koz.set("radial_step", server::JsonValue::parse(step));
    return koz;
  };
  // {rays, radial_step}; empty keeps the default (64 rays, 0.1 um).
  for (const auto& [rays, step] :
       {std::pair<std::string, std::string>{"1e12", ""},
        {"", "1e-300"},
        {"8192", "1e-3"}}) {
    const server::JsonValue raw = client.call_raw(koz_with(rays, step));
    const std::string label = "rays " + rays + " radial_step " + step;
    EXPECT_FALSE(raw.at("ok").as_bool()) << label;
    EXPECT_EQ(raw.at("error").at("code").as_number(), 2.0) << label;
  }
  server::JsonValue far = server::Client::request("koz", "chip");
  far.set("max_radius", server::JsonValue::parse("1e300"));
  EXPECT_EQ(client.call_raw(far).at("error").at("code").as_number(), 2.0);

  // Each factor of the refused pair is admitted alone, with the defaults.
  const server::JsonValue wide = client.call(koz_with("8192", ""));
  ASSERT_EQ(wide.at("contours").as_array().size(), 3u);
  EXPECT_EQ(
      wide.at("contours").as_array()[0].at("radius").as_array().size(),
      8192u);
  client.call(koz_with("", "1e-3"));
  const server::JsonValue stats =
      client.call(server::Client::request("stats"));
  EXPECT_EQ(stats.at("sessions").as_array().at(0).at("counters")
                .at("koz_queries").as_number(),
            2.0);
}

// --- Protocol robustness (fuzz-ish negative paths) -------------------------

int raw_connect(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

TEST_F(ServerEndToEnd, MalformedJsonFramesGetTypedErrorsAndConnectionLives) {
  const int fd = raw_connect(dir_ + "/daemon.sock");
  for (const char* bad : {"{not json", "", "[1,2,3]", "42", "{\"op\":7}"}) {
    server::write_frame(fd, bad);
    const std::optional<std::string> reply = server::read_frame(fd);
    ASSERT_TRUE(reply.has_value()) << bad;
    const server::JsonValue resp = server::JsonValue::parse(*reply);
    EXPECT_FALSE(resp.at("ok").as_bool()) << bad;
    EXPECT_EQ(resp.at("error").at("code").as_number(), 2.0) << bad;
  }
  // The connection survived every malformed frame.
  server::write_frame(fd, R"({"op":"ping"})");
  const server::JsonValue pong =
      server::JsonValue::parse(server::read_frame(fd).value());
  EXPECT_TRUE(pong.at("ok").as_bool());
  ::close(fd);
}

TEST_F(ServerEndToEnd, OversizedLengthPrefixGetsIoCorruptionThenClose) {
  const int fd = raw_connect(dir_ + "/daemon.sock");
  const std::uint32_t huge = 0xffffffffu;  // far past kMaxFrameBytes
  ASSERT_EQ(::send(fd, &huge, sizeof(huge), 0),
            static_cast<ssize_t>(sizeof(huge)));
  const std::optional<std::string> reply = server::read_frame(fd);
  ASSERT_TRUE(reply.has_value());
  const server::JsonValue resp = server::JsonValue::parse(*reply);
  EXPECT_FALSE(resp.at("ok").as_bool());
  EXPECT_EQ(resp.at("error").at("code").as_number(), 4.0);
  // The stream is unframeable: the server closes after answering.
  EXPECT_FALSE(server::read_frame(fd).has_value());
  ::close(fd);
  EXPECT_GE(daemon_->wire_stats().frame_errors, 1u);
}

TEST_F(ServerEndToEnd, MidFrameDisconnectNeverHangsTheServer) {
  const int fd = raw_connect(dir_ + "/daemon.sock");
  const char partial[] = {64, 0, 0, 0, 'x'};  // promises 64 bytes, sends 1
  ASSERT_EQ(::send(fd, partial, sizeof(partial), 0),
            static_cast<ssize_t>(sizeof(partial)));
  ::close(fd);  // vanish mid-frame

  // The daemon keeps serving new connections.
  server::Client client = connect();
  EXPECT_TRUE(
      client.call(server::Client::request("ping")).at("ok").as_bool());

  // And the dead connection's thread is reaped, not leaked: only the live
  // client (plus transient teardown) remains.
  for (int i = 0; i < 100 && daemon_->connection_threads() > 1; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_LE(daemon_->connection_threads(), 1u);
}

TEST_F(ServerEndToEnd, FinishedConnectionThreadsAreReaped) {
  for (int i = 0; i < 8; ++i) {
    server::Client client = connect();
    client.call(server::Client::request("ping"));
  }  // all eight clients disconnected
  for (int i = 0; i < 100 && daemon_->connection_threads() > 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(daemon_->connection_threads(), 0u);
  EXPECT_GE(daemon_->wire_stats().connections, 8u);
}

// --- Deadlines -------------------------------------------------------------

class DeadlineServer : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest runs the fixture's tests in parallel.
    dir_ = fresh_dir(std::string("deadline_daemon_") +
                     ::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name());
    server::ServerOptions options;
    options.unix_path = dir_ + "/daemon.sock";
    options.snapshot_dir = dir_ + "/snaps";
    std::filesystem::create_directories(options.snapshot_dir);
    options.io_timeout_ms = 200;
    options.op_deadline_ms = 200;
    daemon_ = std::make_unique<server::StressServer>(options);
    thread_ = std::thread([this] { daemon_->run(); });
  }

  void TearDown() override {
    daemon_->stop();
    thread_.join();
    daemon_.reset();
  }

  std::string dir_;
  std::unique_ptr<server::StressServer> daemon_;
  std::thread thread_;
};

TEST_F(DeadlineServer, SlowLorisGetsTypedResourceLimitErrorThenDisconnect) {
  const int fd = raw_connect(dir_ + "/daemon.sock");
  // Start a frame but never finish it: two bytes of the length prefix.
  ASSERT_EQ(::send(fd, "\x08\x00", 2, 0), 2);
  const std::optional<std::string> reply = server::read_frame(fd);
  ASSERT_TRUE(reply.has_value());
  const server::JsonValue resp = server::JsonValue::parse(*reply);
  EXPECT_FALSE(resp.at("ok").as_bool());
  EXPECT_EQ(resp.at("error").at("code").as_number(), 5.0);
  EXPECT_EQ(resp.at("error").at("category").as_string(), "resource-limit");
  EXPECT_FALSE(server::read_frame(fd).has_value());  // then disconnected
  ::close(fd);
  EXPECT_GE(daemon_->wire_stats().deadline_disconnects, 1u);

  // The timeout counters are on the wire too.
  server::Client client =
      server::Client::connect_unix(dir_ + "/daemon.sock");
  const server::JsonValue stats =
      client.call(server::Client::request("stats"));
  EXPECT_GE(stats.at("wire").at("deadline_disconnects").as_number(), 1.0);
}

TEST_F(DeadlineServer, IdleConnectionsAreClosedQuietly) {
  const int fd = raw_connect(dir_ + "/daemon.sock");
  // Send nothing: the idle timeout closes the connection without a frame.
  EXPECT_FALSE(server::read_frame(fd).has_value());
  ::close(fd);
  EXPECT_GE(daemon_->wire_stats().idle_disconnects, 1u);

  // An active client is unaffected by its neighbors idling out.
  server::Client client =
      server::Client::connect_unix(dir_ + "/daemon.sock");
  EXPECT_TRUE(
      client.call(server::Client::request("ping")).at("ok").as_bool());
}

TEST_F(ServerEndToEnd, ResourceLimitRefusalCrossesTheWireAsCode5) {
  // A second daemon with a hopeless per-session budget.
  const std::string dir = fresh_dir("budget_daemon");
  server::ServerOptions options;
  options.unix_path = dir + "/daemon.sock";
  options.snapshot_dir = dir + "/snaps";
  options.limits.session_budget_bytes = 1024;
  server::StressServer daemon(options);
  std::thread t([&] { daemon.run(); });
  {
    server::Client client = server::Client::connect_unix(dir + "/daemon.sock");
    server::JsonValue open = server::Client::request("open", "big");
    open.set("placement", server::JsonValue(kPlacementText));
    const server::JsonValue raw = client.call_raw(open);
    EXPECT_FALSE(raw.at("ok").as_bool());
    EXPECT_EQ(raw.at("error").at("code").as_number(), 5.0);
    EXPECT_EQ(raw.at("error").at("category").as_string(), "resource-limit");
    EXPECT_THROW(server::expect_ok(raw), ResourceLimitError);
  }
  daemon.stop();
  t.join();
}

}  // namespace
