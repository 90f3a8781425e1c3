// Chaos suite for the stress service's durability contract: a SIGKILL'd
// daemon restarts bitwise identical to one that never died. Crashes are
// real (fork + _exit inside the armed fault site), recovery is asserted
// bitwise against an uninterrupted in-process reference engine, and the
// client retry layer is driven through an actual daemon restart.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "analytic/interaction.h"
#include "analytic/single_tsv.h"
#include "core/error.h"
#include "core/incremental_engine.h"
#include "core/metrics.h"
#include "core/stress_table.h"
#include "numeric/fault_injection.h"
#include "server/client.h"
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

/// The engine the manager builds for test_spec(), constructed in-process —
/// the uninterrupted bitwise reference every recovery is compared against.
core::IncrementalEngine reference_engine() {
  const tsvlib::Placement placement = test_placement();
  const server::SessionSpec spec = test_spec();
  const mat::ThermalLoad load{};
  const ana::SingleTsvModel single(placement.structure(), load);
  const auto table = std::make_shared<const core::RadialStressTable>(
      core::RadialStressTable::from_analytic(single, 30.0, 4096));
  const auto model = std::make_shared<const ana::InteractiveStressModel>(
      std::make_shared<const ana::InclusionResponse>(placement.structure()),
      single.k_hat());
  core::IncrementalOptions opt;
  opt.num_threads = 1;
  opt.stage1.num_threads = 1;
  opt.stage2.num_threads = 1;
  const geo::Box roi = placement.bounding_box().expanded(spec.margin);
  const geo::SampleGrid grid = geo::SampleGrid::with_spacing(roi, spec.spacing);
  return core::IncrementalEngine(placement, grid, table, model, opt);
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/tsv_chaos_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void expect_bitwise_equal(const std::vector<num::SymTensor2>& got,
                          const std::vector<num::SymTensor2>& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        want.size() * sizeof(num::SymTensor2)),
            0);
}

const core::Delta kBatch1 = {core::EcoOp::add({12.0, 10.0}),
                             core::EcoOp::move(1, {11.0, 0.5})};
const core::Delta kBatch2 = {core::EcoOp::move(2, {5.5, 8.0})};

// The acceptance test: SIGKILL between the journal append and the ack, on
// a session that never reached its first snapshot. The child process dies
// inside apply_eco; the parent recovers the session from the journal alone
// and must see exactly the state an uninterrupted engine reaches —
// including the not-yet-acked batch, which *was* journaled and so must
// replay (at-least-once durability on the server side; the client's retry
// of that unacked batch then dedupes).
TEST(Chaos, KillAfterJournalReplaysBitwiseIdenticalAndDedupes) {
  const std::string dir = fresh_dir("kill_mid_eco");

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: open, apply one acked batch, then die mid-eco on the second.
    try {
      server::SessionManager manager(dir, {});
      manager.open("chip", test_placement(), test_spec());
      server::SessionManager::Guard guard = manager.use("chip");
      guard.apply_eco(kBatch1, 1);
      fault::arm(fault::Site::kEcoKillAfterJournal);
      guard.apply_eco(kBatch2, 2);  // _exit(137) after the journal append
    } catch (...) {
    }
    ::_exit(1);  // the fault site did not fire
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 137);
  EXPECT_FALSE(std::filesystem::exists(dir + "/chip.snap"));  // journal only

  core::IncrementalEngine reference = reference_engine();
  reference.apply(kBatch1);
  reference.apply(kBatch2);

  server::SessionManager reborn(dir, {});
  ASSERT_EQ(reborn.recovered().size(), 1u);
  EXPECT_EQ(reborn.recovered().at(0), "chip");
  {
    server::SessionManager::Guard guard = reborn.use("chip");
    expect_bitwise_equal(guard.engine().total_field(),
                         reference.total_field());

    // The client never saw batch 2's ack and retries it: a no-op ack, and
    // the field does not move.
    const server::SessionManager::EcoResult retry =
        guard.apply_eco(kBatch2, 2);
    EXPECT_TRUE(retry.duplicate);
    expect_bitwise_equal(guard.engine().total_field(),
                         reference.total_field());
  }
  EXPECT_EQ(reborn.stats().journal_replays, 2u);
}

// Reopening a closed session's name must not let the predecessor's
// snapshot shadow the new session: close(discard=false) leaves
// <name>.snap behind, and recovery treats any on-disk snapshot as newer
// than an anchorless journal. If open() left the stale file, a SIGKILL
// before the reopened session's first snapshot would silently resurrect
// the OLD session's state — dropping the new placement and every acked
// batch. open() removes the stale snapshot when it resets the journal to
// the open record, making the open record the unambiguous durability root.
TEST(Chaos, ReopenAfterCloseKillRecoversNewSessionNotStaleSnapshot) {
  const std::string dir = fresh_dir("reopen_stale_snap");

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    try {
      server::SessionManager manager(dir, {});
      manager.open("chip", test_placement(), test_spec());
      manager.use("chip").apply_eco(kBatch1, 1);
      manager.close("chip", /*discard=*/false);  // leaves chip.snap on disk
      // Same name, fresh session, different edit history than the old one.
      manager.open("chip", test_placement(), test_spec());
      server::SessionManager::Guard guard = manager.use("chip");
      guard.apply_eco(kBatch2, 1);
      fault::arm(fault::Site::kEcoKillAfterJournal);
      guard.apply_eco(kBatch1, 2);  // _exit(137) after the journal append
    } catch (...) {
    }
    ::_exit(1);  // the fault site did not fire
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 137);
  // The reopen purged the predecessor's snapshot; only the journal (open
  // record + both batches) carries the reopened session.
  EXPECT_FALSE(std::filesystem::exists(dir + "/chip.snap"));

  core::IncrementalEngine reference = reference_engine();
  reference.apply(kBatch2);
  reference.apply(kBatch1);

  server::SessionManager reborn(dir, {});
  ASSERT_EQ(reborn.recovered().size(), 1u);
  server::SessionManager::Guard guard = reborn.use("chip");
  expect_bitwise_equal(guard.engine().total_field(), reference.total_field());
  EXPECT_TRUE(guard.apply_eco(kBatch1, 2).duplicate);  // watermark survived
}

// Total durability failure (journal append AND snapshot fallback both
// fail): the eco errors out with the watermark advanced so a retry cannot
// double-apply — but the retry must not be no-op acked while the batch is
// only in memory. It re-attempts the snapshot and only then acks.
TEST(Chaos, RetryAfterTotalDurabilityFailureMakesBatchDurableBeforeAcking) {
  const std::string dir = fresh_dir("durability_gap");
  core::IncrementalEngine reference = reference_engine();
  reference.apply(kBatch1);
  {
    server::SessionManager manager(dir, {});
    manager.open("chip", test_placement(), test_spec());
    server::SessionManager::Guard guard = manager.use("chip");
    fault::arm(fault::Site::kJournalWriteFail);
    fault::arm(fault::Site::kSnapshotWriteFail);
    EXPECT_THROW(guard.apply_eco(kBatch1, 1), IoCorruptionError);
    fault::disarm_all();
    EXPECT_EQ(manager.stats().durability_failures, 1u);
    EXPECT_FALSE(std::filesystem::exists(dir + "/chip.snap"));

    // The lost-ack retry: deduped (the engine already holds the batch),
    // but acked only after the re-attempted snapshot lands.
    const server::SessionManager::EcoResult retry = guard.apply_eco(kBatch1, 1);
    EXPECT_TRUE(retry.duplicate);
    EXPECT_TRUE(std::filesystem::exists(dir + "/chip.snap"));
    expect_bitwise_equal(guard.engine().total_field(),
                         reference.total_field());
  }  // dies resident: the re-attempted snapshot is all that survives

  server::SessionManager reborn(dir, {});
  server::SessionManager::Guard guard = reborn.use("chip");
  expect_bitwise_equal(guard.engine().total_field(), reference.total_field());
  EXPECT_TRUE(guard.apply_eco(kBatch1, 1).duplicate);
}

TEST(Chaos, TornJournalTailIsRecoveredLoudly) {
  const std::string dir = fresh_dir("torn_tail");
  {
    server::SessionManager manager(dir, {});
    manager.open("chip", test_placement(), test_spec());
    manager.use("chip").apply_eco(kBatch1, 1);
  }  // dies resident: journal holds open + eco, no snapshot
  {
    // A crash mid-append buries half a record at the tail.
    std::ofstream f(dir + "/chip.jrnl", std::ios::app | std::ios::binary);
    f.write("\x02torn!", 6);
  }

  core::IncrementalEngine reference = reference_engine();
  reference.apply(kBatch1);

  server::SessionManager reborn(dir, {});
  ASSERT_EQ(reborn.recovered().size(), 1u);
  {
    server::SessionManager::Guard guard = reborn.use("chip");
    expect_bitwise_equal(guard.engine().total_field(),
                         reference.total_field());
  }
  const server::ManagerStats st = reborn.stats();
  EXPECT_EQ(st.journal_torn_tails, 1u);  // repaired loudly, not silently
  EXPECT_EQ(st.journal_replays, 1u);
}

TEST(Chaos, JournalWriteFailureFallsBackToSnapshotDurability) {
  const std::string dir = fresh_dir("write_fail");
  core::IncrementalEngine reference = reference_engine();
  reference.apply(kBatch1);
  {
    server::SessionManager manager(dir, {});
    manager.open("chip", test_placement(), test_spec());
    server::SessionManager::Guard guard = manager.use("chip");
    fault::arm(fault::Site::kJournalWriteFail);
    const server::SessionManager::EcoResult res = guard.apply_eco(kBatch1, 1);
    fault::disarm_all();
    EXPECT_FALSE(res.duplicate);
    EXPECT_TRUE(res.journal_fallback);  // durable the expensive way
    EXPECT_EQ(manager.stats().journal_fallbacks, 1u);
    // The fallback wrote a real snapshot, not just a journal record.
    EXPECT_TRUE(std::filesystem::exists(dir + "/chip.snap"));
  }  // dies resident

  server::SessionManager reborn(dir, {});
  server::SessionManager::Guard guard = reborn.use("chip");
  expect_bitwise_equal(guard.engine().total_field(), reference.total_field());
  // The fallback preserved the sequence watermark too.
  EXPECT_TRUE(guard.apply_eco(kBatch1, 1).duplicate);
}

TEST(Chaos, StaleSequenceDedupesAcrossEvictionAndReload) {
  const std::string dir = fresh_dir("stale_seq");
  core::IncrementalEngine reference = reference_engine();
  reference.apply(kBatch1);
  reference.apply(kBatch2);

  server::SessionManager manager(dir, {});
  manager.open("chip", test_placement(), test_spec());
  EXPECT_FALSE(manager.use("chip").apply_eco(kBatch1, 1).duplicate);
  manager.evict("chip");

  server::SessionManager::Guard guard = manager.use("chip");  // reload
  EXPECT_TRUE(guard.apply_eco(kBatch1, 1).duplicate);  // stale after reload
  EXPECT_FALSE(guard.apply_eco(kBatch2, 2).duplicate);
  expect_bitwise_equal(guard.engine().total_field(), reference.total_field());
}

// The client-side half of the contract: a retry storm (every batch sent
// twice, a daemon restart in the middle) against sequence-number dedupe
// ends with a field bitwise identical to applying each batch once.
TEST(Chaos, RetryStormAcrossDaemonRestartStaysBitwiseCorrect) {
  const std::string dir = fresh_dir("retry_storm");
  server::ServerOptions options;
  options.unix_path = dir + "/daemon.sock";
  options.snapshot_dir = dir + "/snaps";
  std::filesystem::create_directories(options.snapshot_dir);

  auto daemon = std::make_unique<server::StressServer>(options);
  std::thread serve([&daemon] { daemon->run(); });

  server::RetryPolicy policy;
  policy.base_delay_ms = 1.0;
  policy.max_delay_ms = 20.0;
  policy.max_attempts = 8;
  server::RetryingClient client =
      server::RetryingClient::unix_endpoint(options.unix_path, policy);

  server::JsonValue open = server::Client::request("open", "chip");
  open.set("placement", server::JsonValue(kPlacementText));
  open.set("spacing", server::JsonValue(test_spec().spacing));
  open.set("margin", server::JsonValue(test_spec().margin));
  client.call(open);

  core::IncrementalEngine reference = reference_engine();
  constexpr int kBatches = 8;
  for (int i = 0; i < kBatches; ++i) {
    if (i == kBatches / 2) {
      // Restart the daemon mid-storm on the same socket + snapshot dir.
      // The client's cached connection dies with it; the next call must
      // reconnect and the restarted daemon must still hold the watermark.
      daemon->stop();
      serve.join();
      daemon.reset();
      daemon = std::make_unique<server::StressServer>(options);
      serve = std::thread([&daemon] { daemon->run(); });
    }
    const double x = 5.0 + 0.1 * static_cast<double>(i + 1);
    const core::Delta batch = {core::EcoOp::move(2, {x, 8.0})};
    reference.apply(batch);

    const std::uint64_t seq = client.next_sequence();
    server::JsonValue eco = server::Client::request("eco", "chip");
    server::JsonValue ops = server::JsonValue::array();
    server::JsonValue op = server::JsonValue::object();
    op.set("op", server::JsonValue("move"));
    op.set("id", server::JsonValue(2));
    op.set("x", server::JsonValue(x));
    op.set("y", server::JsonValue(8.0));
    ops.items().push_back(std::move(op));
    eco.set("ops", std::move(ops));
    eco.set("seq", server::JsonValue(seq));

    // The storm: every batch is sent twice with the same sequence. The
    // first may itself be a transparent retry (daemon restart); the second
    // must be acked as a duplicate no-op.
    EXPECT_FALSE(client.call(eco).at("duplicate").as_bool()) << i;
    EXPECT_TRUE(client.call(eco).at("duplicate").as_bool()) << i;
  }
  EXPECT_GE(client.stats().reconnects, 2u);  // initial connect + post-restart

  // Bitwise wire comparison of the full field against once-applied truth.
  const server::JsonValue region =
      client.call(server::Client::request("region", "chip"));
  const auto& values = region.at("value").as_array();
  const std::vector<num::SymTensor2> total = reference.total_field();
  ASSERT_EQ(values.size(), total.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double expected =
        core::extract(core::StressMeasure::kVonMises, total[i]);
    const double got = values[i].as_number();
    ASSERT_EQ(std::memcmp(&expected, &got, sizeof(double)), 0) << i;
  }

  daemon->stop();
  serve.join();
}

}  // namespace
