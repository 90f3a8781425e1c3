// io/snapshot: save -> load must round-trip bitwise (and re-save
// byte-identically), and malformed files — wrong magic, wrong version,
// corrupt payload, unknown or wrong kind, truncation — must be rejected with
// distinct, clear errors. The generic reader checks run on tiled-run
// checkpoints, the smallest kind.

#include "io/snapshot.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "analytic/surrogate.h"
#include "core/error.h"
#include "core/incremental_engine.h"
#include "numeric/fault_injection.h"
#include "tsv/generators.h"

namespace tsv::io {
namespace {

const tsvlib::TsvStructure kS = tsvlib::TsvStructure::baseline_bcb();

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

core::RadialStressTable make_table() {
  return core::RadialStressTable::from_analytic(
      ana::SingleTsvModel(kS, mat::ThermalLoad{}), 30.0, 512);
}

std::shared_ptr<const ana::InteractiveStressModel> make_model() {
  return std::make_shared<const ana::InteractiveStressModel>(
      std::make_shared<const ana::InclusionResponse>(kS),
      ana::SingleTsvModel(kS, mat::ThermalLoad{}).k_hat());
}

/// A small checkpoint: the cheapest snapshot to write and read.
core::TiledCheckpoint make_checkpoint() {
  core::TiledCheckpoint cp;
  cp.fingerprint = 0x0123456789abcdefull;
  cp.tiles_done = 2;
  cp.stress = {{1.0, -2.0, 0.5}, {3.25, 4.0, -1.125}, {0.0, 7.5, 2.0}};
  return cp;
}

/// Expects `fn` to throw std::runtime_error whose message contains `what`.
template <typename Fn>
void expect_rejection(Fn&& fn, const std::string& what) {
  try {
    fn();
    FAIL() << "expected rejection mentioning '" << what << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << "actual message: " << e.what();
  }
}

// The engine-state payload embeds the Stage I table: a restored engine's
// table is bitwise the saved one.
TEST(Snapshot, RadialTableRoundTripsBitwise) {
  const std::string path = temp_path("radial.snap");
  const tsvlib::Placement placement(kS, {{0.0, 0.0}});
  const geo::SampleGrid grid =
      geo::SampleGrid::with_spacing(placement.bounding_box().expanded(25.0),
                                    5.0);
  const auto table =
      std::make_shared<const core::RadialStressTable>(make_table());
  save_engine_state(path,
                    core::IncrementalEngine(placement, grid, table, nullptr));

  const core::IncrementalEngine warmed = load_engine_state(path);
  const auto* loaded =
      dynamic_cast<const core::RadialStressTable*>(&warmed.table());
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->max_radius(), table->max_radius());
  ASSERT_EQ(loaded->srr().size(), table->srr().size());
  ASSERT_EQ(loaded->stt().size(), table->stt().size());
  EXPECT_EQ(std::memcmp(loaded->srr().data(), table->srr().data(),
                        table->srr().size() * sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(loaded->stt().data(), table->stt().data(),
                        table->stt().size() * sizeof(double)), 0);
}

TEST(Snapshot, PlacementRoundTripsBitwise) {
  tsvlib::TsvStructure s = tsvlib::TsvStructure::baseline_sio2();
  s.body_radius = 3.25;
  const tsvlib::Placement p(s, {{0.0, 0.0}, {13.5, -2.25}, {-7.0, 21.0}});
  const std::string bytes = encode_placement(p);

  const tsvlib::Placement loaded = decode_placement(bytes);
  EXPECT_EQ(loaded.structure().body_radius, s.body_radius);
  EXPECT_EQ(loaded.structure().liner.name, s.liner.name);
  EXPECT_EQ(loaded.structure().liner.cte, s.liner.cte);
  ASSERT_EQ(loaded.size(), p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(loaded.centers()[i].x, p.centers()[i].x);
    EXPECT_EQ(loaded.centers()[i].y, p.centers()[i].y);
  }
  // encode -> decode -> encode is byte-identical.
  EXPECT_EQ(encode_placement(loaded), bytes);
}

TEST(Snapshot, EngineStateRoundTripsBitwiseAndStaysEditable) {
  const std::string path = temp_path("engine.snap");
  const tsvlib::Placement placement = tsvlib::make_five_cross(kS, 12.0);
  const geo::SampleGrid grid =
      geo::SampleGrid::with_spacing(placement.bounding_box().expanded(25.0),
                                    4.0);
  const auto table =
      std::make_shared<const core::RadialStressTable>(make_table());
  const auto model = make_model();
  model->attach_surrogate(std::make_shared<const ana::PairSurrogate>(
      ana::PairSurrogate::fit(*model)));
  core::IncrementalOptions opt;
  opt.pair_pitch_cutoff = 20.0;
  opt.influence_radius = 22.0;
  opt.num_threads = 2;
  core::IncrementalEngine engine(placement, grid, table, model, opt);
  engine.apply({core::EcoOp::move(0, {2.0, 1.0})});
  save_engine_state(path, engine);

  core::IncrementalEngine warmed = load_engine_state(path);
  EXPECT_EQ(warmed.active_count(), engine.active_count());
  EXPECT_EQ(warmed.grid().size(), engine.grid().size());
  ASSERT_EQ(warmed.stage1_field().size(), engine.stage1_field().size());
  EXPECT_EQ(std::memcmp(warmed.stage1_field().data(),
                        engine.stage1_field().data(),
                        engine.stage1_field().size() *
                            sizeof(num::SymTensor2)), 0);
  EXPECT_EQ(std::memcmp(warmed.stage2_field().data(),
                        engine.stage2_field().data(),
                        engine.stage2_field().size() *
                            sizeof(num::SymTensor2)), 0);
  // The options came back, and so did the surrogate (the edits below ride
  // it on both engines).
  EXPECT_EQ(warmed.options().pair_pitch_cutoff, 20.0);
  EXPECT_EQ(warmed.options().influence_radius, 22.0);
  EXPECT_EQ(warmed.options().num_threads, 2u);
  ASSERT_NE(warmed.model(), nullptr);
  ASSERT_NE(warmed.model()->surrogate_for(22.0), nullptr);

  // save -> load -> save is byte-identical.
  const std::string path2 = temp_path("engine2.snap");
  save_engine_state(path2, warmed);
  EXPECT_EQ(read_bytes(path), read_bytes(path2));

  // Identical edits on both engines stay bitwise in lock-step.
  const core::Delta delta = {core::EcoOp::move(1, {13.0, 3.0})};
  engine.apply(delta);
  warmed.apply(delta);
  EXPECT_EQ(std::memcmp(warmed.stage2_field().data(),
                        engine.stage2_field().data(),
                        engine.stage2_field().size() *
                            sizeof(num::SymTensor2)), 0);
}

// An LS engine (no model) stores that it has none and restores without one.
TEST(Snapshot, EngineStateWithoutAModelRestoresWithoutOne) {
  const std::string path = temp_path("engine_ls.snap");
  const tsvlib::Placement placement = tsvlib::make_five_cross(kS, 12.0);
  const geo::SampleGrid grid =
      geo::SampleGrid::with_spacing(placement.bounding_box().expanded(25.0),
                                    4.0);
  const auto table =
      std::make_shared<const core::RadialStressTable>(make_table());
  core::IncrementalEngine engine(placement, grid, table, nullptr);
  engine.apply({core::EcoOp::move(0, {2.0, 1.0})});
  save_engine_state(path, engine);

  core::IncrementalEngine warmed = load_engine_state(path);
  EXPECT_EQ(warmed.model(), nullptr);
  EXPECT_EQ(std::memcmp(warmed.stage1_field().data(),
                        engine.stage1_field().data(),
                        engine.stage1_field().size() *
                            sizeof(num::SymTensor2)), 0);
  const core::Delta delta = {core::EcoOp::move(1, {13.0, 3.0})};
  engine.apply(delta);
  warmed.apply(delta);
  EXPECT_EQ(std::memcmp(warmed.stage1_field().data(),
                        engine.stage1_field().data(),
                        engine.stage1_field().size() *
                            sizeof(num::SymTensor2)), 0);
  for (const num::SymTensor2& t : warmed.stage2_field()) {
    EXPECT_EQ(t.s11, 0.0);
    EXPECT_EQ(t.s22, 0.0);
    EXPECT_EQ(t.s12, 0.0);
  }
}

TEST(Snapshot, EngineStateEmbedsTheFittedSurrogate) {
  const std::string path = temp_path("engine_sur.snap");
  const tsvlib::Placement placement = tsvlib::make_five_cross(kS, 12.0);
  const geo::SampleGrid grid =
      geo::SampleGrid::with_spacing(placement.bounding_box().expanded(25.0),
                                    4.0);
  const auto table =
      std::make_shared<const core::RadialStressTable>(make_table());
  const auto model = make_model();
  const auto fitted = std::make_shared<const ana::PairSurrogate>(
      ana::PairSurrogate::fit(*model));
  model->attach_surrogate(fitted);
  core::IncrementalEngine engine(placement, grid, table, model, {});
  save_engine_state(path, engine);

  // The warm start gets the surrogate back without a refit…
  const core::IncrementalEngine warmed = load_engine_state(path);
  ASSERT_NE(warmed.model(), nullptr);
  const auto reloaded = warmed.model()->surrogate();
  ASSERT_NE(reloaded, nullptr);

  // …bitwise identical: certificate fields and evaluated fields alike.
  const ana::SurrogateCertificate& ca = fitted->certificate();
  const ana::SurrogateCertificate& cb = reloaded->certificate();
  EXPECT_EQ(cb.pitch_min, ca.pitch_min);
  EXPECT_EQ(cb.pitch_max, ca.pitch_max);
  EXPECT_EQ(cb.r_max, ca.r_max);
  EXPECT_EQ(cb.coefficient_count, ca.coefficient_count);
  EXPECT_EQ(cb.sample_count, ca.sample_count);
  EXPECT_EQ(cb.field_scale, ca.field_scale);
  EXPECT_EQ(cb.max_abs_error, ca.max_abs_error);
  EXPECT_EQ(cb.certified_rel_bound, ca.certified_rel_bound);
  std::vector<geo::Point> pts;
  for (double x = -20.0; x <= 20.0; x += 3.7)
    for (double y = -20.0; y <= 20.0; y += 4.3) pts.push_back({x, y});
  const geo::Point victim{0.0, 0.0}, aggressor{12.7, 3.1};
  std::vector<num::SymTensor2> want(pts.size()), got(pts.size());
  fitted->accumulate_run(victim, &aggressor, 1, pts.data(), pts.size(),
                         want.data());
  reloaded->accumulate_run(victim, &aggressor, 1, pts.data(), pts.size(),
                           got.data());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(got[i].s11, want[i].s11) << i;
    EXPECT_EQ(got[i].s22, want[i].s22) << i;
    EXPECT_EQ(got[i].s12, want[i].s12) << i;
  }

  // The reloaded certificate still gates use exactly like the fitted one.
  EXPECT_EQ(warmed.model()->surrogate_for(25.0), reloaded);
  EXPECT_EQ(warmed.model()->surrogate_for(25.5), nullptr);

  // save -> load -> save stays byte-identical with the embedded surrogate.
  const std::string path2 = temp_path("engine_sur2.snap");
  save_engine_state(path2, warmed);
  EXPECT_EQ(read_bytes(path), read_bytes(path2));

  // A surrogate-free engine still round-trips (has_surrogate = 0).
  const auto plain_model = make_model();
  core::IncrementalEngine plain(placement, grid, table, plain_model, {});
  const std::string path3 = temp_path("engine_plain.snap");
  save_engine_state(path3, plain);
  const core::IncrementalEngine warmed_plain = load_engine_state(path3);
  EXPECT_EQ(warmed_plain.model()->surrogate(), nullptr);
}

TEST(Snapshot, EngineStateOfAnotherVersionIsRefused) {
  // Only the current format loads: files written by older builds (v1-v3,
  // with their pair-table sections, and v4, with three thread counts) or by
  // a newer one are refused with a typed version-mismatch error, never
  // decoded.
  const tsvlib::Placement placement = tsvlib::make_five_cross(kS, 12.0);
  const geo::SampleGrid grid =
      geo::SampleGrid::with_spacing(placement.bounding_box().expanded(25.0),
                                    4.0);
  const auto table =
      std::make_shared<const core::RadialStressTable>(make_table());
  const core::IncrementalEngine engine(placement, grid, table, make_model(),
                                       {});
  const std::string path = temp_path("engine_version.snap");
  save_engine_state(path, engine);
  EXPECT_EQ(read_snapshot_info(path).version, kSnapshotVersion);
  const std::string current = read_bytes(path);
  for (const std::uint32_t version :
       {1u, 2u, 3u, 4u, 5u, kSnapshotVersion + 1}) {
    SCOPED_TRACE(version);
    std::string bytes = current;
    std::memcpy(&bytes[8], &version, sizeof(version));  // u32 version field
    write_bytes(path, bytes);
    expect_rejection([&] { load_engine_state(path); }, "version mismatch");
    EXPECT_THROW(load_engine_state(path), IoCorruptionError);
  }
}

TEST(Snapshot, CorruptEmbeddedSurrogateSectionIsRejectedNotEvaluated) {
  const tsvlib::Placement placement = tsvlib::make_five_cross(kS, 12.0);
  const geo::SampleGrid grid =
      geo::SampleGrid::with_spacing(placement.bounding_box().expanded(25.0),
                                    4.0);
  const auto table =
      std::make_shared<const core::RadialStressTable>(make_table());
  const auto model = make_model();
  model->attach_surrogate(std::make_shared<const ana::PairSurrogate>(
      ana::PairSurrogate::fit(*model)));
  core::IncrementalEngine engine(placement, grid, table, model, {});
  const std::string path = temp_path("engine_sur_corrupt.snap");
  save_engine_state(path, engine);

  // Bit rot inside the embedded surrogate coefficients (the section sits at
  // the end of the payload, just before the trailing checksum): the load
  // must reject the whole file via the checksum — mirroring the standalone
  // kSurrogateCorrupt degradation path — never evaluate damaged
  // coefficients.
  std::string bytes = read_bytes(path);
  bytes[bytes.size() - 12] = static_cast<char>(bytes[bytes.size() - 12] ^ 0x40);
  write_bytes(path, bytes);
  expect_rejection([&] { load_engine_state(path); }, "checksum");
  try {
    load_engine_state(path);
    FAIL() << "expected IoCorruptionError";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kIoCorruption);
  }
}

TEST(Snapshot, InfoReportsValidatedHeader) {
  const std::string path = temp_path("info.snap");
  save_tiled_checkpoint(path, make_checkpoint());
  const SnapshotInfo info = read_snapshot_info(path);
  EXPECT_EQ(info.version, kSnapshotVersion);
  EXPECT_EQ(info.kind, SnapshotKind::kTiledCheckpoint);
  EXPECT_GT(info.payload_bytes, 0u);
  EXPECT_EQ(read_bytes(path).size(),
            24 + info.payload_bytes + 8);  // header + payload + checksum
}

TEST(Snapshot, RejectsBadMagic) {
  const std::string path = temp_path("magic.snap");
  std::string bytes = "this is definitely not a snapshot file at all";
  write_bytes(path, bytes);
  expect_rejection([&] { read_snapshot_info(path); }, "magic");
}

TEST(Snapshot, RejectsWrongVersion) {
  const std::string path = temp_path("version.snap");
  save_tiled_checkpoint(path, make_checkpoint());
  const std::string current = read_bytes(path);
  for (const std::uint32_t version : {4u, 5u, kSnapshotVersion + 1}) {
    SCOPED_TRACE(version);
    std::string bytes = current;
    std::memcpy(&bytes[8], &version, sizeof(version));  // u32 version field
    write_bytes(path, bytes);
    expect_rejection([&] { load_tiled_checkpoint(path); },
                     "version mismatch");
  }
}

// A checksum-valid engine file whose influence radius no engine could be
// built with is refused with a typed error, not restored: restore holds the
// state to the build constructor's rules.
TEST(Snapshot, EngineStateWithInvalidStageOneRadiusIsRefused) {
  const tsvlib::Placement placement = tsvlib::make_five_cross(kS, 12.0);
  const geo::SampleGrid grid =
      geo::SampleGrid::with_spacing(placement.bounding_box().expanded(25.0),
                                    4.0);
  const auto table =
      std::make_shared<const core::RadialStressTable>(make_table());
  core::IncrementalOptions opt;
  opt.influence_radius = 23.25;  // a bit pattern found once below
  const core::IncrementalEngine engine(placement, grid, table, make_model(),
                                       opt);
  const std::string path = temp_path("engine_radius.snap");
  save_engine_state(path, engine);
  const std::string valid = read_bytes(path);
  constexpr std::size_t kHeader = 24;
  const std::size_t payload = valid.size() - kHeader - 8;
  const double marker = 23.25;
  const std::string needle(reinterpret_cast<const char*>(&marker),
                           sizeof(marker));
  const std::size_t at = valid.find(needle, kHeader);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(valid.find(needle, at + 1), std::string::npos);

  // 40 um lies beyond the 30 um table.
  for (const double radius :
       {0.0, std::numeric_limits<double>::quiet_NaN(), 40.0}) {
    SCOPED_TRACE(radius);
    std::string bytes = valid;
    std::memcpy(&bytes[at], &radius, sizeof(radius));
    // Re-seal the payload so only the value, not the checksum, is wrong.
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = kHeader; i < kHeader + payload; ++i) {
      h ^= static_cast<unsigned char>(bytes[i]);
      h *= 1099511628211ull;
    }
    std::memcpy(&bytes[kHeader + payload], &h, sizeof(h));
    write_bytes(path, bytes);
    try {
      load_engine_state(path);
      FAIL() << "expected a typed rejection";
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kIoCorruption);
      EXPECT_NE(std::string(e.what()).find("engine state"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Snapshot, RejectsCorruptPayload) {
  const std::string path = temp_path("corrupt.snap");
  save_tiled_checkpoint(path, make_checkpoint());
  std::string bytes = read_bytes(path);
  bytes[30] = static_cast<char>(bytes[30] ^ 0x5a);  // flip payload bits
  write_bytes(path, bytes);
  expect_rejection([&] { load_tiled_checkpoint(path); }, "checksum");
}

TEST(Snapshot, RejectsWrongKind) {
  const std::string path = temp_path("kind.snap");
  save_tiled_checkpoint(path, make_checkpoint());
  expect_rejection([&] { load_surrogate(path); }, "kind");
}

// A kind id this build cannot name (the retired 1 and 3, or one never
// issued) is refused on the header alone, even though the payload checksum
// holds.
TEST(Snapshot, RejectsKindsThisBuildCannotName) {
  const std::string path = temp_path("unknown_kind.snap");
  save_tiled_checkpoint(path, make_checkpoint());
  const std::string valid = read_bytes(path);
  for (const std::uint32_t kind : {1u, 3u, 99u}) {
    SCOPED_TRACE(kind);
    std::string bytes = valid;
    std::memcpy(&bytes[12], &kind, sizeof(kind));  // u32 kind field
    write_bytes(path, bytes);
    expect_rejection([&] { read_snapshot_info(path); },
                     "unknown object kind " + std::to_string(kind));
    EXPECT_THROW(read_snapshot_info(path), IoCorruptionError);
    EXPECT_THROW(load_tiled_checkpoint(path), IoCorruptionError);
  }
}

TEST(Snapshot, RejectsTruncation) {
  const std::string path = temp_path("trunc.snap");
  save_tiled_checkpoint(path, make_checkpoint());
  const std::string bytes = read_bytes(path);
  // Cut mid-payload and mid-header.
  write_bytes(path, bytes.substr(0, bytes.size() / 2));
  expect_rejection([&] { load_tiled_checkpoint(path); }, "truncated");
  write_bytes(path, bytes.substr(0, 10));
  expect_rejection([&] { read_snapshot_info(path); }, "truncated");
}

TEST(Snapshot, MissingFileRejected) {
  expect_rejection(
      [&] { read_snapshot_info(temp_path("does_not_exist.snap")); },
      "cannot open");
}

TEST(Snapshot, ErrorsCarryTaxonomyCategories) {
  // Missing file: the caller's path problem, not disk corruption.
  EXPECT_THROW(read_snapshot_info(temp_path("no_such.snap")),
               InvalidInputError);
  // Damaged payload: corruption.
  const std::string path = temp_path("category.snap");
  save_tiled_checkpoint(path, make_checkpoint());
  std::string bytes = read_bytes(path);
  bytes[30] = static_cast<char>(bytes[30] ^ 0x5a);
  write_bytes(path, bytes);
  try {
    load_tiled_checkpoint(path);
    FAIL() << "expected IoCorruptionError";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kIoCorruption);
  }
}

TEST(Snapshot, InterruptedSaveLeavesPreviousFileIntact) {
  const std::string path = temp_path("atomic.snap");
  save_tiled_checkpoint(path, make_checkpoint());
  const std::string before = read_bytes(path);

  // Inject a write failure mid-save: fwrite stops halfway and the save
  // throws. The *previous* snapshot must survive untouched, because the
  // partial write only ever touched the temp file.
  core::TiledCheckpoint next = make_checkpoint();
  next.tiles_done = 3;
  next.stress.push_back({99.0, 99.0, 99.0});
  fault::arm(fault::Site::kSnapshotWriteFail);
  EXPECT_THROW(save_tiled_checkpoint(path, next), IoCorruptionError);
  fault::disarm_all();

  EXPECT_EQ(read_bytes(path), before);
  const core::TiledCheckpoint reloaded = load_tiled_checkpoint(path);
  EXPECT_EQ(reloaded.tiles_done, 2u);
  ASSERT_EQ(reloaded.stress.size(), 3u);
  EXPECT_EQ(reloaded.stress[1].s11, 3.25);
  // The aborted temp file was cleaned up.
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());
}

TEST(Snapshot, TiledCheckpointRoundTripsBitwise) {
  core::TiledCheckpoint cp;
  cp.fingerprint = 0x1234abcd5678ef00ull;
  cp.tiles_done = 3;
  cp.stress = {{1.0, -2.0, 0.5}, {3.25, 4.0, -1.125}};
  const std::string path = temp_path("tiledcp.snap");
  save_tiled_checkpoint(path, cp);

  const core::TiledCheckpoint loaded = load_tiled_checkpoint(path);
  EXPECT_EQ(loaded.fingerprint, cp.fingerprint);
  EXPECT_EQ(loaded.tiles_done, cp.tiles_done);
  ASSERT_EQ(loaded.stress.size(), cp.stress.size());
  EXPECT_EQ(std::memcmp(loaded.stress.data(), cp.stress.data(),
                        cp.stress.size() * sizeof(num::SymTensor2)), 0);
}

TEST(Snapshot, TryLoadTiledCheckpointSwallowsAllDamage) {
  // Missing file.
  EXPECT_FALSE(try_load_tiled_checkpoint(temp_path("nope.snap")).has_value());
  // Wrong kind.
  const std::string wrong = temp_path("wrongkind.snap");
  const tsvlib::Placement lone(kS, {{0.0, 0.0}});
  save_engine_state(
      wrong, core::IncrementalEngine(
                 lone,
                 geo::SampleGrid::with_spacing(
                     lone.bounding_box().expanded(25.0), 5.0),
                 std::make_shared<const core::RadialStressTable>(make_table()),
                 nullptr));
  EXPECT_FALSE(try_load_tiled_checkpoint(wrong).has_value());
  // Truncated checkpoint (the fault harness chops the file in half after a
  // successful save).
  const std::string path = temp_path("trunc_cp.snap");
  core::TiledCheckpoint cp;
  cp.tiles_done = 1;
  cp.stress = {{1.0, 2.0, 3.0}};
  fault::arm(fault::Site::kCheckpointTruncate);
  save_tiled_checkpoint(path, cp);
  fault::disarm_all();
  EXPECT_THROW(load_tiled_checkpoint(path), IoCorruptionError);
  EXPECT_FALSE(try_load_tiled_checkpoint(path).has_value());
}

}  // namespace
}  // namespace tsv::io
