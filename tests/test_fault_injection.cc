// The fault-injection harness (numeric/fault_injection.h) and the recovery
// paths it exists to prove:
//
//   - a NaN-poisoned CG iterate trips the solver fallback chain, and the
//     recovered FEM field is bitwise the clean direct-Cholesky solve;
//   - an injected snapshot-write failure neither kills a checkpointed tiled
//     run nor corrupts the previous checkpoint;
//   - a truncated checkpoint is discarded and the run restarts clean, with
//     one warning line on stderr (a missing checkpoint stays silent);
//   - a run killed mid-flight (real SIGKILL-style death via fork + _exit)
//     resumes from its checkpoint and streams a bitwise-identical field;
//   - a bit-flipped surrogate snapshot is rejected by the payload checksum
//     (IoCorruptionError), and the warm-start flow degrades to the exact
//     series path instead of evaluating damaged coefficients.
//
// These tests carry the `fault` ctest label so the sanitizer CI can run
// them as a suite.

#include "numeric/fault_injection.h"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "analytic/surrogate.h"
#include "core/error.h"
#include "core/framework.h"
#include "core/interactive_stage.h"
#include "core/tiled_evaluator.h"
#include "fem/thermo_solver.h"
#include "io/snapshot.h"
#include "tsv/generators.h"

namespace tsv {
namespace {

const tsvlib::TsvStructure kS = tsvlib::TsvStructure::baseline_bcb();

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

// --- registry semantics --------------------------------------------------

TEST(FaultInjection, DisarmedSitesNeverFire) {
  fault::disarm_all();
  for (int i = 0; i < 100; ++i)
    EXPECT_FALSE(fault::should_fire(fault::Site::kCgPoisonNan));
  EXPECT_EQ(fault::fired_count(fault::Site::kCgPoisonNan), 0u);
}

TEST(FaultInjection, FiresExactlyOnceAtTheNthHitThenSelfDisarms) {
  fault::disarm_all();
  fault::arm(fault::Site::kSnapshotWriteFail, 3);
  EXPECT_FALSE(fault::should_fire(fault::Site::kSnapshotWriteFail));  // 1st
  EXPECT_FALSE(fault::should_fire(fault::Site::kSnapshotWriteFail));  // 2nd
  EXPECT_TRUE(fault::should_fire(fault::Site::kSnapshotWriteFail));   // 3rd
  // Self-disarmed: recovery retries run clean.
  for (int i = 0; i < 10; ++i)
    EXPECT_FALSE(fault::should_fire(fault::Site::kSnapshotWriteFail));
  EXPECT_EQ(fault::fired_count(fault::Site::kSnapshotWriteFail), 1u);
  fault::disarm_all();
}

// --- solver fallback chain -----------------------------------------------

TEST(FaultInjection, PoisonedCgFallsBackToCholeskyBitwise) {
  const tsvlib::Placement p(kS, {{0.0, 0.0}});
  const geo::Box roi{{-4, -4}, {4, 4}};
  fem::FemOptions opt;
  opt.element_size = 0.5;
  opt.margin = 8.0;

  // Clean reference: direct Cholesky as the primary backend.
  opt.solver = fem::LinearSolver::kDirectCholesky;
  const fem::FemSolution clean =
      fem::solve_thermo_elastic(p, mat::ThermalLoad{}, roi, opt);
  ASSERT_FALSE(clean.report.fallback_used);

  // Poison the third CG iterate with NaN: the solver must detect it,
  // classify it, and recover through the fallback chain.
  opt.solver = fem::LinearSolver::kConjugateGradient;
  fault::disarm_all();
  fault::arm(fault::Site::kCgPoisonNan, 3);
  const fem::FemSolution recovered =
      fem::solve_thermo_elastic(p, mat::ThermalLoad{}, roi, opt);
  EXPECT_EQ(fault::fired_count(fault::Site::kCgPoisonNan), 1u);
  fault::disarm_all();

  EXPECT_TRUE(recovered.report.fallback_used);
  EXPECT_EQ(recovered.report.backend, fem::LinearSolver::kDirectCholesky);
  EXPECT_EQ(recovered.report.cg_failure, num::CgFailure::kNanDetected);
  EXPECT_LT(recovered.report.residual, 1e-8);

  // Same assembly, same deterministic factorization: the recovered field is
  // bitwise the clean direct solve (far inside the required 1e-12).
  for (double x = -3.5; x <= 3.5; x += 0.45) {
    for (double y = -3.5; y <= 3.5; y += 0.55) {
      const num::SymTensor2 a = recovered.stress.sample({x, y});
      const num::SymTensor2 b = clean.stress.sample({x, y});
      EXPECT_EQ(a.s11, b.s11);
      EXPECT_EQ(a.s22, b.s22);
      EXPECT_EQ(a.s12, b.s12);
    }
  }
}

// --- checkpointed tiled runs ----------------------------------------------

struct TiledFixture {
  tsvlib::Placement placement =
      tsvlib::make_random(kS, 40, geo::Box{{0, 0}, {150, 150}}, 10.0, 99);
  core::StressFramework framework{placement};
  geo::SampleGrid grid = geo::SampleGrid::with_spacing(
      placement.bounding_box().expanded(10.0), 3.0);
  core::TiledEvaluator tiled{framework, core::TiledOptions{200}};

  core::TileConsumer writer_into(std::vector<num::SymTensor2>& out) const {
    out.assign(grid.size(), num::SymTensor2{});
    return [&out, this](const core::Tile& tile) {
      for (std::size_t ty = 0; ty < tile.ny; ++ty)
        for (std::size_t tx = 0; tx < tile.nx; ++tx)
          out[(tile.iy0 + ty) * grid.nx() + (tile.ix0 + tx)] =
              tile.stress[ty * tile.nx + tx];
    };
  }
};

void expect_bitwise_equal(const std::vector<num::SymTensor2>& got,
                          const std::vector<num::SymTensor2>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].s11, want[i].s11) << i;
    EXPECT_EQ(got[i].s22, want[i].s22) << i;
    EXPECT_EQ(got[i].s12, want[i].s12) << i;
  }
}

TEST(FaultInjection, FailedCheckpointWriteDoesNotKillTheRun) {
  TiledFixture f;
  std::vector<num::SymTensor2> want;
  f.tiled.evaluate(f.grid, f.writer_into(want));

  const std::string path = temp_path("ckpt_writefail.snap");
  fault::disarm_all();
  fault::arm(fault::Site::kSnapshotWriteFail, 2);  // 2nd checkpoint write
  std::vector<num::SymTensor2> got;
  const core::TiledStats stats = io::evaluate_with_checkpoint(
      f.tiled, f.grid, f.writer_into(got), path, 2);
  fault::disarm_all();

  // The run completed despite the failed write and produced the clean field.
  EXPECT_EQ(stats.points, f.grid.size());
  expect_bitwise_equal(got, want);
  // The checkpoint file was removed after the successful finish.
  EXPECT_FALSE(io::try_load_tiled_checkpoint(path).has_value());
}

TEST(FaultInjection, TruncatedCheckpointRestartsCleanAndStillMatches) {
  TiledFixture f;
  std::vector<num::SymTensor2> want;
  f.tiled.evaluate(f.grid, f.writer_into(want));

  // Write a valid checkpoint, then let the harness chop it in half —
  // simulating external disk damage between two runs.
  const std::string path = temp_path("ckpt_truncated.snap");
  core::TiledCheckpoint cp;
  cp.fingerprint = f.tiled.fingerprint(f.grid);
  cp.tiles_done = 2;
  fault::disarm_all();
  fault::arm(fault::Site::kCheckpointTruncate);
  io::save_tiled_checkpoint(path, cp);
  fault::disarm_all();

  std::vector<num::SymTensor2> got;
  core::TiledStats stats = io::evaluate_with_checkpoint(
      f.tiled, f.grid, f.writer_into(got), path, 4);
  // The damaged checkpoint was discarded: nothing resumed, everything
  // computed, and the field is the clean one.
  EXPECT_EQ(stats.resumed_tiles, 0u);
  expect_bitwise_equal(got, want);
}

// Resume falls back to a clean start whenever the checkpoint is unusable.
// That fallback is logged: one warning line for a damaged file, none for a
// missing one, which is the normal fresh start.
TEST(FaultInjection, IgnoredCheckpointIsLoggedAndAMissingOneIsNot) {
  const std::string path = temp_path("ckpt_logged.snap");
  std::remove(path.c_str());
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(io::try_load_tiled_checkpoint(path).has_value());
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");

  {
    std::ofstream out(path, std::ios::binary);
    out << "TSVSNAP but not a checkpoint";
  }
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(io::try_load_tiled_checkpoint(path).has_value());
  const std::string corrupt = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(corrupt.rfind("warning: checkpoint ignored: ", 0), 0u) << corrupt;
  EXPECT_EQ(std::count(corrupt.begin(), corrupt.end(), '\n'), 1) << corrupt;

  // A well-formed checkpoint of another run is ignored the same way.
  TiledFixture f;
  core::TiledCheckpoint cp;
  cp.fingerprint = f.tiled.fingerprint(f.grid) + 1;
  cp.tiles_done = 2;
  io::save_tiled_checkpoint(path, cp);
  std::vector<num::SymTensor2> got;
  ::testing::internal::CaptureStderr();
  const core::TiledStats stats = io::evaluate_with_checkpoint(
      f.tiled, f.grid, f.writer_into(got), path, 4);
  const std::string stale = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(stats.resumed_tiles, 0u);
  EXPECT_EQ(stale.rfind("warning: checkpoint ignored: ", 0), 0u) << stale;
  EXPECT_EQ(std::count(stale.begin(), stale.end(), '\n'), 1) << stale;
  std::remove(path.c_str());
}

TEST(FaultInjection, KilledRunResumesBitwiseIdentical) {
  TiledFixture f;
  std::vector<num::SymTensor2> want;
  f.tiled.evaluate(f.grid, f.writer_into(want));

  const std::string path = temp_path("ckpt_killed.snap");
  std::remove(path.c_str());

  // Child process: evaluate with checkpointing and die abruptly (_exit, no
  // destructors, no atexit — the closest in-process stand-in for SIGKILL)
  // after the 5th tile. With every_tiles=2 the checkpoint on disk then
  // covers tiles 0..3.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::size_t seen = 0;
    io::evaluate_with_checkpoint(
        f.tiled, f.grid,
        [&](const core::Tile&) {
          if (++seen == 5) _exit(42);
        },
        path, 2);
    _exit(0);  // not reached
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 42);

  // The atomic save left a loadable checkpoint behind.
  const auto cp = io::try_load_tiled_checkpoint(path);
  ASSERT_TRUE(cp.has_value());
  EXPECT_EQ(cp->tiles_done, 4u);

  // Resume in this process: finished tiles replay from disk, the rest are
  // computed, and the assembled field is bitwise the uninterrupted run's.
  std::vector<num::SymTensor2> got;
  const core::TiledStats stats = io::evaluate_with_checkpoint(
      f.tiled, f.grid, f.writer_into(got), path, 2);
  EXPECT_EQ(stats.resumed_tiles, 4u);
  expect_bitwise_equal(got, want);
  // Completion removed the checkpoint: a re-run starts clean.
  EXPECT_FALSE(io::try_load_tiled_checkpoint(path).has_value());
}

// --- corrupted surrogate snapshots ----------------------------------------

TEST(FaultInjection, CorruptedSurrogateSnapshotDegradesToTheSeriesPath) {
  const auto model =
      core::characterize(kS, {}, core::StageTwo::kSeries).model;
  const auto surrogate = std::make_shared<const ana::PairSurrogate>(
      ana::PairSurrogate::fit(*model));
  const std::string path = temp_path("surrogate_bitrot.snap");

  // The armed save succeeds, then the harness flips one payload byte —
  // bit rot discovered at load time, after the atomic write completed.
  fault::disarm_all();
  fault::arm(fault::Site::kSurrogateCorrupt);
  io::save_surrogate(path, *surrogate);
  fault::disarm_all();
  EXPECT_EQ(fault::fired_count(fault::Site::kSurrogateCorrupt), 1u);

  // The checksum must catch the damage: the strict loader reports
  // IoCorruption, the best-effort loader declines.
  EXPECT_THROW(io::load_surrogate(path), IoCorruptionError);
  EXPECT_FALSE(io::try_load_surrogate(path).has_value());

  // Graceful degradation, end to end: a warm start that fails to load the
  // surrogate leaves the model without one, so Stage II runs the exact
  // series — bitwise the never-had-a-surrogate field, not a crash and not
  // damaged coefficients.
  auto warm = io::try_load_surrogate(path);
  if (warm.has_value())
    model->attach_surrogate(std::make_shared<const ana::PairSurrogate>(
        std::move(*warm)));
  const tsvlib::Placement pair = tsvlib::make_pair(kS, 10.0);
  const core::InteractiveStage stage(pair, model);
  std::vector<geo::Point> pts;
  for (double x = -8; x <= 18; x += 2.3)
    for (double y = -8; y <= 8; y += 2.7) pts.push_back({x, y});
  const auto got = stage.evaluate(pts);
  const auto fresh_model =
      core::characterize(kS, {}, core::StageTwo::kSeries).model;
  const core::InteractiveStage series(pair, fresh_model);
  const auto want = series.evaluate(pts);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].s11, want[i].s11) << i;
    EXPECT_EQ(got[i].s22, want[i].s22) << i;
    EXPECT_EQ(got[i].s12, want[i].s12) << i;
  }

  // The site self-disarmed: a recovery re-save produces a clean snapshot
  // that round-trips and re-arms the fast path.
  io::save_surrogate(path, *surrogate);
  const auto recovered = io::try_load_surrogate(path);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->certificate().certified_rel_bound,
            surrogate->certificate().certified_rel_bound);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tsv
