#include "core/tiled_evaluator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "analytic/surrogate.h"
#include "core/error.h"
#include "core/stress_map_table.h"
#include "io/snapshot.h"
#include "tsv/generators.h"

namespace tsv::core {
namespace {

const tsvlib::TsvStructure kS = tsvlib::TsvStructure::baseline_bcb();

// A placement dense enough that Stage II matters and wide enough that small
// tiles actually cull pairs.
tsvlib::Placement cluster_placement() {
  return tsvlib::make_random(kS, 40, geo::Box{{0, 0}, {150, 150}}, 10.0, 99);
}

geo::SampleGrid test_grid(const tsvlib::Placement& p) {
  return geo::SampleGrid::with_spacing(p.bounding_box().expanded(10.0), 3.0);
}

TEST(TiledEvaluator, MatchesMonolithicEvaluation) {
  const tsvlib::Placement p = cluster_placement();
  const StressFramework fw(p);
  const geo::SampleGrid grid = test_grid(p);
  const StressResult want = fw.evaluate(grid);

  TiledOptions topt;
  topt.max_tile_points = 200;  // forces many tiles
  const TiledEvaluator tiled(fw, topt);
  std::vector<num::SymTensor2> got(grid.size());
  const TiledStats stats = tiled.evaluate(grid, [&](const Tile& tile) {
    for (std::size_t ty = 0; ty < tile.ny; ++ty)
      for (std::size_t tx = 0; tx < tile.nx; ++tx)
        got[(tile.iy0 + ty) * grid.nx() + (tile.ix0 + tx)] =
            tile.stress[ty * tile.nx + tx];
  });

  ASSERT_EQ(stats.points, grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const double tol = 1e-12 * std::max(1.0, std::abs(want.stress[i].s11));
    EXPECT_NEAR(got[i].s11, want.stress[i].s11, tol) << i;
    EXPECT_NEAR(got[i].s22, want.stress[i].s22,
                1e-12 * std::max(1.0, std::abs(want.stress[i].s22)))
        << i;
    EXPECT_NEAR(got[i].s12, want.stress[i].s12,
                1e-12 * std::max(1.0, std::abs(want.stress[i].s12)))
        << i;
  }
}

TEST(TiledEvaluator, TilesCoverGridExactlyOnceInRowMajorOrder) {
  const tsvlib::Placement p = cluster_placement();
  const StressFramework fw(p);
  const geo::SampleGrid grid = test_grid(p);
  TiledOptions topt;
  topt.max_tile_points = 150;
  const TiledEvaluator tiled(fw, topt);

  std::vector<int> covered(grid.size(), 0);
  std::size_t expected_index = 0;
  const TiledStats stats = tiled.evaluate(grid, [&](const Tile& tile) {
    EXPECT_EQ(tile.index, expected_index++);
    EXPECT_LE(tile.nx * tile.ny, topt.max_tile_points);
    ASSERT_EQ(tile.points.size(), tile.nx * tile.ny);
    ASSERT_EQ(tile.stress.size(), tile.nx * tile.ny);
    for (std::size_t ty = 0; ty < tile.ny; ++ty) {
      for (std::size_t tx = 0; tx < tile.nx; ++tx) {
        const std::size_t ix = tile.ix0 + tx;
        const std::size_t iy = tile.iy0 + ty;
        ASSERT_LT(ix, grid.nx());
        ASSERT_LT(iy, grid.ny());
        covered[iy * grid.nx() + ix] += 1;
        // Tile points are the grid points, row-major within the tile.
        const geo::Point gp = grid.point(ix, iy);
        const geo::Point tp = tile.points[ty * tile.nx + tx];
        EXPECT_DOUBLE_EQ(tp.x, gp.x);
        EXPECT_DOUBLE_EQ(tp.y, gp.y);
        EXPECT_TRUE(tile.bounds.contains(tp));
      }
    }
  });
  for (std::size_t i = 0; i < covered.size(); ++i)
    EXPECT_EQ(covered[i], 1) << "grid point " << i;
  EXPECT_EQ(stats.tiles, expected_index);
  EXPECT_EQ(stats.tiles, stats.tiles_x * stats.tiles_y);
  EXPECT_LE(stats.peak_tile_points, topt.max_tile_points);
  EXPECT_EQ(stats.points, grid.size());
}

TEST(TiledEvaluator, StatsReportCullingAndTimings) {
  const tsvlib::Placement p = cluster_placement();
  const StressFramework fw(p);
  const geo::SampleGrid grid = test_grid(p);
  TiledOptions topt;
  topt.max_tile_points = 150;
  const TiledEvaluator tiled(fw, topt);
  const TiledStats stats = tiled.evaluate(grid, [](const Tile&) {});

  ASSERT_NE(fw.stage2(), nullptr);
  EXPECT_EQ(stats.total_pairs, fw.stage2()->victim_runs().pair_count());
  EXPECT_GT(stats.total_pairs, 0u);
  // Every pair contributes to at least one tile, but small tiles of a large
  // chip must cull: the per-tile total stays below pairs x tiles.
  EXPECT_GE(stats.culled_pairs, stats.total_pairs);
  EXPECT_LT(stats.culled_pairs, stats.total_pairs * stats.tiles);
  // Every tile takes the fused pass, timed as Stage II.
  EXPECT_EQ(stats.stage1_seconds, 0.0);
  EXPECT_GT(stats.stage2_seconds, 0.0);
}

TEST(TiledEvaluator, SingleTileWhenBudgetCoversTheGrid) {
  const tsvlib::Placement pair = tsvlib::make_pair(kS, 10.0);
  const StressFramework fw(pair);
  const geo::SampleGrid grid(geo::Box::centered({0, 0}, 20, 10), 11, 6);
  const TiledEvaluator tiled(fw);  // default budget 64k points
  std::size_t tiles = 0;
  const TiledStats stats = tiled.evaluate(grid, [&](const Tile& tile) {
    ++tiles;
    EXPECT_EQ(tile.nx, grid.nx());
    EXPECT_EQ(tile.ny, grid.ny());
  });
  EXPECT_EQ(tiles, 1u);
  EXPECT_EQ(stats.tiles, 1u);
  EXPECT_EQ(stats.peak_tile_points, grid.size());
}

// The tile driver composes with the Stage II thread pool: the cell schedule
// fixes every point's summation order, so runs at 2, 3 and 4 threads are
// bitwise the serial one (this test carries the `tsan` label).
TEST(TiledEvaluator, ParallelTilesMatchSerialBitwise) {
  const tsvlib::Placement p = cluster_placement();
  const geo::SampleGrid grid = test_grid(p);

  const auto run = [&](std::size_t threads) {
    FrameworkOptions fopt;
    fopt.num_threads = threads;
    const StressFramework fw(p, fopt);
    TiledOptions topt;
    topt.max_tile_points = 250;
    const TiledEvaluator tiled(fw, topt);
    std::vector<num::SymTensor2> out(grid.size());
    tiled.evaluate(grid, [&](const Tile& tile) {
      for (std::size_t ty = 0; ty < tile.ny; ++ty)
        for (std::size_t tx = 0; tx < tile.nx; ++tx)
          out[(tile.iy0 + ty) * grid.nx() + (tile.ix0 + tx)] =
              tile.stress[ty * tile.nx + tx];
    });
    return out;
  };

  const auto want = run(1);
  for (const std::size_t threads : {2u, 3u, 4u}) {
    SCOPED_TRACE(threads);
    const auto got = run(threads);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].s11, want[i].s11) << i;
      EXPECT_EQ(got[i].s22, want[i].s22) << i;
      EXPECT_EQ(got[i].s12, want[i].s12) << i;
    }
  }
}

// --- checkpoint / resume -------------------------------------------------

/// Runs a tiled evaluation collecting the full field; with `stop_after` >= 0
/// the consumer throws after that many tiles (simulating an interruption).
struct InterruptedRun : std::runtime_error {
  InterruptedRun() : std::runtime_error("interrupted") {}
};

std::vector<num::SymTensor2> collect(const geo::SampleGrid& grid,
                                     const TiledEvaluator& tiled,
                                     const CheckpointConfig& config,
                                     TiledStats* stats_out = nullptr,
                                     std::ptrdiff_t stop_after = -1) {
  std::vector<num::SymTensor2> out(grid.size());
  std::ptrdiff_t seen = 0;
  const TiledStats stats = tiled.evaluate(grid, [&](const Tile& tile) {
    if (stop_after >= 0 && seen++ == stop_after) throw InterruptedRun{};
    for (std::size_t ty = 0; ty < tile.ny; ++ty)
      for (std::size_t tx = 0; tx < tile.nx; ++tx)
        out[(tile.iy0 + ty) * grid.nx() + (tile.ix0 + tx)] =
            tile.stress[ty * tile.nx + tx];
  }, config);
  if (stats_out != nullptr) *stats_out = stats;
  return out;
}

TEST(TiledEvaluator, CheckpointWriterSeesMonotonicState) {
  const tsvlib::Placement p = cluster_placement();
  const StressFramework fw(p);
  const geo::SampleGrid grid = test_grid(p);
  TiledOptions topt;
  topt.max_tile_points = 200;
  const TiledEvaluator tiled(fw, topt);

  std::vector<TiledCheckpoint> saved;
  CheckpointConfig config;
  config.every_tiles = 2;
  config.writer = [&](const TiledCheckpoint& cp) { saved.push_back(cp); };
  TiledStats stats;
  collect(grid, tiled, config, &stats);

  ASSERT_GT(stats.tiles, 4u);
  EXPECT_EQ(stats.checkpoints_written, saved.size());
  // Every other tile triggers a write, but never the final one.
  EXPECT_EQ(saved.size(), (stats.tiles - 1) / 2);
  std::size_t prev_tiles = 0;
  for (const TiledCheckpoint& cp : saved) {
    EXPECT_EQ(cp.fingerprint, tiled.fingerprint(grid));
    EXPECT_GT(cp.tiles_done, prev_tiles);
    EXPECT_LT(cp.tiles_done, stats.tiles);
    prev_tiles = cp.tiles_done;
  }
  EXPECT_EQ(stats.resumed_tiles, 0u);
}

TEST(TiledEvaluator, ResumeReplaysInterruptedRunBitwise) {
  const tsvlib::Placement p = cluster_placement();
  const StressFramework fw(p);
  const geo::SampleGrid grid = test_grid(p);
  TiledOptions topt;
  topt.max_tile_points = 200;
  const TiledEvaluator tiled(fw, topt);

  // Clean reference run, no checkpointing.
  const std::vector<num::SymTensor2> want =
      collect(grid, tiled, CheckpointConfig{0, nullptr, nullptr});

  // Interrupted run: keep the latest checkpoint, die after 5 tiles.
  TiledCheckpoint last;
  CheckpointConfig config;
  config.every_tiles = 2;
  config.writer = [&](const TiledCheckpoint& cp) { last = cp; };
  EXPECT_THROW(collect(grid, tiled, config, nullptr, 5), InterruptedRun);
  ASSERT_EQ(last.tiles_done, 4u);  // tiles 0..3 checkpointed before death

  // Resumed run: replays the 4 finished tiles, computes the rest.
  CheckpointConfig resume_config;
  resume_config.resume = &last;
  TiledStats stats;
  const std::vector<num::SymTensor2> got =
      collect(grid, tiled, resume_config, &stats);
  EXPECT_EQ(stats.resumed_tiles, 4u);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].s11, want[i].s11) << i;
    EXPECT_EQ(got[i].s22, want[i].s22) << i;
    EXPECT_EQ(got[i].s12, want[i].s12) << i;
  }
}

// The fingerprint leaves the thread count out because the field does not
// depend on it: a checkpoint written at 4 threads and resumed at 1 streams
// the bits of an uninterrupted 2-thread run.
TEST(TiledEvaluator, CheckpointResumesBitwiseAtAnotherThreadCount) {
  const tsvlib::Placement p = cluster_placement();
  const geo::SampleGrid grid = test_grid(p);
  const auto framework = [&](std::size_t threads) {
    FrameworkOptions fopt;
    fopt.num_threads = threads;
    return StressFramework(p, fopt);
  };
  const StressFramework fw4 = framework(4);
  const StressFramework fw1 = framework(1);
  const StressFramework fw2 = framework(2);
  const TiledEvaluator tiled4(fw4, TiledOptions{200});
  const TiledEvaluator tiled1(fw1, TiledOptions{200});
  const TiledEvaluator tiled2(fw2, TiledOptions{200});
  ASSERT_EQ(tiled4.fingerprint(grid), tiled1.fingerprint(grid));

  TiledCheckpoint last;
  CheckpointConfig config;
  config.every_tiles = 2;
  config.writer = [&](const TiledCheckpoint& cp) { last = cp; };
  EXPECT_THROW(collect(grid, tiled4, config, nullptr, 5), InterruptedRun);
  ASSERT_EQ(last.tiles_done, 4u);

  CheckpointConfig resume_config;
  resume_config.resume = &last;
  TiledStats stats;
  const std::vector<num::SymTensor2> got =
      collect(grid, tiled1, resume_config, &stats);
  EXPECT_EQ(stats.resumed_tiles, 4u);
  const std::vector<num::SymTensor2> want =
      collect(grid, tiled2, CheckpointConfig{0, nullptr, nullptr});
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].s11, want[i].s11) << i;
    EXPECT_EQ(got[i].s22, want[i].s22) << i;
    EXPECT_EQ(got[i].s12, want[i].s12) << i;
  }
}

TEST(TiledEvaluator, MismatchedCheckpointRejected) {
  const tsvlib::Placement p = cluster_placement();
  const StressFramework fw(p);
  const geo::SampleGrid grid = test_grid(p);
  const TiledEvaluator tiled(fw, TiledOptions{200});

  TiledCheckpoint stale;
  stale.fingerprint = tiled.fingerprint(grid) ^ 1;  // wrong configuration
  stale.tiles_done = 1;
  CheckpointConfig config;
  config.resume = &stale;
  EXPECT_THROW(tiled.evaluate(grid, [](const Tile&) {}, config),
               tsv::InvalidInputError);

  // Right fingerprint but lying tile count: also rejected, not crashed.
  TiledCheckpoint lying;
  lying.fingerprint = tiled.fingerprint(grid);
  lying.tiles_done = 2;  // claims 2 tiles but holds no field data
  config.resume = &lying;
  EXPECT_THROW(tiled.evaluate(grid, [](const Tile&) {}, config),
               tsv::InvalidInputError);
}

TEST(TiledEvaluator, FingerprintSeparatesConfigurations) {
  const tsvlib::Placement p = cluster_placement();
  const geo::SampleGrid grid = test_grid(p);
  const StressFramework fw(p);
  const TiledEvaluator a(fw, TiledOptions{200});
  const TiledEvaluator b(fw, TiledOptions{300});  // different tiling
  EXPECT_NE(a.fingerprint(grid), b.fingerprint(grid));
  EXPECT_EQ(a.fingerprint(grid), a.fingerprint(grid));

  // Different placement: different fingerprint.
  const tsvlib::Placement q =
      tsvlib::make_random(kS, 40, geo::Box{{0, 0}, {150, 150}}, 10.0, 100);
  const StressFramework fwq(q);
  const TiledEvaluator c(fwq, TiledOptions{200});
  EXPECT_NE(a.fingerprint(grid), c.fingerprint(grid));
}

// Everything that changes the field changes the fingerprint: the three
// materials, the Stage I field (its thermal load, its kind), the cutoffs,
// the Stage II model and whether a certified surrogate serves it. Two
// characterizations built alike agree, so a checkpoint resumes in another
// process.
TEST(TiledEvaluator, FingerprintCoversStructureLoadCutoffsAndStageTwoPath) {
  const tsvlib::Placement p = cluster_placement();
  const geo::SampleGrid grid = test_grid(p);
  const Characterization ch =
      characterize(kS, mat::ThermalLoad{}, StageTwo::kSeries);
  const auto fingerprint =
      [&](std::shared_ptr<const SingleTsvField> table,
          std::shared_ptr<const ana::InteractiveStressModel> model,
          const FrameworkOptions& opt = {},
          const tsvlib::TsvStructure& structure = kS) {
        const StressFramework fw(tsvlib::Placement(structure, p.centers()),
                                 std::move(table), std::move(model), opt);
        return TiledEvaluator(fw, TiledOptions{200}).fingerprint(grid);
      };
  const std::uint64_t base = fingerprint(ch.table, ch.model);
  const Characterization again = characterize(kS, {}, StageTwo::kSeries);
  EXPECT_EQ(fingerprint(again.table, again.model), base);

  tsvlib::TsvStructure sio2 = kS;
  sio2.liner = tsvlib::TsvStructure::baseline_sio2().liner;
  EXPECT_NE(fingerprint(ch.table, ch.model, {}, sio2), base);
  tsvlib::TsvStructure cnt = kS;
  cnt.body.cte *= 0.5;
  EXPECT_NE(fingerprint(ch.table, ch.model, {}, cnt), base);

  mat::ThermalLoad cooler;
  cooler.delta_t = -200.0;
  const Characterization cool = characterize(kS, cooler, StageTwo::kSeries);
  EXPECT_NE(fingerprint(cool.table, ch.model), base);
  EXPECT_NE(fingerprint(ch.table, cool.model), base);
  // The same Stage I field sampled as a 2D map.
  constexpr std::size_t kN = 121;
  std::vector<num::SymTensor2> values;
  for (std::size_t iy = 0; iy < kN; ++iy)
    for (std::size_t ix = 0; ix < kN; ++ix)
      values.push_back(ch.table->stress_at(
          {0.0, 0.0}, {-30.0 + 0.5 * static_cast<double>(ix),
                       -30.0 + 0.5 * static_cast<double>(iy)}));
  EXPECT_NE(fingerprint(std::make_shared<const StressMapTable>(
                            std::move(values), kN, 30.0),
                        ch.model),
            base);
  // A model with another inclusion response, and no model (LS).
  ana::InclusionResponseOptions coarse;
  coarse.max_basis_power = 2;
  coarse.series_order = 8;
  coarse.collocation_points = 32;
  EXPECT_NE(fingerprint(ch.table,
                        std::make_shared<const ana::InteractiveStressModel>(
                            std::make_shared<const ana::InclusionResponse>(
                                kS, coarse),
                            ch.model->k_hat())),
            base);
  EXPECT_NE(fingerprint(ch.table, nullptr), base);

  FrameworkOptions opt;
  opt.influence_radius = 20.0;
  EXPECT_NE(fingerprint(ch.table, ch.model, opt), base);
  opt = {};
  opt.pair_pitch_cutoff = 20.0;
  EXPECT_NE(fingerprint(ch.table, ch.model, opt), base);

  const Characterization fitted =
      characterize(kS, mat::ThermalLoad{}, StageTwo::kSurrogate);
  EXPECT_NE(fingerprint(fitted.table, fitted.model), base);
  // The thread count does not change the field's identity.
  opt = {};
  opt.num_threads = 4;
  EXPECT_EQ(fingerprint(ch.table, ch.model, opt), base);
}

// A checkpoint of the BCB-liner run must not be replayed into the SiO2-liner
// run of the same centers and grid: the SiO2 run recomputes every tile.
TEST(TiledEvaluator, CheckpointOfAnotherLinerIsRecomputed) {
  const tsvlib::Placement bcb = cluster_placement();
  const tsvlib::Placement sio2(tsvlib::TsvStructure::baseline_sio2(),
                               bcb.centers());
  const geo::SampleGrid grid = test_grid(bcb);
  const StressFramework fw_bcb(bcb);
  const StressFramework fw_sio2(sio2);
  const TiledEvaluator tiled_bcb(fw_bcb, TiledOptions{200});
  const TiledEvaluator tiled_sio2(fw_sio2, TiledOptions{200});
  ASSERT_NE(tiled_bcb.fingerprint(grid), tiled_sio2.fingerprint(grid));

  // An interrupted BCB run leaves its checkpoint on disk.
  const std::string path =
      ::testing::TempDir() + "tiled_other_liner.ckpt";
  TiledCheckpoint last;
  CheckpointConfig config;
  config.every_tiles = 2;
  config.writer = [&](const TiledCheckpoint& cp) { last = cp; };
  EXPECT_THROW(collect(grid, tiled_bcb, config, nullptr, 5), InterruptedRun);
  ASSERT_EQ(last.tiles_done, 4u);
  io::save_tiled_checkpoint(path, last);

  const std::vector<num::SymTensor2> want =
      collect(grid, tiled_sio2, CheckpointConfig{0, nullptr, nullptr});
  std::vector<num::SymTensor2> got(grid.size());
  ::testing::internal::CaptureStderr();
  const TiledStats stats = io::evaluate_with_checkpoint(
      tiled_sio2, grid,
      [&](const Tile& t) {
        std::size_t k = 0;
        for (std::size_t iy = t.iy0; iy < t.iy0 + t.ny; ++iy)
          for (std::size_t ix = t.ix0; ix < t.ix0 + t.nx; ++ix, ++k)
            got[iy * grid.nx() + ix] = t.stress[k];
      },
      path, 2);
  EXPECT_NE(::testing::internal::GetCapturedStderr().find(
                "checkpoint ignored"),
            std::string::npos);
  EXPECT_EQ(stats.resumed_tiles, 0u);
  EXPECT_EQ(stats.checkpoints_ignored, 1u);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].s11, want[i].s11) << i;
    EXPECT_EQ(got[i].s22, want[i].s22) << i;
    EXPECT_EQ(got[i].s12, want[i].s12) << i;
  }
}

}  // namespace
}  // namespace tsv::core
