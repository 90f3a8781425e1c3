// One disc pass per TSV: the radial table kernel's SIMD variants against
// the scalar per-point kernel, and the fused Stage I + II window pass
// against the two separate passes it replaces.
//
//   - Every variant of RadialStressTable::accumulate the host can run
//     (generic always, AVX2 and AVX-512 when the CPU has them) is bitwise
//     the scalar loop, lane by lane, at adversarial radii: the center, table
//     nodes, around max_radius, within a table interval of R and R', and on
//     disc lengths that are not a multiple of the lane count.
//   - StressFramework::evaluate(grid) and TiledEvaluator (many tiles) equal
//     LinearSuperposition::evaluate(window) +
//     InteractiveStage::evaluate_runs(window, victim_runs()) within
//     1e-12 of the field scale, at 1 and 4 threads, on placements with a
//     lone TSV, an isolated TSV, a rim point exactly 25 um from a TSV, TSV
//     centers on grid points and on tile corners; with the series and the
//     surrogate, and with a radial table and a 2D map as Stage I.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "analytic/surrogate.h"
#include "core/framework.h"
#include "core/stress_map_table.h"
#include "core/stress_table.h"
#include "core/tiled_evaluator.h"
#include "numeric/parallel.h"
#include "tsv/generators.h"

namespace tsv::core {
namespace {

const tsvlib::TsvStructure kS = tsvlib::TsvStructure::baseline_bcb();

const RadialStressTable& default_table() {
  static const RadialStressTable table =
      *characterize(kS, {}, StageTwo::kOff).table;
  return table;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Runs every host variant and the scalar loop on the same points and
/// initial output, and checks each component bit for bit.
void expect_variants_bitwise(const RadialStressTable& table,
                             const geo::Point& c,
                             const std::vector<geo::Point>& pts) {
  // A non-zero start (with a -0.0) checks the accumulate itself: adding a
  // zero contribution turns -0.0 into +0.0 in the scalar loop too.
  std::vector<num::SymTensor2> init(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i)
    init[i] = {i % 3 == 0 ? -0.0 : 0.5 * static_cast<double>(i), -1.25, 0.0};
  std::vector<num::SymTensor2> want = init;
  detail::radial_accumulate_scalar(table, c, pts.data(), pts.size(),
                                   want.data());
  for (const detail::RadialAccumulateVariant& v :
       detail::radial_accumulate_variants()) {
    // The whole list, about half of it and one point: prefixes whose last
    // block is partial at different lanes, and the points past n untouched.
    for (std::size_t n : {pts.size(), pts.size() / 2 + 1, std::size_t{1}}) {
      if (n > pts.size()) continue;
      std::vector<num::SymTensor2> got = init;
      v.run(table, c, pts.data(), n, got.data());
      for (std::size_t i = 0; i < pts.size(); ++i) {
        const num::SymTensor2& w = i < n ? want[i] : init[i];
        EXPECT_EQ(bits(got[i].s11), bits(w.s11)) << v.name << " n=" << n
                                                 << " i=" << i;
        EXPECT_EQ(bits(got[i].s22), bits(w.s22)) << v.name << " n=" << n
                                                 << " i=" << i;
        EXPECT_EQ(bits(got[i].s12), bits(w.s12)) << v.name << " n=" << n
                                                 << " i=" << i;
      }
    }
  }
}

TEST(TableKernel, HostVariantsStartWithGenericAndAccumulateRunsTheLast) {
  const auto variants = detail::radial_accumulate_variants();
  ASSERT_FALSE(variants.empty());
  EXPECT_STREQ(variants.front().name, "generic");
  const RadialStressTable& table = default_table();
  const std::vector<geo::Point> pts = {{1.0, 2.0}, {7.5, -3.0}, {0.0, 0.0}};
  std::vector<num::SymTensor2> want(pts.size()), got(pts.size());
  variants.back().run(table, {0.5, 0.5}, pts.data(), pts.size(), want.data());
  table.accumulate({0.5, 0.5}, pts.data(), pts.size(), got.data());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(bits(got[i].s11), bits(want[i].s11));
    EXPECT_EQ(bits(got[i].s12), bits(want[i].s12));
  }
}

TEST(TableKernel, VariantsAreBitwiseTheScalarKernelAtAdversarialRadii) {
  const RadialStressTable& table = default_table();
  const double rmax = table.max_radius();
  const double dr = rmax / static_cast<double>(table.srr().size() - 1);
  const double r_body = kS.body_radius;
  const double r_outer = kS.outer_radius();
  const geo::Point c{3.25, -7.5};
  std::vector<geo::Point> pts;
  const auto at = [&](double r, double theta) {
    pts.push_back({c.x + r * std::cos(theta), c.y + r * std::sin(theta)});
  };
  pts.push_back(c);  // r = 0: the rotation degenerates to the identity
  // Along the axes the radius is exact: table nodes, and max_radius from
  // below, at and above.
  for (const double r : {dr, 2.0 * dr, 100.0 * dr, rmax - dr,
                         std::nextafter(rmax, 0.0), rmax,
                         std::nextafter(rmax, 2.0 * rmax), rmax + dr}) {
    pts.push_back({c.x + r, c.y});
    pts.push_back({c.x, c.y - r});
  }
  // Table nodes and within one table interval of R and R' off the axes.
  for (const double theta : {0.3, 1.9, 4.4})
    for (int k = -4; k <= 4; ++k) {
      at(r_body + 0.25 * k * dr, theta);
      at(r_outer + 0.25 * k * dr, theta);
      at((512 + k) * dr, theta);
    }
  // A dense random disc out past max_radius.
  std::mt19937 rng(31);
  std::uniform_real_distribution<double> coord(-1.1 * rmax, 1.1 * rmax);
  for (int i = 0; i < 333; ++i)
    pts.push_back({c.x + coord(rng), c.y + coord(rng)});
  ASSERT_NE(pts.size() % 8, 0u);
  ASSERT_NE(pts.size() % 4, 0u);
  expect_variants_bitwise(table, c, pts);

  // Disc lengths 1..17 cover every tail of 2-, 4- and 8-lane blocks.
  for (std::size_t n = 1; n <= 17; ++n)
    expect_variants_bitwise(
        table, c, std::vector<geo::Point>(pts.begin(), pts.begin() + n));
}

TEST(TableKernel, VariantsClampTheLastIntervalOfASmallTable) {
  // Seven samples over 3 um: the top interval and max_radius are a few
  // lanes' worth of points, and just below max_radius the interpolation
  // index reaches the last sample.
  const RadialStressTable table({1.0, -2.0, 3.5, 0.25, -1.0, 2.0, 9.0},
                                {0.5, 0.5, -1.5, 2.0, 4.0, -3.0, 7.0}, 3.0);
  std::vector<geo::Point> pts;
  for (double r = 0.0; r <= 3.2; r += 0.0625) pts.push_back({r, 0.5 * r});
  for (const double r :
       {std::nextafter(3.0, 0.0), 3.0, 2.5, std::nextafter(2.5, 0.0)})
    pts.push_back({r, 0.0});
  expect_variants_bitwise(table, {0.0, 0.0}, pts);
}

// --- the fused pass ------------------------------------------------------

constexpr std::size_t kTilePoints = 400;  // 20 x 20 tiles

/// A 121 x 101 grid of integer points, 1 um apart.
geo::SampleGrid test_grid() {
  return geo::SampleGrid(geo::Box{{-30.0, -30.0}, {90.0, 70.0}}, 121, 101);
}

/// The grid point at the lower-left corner of tile (tx, ty).
geo::Point tile_corner(const geo::SampleGrid& grid, std::size_t tx,
                       std::size_t ty) {
  const auto side = static_cast<std::size_t>(
      std::floor(std::sqrt(static_cast<double>(kTilePoints))));
  const std::size_t tiles_x = (grid.nx() + side - 1) / side;
  const std::size_t tiles_y = (grid.ny() + side - 1) / side;
  return grid.point(num::chunk_bounds(grid.nx(), tiles_x, tx).first,
                    num::chunk_bounds(grid.ny(), tiles_y, ty).first);
}

/// Every case at once: a 3-TSV cluster on grid points (one at the origin,
/// whose disc holds (15, 20) exactly 25 um away), an isolated TSV with no
/// aggressor, and a pair on tile corners.
tsvlib::Placement mixed_placement(const geo::SampleGrid& grid) {
  tsvlib::Placement p(kS);
  p.add({0.0, 0.0});
  p.add({10.0, 0.0});
  p.add({5.0, 9.0});
  p.add({60.0, -20.0});  // > 25 um from every other TSV
  const geo::Point a = tile_corner(grid, 3, 3);
  const geo::Point b = tile_corner(grid, 4, 3);
  p.add(a);
  p.add(b);
  return p;
}

std::vector<num::SymTensor2> separate_passes(const StressFramework& fw,
                                             const geo::GridWindow& window) {
  std::vector<num::SymTensor2> total = fw.stage1().evaluate(window);
  const std::vector<num::SymTensor2> stage2 =
      fw.stage2()->evaluate_runs(window, fw.stage2()->victim_runs());
  for (std::size_t i = 0; i < total.size(); ++i) total[i] += stage2[i];
  return total;
}

std::vector<num::SymTensor2> tiled_field(const StressFramework& fw,
                                         const geo::SampleGrid& grid) {
  TiledOptions topt;
  topt.max_tile_points = kTilePoints;
  std::vector<num::SymTensor2> out(grid.size());
  const TiledStats stats =
      TiledEvaluator(fw, topt).evaluate(grid, [&](const Tile& tile) {
        for (std::size_t ty = 0; ty < tile.ny; ++ty)
          for (std::size_t tx = 0; tx < tile.nx; ++tx)
            out[(tile.iy0 + ty) * grid.nx() + tile.ix0 + tx] =
                tile.stress[ty * tile.nx + tx];
      });
  EXPECT_GT(stats.tiles, 20u);
  EXPECT_EQ(stats.stage1_seconds, 0.0);
  return out;
}

void expect_close(const std::vector<num::SymTensor2>& got,
                  const std::vector<num::SymTensor2>& want) {
  ASSERT_EQ(got.size(), want.size());
  double scale = 0.0;
  for (const num::SymTensor2& s : want)
    scale = std::max({scale, std::abs(s.s11), std::abs(s.s22),
                      std::abs(s.s12)});
  ASSERT_GT(scale, 0.0);
  const double tol = 1e-12 * scale;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_NEAR(got[i].s11, want[i].s11, tol) << i;
    ASSERT_NEAR(got[i].s22, want[i].s22, tol) << i;
    ASSERT_NEAR(got[i].s12, want[i].s12, tol) << i;
  }
}

/// The fused grid and tiled evaluations against the separate passes, at 1
/// and 4 threads.
void expect_fused_matches_separate(
    const tsvlib::Placement& placement,
    std::shared_ptr<const SingleTsvField> stage1,
    std::shared_ptr<const ana::InteractiveStressModel> model) {
  const geo::SampleGrid grid = test_grid();
  for (const std::size_t threads : {1u, 4u}) {
    FrameworkOptions opt;
    opt.num_threads = threads;
    const StressFramework fw(placement, stage1, model, opt);
    const std::vector<num::SymTensor2> want =
        separate_passes(fw, geo::GridWindow(grid));
    const StressResult whole = fw.evaluate(grid);
    EXPECT_EQ(whole.stage1_seconds, 0.0);
    expect_close(whole.stress, want);
    expect_close(tiled_field(fw, grid), want);
  }
}

std::shared_ptr<const ana::InteractiveStressModel> series_model() {
  static const auto model = characterize(kS, {}, StageTwo::kSeries).model;
  return model;
}

TEST(FusedPass, MatchesSeparatePassesOnMixedPlacement) {
  const geo::SampleGrid grid = test_grid();
  const tsvlib::Placement p = mixed_placement(grid);
  // The rim point is a grid point of the origin TSV's disc.
  ASSERT_EQ(geo::distance_squared(grid.point(45, 50), {0.0, 0.0}), 625.0);
  expect_fused_matches_separate(
      p, std::make_shared<const RadialStressTable>(default_table()),
      series_model());
}

TEST(FusedPass, MatchesSeparatePassesForALoneTsv) {
  tsvlib::Placement lone(kS);
  lone.add({7.0, 3.0});
  expect_fused_matches_separate(
      lone, std::make_shared<const RadialStressTable>(default_table()),
      series_model());
}

TEST(FusedPass, MatchesSeparatePassesWithTheSurrogate) {
  const Characterization ch = characterize(kS, {}, StageTwo::kSurrogate);
  ASSERT_NE(ch.model->surrogate_for(25.0), nullptr);
  expect_fused_matches_separate(mixed_placement(test_grid()), ch.table,
                                ch.model);
}

TEST(FusedPass, MatchesSeparatePassesWithAStressMapStageOne) {
  // A 2D map sampled from the radial table, as a FEM map would be.
  constexpr std::size_t kN = 121;
  constexpr double kHalf = 30.0;
  std::vector<num::SymTensor2> values;
  for (std::size_t iy = 0; iy < kN; ++iy)
    for (std::size_t ix = 0; ix < kN; ++ix)
      values.push_back(default_table().stress_at(
          {0.0, 0.0}, {-kHalf + 0.5 * static_cast<double>(ix),
                       -kHalf + 0.5 * static_cast<double>(iy)}));
  expect_fused_matches_separate(
      mixed_placement(test_grid()),
      std::make_shared<const StressMapTable>(std::move(values), kN, kHalf),
      series_model());
}

TEST(FusedPass, TileRunsHoldEveryTsvWithinReachAndKeepThePairCounts) {
  const geo::SampleGrid grid = test_grid();
  const tsvlib::Placement p = mixed_placement(grid);
  const StressFramework fw(p);
  const InteractiveStage& stage2 = *fw.stage2();
  // The whole design: every TSV, the isolated one with no aggressor.
  const VictimRuns all = stage2.victim_runs();
  ASSERT_EQ(all.victims.size(), p.size());
  EXPECT_EQ(all.offsets[4], all.offsets[3]);
  EXPECT_EQ(all.pair_count(), stage2.pair_count());
  // A window whose nearest point is exactly 25 um from the origin TSV.
  const geo::Box rim{{15.0, 20.0}, {30.0, 30.0}};
  const VictimRuns near = stage2.victim_runs_near(rim);
  EXPECT_NE(std::find(near.victims.begin(), near.victims.end(), 0u),
            near.victims.end());
  EXPECT_EQ(VictimRuns::from_pairs(near.pairs()).pairs(), near.pairs());
}

}  // namespace
}  // namespace tsv::core
