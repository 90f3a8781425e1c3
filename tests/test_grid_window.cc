// GridWindow: the grid-disc enumerator both stages walk, and the
// disc-major window evaluations built on it. for_disc_rows must return
// exactly the points a brute-force scan of distance_squared <= r^2 finds,
// in ascending window index order; Stage I and Stage II on a window must be
// bitwise their point-list evaluations at the window's points.

#include "geometry/grid_window.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <random>
#include <vector>

#include "analytic/surrogate.h"
#include "core/framework.h"
#include "core/interactive_stage.h"
#include "core/stress_map_table.h"
#include "core/superposition.h"
#include "geometry/grid_index.h"
#include "tsv/generators.h"

namespace tsv {
namespace {

using geo::Box;
using geo::GridWindow;
using geo::Point;
using geo::SampleGrid;

const tsvlib::TsvStructure kS = tsvlib::TsvStructure::baseline_bcb();

/// Window indices of the disc, as for_disc_rows reports them.
std::vector<std::size_t> disc_rows(const GridWindow& w, const Point& c,
                                   double r) {
  std::vector<std::size_t> out;
  w.for_disc_rows(c, r, [&](std::size_t row, std::size_t b, std::size_t e) {
    EXPECT_LT(b, e);
    EXPECT_LE(e, w.nx());
    EXPECT_LT(row, w.ny());
    for (std::size_t col = b; col < e; ++col) out.push_back(row * w.nx() + col);
  });
  return out;
}

/// Window indices of every point with distance_squared <= r^2.
std::vector<std::size_t> brute_force(const GridWindow& w, const Point& c,
                                     double r) {
  std::vector<std::size_t> out;
  for (std::size_t iy = 0; iy < w.ny(); ++iy)
    for (std::size_t ix = 0; ix < w.nx(); ++ix)
      if (geo::distance_squared(w.point(ix, iy), c) <= r * r)
        out.push_back(iy * w.nx() + ix);
  return out;
}

TEST(GridWindow, PointsAreTheGridPointsRowMajor) {
  const SampleGrid grid(Box{{-3.0, 2.0}, {7.0, 9.5}}, 11, 7);
  const std::vector<Point> all = GridWindow(grid).points();
  const std::vector<Point> ref = grid.points();
  ASSERT_EQ(all.size(), ref.size());
  EXPECT_EQ(std::memcmp(all.data(), ref.data(), all.size() * sizeof(Point)),
            0);
  const GridWindow tile(grid, 2, 6, 3, 5);
  const std::vector<Point> pts = tile.points();
  ASSERT_EQ(pts.size(), 8u);
  for (std::size_t iy = 0; iy < 2; ++iy)
    for (std::size_t ix = 0; ix < 4; ++ix) {
      const Point want = grid.point(2 + ix, 3 + iy);
      EXPECT_EQ(pts[iy * 4 + ix].x, want.x);
      EXPECT_EQ(pts[iy * 4 + ix].y, want.y);
    }
  EXPECT_EQ(tile.bounds().lo.x, grid.point(2, 3).x);
  EXPECT_EQ(tile.bounds().hi.y, grid.point(5, 4).y);
  const GridWindow band = tile.rows(1, 2);
  EXPECT_EQ(band.ny(), 1u);
  EXPECT_EQ(band.point(3, 0).x, grid.point(5, 4).x);
  EXPECT_EQ(band.point(3, 0).y, grid.point(5, 4).y);
  EXPECT_THROW(GridWindow(grid, 3, 3, 0, 1), std::invalid_argument);
  EXPECT_THROW(GridWindow(grid, 0, 12, 0, 1), std::invalid_argument);
}

TEST(GridWindow, DiscRowsMatchBruteForceOnRandomWindows) {
  std::mt19937 rng(20261017);
  std::uniform_real_distribution<double> coord(-150.0, 150.0);
  std::uniform_real_distribution<double> spacing(0.37, 4.1);
  std::uniform_int_distribution<std::size_t> count(1, 60);
  std::uniform_real_distribution<double> radius(0.0, 40.0);
  for (int trial = 0; trial < 400; ++trial) {
    const Point lo{coord(rng), coord(rng)};
    const std::size_t nx = count(rng);
    const std::size_t ny = count(rng);
    const SampleGrid grid(
        Box{lo,
            {lo.x + spacing(rng) * static_cast<double>(nx - 1),
             lo.y + spacing(rng) * static_cast<double>(ny - 1)}},
        nx, ny);
    std::uniform_int_distribution<std::size_t> cx(0, nx - 1), cy(0, ny - 1);
    std::size_t ix0 = cx(rng), ix1 = cx(rng), iy0 = cy(rng), iy1 = cy(rng);
    if (ix0 > ix1) std::swap(ix0, ix1);
    if (iy0 > iy1) std::swap(iy0, iy1);
    const GridWindow windows[] = {GridWindow(grid),
                                  GridWindow(grid, ix0, ix1 + 1, iy0, iy1 + 1)};
    const Box& b = grid.box();
    for (const GridWindow& w : windows) {
      for (int k = 0; k < 8; ++k) {
        // Centers inside, near and far outside the grid (negative
        // coordinates included); radii from zero to beyond the grid.
        std::uniform_real_distribution<double> px(b.lo.x - 60.0,
                                                  b.hi.x + 60.0);
        std::uniform_real_distribution<double> py(b.lo.y - 60.0,
                                                  b.hi.y + 60.0);
        const Point c = k == 0 ? Point{-1e6, 3e5} : Point{px(rng), py(rng)};
        const double r = k == 1 ? 1e7 : k == 2 ? 0.1 : radius(rng);
        SCOPED_TRACE(testing::Message() << "trial " << trial << " c=("
                                        << c.x << "," << c.y << ") r=" << r);
        EXPECT_EQ(disc_rows(w, c, r), brute_force(w, c, r));
      }
    }
  }
}

TEST(GridWindow, DiscRowsMatchBruteForceFarFromTheOrigin) {
  // Near 1e13..1e15 um a coordinate rounds to a multiple of 2^-9..2^-3, so
  // the points sit off their nominal lo + i * d positions and the circle's
  // estimate of each span end is off by a column or more either way; only
  // the exact predicate steps decide.
  std::mt19937 rng(99);
  std::uniform_real_distribution<double> offset(1e13, 1e15);
  std::uniform_real_distribution<double> spacing(0.3, 3.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int trial = 0; trial < 200; ++trial) {
    const Point lo{offset(rng), -offset(rng)};
    const std::size_t n = 40;
    const double d = spacing(rng);
    const SampleGrid grid(Box{lo, {lo.x + d * 39.0, lo.y + d * 39.0}}, n, n);
    const GridWindow w(grid);
    for (int k = 0; k < 6; ++k) {
      const Point c{lo.x + 45.0 * d * unit(rng), lo.y + 45.0 * d * unit(rng)};
      const double r = d * (0.2 + 25.0 * unit(rng));
      EXPECT_EQ(disc_rows(w, c, r), brute_force(w, c, r))
          << "trial " << trial << " r=" << r;
    }
  }
}

TEST(GridWindow, DiscRowsOnSingleRowAndColumnGrids) {
  const SampleGrid row(Box{{-10.0, 4.0}, {30.0, 4.0}}, 41, 1);
  const SampleGrid col(Box{{2.5, -20.0}, {2.5, 20.0}}, 1, 81);
  const SampleGrid dot(Box{{1.0, 1.0}, {1.0, 1.0}}, 1, 1);
  EXPECT_EQ(row.dy(), 0.0);
  EXPECT_EQ(col.dx(), 0.0);
  const Point centers[] = {{0.0, 0.0},   {5.0, 4.0},   {2.5, 3.0},
                           {-40.0, 4.0}, {1.0, 1.0},   {100.0, -100.0},
                           {2.5, 19.0},  {35.0, 30.0}, {1.0, 1.5}};
  for (const SampleGrid& g : {row, col, dot})
    for (const Point& c : centers)
      for (const double r : {0.0, 0.5, 3.0, 25.0, 1e4}) {
        const GridWindow w(g);
        EXPECT_EQ(disc_rows(w, c, r), brute_force(w, c, r))
            << "grid " << g.nx() << "x" << g.ny() << " c=(" << c.x << ","
            << c.y << ") r=" << r;
      }
}

TEST(GridWindow, IntegerCentersKeepPointsExactlyOnTheCircle) {
  // Integer coordinates at unit spacing: the points at integer offsets
  // (25,0), (15,20), (7,24), (24,7) from an integer center lie exactly at
  // distance 25, where only the exact predicate decides.
  const SampleGrid grid(Box{{-40.0, -35.0}, {40.0, 35.0}}, 81, 71);
  const GridWindow whole(grid);
  const GridWindow tile(grid, 10, 60, 5, 50);
  const Point centers[] = {{0.0, 0.0}, {-13.0, 7.0}, {12.0, -30.0},
                           {39.0, 0.0}, {-60.0, 3.0}};
  for (const Point& c : centers) {
    for (const GridWindow* w : {&whole, &tile}) {
      const std::vector<std::size_t> got = disc_rows(*w, c, 25.0);
      EXPECT_EQ(got, brute_force(*w, c, 25.0));
      for (const Point off : {Point{25, 0}, Point{15, 20}, Point{7, 24},
                              Point{24, 7}, Point{-7, -24}, Point{0, -25}}) {
        const Point p = c + off;
        const double fx = p.x - w->point(0, 0).x;
        const double fy = p.y - w->point(0, 0).y;
        if (fx < 0 || fy < 0 || fx >= static_cast<double>(w->nx()) ||
            fy >= static_cast<double>(w->ny()))
          continue;
        const std::size_t idx = static_cast<std::size_t>(fy) * w->nx() +
                                static_cast<std::size_t>(fx);
        EXPECT_TRUE(std::binary_search(got.begin(), got.end(), idx))
            << "point at distance exactly 25 dropped";
      }
    }
    EXPECT_EQ(disc_rows(whole, c, 24.999999999),
              brute_force(whole, c, 24.999999999));
  }
}

TEST(GridWindow, DiscRowsAreThePointIndexQuery) {
  // The members and their order are GridIndex::query_radius over the
  // window's materialized points: the set Stage II used to gather.
  const SampleGrid grid =
      SampleGrid::with_spacing(Box{{-31.7, 12.3}, {88.1, 140.9}}, 1.3);
  const GridWindow w(grid, 7, 70, 11, 83);
  const std::vector<Point> pts = w.points();
  const geo::GridIndex index(pts, geo::Box::bounding(pts), 12.5);
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> ux(-60.0, 120.0), uy(-10.0, 170.0);
  for (int k = 0; k < 300; ++k) {
    const Point c{ux(rng), uy(rng)};
    const std::vector<std::uint32_t> q = index.query_radius(c, 25.0);
    const std::vector<std::size_t> want(q.begin(), q.end());
    EXPECT_EQ(disc_rows(w, c, 25.0), want);
  }
}

bool bitwise_equal(const std::vector<num::SymTensor2>& a,
                   const std::vector<num::SymTensor2>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(),
                     a.size() * sizeof(num::SymTensor2)) == 0;
}

std::shared_ptr<const core::RadialStressTable> radial_table() {
  static const auto table = std::make_shared<const core::RadialStressTable>(
      core::RadialStressTable::from_analytic(
          ana::SingleTsvModel(kS, mat::ThermalLoad{}), 30.0, 4096));
  return table;
}

/// A 2D map with no axial symmetry: the analytic field plus a shear term
/// odd in x and y, sampled at 0.5 um over [-30, 30]^2.
std::shared_ptr<const core::StressMapTable> map_table() {
  static const auto table = [] {
    const ana::SingleTsvModel model(kS, mat::ThermalLoad{});
    constexpr std::size_t n = 121;
    std::vector<num::SymTensor2> values(n * n);
    for (std::size_t iy = 0; iy < n; ++iy)
      for (std::size_t ix = 0; ix < n; ++ix) {
        const Point p{-30.0 + 0.5 * static_cast<double>(ix),
                      -30.0 + 0.5 * static_cast<double>(iy)};
        num::SymTensor2 s = model.stress_at({0.0, 0.0}, p);
        s.s12 += 1e-3 * p.x * p.y + 0.01 * p.x;
        values[iy * n + ix] = s;
      }
    return std::make_shared<const core::StressMapTable>(std::move(values), n,
                                                        30.0);
  }();
  return table;
}

/// A jittered 60-TSV cluster and a grid around it at an irrational spacing.
struct Design {
  tsvlib::Placement placement =
      tsvlib::make_jittered_array(kS, 60, 1.0e-2, 10.0, 2024);
  SampleGrid grid =
      SampleGrid::with_spacing(placement.bounding_box().expanded(27.0), 1.37);
};

/// The whole grid, a tile inside it and a window clipped to one corner.
std::vector<GridWindow> windows_of(const SampleGrid& g) {
  return {GridWindow(g),
          GridWindow(g, g.nx() / 4, g.nx() / 2 + 3, g.ny() / 3, g.ny() - 5),
          GridWindow(g, 0, 17, g.ny() - 9, g.ny())};
}

TEST(StageOneWindow, IsBitwiseThePointMajorEvaluate) {
  const Design d;
  const std::shared_ptr<const core::SingleTsvField> tables[] = {
      radial_table(), map_table()};
  for (const auto& table : tables) {
    for (const std::size_t threads : {1u, 4u}) {
      const core::LinearSuperposition ls(d.placement, table,
                                         core::kInfluenceRadius, threads);
      for (const GridWindow& w : windows_of(d.grid)) {
        SCOPED_TRACE(testing::Message() << "threads " << threads << ", "
                                        << w.nx() << "x" << w.ny());
        const auto want = ls.evaluate(w.points());
        const auto got = ls.evaluate(w);
        EXPECT_TRUE(bitwise_equal(got, want));
      }
    }
  }
}

TEST(StageOneWindow, SingleRowAndFarWindows) {
  const Design d;
  const core::LinearSuperposition ls(d.placement, radial_table());
  const Box b = d.placement.bounding_box();
  const SampleGrid row(Box{{b.lo.x - 5.0, b.center().y},
                           {b.hi.x + 5.0, b.center().y}},
                       211, 1);
  const SampleGrid far(Box{{b.hi.x + 100.0, b.lo.y}, {b.hi.x + 140.0, b.hi.y}},
                       9, 13);
  for (const SampleGrid& g : {row, far}) {
    const GridWindow w(g);
    EXPECT_TRUE(bitwise_equal(ls.evaluate(w), ls.evaluate(w.points())));
  }
}

std::shared_ptr<const ana::InteractiveStressModel> surrogate_model() {
  static const auto model = [] {
    auto m = core::characterize(kS, {}, core::StageTwo::kSeries).model;
    m->attach_surrogate(std::make_shared<const ana::PairSurrogate>(
        ana::PairSurrogate::fit(*m)));
    return m;
  }();
  return model;
}

TEST(StageTwoWindow, IsBitwiseThePointListEvaluate) {
  const Design d;
  for (const std::size_t threads : {1u, 4u}) {
    const core::InteractiveStage stage(d.placement, surrogate_model(),
                                       core::kInfluenceRadius,
                                       core::kPairPitchCutoff, threads);
    for (const GridWindow& w : windows_of(d.grid)) {
      SCOPED_TRACE(testing::Message() << "threads " << threads << ", "
                                      << w.nx() << "x" << w.ny());
      // Whole-placement runs, and the tiled evaluator's culled runs.
      for (const core::VictimRuns& runs :
           {stage.victim_runs(), stage.victim_runs_near(w.bounds())}) {
        const auto want = stage.evaluate_runs(w.points(), runs);
        const auto got = stage.evaluate_runs(w, runs);
        EXPECT_TRUE(bitwise_equal(got, want));
      }
    }
  }
}

TEST(StageTwoWindow, EmptyPairsAndLoneTsvGiveZero) {
  const Design d;
  const core::InteractiveStage stage(d.placement, surrogate_model());
  const GridWindow w(d.grid, 0, 5, 0, 4);
  const auto none = stage.evaluate_runs(w, core::VictimRuns{});
  EXPECT_TRUE(bitwise_equal(none, std::vector<num::SymTensor2>(w.size())));
  const tsvlib::Placement lone(kS, {{0.0, 0.0}});
  const core::InteractiveStage single(lone, surrogate_model());
  EXPECT_TRUE(bitwise_equal(single.evaluate_runs(w, core::VictimRuns{}),
                            std::vector<num::SymTensor2>(w.size())));
}

}  // namespace
}  // namespace tsv
