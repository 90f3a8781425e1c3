#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <random>

#include "geometry/grid_index.h"
#include "geometry/point.h"

namespace tsv::geo {
namespace {

TEST(Point, ArithmeticAndNorms) {
  const Point a{3.0, 4.0};
  const Point b{1.0, -1.0};
  EXPECT_DOUBLE_EQ(norm(a), 5.0);
  EXPECT_DOUBLE_EQ(distance(a, b), std::hypot(2.0, 5.0));
  EXPECT_DOUBLE_EQ(distance_squared(a, b), 29.0);
  EXPECT_DOUBLE_EQ(dot(a, b), -1.0);
  const Point c = a + 2.0 * b;
  EXPECT_DOUBLE_EQ(c.x, 5.0);
  EXPECT_DOUBLE_EQ(c.y, 2.0);
}

TEST(Point, AngleOf) {
  EXPECT_NEAR(angle_of({0, 0}, {1, 0}), 0.0, 1e-12);
  EXPECT_NEAR(angle_of({0, 0}, {0, 1}), std::numbers::pi / 2, 1e-12);
  EXPECT_NEAR(angle_of({1, 1}, {0, 1}), std::numbers::pi, 1e-12);
}

TEST(Box, ContainsAndCentered) {
  const Box b = Box::centered({1.0, 2.0}, 4.0, 2.0);
  EXPECT_TRUE(b.contains({1.0, 2.0}));
  EXPECT_TRUE(b.contains({-1.0, 1.0}));  // corner
  EXPECT_FALSE(b.contains({3.5, 2.0}));
  EXPECT_DOUBLE_EQ(b.width(), 4.0);
  EXPECT_DOUBLE_EQ(b.height(), 2.0);
  EXPECT_DOUBLE_EQ(b.center().x, 1.0);
}

TEST(Box, BoundingIsTheClosedHull) {
  const std::vector<Point> pts = {{2.0, -1.0}, {-3.0, 4.0}, {0.5, 0.5}};
  const Box b = Box::bounding(pts);
  EXPECT_DOUBLE_EQ(b.lo.x, -3.0);
  EXPECT_DOUBLE_EQ(b.lo.y, -1.0);
  EXPECT_DOUBLE_EQ(b.hi.x, 2.0);
  EXPECT_DOUBLE_EQ(b.hi.y, 4.0);
  // Inclusive on every edge: all inputs are contained exactly.
  for (const Point& p : pts) EXPECT_TRUE(b.contains(p));
}

TEST(Box, BoundingOfSinglePointIsDegenerate) {
  const Box b = Box::bounding({{1.5, -2.5}});
  EXPECT_DOUBLE_EQ(b.width(), 0.0);
  EXPECT_DOUBLE_EQ(b.height(), 0.0);
  EXPECT_TRUE(b.contains({1.5, -2.5}));
}

TEST(Box, BoundingOfEmptySetThrows) {
  EXPECT_THROW(Box::bounding({}), std::invalid_argument);
}

// Regression for the former epsilon padding in the Stage II point index:
// an index built on the exact closed hull must find points lying exactly on
// the upper bounds (they clamp into the last cell, not off the grid).
TEST(GridIndex, FindsPointsExactlyOnHullUpperEdge) {
  const std::vector<Point> pts = {{0.0, 0.0}, {10.0, 0.0}, {10.0, 7.0},
                                  {3.0, 7.0}, {10.0, 3.5}};
  const GridIndex index(pts, Box::bounding(pts), 2.0);
  // Query centered on the hull's hi corner picks up every edge point.
  const auto found = index.query_radius({10.0, 7.0}, 4.0);
  EXPECT_EQ(found, (std::vector<std::uint32_t>{2, 4}));
  // Zero-radius query exactly on the edge point.
  const auto exact = index.query_radius({10.0, 7.0}, 0.0);
  EXPECT_EQ(exact, (std::vector<std::uint32_t>{2}));
}

TEST(GridIndex, DegenerateHullStillQueries) {
  // All points on one vertical line: hull width is zero.
  const std::vector<Point> pts = {{5.0, 0.0}, {5.0, 2.0}, {5.0, 9.0}};
  const GridIndex index(pts, Box::bounding(pts), 2.5);
  const auto found = index.query_radius({5.0, 1.0}, 1.5);
  EXPECT_EQ(found, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(index.nearest({5.0, 8.0}), 2u);
}

TEST(Box, InvertedThrows) {
  EXPECT_THROW(Box({1.0, 0.0}, {0.0, 1.0}), std::invalid_argument);
}

TEST(Box, Expanded) {
  const Box b = Box{{0.0, 0.0}, {2.0, 2.0}}.expanded(1.0);
  EXPECT_DOUBLE_EQ(b.lo.x, -1.0);
  EXPECT_DOUBLE_EQ(b.hi.y, 3.0);
}

TEST(GridIndex, RadiusQueryMatchesBruteForce) {
  std::mt19937 rng(17);
  std::uniform_real_distribution<double> u(0.0, 100.0);
  std::vector<Point> pts(500);
  for (auto& p : pts) p = {u(rng), u(rng)};
  const GridIndex index(pts, Box{{0, 0}, {100, 100}}, 7.0);

  for (int trial = 0; trial < 50; ++trial) {
    const Point q{u(rng), u(rng)};
    const double radius = 1.0 + 0.2 * trial;
    const auto got = index.query_radius(q, radius);
    std::vector<std::uint32_t> expected;
    for (std::uint32_t i = 0; i < pts.size(); ++i)
      if (distance(pts[i], q) <= radius) expected.push_back(i);
    EXPECT_EQ(got, expected) << "trial " << trial;
  }
}

TEST(GridIndex, QueryOutsideBounds) {
  const std::vector<Point> pts = {{1.0, 1.0}, {9.0, 9.0}};
  const GridIndex index(pts, Box{{0, 0}, {10, 10}}, 2.0);
  EXPECT_TRUE(index.query_radius({-5.0, -5.0}, 1.0).empty());
  const auto got = index.query_radius({-5.0, -5.0}, 20.0);
  EXPECT_EQ(got.size(), 2u);
}

TEST(GridIndex, PointsOutsideBoundsAreStillFound) {
  // Points get clamped into edge cells but queries must remain exact.
  const std::vector<Point> pts = {{-3.0, 5.0}, {13.0, 5.0}, {5.0, 5.0}};
  const GridIndex index(pts, Box{{0, 0}, {10, 10}}, 2.5);
  const auto got = index.query_radius({-3.0, 5.0}, 0.5);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 0u);
}

TEST(GridIndex, Nearest) {
  std::vector<Point> pts = {{1.0, 1.0}, {5.0, 5.0}, {9.0, 1.0}};
  const GridIndex index(pts, Box{{0, 0}, {10, 10}}, 2.0);
  EXPECT_EQ(index.nearest({0.0, 0.0}), 0u);
  EXPECT_EQ(index.nearest({6.0, 6.0}), 1u);
  EXPECT_EQ(index.nearest({100.0, 0.0}), 2u);
}

TEST(GridIndex, NearestBruteForceAgreement) {
  std::mt19937 rng(23);
  std::uniform_real_distribution<double> u(0.0, 50.0);
  std::vector<Point> pts(200);
  for (auto& p : pts) p = {u(rng), u(rng)};
  const GridIndex index(pts, Box{{0, 0}, {50, 50}}, 5.0);
  for (int trial = 0; trial < 30; ++trial) {
    const Point q{u(rng), u(rng)};
    const std::uint32_t got = index.nearest(q);
    double best = 1e300;
    std::uint32_t expect = 0;
    for (std::uint32_t i = 0; i < pts.size(); ++i) {
      if (distance_squared(pts[i], q) < best) {
        best = distance_squared(pts[i], q);
        expect = i;
      }
    }
    EXPECT_EQ(got, expect);
  }
}

// Two clusters 2^21 um apart on both axes: 1 um cells over their bounds
// would be ~4.4e12 buckets. The index widens its cell instead, and every
// query still returns exactly the brute-force set.
TEST(GridIndex, FarClustersMatchBruteForce) {
  const double span = std::ldexp(1.0, 21);
  std::mt19937 rng(29);
  std::uniform_real_distribution<double> u(0.0, 40.0);
  std::vector<Point> pts;
  for (int i = 0; i < 60; ++i) {
    const double off = i % 2 == 0 ? 0.0 : span;
    pts.push_back({off + u(rng), off + u(rng)});
  }
  const GridIndex index(pts, Box::bounding(pts), 1.0);
  std::vector<Point> queries = {{span / 2.0, span / 2.0}, {-5.0, span}};
  for (int i = 0; i < 40; ++i) {
    const double off = i % 2 == 0 ? 0.0 : span;
    queries.push_back({off + u(rng), off + u(rng)});
  }
  for (const double radius : {0.5, 3.0, 12.0, 60.0, 1.5 * span, 3.0 * span})
    for (const Point& q : queries) {
      std::vector<std::uint32_t> expected;
      for (std::uint32_t i = 0; i < pts.size(); ++i)
        if (distance(pts[i], q) <= radius) expected.push_back(i);
      EXPECT_EQ(index.query_radius(q, radius), expected)
          << "radius " << radius << " at (" << q.x << ", " << q.y << ")";
    }
  EXPECT_EQ(index.nearest({span + 20.0, span + 20.0}) % 2, 1u);
}

TEST(GridIndex, EmptyIndex) {
  const GridIndex index({}, Box{{0, 0}, {1, 1}}, 1.0);
  EXPECT_TRUE(index.query_radius({0.5, 0.5}, 10.0).empty());
  EXPECT_EQ(index.nearest({0.5, 0.5}), 0u);  // size() sentinel
}

TEST(OccupancyGrid, InsertAndQueryMatchBruteForce) {
  std::mt19937 rng(31);
  std::uniform_real_distribution<double> u(0.0, 100.0);
  OccupancyGrid grid(Box{{0, 0}, {100, 100}}, 7.0);
  std::vector<Point> pts;
  for (int step = 0; step < 300; ++step) {
    const Point p{u(rng), u(rng)};
    EXPECT_EQ(grid.insert(p), pts.size());
    pts.push_back(p);
    // Interleave queries with insertions — the dynamic use case that the
    // CSR GridIndex cannot serve.
    const Point q{u(rng), u(rng)};
    const double radius = 0.5 + 0.05 * step;
    const auto got = grid.query_radius(q, radius);
    std::vector<std::uint32_t> expected;
    for (std::uint32_t i = 0; i < pts.size(); ++i)
      if (distance(pts[i], q) <= radius) expected.push_back(i);
    EXPECT_EQ(got, expected) << "step " << step;
    EXPECT_EQ(grid.any_within(q, radius), !expected.empty()) << "step " << step;
  }
  EXPECT_EQ(grid.size(), pts.size());
  EXPECT_EQ(grid.points().size(), pts.size());
}

TEST(OccupancyGrid, AgreesWithGridIndexOnSamePoints) {
  std::mt19937 rng(37);
  std::uniform_real_distribution<double> u(0.0, 50.0);
  std::vector<Point> pts(200);
  for (auto& p : pts) p = {u(rng), u(rng)};
  const Box bounds{{0, 0}, {50, 50}};
  const GridIndex csr(pts, bounds, 5.0);
  OccupancyGrid dyn(bounds, 5.0);
  for (const Point& p : pts) dyn.insert(p);
  for (int trial = 0; trial < 40; ++trial) {
    const Point q{u(rng), u(rng)};
    const double radius = 0.5 + 0.4 * trial;
    EXPECT_EQ(dyn.query_radius(q, radius), csr.query_radius(q, radius))
        << "trial " << trial;
  }
}

TEST(OccupancyGrid, ClampsPointsOutsideBounds) {
  OccupancyGrid grid(Box{{0, 0}, {10, 10}}, 2.5);
  grid.insert({-3.0, 5.0});
  grid.insert({13.0, 5.0});
  EXPECT_TRUE(grid.any_within({-3.0, 5.0}, 0.5));
  EXPECT_FALSE(grid.any_within({5.0, 5.0}, 1.0));
  const auto got = grid.query_radius({13.0, 5.0}, 0.5);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 1u);
}

TEST(OccupancyGrid, EmptyGridFindsNothing) {
  const OccupancyGrid grid(Box{{0, 0}, {1, 1}}, 1.0);
  EXPECT_FALSE(grid.any_within({0.5, 0.5}, 100.0));
  EXPECT_TRUE(grid.query_radius({0.5, 0.5}, 100.0).empty());
}

}  // namespace
}  // namespace tsv::geo
