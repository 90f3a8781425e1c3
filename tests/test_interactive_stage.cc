#include "core/interactive_stage.h"

#include <gtest/gtest.h>

#include <cmath>

#include "analytic/surrogate.h"
#include "tsv/generators.h"

namespace tsv::core {
namespace {

const tsvlib::TsvStructure kS = tsvlib::TsvStructure::baseline_bcb();

std::shared_ptr<const ana::InteractiveStressModel> make_model() {
  static auto model = std::make_shared<const ana::InteractiveStressModel>(
      kS, mat::ThermalLoad{});
  return model;
}

TEST(InteractiveStage, SingleTsvHasNoPairs) {
  const tsvlib::Placement p(kS, {{0.0, 0.0}});
  const InteractiveStage stage(p, make_model());
  EXPECT_TRUE(stage.ordered_pairs().empty());
  EXPECT_DOUBLE_EQ(stage.stress_at({4.0, 0.0}).s11, 0.0);
}

TEST(InteractiveStage, PairYieldsTwoOrderedRounds) {
  const tsvlib::Placement pair = tsvlib::make_pair(kS, 10.0);
  const InteractiveStage stage(pair, make_model());
  const auto pairs = stage.ordered_pairs();
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_NE(pairs[0].first, pairs[0].second);
  EXPECT_EQ(pairs[0].first, pairs[1].second);
  EXPECT_EQ(pairs[0].second, pairs[1].first);
}

TEST(InteractiveStage, PitchCutoffExcludesFarPairs) {
  const tsvlib::Placement p(kS, {{0.0, 0.0}, {40.0, 0.0}});
  InteractiveOptions opt;
  opt.pair_pitch_cutoff = 25.0;
  const InteractiveStage stage(p, make_model(), opt);
  EXPECT_TRUE(stage.ordered_pairs().empty());
}

TEST(InteractiveStage, PointwiseSumsBothRounds) {
  const tsvlib::Placement pair = tsvlib::make_pair(kS, 10.0);
  const InteractiveStage stage(pair, make_model());
  const geo::Point p{0.0, 2.5};
  const num::SymTensor2 got = stage.stress_at(p);
  const auto& c = pair.centers();
  const num::SymTensor2 want = make_model()->stress_at(c[0], c[1], p) +
                               make_model()->stress_at(c[1], c[0], p);
  EXPECT_NEAR(got.s11, want.s11, 1e-12);
  EXPECT_NEAR(got.s22, want.s22, 1e-12);
}

TEST(InteractiveStage, BatchMatchesPointwise) {
  const tsvlib::Placement arr = tsvlib::make_array(kS, 3, 2, 9.0);
  const InteractiveStage stage(arr, make_model());
  std::vector<geo::Point> pts;
  for (double x = -4; x <= 22; x += 2.9)
    for (double y = -4; y <= 13; y += 3.3) pts.push_back({x, y});
  const auto batch = stage.evaluate(pts);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const num::SymTensor2 single = stage.stress_at(pts[i]);
    EXPECT_NEAR(batch[i].s11, single.s11, 1e-10) << i;
    EXPECT_NEAR(batch[i].s22, single.s22, 1e-10) << i;
    EXPECT_NEAR(batch[i].s12, single.s12, 1e-10) << i;
  }
}

TEST(InteractiveStage, InfluenceRadiusLimitsPointCoverage) {
  const tsvlib::Placement pair = tsvlib::make_pair(kS, 10.0);
  InteractiveOptions opt;
  opt.influence_radius = 10.0;
  const InteractiveStage stage(pair, make_model(), opt);
  // A point 40 um away from both TSVs gets no interactive contribution.
  EXPECT_DOUBLE_EQ(stage.stress_at({0.0, 40.0}).s11, 0.0);
  const auto batch = stage.evaluate({{0.0, 40.0}, {0.0, 2.0}});
  EXPECT_DOUBLE_EQ(batch[0].s11, 0.0);
  EXPECT_NE(batch[1].s11, 0.0);
}

// Determinism: Stage II is pair-parallel and merges per-chunk partial sums
// in chunk index order, so a parallel run may differ from the serial sum by
// floating-point regrouping only. The contract (documented on
// InteractiveOptions::num_threads) is <= 1e-12 RELATIVE to the serial
// value — not bitwise, because chunk boundaries regroup the pair sum.
TEST(InteractiveStage, ParallelEvaluateMatchesSerialWithinTolerance) {
  const tsvlib::Placement cluster = tsvlib::make_jittered_array(
      kS, 30, 1.0e-2, 10.0, 777);
  std::vector<geo::Point> pts;
  const geo::Box roi = cluster.bounding_box().expanded(10.0);
  for (double x = roi.lo.x; x <= roi.hi.x; x += 2.9)
    for (double y = roi.lo.y; y <= roi.hi.y; y += 3.3) pts.push_back({x, y});

  InteractiveOptions serial_opt;
  serial_opt.num_threads = 1;
  const InteractiveStage serial(cluster, make_model(), serial_opt);
  const auto want = serial.evaluate(pts);

  for (const std::size_t threads : {2u, 4u}) {
    InteractiveOptions opt;
    opt.num_threads = threads;
    const InteractiveStage stage(cluster, make_model(), opt);
    const auto got = stage.evaluate(pts);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const double tol11 = 1e-12 * std::max(1.0, std::abs(want[i].s11));
      const double tol22 = 1e-12 * std::max(1.0, std::abs(want[i].s22));
      const double tol12 = 1e-12 * std::max(1.0, std::abs(want[i].s12));
      EXPECT_NEAR(got[i].s11, want[i].s11, tol11) << "threads=" << threads;
      EXPECT_NEAR(got[i].s22, want[i].s22, tol22) << "threads=" << threads;
      EXPECT_NEAR(got[i].s12, want[i].s12, tol12) << "threads=" << threads;
    }
  }
}

// For a FIXED thread count, repeated parallel runs must be bitwise
// reproducible: static chunking plus chunk-order merge leaves no
// scheduling-dependent freedom.
TEST(InteractiveStage, ParallelEvaluateIsReproducibleAtFixedThreadCount) {
  const tsvlib::Placement arr = tsvlib::make_array(kS, 4, 3, 9.0);
  InteractiveOptions opt;
  opt.num_threads = 4;
  const InteractiveStage stage(arr, make_model(), opt);
  std::vector<geo::Point> pts;
  for (double x = -4; x <= 31; x += 1.7)
    for (double y = -4; y <= 22; y += 2.1) pts.push_back({x, y});
  const auto first = stage.evaluate(pts);
  const auto second = stage.evaluate(pts);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(first[i].s11, second[i].s11) << i;
    EXPECT_EQ(first[i].s22, second[i].s22) << i;
    EXPECT_EQ(first[i].s12, second[i].s12) << i;
  }
}

TEST(InteractiveStage, SurrogateParallelMatchesSerialWithinTolerance) {
  const tsvlib::Placement arr = tsvlib::make_array(kS, 3, 3, 10.0);
  // A private model: attaching to the shared one would leak into the
  // other tests of this binary.
  const auto model = std::make_shared<const ana::InteractiveStressModel>(
      kS, mat::ThermalLoad{});
  model->attach_surrogate(std::make_shared<const ana::PairSurrogate>(
      ana::PairSurrogate::fit(*model)));
  InteractiveOptions serial_opt;
  serial_opt.num_threads = 1;
  const InteractiveStage serial(arr, model, serial_opt);
  InteractiveOptions par_opt = serial_opt;
  par_opt.num_threads = 3;
  const InteractiveStage parallel(arr, model, par_opt);
  std::vector<geo::Point> pts;
  for (double x = -3; x <= 23; x += 2.3)
    for (double y = -3; y <= 23; y += 2.7) pts.push_back({x, y});
  const auto want = serial.evaluate(pts);
  const auto got = parallel.evaluate(pts);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_NEAR(got[i].s11, want[i].s11,
                1e-12 * std::max(1.0, std::abs(want[i].s11)))
        << i;
  }
}

// Regression for the former `hi + 1e-9` epsilon hack: simulation points
// lying EXACTLY on the bounding-box edges of the point set must still
// receive their interactive contribution (the hull built by Box::bounding
// is closed, and GridIndex clamps hull-edge points into the last cell).
TEST(InteractiveStage, PointsExactlyOnBoundingBoxEdgeAreEvaluated) {
  const tsvlib::Placement pair = tsvlib::make_pair(kS, 10.0);
  const InteractiveStage stage(pair, make_model());
  // All extreme coordinates are attained exactly by several points, so the
  // hull's hi edge passes through points carrying nonzero stress.
  const std::vector<geo::Point> pts = {{-8.0, -6.0}, {8.0, -6.0},
                                       {8.0, 6.0},   {-8.0, 6.0},
                                       {8.0, 0.0},   {0.0, 6.0},
                                       {0.0, 0.5}};
  const auto batch = stage.evaluate(pts);
  ASSERT_EQ(batch.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const num::SymTensor2 single = stage.stress_at(pts[i]);
    EXPECT_DOUBLE_EQ(batch[i].s11, single.s11) << i;
    EXPECT_DOUBLE_EQ(batch[i].s22, single.s22) << i;
    EXPECT_DOUBLE_EQ(batch[i].s12, single.s12) << i;
  }
  // The corner/edge points sit within the influence radius of the pair, so
  // their interactive field must be nonzero — they were not dropped.
  EXPECT_NE(batch[4].s11, 0.0);
  EXPECT_NE(batch[5].s11, 0.0);
}

// Regression for the stale-fingerprint hazard of the point-index cache:
// the cache key is a CONTENT hash (FNV-1a over the coordinate bytes plus
// the count), not the vector's identity, so mutating a point buffer in
// place — to a new set of the SAME length, the case an address-or-size key
// would miss — must rebuild the index. A stale index would hand pairs the
// wrong affected-point sets and silently drop or misplace contributions.
TEST(InteractiveStage, MutatedPointBufferOfEqualLengthRebuildsTheIndex) {
  const tsvlib::Placement pair = tsvlib::make_pair(kS, 10.0);
  const InteractiveStage stage(pair, make_model());
  std::vector<geo::Point> pts;
  for (double x = -8; x <= 18; x += 1.3)
    for (double y = -8; y <= 8; y += 1.7) pts.push_back({x, y});

  // Prime the cache with the original coordinates.
  const auto first = stage.evaluate(pts);
  ASSERT_EQ(first.size(), pts.size());

  // Mutate IN PLACE: same vector object, same length, every coordinate
  // changed (a quarter turn about the origin — exact in floating point, so
  // the round trip below is bitwise).
  for (geo::Point& p : pts) p = {-p.y, p.x};
  const auto got = stage.evaluate(pts);

  // A fresh stage has no cache to go stale; its field is the truth.
  const InteractiveStage fresh(pair, make_model());
  const auto want = fresh.evaluate(pts);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(got[i].s11, want[i].s11) << i;
    EXPECT_EQ(got[i].s22, want[i].s22) << i;
    EXPECT_EQ(got[i].s12, want[i].s12) << i;
  }
  // And mutating back re-keys again (no one-shot invalidation).
  for (geo::Point& p : pts) p = {p.y, -p.x};
  const auto back = stage.evaluate(pts);
  for (std::size_t i = 0; i < pts.size(); ++i)
    EXPECT_EQ(back[i].s11, first[i].s11) << i;
}

TEST(InteractiveStage, FiveCrossSymmetry) {
  // The 5-TSV cross is symmetric under 90-degree rotation; von Mises of the
  // interactive field must match at rotated points.
  const tsvlib::Placement five = tsvlib::make_five_cross(kS, 10.0);
  const InteractiveStage stage(five, make_model());
  const num::SymTensor2 a = stage.stress_at({4.0, 1.0});
  const num::SymTensor2 b = stage.stress_at({-1.0, 4.0});  // rotated 90 deg
  EXPECT_NEAR(num::von_mises_plane_stress(a), num::von_mises_plane_stress(b),
              1e-9);
}

}  // namespace
}  // namespace tsv::core
