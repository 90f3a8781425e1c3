#include "core/superposition.h"

#include <gtest/gtest.h>

#include <cmath>

#include "tsv/generators.h"

namespace tsv::core {
namespace {

const tsvlib::TsvStructure kS = tsvlib::TsvStructure::baseline_bcb();

std::shared_ptr<const RadialStressTable> make_table() {
  const ana::SingleTsvModel model(kS, mat::ThermalLoad{});
  return std::make_shared<const RadialStressTable>(
      RadialStressTable::from_analytic(model, 30.0, 4096));
}

TEST(Superposition, SingleTsvReproducesTable) {
  const tsvlib::Placement p(kS, {{0.0, 0.0}});
  const LinearSuperposition ls(p, make_table());
  const ana::SingleTsvModel model(kS, mat::ThermalLoad{});
  for (double r = 1.0; r < 20.0; r += 2.3) {
    const num::SymTensor2 got = ls.stress_at({r, 0.0});
    const num::SymTensor2 want = model.stress_at({0, 0}, {r, 0.0});
    EXPECT_NEAR(got.s11, want.s11, std::abs(want.s11) * 0.02 + 0.2);
  }
}

TEST(Superposition, TwoTsvFieldIsSumOfSingles) {
  const tsvlib::Placement pair = tsvlib::make_pair(kS, 12.0);
  const LinearSuperposition ls(pair, make_table());
  const ana::SingleTsvModel model(kS, mat::ThermalLoad{});
  const geo::Point p{2.0, 3.0};
  const num::SymTensor2 got = ls.stress_at(p);
  const num::SymTensor2 want = model.stress_at(pair.centers()[0], p) +
                               model.stress_at(pair.centers()[1], p);
  EXPECT_NEAR(got.s11, want.s11, std::abs(want.s11) * 0.02 + 0.3);
  EXPECT_NEAR(got.s22, want.s22, std::abs(want.s22) * 0.02 + 0.3);
  EXPECT_NEAR(got.s12, want.s12, std::abs(want.s12) * 0.02 + 0.3);
}

TEST(Superposition, InfluenceRadiusCutsOffFarTsvs) {
  const tsvlib::Placement p(kS, {{0.0, 0.0}, {100.0, 0.0}});
  const LinearSuperposition ls(p, make_table(), 25.0);
  // Point near the first TSV: the second contributes nothing.
  const num::SymTensor2 near_first = ls.stress_at({5.0, 0.0});
  const tsvlib::Placement only_first(kS, {{0.0, 0.0}});
  const LinearSuperposition ls1(only_first, make_table(), 25.0);
  const num::SymTensor2 expect = ls1.stress_at({5.0, 0.0});
  EXPECT_DOUBLE_EQ(near_first.s11, expect.s11);
  // Midpoint: both are beyond 25 um -> zero.
  const num::SymTensor2 mid = ls.stress_at({50.0, 0.0});
  EXPECT_DOUBLE_EQ(mid.s11, 0.0);
}

TEST(Superposition, BatchMatchesPointwise) {
  const tsvlib::Placement arr = tsvlib::make_array(kS, 3, 3, 10.0);
  const LinearSuperposition ls(arr, make_table());
  std::vector<geo::Point> pts;
  for (double x = -5; x <= 25; x += 3.7)
    for (double y = -5; y <= 25; y += 4.1) pts.push_back({x, y});
  const auto batch = ls.evaluate(pts);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const num::SymTensor2 single = ls.stress_at(pts[i]);
    EXPECT_DOUBLE_EQ(batch[i].s11, single.s11);
    EXPECT_DOUBLE_EQ(batch[i].s22, single.s22);
    EXPECT_DOUBLE_EQ(batch[i].s12, single.s12);
  }
}

TEST(Superposition, SymmetryOfPairField) {
  const tsvlib::Placement pair = tsvlib::make_pair(kS, 10.0);
  const LinearSuperposition ls(pair, make_table());
  // sigma_xx is even in both x and y for the symmetric pair.
  const double a = ls.stress_at({3.0, 2.0}).s11;
  EXPECT_NEAR(ls.stress_at({-3.0, 2.0}).s11, a, 1e-9);
  EXPECT_NEAR(ls.stress_at({3.0, -2.0}).s11, a, 1e-9);
}

TEST(Superposition, EmptyPlacementGivesZeroField) {
  const tsvlib::Placement p(kS);
  const LinearSuperposition ls(p, make_table());
  EXPECT_DOUBLE_EQ(ls.stress_at({1.0, 1.0}).s11, 0.0);
}

// Determinism: Stage I is point-parallel with each point computed by
// exactly one worker through the identical code path, so results must be
// BITWISE identical to the serial path for every thread count.
TEST(Superposition, ParallelEvaluateBitwiseMatchesSerial) {
  const tsvlib::Placement cluster = tsvlib::make_jittered_array(
      kS, 40, 1.0e-2, 10.0, 2024);
  std::vector<geo::Point> pts;
  const geo::Box roi = cluster.bounding_box().expanded(25.0);
  for (double x = roi.lo.x; x <= roi.hi.x; x += 3.1)
    for (double y = roi.lo.y; y <= roi.hi.y; y += 3.7) pts.push_back({x, y});

  const LinearSuperposition serial(cluster, make_table());
  const auto want = serial.evaluate(pts);

  for (const std::size_t threads : {2u, 4u}) {
    const LinearSuperposition ls(cluster, make_table(), kInfluenceRadius,
                                 threads);
    const auto got = ls.evaluate(pts);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      EXPECT_EQ(got[i].s11, want[i].s11) << "threads=" << threads << " i=" << i;
      EXPECT_EQ(got[i].s22, want[i].s22) << "threads=" << threads << " i=" << i;
      EXPECT_EQ(got[i].s12, want[i].s12) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(Superposition, HardwareConcurrencyOptionEvaluates) {
  const tsvlib::Placement arr = tsvlib::make_array(kS, 3, 3, 10.0);
  const LinearSuperposition ls(arr, make_table(), kInfluenceRadius,
                               0);  // hardware concurrency
  const auto out = ls.evaluate({{1.0, 1.0}, {5.0, 5.0}, {30.0, 30.0}});
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].s11, ls.stress_at({1.0, 1.0}).s11);
}

}  // namespace
}  // namespace tsv::core
