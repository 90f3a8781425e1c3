// Trig-free batch kernels vs the retained scalar reference paths.
//
// The Stage I batch APIs (RadialStressTable::accumulate/sum_at) replace
// atan2/sin/cos with the double-angle identities and SoA table walks; these
// tests pin down that they agree with the scalar trig paths to <= 1e-12 of
// the field scale over randomized centers and points, including the
// r >= r_max / r == 0 edge cases. The Stage II entry point
// (InteractiveStressModel::accumulate_run) with a single pair is checked
// against the scalar series the same way.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <random>
#include <vector>

#include "analytic/interaction.h"
#include "analytic/single_tsv.h"
#include "core/stress_table.h"
#include "core/superposition.h"
#include "numeric/kernels.h"
#include "tsv/generators.h"

namespace tsv {
namespace {

constexpr double kRelTol = 1e-12;

double max_abs(const num::SymTensor2& t) {
  return std::max({std::abs(t.s11), std::abs(t.s22), std::abs(t.s12)});
}

double max_diff(const num::SymTensor2& a, const num::SymTensor2& b) {
  return std::max({std::abs(a.s11 - b.s11), std::abs(a.s22 - b.s22),
                   std::abs(a.s12 - b.s12)});
}

const ana::SingleTsvModel& single_model() {
  static const ana::SingleTsvModel m(tsvlib::TsvStructure::baseline_bcb(),
                                     mat::ThermalLoad{});
  return m;
}

const ana::InteractiveStressModel& pair_model() {
  static const ana::InteractiveStressModel m(
      std::make_shared<const ana::InclusionResponse>(
          tsvlib::TsvStructure::baseline_bcb()),
      single_model().k_hat());
  return m;
}

TEST(Kernels, RotateAxisymmetricMatchesTrigTransform) {
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> angle(-7.0, 7.0);
  std::uniform_real_distribution<double> comp(-300.0, 300.0);
  for (int i = 0; i < 200; ++i) {
    const double th = angle(rng);
    const num::SymTensor2 cyl{comp(rng), comp(rng), 0.0};
    const num::SymTensor2 ref = num::cylindrical_to_cartesian(cyl, th);
    const num::SymTensor2 got = num::rotate_axisymmetric(
        cyl.s11, cyl.s22, std::cos(2.0 * th), std::sin(2.0 * th));
    EXPECT_LE(max_diff(got, ref), kRelTol * std::max(max_abs(ref), 1.0));
  }
}

TEST(Kernels, StageOneAccumulateMatchesScalarReference) {
  const core::RadialStressTable table =
      core::RadialStressTable::from_analytic(single_model(), 30.0);
  std::mt19937 rng(21);
  std::uniform_real_distribution<double> coord(-40.0, 40.0);
  for (int trial = 0; trial < 8; ++trial) {
    const geo::Point center{coord(rng), coord(rng)};
    std::vector<geo::Point> points(257);
    for (geo::Point& p : points) p = {coord(rng), coord(rng)};
    // Edge cases in-band: the center itself (r == 0), a point a whisker
    // inside coverage (exactly r == max_radius is a knife edge where the
    // scalar hypot and the kernel sqrt may branch differently), and a point
    // beyond it (r >= max_radius -> zero contribution).
    points[0] = center;
    points[1] = {center.x + table.max_radius() - 1e-6, center.y};
    points[2] = {center.x + 2.0 * table.max_radius(), center.y - 3.0};

    std::vector<num::SymTensor2> batch(points.size());
    table.accumulate(center, points.data(), points.size(), batch.data());

    double scale = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i)
      scale = std::max(scale, max_abs(table.stress_at(center, points[i])));
    ASSERT_GT(scale, 1.0);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const num::SymTensor2 ref = table.stress_at(center, points[i]);
      EXPECT_LE(max_diff(batch[i], ref), kRelTol * scale)
          << "point " << i << " trial " << trial;
    }
    // The out-of-coverage point contributes exactly zero.
    EXPECT_EQ(max_abs(batch[2]), 0.0);
  }
}

TEST(Kernels, StageOneAccumulateAddsIntoOutput) {
  const core::RadialStressTable table =
      core::RadialStressTable::from_analytic(single_model(), 30.0);
  const geo::Point center{0.0, 0.0};
  const std::vector<geo::Point> points{{3.0, 4.0}, {-5.0, 1.5}};
  std::vector<num::SymTensor2> out(points.size(), {1.0, 2.0, 3.0});
  table.accumulate(center, points.data(), points.size(), out.data());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const num::SymTensor2 s = table.stress_at(center, points[i]);
    EXPECT_NEAR(out[i].s11, 1.0 + s.s11, kRelTol * max_abs(s));
    EXPECT_NEAR(out[i].s22, 2.0 + s.s22, kRelTol * max_abs(s));
    EXPECT_NEAR(out[i].s12, 3.0 + s.s12, kRelTol * max_abs(s));
  }
}

TEST(Kernels, StageOneSumAtMatchesScalarSum) {
  const core::RadialStressTable table =
      core::RadialStressTable::from_analytic(single_model(), 30.0);
  std::mt19937 rng(31);
  std::uniform_real_distribution<double> coord(-50.0, 50.0);
  std::vector<geo::Point> centers(64);
  for (geo::Point& c : centers) c = {coord(rng), coord(rng)};
  std::vector<std::uint32_t> idx;
  for (std::uint32_t k = 0; k < centers.size(); k += 2) idx.push_back(k);
  for (int trial = 0; trial < 32; ++trial) {
    geo::Point p{coord(rng), coord(rng)};
    if (trial == 0) p = centers[idx[0]];  // r == 0 against one center
    num::SymTensor2 ref;
    for (const std::uint32_t k : idx) ref += table.stress_at(centers[k], p);
    const num::SymTensor2 got =
        table.sum_at(p, centers.data(), idx.data(), idx.size());
    EXPECT_LE(max_diff(got, ref), kRelTol * std::max(max_abs(ref), 1.0))
        << "trial " << trial;
  }
}

TEST(Kernels, SuperpositionRoutesThroughBatchKernel) {
  // stress_at and evaluate use sum_at; both must agree with the hand-rolled
  // scalar superposition to the kernel tolerance.
  const tsvlib::Placement arr =
      tsvlib::make_array(tsvlib::TsvStructure::baseline_bcb(), 4, 3, 9.0);
  const auto table = std::make_shared<const core::RadialStressTable>(
      core::RadialStressTable::from_analytic(single_model(), 30.0));
  const core::LinearSuperposition stage1(arr, table);
  std::mt19937 rng(41);
  std::uniform_real_distribution<double> coord(-5.0, 35.0);
  std::vector<geo::Point> points(100);
  for (geo::Point& p : points) p = {coord(rng), coord(rng)};
  const std::vector<num::SymTensor2> field = stage1.evaluate(points);
  for (std::size_t i = 0; i < points.size(); ++i) {
    num::SymTensor2 ref;
    for (const geo::Point& c : arr.centers()) {
      if (geo::distance(c, points[i]) <= stage1.influence_radius())
        ref += table->stress_at(c, points[i]);
    }
    EXPECT_LE(max_diff(field[i], ref), kRelTol * std::max(max_abs(ref), 1.0));
    EXPECT_EQ(max_diff(field[i], stage1.stress_at(points[i])), 0.0);
  }
}

TEST(Kernels, SeriesPairAccumulateMatchesScalarStressAt) {
  // Without a surrogate, a run of one is the exact series: it must add
  // exactly model.stress_at per point into the output, for any pair frame.
  std::mt19937 rng(51);
  std::uniform_real_distribution<double> pitch_dist(6.0, 20.0);
  std::uniform_real_distribution<double> beta_dist(-std::numbers::pi,
                                                   std::numbers::pi);
  std::uniform_real_distribution<double> coord(-30.0, 30.0);
  for (int trial = 0; trial < 6; ++trial) {
    const double pitch = pitch_dist(rng);
    const double beta = beta_dist(rng);
    const geo::Point victim{coord(rng) * 0.1, coord(rng) * 0.1};
    const geo::Point aggressor{victim.x + pitch * std::cos(beta),
                               victim.y + pitch * std::sin(beta)};
    std::vector<geo::Point> points(64);
    for (geo::Point& p : points)
      p = {victim.x + coord(rng), victim.y + coord(rng)};
    points[0] = victim;  // r == 0 lands in the core region
    std::vector<num::SymTensor2> out(points.size(), {1.0, 2.0, 3.0});
    pair_model().accumulate_run(nullptr, victim, &aggressor, 1, points.data(),
                                points.size(), out.data());
    for (std::size_t i = 0; i < points.size(); ++i) {
      const num::SymTensor2 ref =
          pair_model().stress_at(victim, aggressor, points[i]);
      EXPECT_EQ(out[i].s11, 1.0 + ref.s11) << "point " << i;
      EXPECT_EQ(out[i].s22, 2.0 + ref.s22) << "point " << i;
      EXPECT_EQ(out[i].s12, 3.0 + ref.s12) << "point " << i;
    }
  }
}

}  // namespace
}  // namespace tsv
