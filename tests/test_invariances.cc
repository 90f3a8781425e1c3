// Physical invariances of the two-stage framework on seeded random
// placements: the model is built from isotropic single-TSV fields and
// pairwise interactions, so the full-chip field must be equivariant under
// translation, mirror, and 90-degree rotation of the whole scene, and
// Stage II must vanish exactly outside its documented ranges.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "analytic/surrogate.h"
#include "core/framework.h"
#include "tsv/generators.h"

namespace tsv::core {
namespace {

const tsvlib::TsvStructure kS = tsvlib::TsvStructure::baseline_bcb();

std::shared_ptr<const ana::InteractiveStressModel> shared_model() {
  static auto model = characterize(kS, {}, StageTwo::kSeries).model;
  return model;
}

std::shared_ptr<const RadialStressTable> shared_table() {
  static const auto table =
      characterize(kS, mat::ThermalLoad{}, StageTwo::kOff).table;
  return table;
}

tsvlib::Placement seeded_placement(std::uint64_t seed) {
  return tsvlib::make_random(kS, 18, geo::Box{{0, 0}, {90, 90}}, 10.0, seed);
}

std::vector<geo::Point> probe_points(const tsvlib::Placement& p) {
  std::vector<geo::Point> pts;
  const geo::Box roi = p.bounding_box().expanded(6.0);
  for (double x = roi.lo.x; x <= roi.hi.x; x += 5.3)
    for (double y = roi.lo.y; y <= roi.hi.y; y += 4.7) pts.push_back({x, y});
  return pts;
}

tsvlib::Placement transformed(const tsvlib::Placement& p,
                              geo::Point (*map)(const geo::Point&)) {
  std::vector<geo::Point> centers;
  centers.reserve(p.size());
  for (const geo::Point& c : p.centers()) centers.push_back(map(c));
  return tsvlib::Placement(p.structure(), centers);
}

void expect_tensor_near(const num::SymTensor2& got, const num::SymTensor2& want,
                        double rel, std::size_t i) {
  EXPECT_NEAR(got.s11, want.s11, rel * std::max(1.0, std::abs(want.s11))) << i;
  EXPECT_NEAR(got.s22, want.s22, rel * std::max(1.0, std::abs(want.s22))) << i;
  EXPECT_NEAR(got.s12, want.s12, rel * std::max(1.0, std::abs(want.s12))) << i;
}

TEST(Invariances, TranslationEquivariance) {
  for (const std::uint64_t seed : {11u, 12u}) {
    const tsvlib::Placement p = seeded_placement(seed);
    const geo::Point shift{137.25, -42.5};
    const tsvlib::Placement q(
        p.structure(), [&] {
          std::vector<geo::Point> c;
          for (const geo::Point& v : p.centers())
            c.push_back({v.x + shift.x, v.y + shift.y});
          return c;
        }());

    const StressFramework fa(p, shared_table(), shared_model());
    const StressFramework fb(q, shared_table(), shared_model());
    const std::vector<geo::Point> pts = probe_points(p);
    const StressResult ra = fa.evaluate(pts);
    std::vector<geo::Point> moved;
    for (const geo::Point& v : pts) moved.push_back({v.x + shift.x,
                                                     v.y + shift.y});
    const StressResult rb = fb.evaluate(moved);
    for (std::size_t i = 0; i < pts.size(); ++i)
      expect_tensor_near(rb.stress[i], ra.stress[i], 1e-9, i);
  }
}

TEST(Invariances, MirrorEquivariance) {
  // Reflection about the x axis: normal components are even, shear is odd.
  const tsvlib::Placement p = seeded_placement(21);
  const tsvlib::Placement q = transformed(
      p, +[](const geo::Point& v) { return geo::Point{v.x, -v.y}; });

  const StressFramework fa(p, shared_table(), shared_model());
  const StressFramework fb(q, shared_table(), shared_model());
  const std::vector<geo::Point> pts = probe_points(p);
  const StressResult ra = fa.evaluate(pts);
  std::vector<geo::Point> mirrored;
  for (const geo::Point& v : pts) mirrored.push_back({v.x, -v.y});
  const StressResult rb = fb.evaluate(mirrored);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const num::SymTensor2 want{ra.stress[i].s11, ra.stress[i].s22,
                               -ra.stress[i].s12};
    expect_tensor_near(rb.stress[i], want, 1e-9, i);
  }
}

TEST(Invariances, QuarterTurnEquivariance) {
  // Rotation by +90 degrees, (x, y) -> (-y, x): the tensor transforms as
  // sigma' = R sigma R^T, i.e. s11' = s22, s22' = s11, s12' = -s12.
  const tsvlib::Placement p = seeded_placement(31);
  const tsvlib::Placement q = transformed(
      p, +[](const geo::Point& v) { return geo::Point{-v.y, v.x}; });

  const StressFramework fa(p, shared_table(), shared_model());
  const StressFramework fb(q, shared_table(), shared_model());
  const std::vector<geo::Point> pts = probe_points(p);
  const StressResult ra = fa.evaluate(pts);
  std::vector<geo::Point> rotated;
  for (const geo::Point& v : pts) rotated.push_back({-v.y, v.x});
  const StressResult rb = fb.evaluate(rotated);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const num::SymTensor2 want{ra.stress[i].s22, ra.stress[i].s11,
                               -ra.stress[i].s12};
    expect_tensor_near(rb.stress[i], want, 1e-9, i);
  }
}

TEST(Invariances, EquivarianceHoldsThroughTheSurrogatePath) {
  // The surrogate is a smooth polynomial in the pair-local coordinates, so
  // rotating the whole scene perturbs its inputs only at rounding level:
  // the surrogate path must keep the exact path's tight equivariance
  // tolerance, not just an approximation-budget version of it.
  const auto model = shared_model();
  model->attach_surrogate(std::make_shared<const ana::PairSurrogate>(
      ana::PairSurrogate::fit(*model)));
  const tsvlib::Placement p = seeded_placement(51);
  const tsvlib::Placement q = transformed(
      p, +[](const geo::Point& v) { return geo::Point{-v.y, v.x}; });
  const StressFramework fa(p, shared_table(), model);
  const StressFramework fb(q, shared_table(), model);
  const std::vector<geo::Point> pts = probe_points(p);
  const StressResult ra = fa.evaluate(pts);
  std::vector<geo::Point> rotated;
  for (const geo::Point& v : pts) rotated.push_back({-v.y, v.x});
  const StressResult rb = fb.evaluate(rotated);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const num::SymTensor2 want{ra.stress[i].s22, ra.stress[i].s11,
                               -ra.stress[i].s12};
    expect_tensor_near(rb.stress[i], want, 1e-9, i);
  }
  model->attach_surrogate(nullptr);
}

TEST(Invariances, StageTwoVanishesBeyondThePitchCutoff) {
  // Two TSVs just beyond the pair cutoff: Stage II must be identically zero
  // at every probe point, not merely small.
  InteractiveOptions opt;
  const double pitch = opt.pair_pitch_cutoff + 0.5;
  const tsvlib::Placement p(kS, {{0.0, 0.0}, {pitch, 0.0}});
  const InteractiveStage stage(p, shared_model(), opt);
  EXPECT_TRUE(stage.ordered_pairs().empty());
  std::vector<geo::Point> pts;
  for (double x = -10; x <= pitch + 10; x += 1.7)
    for (double y = -10; y <= 10; y += 2.3) pts.push_back({x, y});
  const auto field = stage.evaluate(pts);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(field[i].s11, 0.0) << i;
    EXPECT_EQ(field[i].s22, 0.0) << i;
    EXPECT_EQ(field[i].s12, 0.0) << i;
  }
  // Just inside the cutoff the pair interacts.
  const tsvlib::Placement close(
      kS, {{0.0, 0.0}, {opt.pair_pitch_cutoff - 0.5, 0.0}});
  const InteractiveStage near_stage(close, shared_model(), opt);
  EXPECT_EQ(near_stage.ordered_pairs().size(), 2u);
}

TEST(Invariances, StageTwoVanishesBeyondTheInfluenceRadius) {
  InteractiveOptions opt;
  const tsvlib::Placement pair = tsvlib::make_pair(kS, 10.0);
  const InteractiveStage stage(pair, shared_model(), opt);
  // Points farther than influence_radius from BOTH victims get exactly zero.
  const double far = opt.influence_radius + 6.0;
  const auto field = stage.evaluate({{0.0, far}, {far + 5.0, far}});
  for (const num::SymTensor2& s : field) {
    EXPECT_EQ(s.s11, 0.0);
    EXPECT_EQ(s.s22, 0.0);
    EXPECT_EQ(s.s12, 0.0);
  }
}

}  // namespace
}  // namespace tsv::core
