// Cross-cutting physics invariants of the whole modeling chain: linearity
// in the thermal load, invariance under geometric scaling, and the
// exchange/mirror symmetries of the pair problem. These hold for the exact
// solution, so any violation flags an implementation bug rather than a
// modeling error.

#include <gtest/gtest.h>

#include <cmath>

#include "analytic/interaction.h"
#include "analytic/layered_cylinder.h"
#include "analytic/single_tsv.h"
#include "core/framework.h"
#include "tsv/generators.h"

namespace tsv {
namespace {

using tsvlib::TsvStructure;

/// The Stage II model of `s` under `load`.
std::shared_ptr<const ana::InteractiveStressModel> model_of(
    const TsvStructure& s, const mat::ThermalLoad& load = {}) {
  return core::characterize(s, load, core::StageTwo::kSeries).model;
}

TEST(PhysicsProperties, StressIsLinearInThermalLoad) {
  const TsvStructure s = TsvStructure::baseline_bcb();
  const ana::SingleTsvModel half(s, mat::ThermalLoad{-125.0});
  const ana::SingleTsvModel full(s, mat::ThermalLoad{-250.0});
  EXPECT_NEAR(full.k_constant(), 2.0 * half.k_constant(),
              std::abs(full.k_constant()) * 1e-12);
  for (double r = 0.5; r < 10.0; r += 1.3) {
    EXPECT_NEAR(full.stress_cylindrical(r).s11,
                2.0 * half.stress_cylindrical(r).s11, 1e-9);
  }
}

TEST(PhysicsProperties, HeatingFlipsTheSign) {
  const TsvStructure s = TsvStructure::baseline_bcb();
  const ana::SingleTsvModel cool(s, mat::ThermalLoad{-250.0});
  const ana::SingleTsvModel heat(s, mat::ThermalLoad{+250.0});
  EXPECT_NEAR(heat.k_constant(), -cool.k_constant(),
              std::abs(cool.k_constant()) * 1e-12);
}

TEST(PhysicsProperties, InteractiveStressLinearInThermalLoad) {
  const TsvStructure s = TsvStructure::baseline_bcb();
  const auto half = model_of(s, mat::ThermalLoad{-125.0});
  const auto full = model_of(s, mat::ThermalLoad{-250.0});
  const geo::Point v{0, 0}, a{9, 0}, p{-3.5, 1.0};
  const num::SymTensor2 sh = half->stress_at(v, a, p);
  const num::SymTensor2 sf = full->stress_at(v, a, p);
  EXPECT_NEAR(sf.s11, 2.0 * sh.s11, 1e-9);
  EXPECT_NEAR(sf.s22, 2.0 * sh.s22, 1e-9);
  EXPECT_NEAR(sf.s12, 2.0 * sh.s12, 1e-9);
}

TEST(PhysicsProperties, StressInvariantUnderGeometricScaling) {
  // Scaling every length by a factor leaves the stress field (at scaled
  // positions) unchanged: elasticity has no intrinsic length scale and
  // K scales as length^2.
  const double scale = 2.5;
  TsvStructure small = TsvStructure::baseline_bcb();
  TsvStructure big = small;
  big.body_radius *= scale;
  big.liner_thickness *= scale;
  const ana::SingleTsvModel ms(small, mat::ThermalLoad{});
  const ana::SingleTsvModel mb(big, mat::ThermalLoad{});
  EXPECT_NEAR(mb.k_constant(), scale * scale * ms.k_constant(),
              std::abs(mb.k_constant()) * 1e-12);
  for (double r = 1.0; r < 12.0; r += 1.7) {
    EXPECT_NEAR(mb.stress_cylindrical(r * scale).s22,
                ms.stress_cylindrical(r).s22, 1e-9);
  }
}

TEST(PhysicsProperties, InteractiveStressInvariantUnderScaling) {
  const double scale = 2.0;
  TsvStructure small = TsvStructure::baseline_bcb();
  TsvStructure big = small;
  big.body_radius *= scale;
  big.liner_thickness *= scale;
  const auto ms = model_of(small);
  const auto mb = model_of(big);
  const geo::Point v{0, 0};
  const geo::Point a{9.0, 0.0};
  const geo::Point p{3.7, 1.2};
  const num::SymTensor2 ss = ms->stress_at(v, a, p);
  const num::SymTensor2 sb = mb->stress_at(v, a * scale, p * scale);
  EXPECT_NEAR(sb.s11, ss.s11, 1e-8);
  EXPECT_NEAR(sb.s22, ss.s22, 1e-8);
  EXPECT_NEAR(sb.s12, ss.s12, 1e-8);
}

TEST(PhysicsProperties, PairCorrectionHasExchangeSymmetry) {
  // The total two-round correction field of a pair is symmetric under the
  // reflection that swaps the two TSVs.
  const TsvStructure s = TsvStructure::baseline_bcb();
  const auto model = model_of(s);
  const geo::Point t1{-5.0, 0.0}, t2{5.0, 0.0};
  const auto total = [&](const geo::Point& p) {
    return model->stress_at(t1, t2, p) + model->stress_at(t2, t1, p);
  };
  for (const geo::Point p : {geo::Point{2.0, 1.5}, geo::Point{7.0, -2.0},
                             geo::Point{0.0, 3.0}}) {
    const geo::Point mirrored{-p.x, p.y};  // swap TSVs == mirror in x
    const num::SymTensor2 a = total(p);
    const num::SymTensor2 b = total(mirrored);
    EXPECT_NEAR(a.s11, b.s11, 1e-10);
    EXPECT_NEAR(a.s22, b.s22, 1e-10);
    EXPECT_NEAR(a.s12, -b.s12, 1e-10);
  }
}

TEST(PhysicsProperties, FrameworkFieldLinearInLoadEndToEnd) {
  const tsvlib::Placement pair =
      tsvlib::make_pair(TsvStructure::baseline_bcb(), 10.0);
  core::FrameworkOptions half_opt;
  half_opt.load.delta_t = -125.0;
  core::FrameworkOptions full_opt;
  full_opt.load.delta_t = -250.0;
  const core::StressFramework half(pair, half_opt);
  const core::StressFramework full(pair, full_opt);
  for (const geo::Point p : {geo::Point{0.0, 2.0}, geo::Point{8.0, 1.0}}) {
    EXPECT_NEAR(full.stress_at(p).s11, 2.0 * half.stress_at(p).s11, 2e-2);
    EXPECT_NEAR(full.stress_at(p).s22, 2.0 * half.stress_at(p).s22, 2e-2);
  }
}

TEST(PhysicsProperties, SumOfNormalStressesDecaysFasterThanComponents) {
  // The isolated-TSV field is purely deviatoric in-plane (srr = -stt);
  // superposition keeps the trace small relative to the components in the
  // substrate — a useful regression on the transform chain.
  const tsvlib::Placement pair =
      tsvlib::make_pair(TsvStructure::baseline_bcb(), 10.0);
  core::FrameworkOptions opt;
  opt.enable_interactive = false;
  const core::StressFramework ls(pair, opt);
  const num::SymTensor2 s = ls.stress_at({0.0, 6.0});
  EXPECT_LT(std::abs(s.trace()),
            0.2 * (std::abs(s.s11) + std::abs(s.s22)) + 1e-9);
}

}  // namespace
}  // namespace tsv
