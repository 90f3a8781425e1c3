// Golden regression locking the measured numbers recorded in EXPERIMENTS.md
// (Tables 1-5 at the default bench settings: 0.25 um FEM mesh, 0.5 um
// sampling). The whole reproduction pipeline — FEM characterization, golden
// solves, both framework stages, and the error metrics — feeds these cells,
// so a drift in any layer shows up here as a number change, not just as a
// broken qualitative claim.
//
// Tables 4/5 (SiO2 liner) are locked at d=8, the only pitch EXPERIMENTS.md
// records for them. The d=30 rows are deliberately not locked: at pitch
// 30 > the 25 um pair cutoff Stage II is exactly zero (test_invariances pins
// that down exactly).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "analytic/surrogate.h"
#include "common.h"
#include "tsv/generators.h"

namespace tsv {
namespace {

// Tolerances: the pipeline is deterministic at fixed settings, so the locks
// only need slack for floating-point regrouping across compilers — well
// under the last printed digit of the EXPERIMENTS.md cells.
constexpr double kRateTol = 0.05;  // percentage points
constexpr double kAvgTol = 0.02;   // MPa

const bench::Characterization& characterization() {
  static const bench::Characterization ch = bench::characterize(
      tsvlib::TsvStructure::baseline_bcb(), mat::ThermalLoad{},
      bench::BenchConfig{});
  return ch;
}

const bench::Characterization& sio2_characterization() {
  static const bench::Characterization ch = bench::characterize(
      tsvlib::TsvStructure::baseline_sio2(), mat::ThermalLoad{},
      bench::BenchConfig{});
  return ch;
}

struct GoldenCase {
  std::vector<geo::Point> pts;
  std::vector<num::SymTensor2> gold;
  std::vector<num::SymTensor2> ls;
  std::vector<num::SymTensor2> pf;
  tsvlib::Placement placement{tsvlib::TsvStructure::baseline_bcb()};
};

GoldenCase solve_case(const tsvlib::Placement& placement, const geo::Box& roi,
                      const bench::Characterization& ch) {
  const bench::BenchConfig config{};
  GoldenCase c;
  c.placement = placement;
  const fem::FemSolution golden =
      bench::golden_solve(placement, mat::ThermalLoad{}, roi, config);
  c.pts = geo::SampleGrid::with_spacing(roi, config.spacing).points();
  c.gold = bench::sample_field(golden.stress, c.pts);

  core::FrameworkOptions ls_opt;
  ls_opt.enable_interactive = false;
  const core::StressFramework ls(placement, ch.table, nullptr, ls_opt);
  const core::StressFramework pf(placement, ch.table, ch.model,
                                 core::FrameworkOptions{});
  c.ls = ls.evaluate(c.pts).stress;
  c.pf = pf.evaluate(c.pts).stress;
  return c;
}

// Two TSVs at the minimal pitch d=8, monitored region 60x30 (Sec. 5.1);
// shared by the Table 1 (sigma_xx) and Table 3 (von Mises) locks.
const GoldenCase& pair_d8() {
  static const GoldenCase c =
      solve_case(tsvlib::make_pair(tsvlib::TsvStructure::baseline_bcb(), 8.0),
                 geo::Box::centered({0.0, 0.0}, 60.0, 30.0),
                 characterization());
  return c;
}

// The same pair and region with the SiO2 liner (Tables 4/5).
const GoldenCase& sio2_pair_d8() {
  static const GoldenCase c = solve_case(
      tsvlib::make_pair(tsvlib::TsvStructure::baseline_sio2(), 8.0),
      geo::Box::centered({0.0, 0.0}, 60.0, 30.0), sio2_characterization());
  return c;
}

// Five-TSV cross at 10 um pitch, monitored region 60x60 (Table 2).
const GoldenCase& five_cross() {
  static const GoldenCase c = solve_case(
      tsvlib::make_five_cross(tsvlib::TsvStructure::baseline_bcb(), 10.0),
      geo::Box::centered({0.0, 0.0}, 60.0, 60.0), characterization());
  return c;
}

core::ErrorStats stats(const GoldenCase& c, core::StressMeasure measure,
                       const std::vector<num::SymTensor2>& model) {
  return core::compare_fields(measure, c.pts, model, c.gold, c.placement);
}

TEST(PaperRegression, Table1SigmaXxCritRatesAtMinPitch) {
  const GoldenCase& c = pair_d8();
  const core::ErrorStats ls = stats(c, core::StressMeasure::kSigmaXX, c.ls);
  const core::ErrorStats pf = stats(c, core::StressMeasure::kSigmaXX, c.pf);
  EXPECT_NEAR(ls.critical_rate_thr50, 12.9, kRateTol);
  EXPECT_NEAR(pf.critical_rate_thr50, 8.58, kRateTol);
  EXPECT_NEAR(ls.avg_error, 1.60, kAvgTol);
  EXPECT_NEAR(pf.avg_error, 0.96, kAvgTol);
  // The paper's claim itself, independent of the locked values.
  EXPECT_LT(pf.critical_rate_thr50, ls.critical_rate_thr50);
  EXPECT_LT(pf.avg_error, ls.avg_error);
}

TEST(PaperRegression, Table3VonMisesCritRatesAtMinPitch) {
  const GoldenCase& c = pair_d8();
  const core::ErrorStats ls = stats(c, core::StressMeasure::kVonMises, c.ls);
  const core::ErrorStats pf = stats(c, core::StressMeasure::kVonMises, c.pf);
  EXPECT_NEAR(ls.critical_rate_thr50, 4.82, kRateTol);
  EXPECT_NEAR(pf.critical_rate_thr50, 4.18, kRateTol);
  EXPECT_LT(pf.critical_rate_thr50, ls.critical_rate_thr50);
  // Von Mises errors sit well below the sigma_xx errors (EXPERIMENTS.md
  // shape check).
  const core::ErrorStats ls_xx = stats(c, core::StressMeasure::kSigmaXX, c.ls);
  EXPECT_LT(ls.critical_rate_thr50, ls_xx.critical_rate_thr50);
}

TEST(PaperRegression, Table2FiveCrossCritRates) {
  const GoldenCase& c = five_cross();
  const core::ErrorStats ls_xx = stats(c, core::StressMeasure::kSigmaXX, c.ls);
  const core::ErrorStats pf_xx = stats(c, core::StressMeasure::kSigmaXX, c.pf);
  const core::ErrorStats ls_vm =
      stats(c, core::StressMeasure::kVonMises, c.ls);
  const core::ErrorStats pf_vm =
      stats(c, core::StressMeasure::kVonMises, c.pf);
  EXPECT_NEAR(ls_xx.critical_rate_thr50, 8.70, kRateTol);
  EXPECT_NEAR(pf_xx.critical_rate_thr50, 4.87, kRateTol);
  EXPECT_NEAR(ls_vm.critical_rate_thr50, 2.74, kRateTol);
  EXPECT_NEAR(pf_vm.critical_rate_thr50, 2.17, kRateTol);
  // PF roughly halves the sigma_xx error and still improves von Mises.
  EXPECT_LT(pf_xx.critical_rate_thr50, 0.65 * ls_xx.critical_rate_thr50);
  EXPECT_LT(pf_vm.critical_rate_thr50, ls_vm.critical_rate_thr50);
}

// Weak mismatch: with the SiO2 liner LS is already far better than with
// BCB (Table 1: 12.9% at d=8), and PF still improves both measures.
TEST(PaperRegression, Tables4And5SiO2CritRatesAtMinPitch) {
  const GoldenCase& c = sio2_pair_d8();
  const core::ErrorStats ls_xx = stats(c, core::StressMeasure::kSigmaXX, c.ls);
  const core::ErrorStats pf_xx = stats(c, core::StressMeasure::kSigmaXX, c.pf);
  const core::ErrorStats ls_vm =
      stats(c, core::StressMeasure::kVonMises, c.ls);
  const core::ErrorStats pf_vm =
      stats(c, core::StressMeasure::kVonMises, c.pf);
  EXPECT_NEAR(ls_xx.critical_rate_thr50, 4.74, kRateTol);
  EXPECT_NEAR(pf_xx.critical_rate_thr50, 1.46, kRateTol);
  EXPECT_NEAR(ls_vm.critical_rate_thr50, 2.18, kRateTol);
  EXPECT_NEAR(pf_vm.critical_rate_thr50, 0.92, kRateTol);
  // The paper's claim itself, independent of the locked values.
  EXPECT_LT(pf_xx.critical_rate_thr50, ls_xx.critical_rate_thr50);
  EXPECT_LT(pf_vm.critical_rate_thr50, ls_vm.critical_rate_thr50);
}

// The certified surrogate fast path must reproduce the SAME locked cells:
// its certificate bounds the Stage II field error at ~1e-6 relative, three
// orders below the last printed digit of every table, so swapping the
// series for the surrogate must not move a single cell. The d=8 pair also
// pins the inclusive pitch-domain gate (8.0 um == the fitted pitch_min).
TEST(PaperRegression, SurrogatePipelineReproducesTables1Through3) {
  const bench::Characterization& ch = characterization();
  const auto surrogate = std::make_shared<const ana::PairSurrogate>(
      ana::PairSurrogate::fit(*ch.model));
  ASSERT_TRUE(surrogate->certificate().certified_within(1e-6));
  ch.model->attach_surrogate(surrogate);
  surrogate->reset_use_stats();

  const auto locked = [&](const GoldenCase& c, core::StressMeasure measure) {
    const core::StressFramework pf(c.placement, ch.table, ch.model,
                                   core::FrameworkOptions{});
    return core::compare_fields(measure, c.pts, pf.evaluate(c.pts).stress,
                                c.gold, c.placement);
  };
  const core::ErrorStats t1 =
      locked(pair_d8(), core::StressMeasure::kSigmaXX);
  EXPECT_NEAR(t1.critical_rate_thr50, 8.58, kRateTol);
  EXPECT_NEAR(t1.avg_error, 0.96, kAvgTol);
  const core::ErrorStats t3 =
      locked(pair_d8(), core::StressMeasure::kVonMises);
  EXPECT_NEAR(t3.critical_rate_thr50, 4.18, kRateTol);
  const core::ErrorStats t2_xx =
      locked(five_cross(), core::StressMeasure::kSigmaXX);
  const core::ErrorStats t2_vm =
      locked(five_cross(), core::StressMeasure::kVonMises);
  EXPECT_NEAR(t2_xx.critical_rate_thr50, 4.87, kRateTol);
  EXPECT_NEAR(t2_vm.critical_rate_thr50, 2.17, kRateTol);

  // The cells above really came from the surrogate: the d=8 pair sits
  // exactly on the inclusive domain edge and must not have fallen back.
  EXPECT_GT(surrogate->use_stats().surrogate_pairs, 0u);
  EXPECT_EQ(surrogate->use_stats().fallback_pairs, 0u);
  ch.model->attach_surrogate(nullptr);
}

TEST(PaperRegression, CharacterizationConstantIsStable) {
  // K_fem feeds every Stage II number above; lock it to the value the
  // recorded tables were produced with.
  EXPECT_NEAR(characterization().k_fem, 800.7, 0.5);
}

}  // namespace
}  // namespace tsv
