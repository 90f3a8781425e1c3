#include "core/framework.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/metrics.h"
#include "core/stress_map_table.h"
#include "fem/thermo_solver.h"
#include "tsv/generators.h"

namespace tsv::core {
namespace {

const tsvlib::TsvStructure kS = tsvlib::TsvStructure::baseline_bcb();

TEST(Framework, LsOnlyEqualsStageOne) {
  const tsvlib::Placement pair = tsvlib::make_pair(kS, 10.0);
  FrameworkOptions opt;
  opt.enable_interactive = false;
  const StressFramework fw(pair, opt);
  const geo::Point p{3.0, 1.0};
  const num::SymTensor2 direct = fw.stage1().stress_at(p);
  const num::SymTensor2 total = fw.stress_at(p);
  EXPECT_DOUBLE_EQ(direct.s11, total.s11);
  EXPECT_EQ(fw.stage2(), nullptr);
}

TEST(Framework, InteractivePartIsTheDifference) {
  const tsvlib::Placement pair = tsvlib::make_pair(kS, 9.0);
  const StressFramework fw(pair);
  const std::vector<geo::Point> pts = {{0.0, 2.0}, {3.5, 1.0}, {-6.0, 0.5}};
  const StressResult res = fw.evaluate(pts);
  const std::vector<num::SymTensor2> interactive = fw.stage2()->evaluate(pts);
  ASSERT_EQ(interactive.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const num::SymTensor2 ls = fw.stage1().stress_at(pts[i]);
    EXPECT_NEAR(res.stress[i].s11 - interactive[i].s11, ls.s11, 1e-10);
  }
}

TEST(Framework, GridAndPointsAgree) {
  const tsvlib::Placement pair = tsvlib::make_pair(kS, 10.0);
  const StressFramework fw(pair);
  const geo::SampleGrid grid(geo::Box::centered({0, 0}, 20, 10), 11, 6);
  const StressResult a = fw.evaluate(grid);
  const StressResult b = fw.evaluate(grid.points());
  ASSERT_EQ(a.stress.size(), b.stress.size());
  for (std::size_t i = 0; i < a.stress.size(); ++i)
    EXPECT_DOUBLE_EQ(a.stress[i].s11, b.stress[i].s11);
}

TEST(Framework, SharedModelAcrossPlacements) {
  const Characterization ch =
      characterize(kS, mat::ThermalLoad{}, StageTwo::kSeries);
  const StressFramework fw1(tsvlib::make_pair(kS, 8.0), ch.table, ch.model);
  const StressFramework fw2(tsvlib::make_pair(kS, 12.0), ch.table, ch.model);
  EXPECT_TRUE(std::isfinite(fw1.stress_at({2.0, 1.0}).s11));
  EXPECT_TRUE(std::isfinite(fw2.stress_at({2.0, 1.0}).s11));
}

TEST(Framework, TimingsAreReported) {
  const tsvlib::Placement arr = tsvlib::make_array(kS, 4, 4, 10.0);
  const StressFramework fw(arr);
  const geo::SampleGrid grid(geo::Box::centered({15, 15}, 50, 50), 101, 101);
  // A point list times the two stages apart; a grid takes the fused pass,
  // which reports its whole time as Stage II.
  const StressResult points = fw.evaluate(grid.points());
  EXPECT_GT(points.stage1_seconds, 0.0);
  EXPECT_GT(points.stage2_seconds, 0.0);
  const StressResult fused = fw.evaluate(grid);
  EXPECT_EQ(fused.stage1_seconds, 0.0);
  EXPECT_GT(fused.stage2_seconds, 0.0);
}

TEST(Framework, TableMustCoverInfluenceRadius) {
  const auto table = std::make_shared<const RadialStressTable>(
      RadialStressTable::from_analytic(
          ana::SingleTsvModel(kS, mat::ThermalLoad{}), 10.0,
          512));  // < influence radius 25
  FrameworkOptions opt;
  opt.enable_interactive = false;
  EXPECT_THROW(StressFramework(tsvlib::make_pair(kS, 10.0), table, nullptr,
                               opt),
               std::invalid_argument);
}

// Integration: the proposed framework (PF) must beat plain linear
// superposition (LS) against the FEM golden at small pitch — the paper's
// central claim (Table 1).
TEST(Framework, ProposedFrameworkBeatsLinearSuperpositionAt8um) {
  const mat::ThermalLoad load{};
  fem::FemOptions fopt;
  fopt.element_size = 0.3;  // fast variant; benches run the fine version
  fopt.margin = 25.0;

  // FEM-characterized Stage-I table and Stage-II K (paper methodology).
  const tsvlib::Placement one(kS, {{0.0, 0.0}});
  const fem::FemSolution fem1 = fem::solve_thermo_elastic(
      one, load, geo::Box{{-30, -30}, {30, 30}}, fopt);
  const auto table = std::make_shared<const RadialStressTable>(
      RadialStressTable::from_fem(fem1.stress, {0, 0}, 30.0, 1024, 16));
  const double k_fem = effective_k_from_fem(fem1.stress, {0, 0}, 5.0, 15.0);
  auto response = std::make_shared<ana::InclusionResponse>(kS);
  auto model = std::make_shared<ana::InteractiveStressModel>(
      response, k_fem / (kS.outer_radius() * kS.outer_radius()));

  const tsvlib::Placement pair = tsvlib::make_pair(kS, 8.0);
  const fem::FemSolution golden = fem::solve_thermo_elastic(
      pair, load, geo::Box::centered({0, 0}, 60, 30), fopt);
  const geo::SampleGrid grid(geo::Box::centered({0, 0}, 60, 30), 121, 61);
  const auto pts = grid.points();
  std::vector<num::SymTensor2> gold(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i)
    gold[i] = golden.stress.sample(pts[i]);

  FrameworkOptions ls_opt;
  ls_opt.enable_interactive = false;
  const StressFramework ls(pair, table, nullptr, ls_opt);
  const StressFramework pf(pair, table, model, FrameworkOptions{});
  const auto r_ls = ls.evaluate(pts);
  const auto r_pf = pf.evaluate(pts);

  const ErrorStats e_ls = compare_fields(StressMeasure::kSigmaXX, pts,
                                         r_ls.stress, gold, pair);
  const ErrorStats e_pf = compare_fields(StressMeasure::kSigmaXX, pts,
                                         r_pf.stress, gold, pair);
  // PF must clearly improve on LS in the thresholded region.
  EXPECT_LT(e_pf.rate_thr50, e_ls.rate_thr50 * 0.85)
      << "LS " << e_ls.rate_thr50 << "% vs PF " << e_pf.rate_thr50 << "%";
  EXPECT_LT(e_pf.avg_error, e_ls.avg_error);
}

// Appendix A.1 claim 2: the interactive stress of a pair is nearly
// independent of other TSVs nearby, so pairwise Stage II should keep its
// advantage on a three-TSV chain where each TSV participates in two pairs.
TEST(Framework, PairwiseInteractiveHoldsForThreeTsvChain) {
  const mat::ThermalLoad load{};
  fem::FemOptions fopt;
  fopt.element_size = 0.3;
  fopt.margin = 25.0;

  const tsvlib::Placement one(kS, {{0.0, 0.0}});
  const fem::FemSolution fem1 = fem::solve_thermo_elastic(
      one, load, geo::Box{{-30, -30}, {30, 30}}, fopt);
  const auto table = std::make_shared<const StressMapTable>(
      StressMapTable::from_fem(fem1.stress, {0, 0}, 30.0, fopt.element_size));
  const double k_fem = effective_k_from_fem(fem1.stress, {0, 0}, 5.0, 15.0);
  auto response = std::make_shared<ana::InclusionResponse>(kS);
  auto model = std::make_shared<ana::InteractiveStressModel>(
      response, k_fem / (kS.outer_radius() * kS.outer_radius()));

  const tsvlib::Placement chain(kS, {{-9.0, 0.0}, {0.0, 0.0}, {9.0, 0.0}});
  const fem::FemSolution golden = fem::solve_thermo_elastic(
      chain, load, geo::Box::centered({0, 0}, 70, 30), fopt);
  const geo::SampleGrid grid(geo::Box::centered({0, 0}, 70, 30), 141, 61);
  const auto pts = grid.points();
  std::vector<num::SymTensor2> gold(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i)
    gold[i] = golden.stress.sample(pts[i]);

  FrameworkOptions ls_opt;
  ls_opt.enable_interactive = false;
  const StressFramework ls(chain, table, nullptr, ls_opt);
  const StressFramework pf(chain, table, model, FrameworkOptions{});
  const ErrorStats e_ls = compare_fields(
      StressMeasure::kSigmaXX, pts, ls.evaluate(pts).stress, gold, chain);
  const ErrorStats e_pf = compare_fields(
      StressMeasure::kSigmaXX, pts, pf.evaluate(pts).stress, gold, chain);
  EXPECT_LT(e_pf.rate_thr50, e_ls.rate_thr50)
      << "LS " << e_ls.rate_thr50 << "% vs PF " << e_pf.rate_thr50 << "%";
  EXPECT_LT(e_pf.avg_error, e_ls.avg_error);
}

}  // namespace
}  // namespace tsv::core
