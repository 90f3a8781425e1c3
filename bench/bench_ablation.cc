// Ablation studies for the design choices called out in DESIGN.md:
//   (a) series truncation of the interactive model (paper: m_max = 10) —
//       accuracy of PF at d = 8 um as the basis order grows;
//   (b) Stage-I table source — analytic (exact) vs FEM-characterized; the
//       FEM table cancels the golden's discretization bias (the paper's own
//       setup: both golden and tables come from the same FEM tool);
//   (c) FEM interface handling — centroid stamping vs Hill-blended
//       constitutive law on cut elements, measured against the exact
//       single-TSV solution.

#include <cmath>
#include <cstdio>
#include <iostream>

#include "common.h"
#include "tsv/generators.h"

using namespace tsv;

namespace {

void ablate_series_order(const bench::BenchConfig& config) {
  std::printf("\n--- (a) interactive series truncation, two TSVs d = 8 um "
              "---\n");
  const tsvlib::TsvStructure s = tsvlib::TsvStructure::baseline_bcb();
  const mat::ThermalLoad load{};
  const bench::Characterization ch = bench::characterize(s, load, config);
  const tsvlib::Placement pair = tsvlib::make_pair(s, 8.0);
  const geo::Box roi = geo::Box::centered({0.0, 0.0}, 60.0, 30.0);
  const fem::FemSolution golden = bench::golden_solve(pair, load, roi, config);
  const geo::SampleGrid grid = geo::SampleGrid::with_spacing(roi,
                                                             config.spacing);
  const auto pts = grid.points();
  const auto gold = bench::sample_field(golden.stress, pts);

  io::TablePrinter table({"max_basis_power", "Thr50:Rate%", "Crit:Rate%"});
  {
    core::FrameworkOptions ls_opt;
    ls_opt.enable_interactive = false;
    const core::StressFramework ls(pair, ch.table, nullptr, ls_opt);
    const auto e = core::compare_fields(core::StressMeasure::kSigmaXX, pts,
                                        ls.evaluate(pts).stress, gold, pair);
    table.add_row(std::string("LS (none)"),
                  {e.rate_thr50, e.critical_rate_thr50});
  }
  for (const int m : {2, 4, 6, 8, 12}) {
    ana::InclusionResponseOptions opt;
    opt.max_basis_power = m;
    opt.series_order = m + 6;
    opt.collocation_points = 4 * opt.series_order;
    auto response = std::make_shared<const ana::InclusionResponse>(s, opt);
    auto model = std::make_shared<const ana::InteractiveStressModel>(
        response, ch.k_fem / (s.outer_radius() * s.outer_radius()));
    const core::StressFramework pf(pair, ch.table, model,
                                   core::FrameworkOptions{});
    const auto e = core::compare_fields(core::StressMeasure::kSigmaXX, pts,
                                        pf.evaluate(pts).stress, gold, pair);
    table.add_row(std::to_string(m), {e.rate_thr50, e.critical_rate_thr50});
  }
  table.print(std::cout);
}

void ablate_table_source(const bench::BenchConfig& config) {
  std::printf("\n--- (b) Stage-I table source (two TSVs d = 10 um) ---\n");
  const tsvlib::TsvStructure s = tsvlib::TsvStructure::baseline_bcb();
  const mat::ThermalLoad load{};
  const bench::Characterization ch = bench::characterize(s, load, config);
  const auto analytic_table =
      core::characterize(s, load, core::StageTwo::kOff).table;

  const tsvlib::Placement pair = tsvlib::make_pair(s, 10.0);
  const geo::Box roi = geo::Box::centered({0.0, 0.0}, 60.0, 30.0);
  const fem::FemSolution golden = bench::golden_solve(pair, load, roi, config);
  const geo::SampleGrid grid = geo::SampleGrid::with_spacing(roi,
                                                             config.spacing);
  const auto pts = grid.points();
  const auto gold = bench::sample_field(golden.stress, pts);

  io::TablePrinter table({"table source", "LS AvgErr(MPa)", "LS Thr50:Rate%"});
  core::FrameworkOptions ls_opt;
  ls_opt.enable_interactive = false;
  {
    const core::StressFramework ls(pair, ch.table, nullptr, ls_opt);
    const auto e = core::compare_fields(core::StressMeasure::kSigmaXX, pts,
                                        ls.evaluate(pts).stress, gold, pair);
    table.add_row(std::string("FEM-characterized"),
                  {e.avg_error, e.rate_thr50});
  }
  {
    const core::StressFramework ls(pair, analytic_table, nullptr, ls_opt);
    const auto e = core::compare_fields(core::StressMeasure::kSigmaXX, pts,
                                        ls.evaluate(pts).stress, gold, pair);
    table.add_row(std::string("analytic (exact)"),
                  {e.avg_error, e.rate_thr50});
  }
  table.print(std::cout);
  std::printf("(the FEM table absorbs the golden's staircase bias; with the "
              "exact table the LS error mixes discretization and "
              "interactive effects)\n");
}

void ablate_fem_blending(const bench::BenchConfig& config) {
  std::printf("\n--- (c) FEM interface handling vs exact single-TSV field "
              "---\n");
  const tsvlib::TsvStructure s = tsvlib::TsvStructure::baseline_bcb();
  const mat::ThermalLoad load{};
  const ana::SingleTsvModel exact(s, load);
  const tsvlib::Placement one(s, {{0.0, 0.0}});

  io::TablePrinter table({"interface handling", "K_fem/K_exact",
                          "worst srr err r in [4.5,8] (MPa)"});
  for (const bool blend : {false, true}) {
    fem::FemOptions opt;
    opt.element_size = config.element_size;
    opt.margin = config.margin;
    opt.blend_interfaces = blend;
    const fem::FemSolution sol = fem::solve_thermo_elastic(
        one, load, geo::Box{{-10, -10}, {10, 10}}, opt);
    const double k_fem =
        core::effective_k_from_fem(sol.stress, {0, 0}, 4.5, 8.0);
    double worst = 0.0;
    for (double r = 4.5; r <= 8.0; r += 0.5) {
      for (double th = 0.1; th < 6.2; th += 0.37) {
        const geo::Point p{r * std::cos(th), r * std::sin(th)};
        const num::SymTensor2 cyl =
            num::cartesian_to_cylindrical(sol.stress.sample(p), th);
        worst = std::max(worst,
                         std::abs(cyl.s11 - exact.stress_cylindrical(r).s11));
      }
    }
    table.add_row(blend ? std::string("Hill-blended cut cells")
                        : std::string("centroid stamping"),
                  {k_fem / exact.k_constant(), worst});
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const auto config = bench::BenchConfig::parse(argc, argv);
  std::printf("=== Ablation studies (mesh=%.3gum grid=%.3gum) ===\n",
              config.element_size, config.spacing);
  ablate_series_order(config);
  ablate_table_source(config);
  ablate_fem_blending(config);
  return 0;
}
