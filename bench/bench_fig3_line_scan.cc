// Reproduces Figure 3: sigma_xx along the line through the centers of two
// baseline (BCB) TSVs — FEM golden vs linear superposition vs the proposed
// framework. Writes fig3_line_scan.csv and prints a summary of the
// overestimation LS shows in the inter-TSV region.

#include <cstdio>
#include <iostream>

#include "common.h"
#include "core/line_scan.h"
#include "io/csv.h"
#include "tsv/generators.h"

int main(int argc, char** argv) {
  using namespace tsv;
  const auto config = bench::BenchConfig::parse(argc, argv);
  const tsvlib::TsvStructure structure = tsvlib::TsvStructure::baseline_bcb();
  const mat::ThermalLoad load{};
  const double pitch = 10.0;  // Fig. 3 uses a small pitch; 10 um = Fig. 4's

  std::printf("=== Figure 3: sigma_xx along the line through two TSV centers "
              "(d = %.0f um, BCB) ===\n", pitch);

  const bench::Characterization ch =
      bench::characterize(structure, load, config);
  const tsvlib::Placement pair = tsvlib::make_pair(structure, pitch);
  const geo::Box roi = geo::Box::centered({0.0, 0.0}, 60.0, 30.0);
  const fem::FemSolution golden = bench::golden_solve(pair, load, roi, config);

  const core::StressFramework ls(pair, ch.table, nullptr);
  const core::StressFramework pf(pair, ch.table, ch.model,
                                 core::FrameworkOptions{});

  const core::LineScan scan =
      core::make_line_scan({-30.0, 0.0}, {30.0, 0.0}, 601);
  io::CsvWriter csv(config.out_dir + "/fig3_line_scan.csv");
  csv.header({"x_um", "fem_sxx", "ls_sxx", "pf_sxx"});

  double worst_ls = 0.0, worst_pf = 0.0;
  double worst_ls_x = 0.0;
  for (std::size_t i = 0; i < scan.points.size(); ++i) {
    const geo::Point& p = scan.points[i];
    const double fem_v = golden.stress.sample(p).s11;
    const double ls_v = ls.stress_at(p).s11;
    const double pf_v = pf.stress_at(p).s11;
    csv.row(std::vector<double>{p.x, fem_v, ls_v, pf_v});
    // Compare in the substrate between and around the TSVs.
    if (!pair.inside_any_tsv(p)) {
      if (std::abs(ls_v - fem_v) > worst_ls) {
        worst_ls = std::abs(ls_v - fem_v);
        worst_ls_x = p.x;
      }
      worst_pf = std::max(worst_pf, std::abs(pf_v - fem_v));
    }
  }
  std::printf("wrote %s\n", csv.path().c_str());
  std::printf("substrate worst |error| along the line: LS %.1f MPa (at x = "
              "%.2f um), PF %.1f MPa\n", worst_ls, worst_ls_x, worst_pf);
  std::printf("midpoint sigma_xx: FEM %.1f, LS %.1f, PF %.1f MPa (paper: LS "
              "overestimates between the TSVs)\n",
              golden.stress.sample({0.0, 0.0}).s11,
              ls.stress_at({0.0, 0.0}).s11, pf.stress_at({0.0, 0.0}).s11);
  return 0;
}
