// Reproduces Table 2: the five-TSV cross placement (Fig. 5, minimal pitch
// 10 um) — sigma_xx and von Mises error of LS and PF against the FEM
// golden. Monitored region 60x60 um, thresholds 10/50 MPa, critical region
// r <= 3.3 um.

#include <cstdio>
#include <iostream>

#include "common.h"
#include "tsv/generators.h"

int main(int argc, char** argv) {
  using namespace tsv;
  const auto config = bench::BenchConfig::parse(argc, argv);
  const tsvlib::TsvStructure structure = tsvlib::TsvStructure::baseline_bcb();
  const mat::ThermalLoad load{};
  std::printf("=== Table 2: five TSVs (cross, 10 um pitch), BCB liner ===\n");
  std::printf("mesh=%.3gum grid=%.3gum\n", config.element_size,
              config.spacing);

  const bench::Characterization ch =
      bench::characterize(structure, load, config);
  std::printf("characterization: K_fem=%.1f MPa*um^2 (%.1fs)\n", ch.k_fem,
              ch.seconds);

  const tsvlib::Placement five = tsvlib::make_five_cross(structure, 10.0);
  const geo::Box roi = geo::Box::centered({0.0, 0.0}, 60.0, 60.0);
  const fem::FemSolution golden = bench::golden_solve(five, load, roi, config);
  const geo::SampleGrid grid = geo::SampleGrid::with_spacing(roi,
                                                             config.spacing);
  const std::vector<geo::Point> pts = grid.points();
  const std::vector<num::SymTensor2> gold =
      bench::sample_field(golden.stress, pts);

  const core::StressFramework ls(five, ch.table, nullptr);
  const core::StressFramework pf(five, ch.table, ch.model,
                                 core::FrameworkOptions{});
  const core::StressResult r_ls = ls.evaluate(pts);
  const core::StressResult r_pf = pf.evaluate(pts);

  io::TablePrinter table(bench::table_headers("method/measure"));
  for (const auto measure :
       {core::StressMeasure::kSigmaXX, core::StressMeasure::kVonMises}) {
    const core::ErrorStats e_ls =
        core::compare_fields(measure, pts, r_ls.stress, gold, five);
    const core::ErrorStats e_pf =
        core::compare_fields(measure, pts, r_pf.stress, gold, five);
    table.add_row(std::string("LS ") + core::to_string(measure),
                  bench::stats_row(e_ls));
    table.add_row(std::string("PF ") + core::to_string(measure),
                  bench::stats_row(e_pf));
  }
  table.print(std::cout);
  std::printf("\nrun time: stage I %.3fs, stage II %.3fs, AR = %.1f%%\n",
              r_pf.stage1_seconds, r_pf.stage2_seconds,
              r_pf.stage1_seconds > 0.0
                  ? 100.0 * r_pf.stage2_seconds / r_pf.stage1_seconds
                  : 0.0);
  return 0;
}
