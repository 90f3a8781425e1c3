// Reproduces Figure 6: sigma_xx error maps of LS and PF for the five-TSV
// cross placement (Fig. 5, minimal pitch 10 um). Writes
// fig6_error_ls.csv / fig6_error_pf.csv; the paper quotes LS errors up to
// ~60 MPa and PF generally within ~25 MPa.

#include <cmath>
#include <cstdio>

#include "common.h"
#include "io/csv.h"
#include "tsv/generators.h"

int main(int argc, char** argv) {
  using namespace tsv;
  const auto config = bench::BenchConfig::parse(argc, argv);
  const tsvlib::TsvStructure structure = tsvlib::TsvStructure::baseline_bcb();
  const mat::ThermalLoad load{};

  std::printf("=== Figure 6: sigma_xx error maps, five TSVs (10 um pitch), "
              "BCB ===\n");
  const bench::Characterization ch =
      bench::characterize(structure, load, config);
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
  const auto r_ls = ls.evaluate(pts);
  const auto r_pf = pf.evaluate(pts);

  // See bench_fig4_error_map.cc: the interface smear band of the golden is
  // reported separately from the rest of the substrate.
  const double band = structure.outer_radius() + 2.5 * config.element_size;
  const auto min_dist = [&](const geo::Point& p) {
    double d = 1e300;
    for (const auto& c : five.centers())
      d = std::min(d, geo::distance(c, p));
    return d;
  };
  std::vector<double> err_ls(pts.size()), err_pf(pts.size());
  double max_ls = 0.0, max_pf = 0.0, far_ls = 0.0, far_pf = 0.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    err_ls[i] = r_ls.stress[i].s11 - gold[i].s11;
    err_pf[i] = r_pf.stress[i].s11 - gold[i].s11;
    if (five.inside_any_tsv(pts[i])) continue;
    max_ls = std::max(max_ls, std::abs(err_ls[i]));
    max_pf = std::max(max_pf, std::abs(err_pf[i]));
    if (min_dist(pts[i]) > band) {
      far_ls = std::max(far_ls, std::abs(err_ls[i]));
      far_pf = std::max(far_pf, std::abs(err_pf[i]));
    }
  }
  io::write_scalar_field(config.out_dir + "/fig6_error_ls.csv", pts, err_ls);
  io::write_scalar_field(config.out_dir + "/fig6_error_pf.csv", pts, err_pf);
  std::printf("wrote fig6_error_ls.csv / fig6_error_pf.csv (%zu points)\n",
              pts.size());
  std::printf("substrate max |error|: LS %.1f MPa, PF %.1f MPa\n", max_ls,
              max_pf);
  std::printf("beyond the interface smear band (r > %.2f um): LS %.1f MPa, "
              "PF %.1f MPa\n", band, far_ls, far_pf);
  return 0;
}
