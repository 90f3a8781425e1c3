// Reproduces Figure 4: spatial maps of the sigma_xx error of LS and PF for
// the two-TSV BCB placement at d = 10 um (right half shown in the paper).
// Writes fig4_error_ls.csv / fig4_error_pf.csv and prints the map summary
// the paper quotes: LS errors up to ~70 MPa, PF generally below ~25 MPa.

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
  const double pitch = 10.0;

  std::printf("=== Figure 4: sigma_xx error maps, two TSVs, d = %.0f um, BCB "
              "===\n", pitch);
  const bench::Characterization ch =
      bench::characterize(structure, load, config);
  const tsvlib::Placement pair = tsvlib::make_pair(structure, pitch);
  const geo::Box roi = geo::Box::centered({0.0, 0.0}, 60.0, 30.0);
  const fem::FemSolution golden = bench::golden_solve(pair, load, roi, config);

  const geo::SampleGrid grid = geo::SampleGrid::with_spacing(roi,
                                                             config.spacing);
  const std::vector<geo::Point> pts = grid.points();
  const std::vector<num::SymTensor2> gold =
      bench::sample_field(golden.stress, pts);

  const core::StressFramework ls(pair, ch.table, nullptr);
  const core::StressFramework pf(pair, ch.table, ch.model,
                                 core::FrameworkOptions{});
  const auto r_ls = ls.evaluate(pts);
  const auto r_pf = pf.evaluate(pts);

  // The golden smears the liner/substrate interface over ~2 elements
  // (staircase discretization); points inside that band compare the model's
  // sharp jump against the smeared one, so both the full-substrate maximum
  // and the beyond-band maximum are reported.
  const double band = structure.outer_radius() + 2.5 * config.element_size;
  std::vector<double> err_ls(pts.size()), err_pf(pts.size());
  double max_ls = 0.0, max_pf = 0.0;
  double far_ls = 0.0, far_pf = 0.0;
  std::size_t above25_ls = 0, above25_pf = 0, substrate_pts = 0;
  const auto min_dist = [&](const geo::Point& p) {
    double d = 1e300;
    for (const auto& c : pair.centers())
      d = std::min(d, geo::distance(c, p));
    return d;
  };
  for (std::size_t i = 0; i < pts.size(); ++i) {
    err_ls[i] = r_ls.stress[i].s11 - gold[i].s11;
    err_pf[i] = r_pf.stress[i].s11 - gold[i].s11;
    if (pair.inside_any_tsv(pts[i])) continue;
    ++substrate_pts;
    max_ls = std::max(max_ls, std::abs(err_ls[i]));
    max_pf = std::max(max_pf, std::abs(err_pf[i]));
    if (min_dist(pts[i]) > band) {
      far_ls = std::max(far_ls, std::abs(err_ls[i]));
      far_pf = std::max(far_pf, std::abs(err_pf[i]));
    }
    if (std::abs(err_ls[i]) > 25.0) ++above25_ls;
    if (std::abs(err_pf[i]) > 25.0) ++above25_pf;
  }
  io::write_scalar_field(config.out_dir + "/fig4_error_ls.csv", pts, err_ls);
  io::write_scalar_field(config.out_dir + "/fig4_error_pf.csv", pts, err_pf);
  std::printf("wrote fig4_error_ls.csv / fig4_error_pf.csv (%zu points)\n",
              pts.size());
  std::printf("substrate max |error|: LS %.1f MPa, PF %.1f MPa\n", max_ls,
              max_pf);
  std::printf("beyond the interface smear band (r > %.2f um): LS %.1f MPa, "
              "PF %.1f MPa\n", band, far_ls, far_pf);
  std::printf("substrate points with |error| > 25 MPa: LS %zu (%.2f%%), PF "
              "%zu (%.2f%%)\n",
              above25_ls, 100.0 * above25_ls / substrate_pts, above25_pf,
              100.0 * above25_pf / substrate_pts);
  return 0;
}
