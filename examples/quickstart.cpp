// Quickstart: compute TSV-induced stress around a pair of TSVs with the
// two-stage semi-analytical framework and print a small report.
//
//   build/examples/quickstart
//
// Demonstrates: TsvStructure, Placement, StressFramework (LS baseline vs
// the proposed framework), querying single points and line scans.

#include <cstdio>

#include "core/framework.h"
#include "core/line_scan.h"
#include "tsv/generators.h"

int main() {
  using namespace tsv;

  // The paper's baseline TSV: 2.5 um copper body, 0.5 um BCB liner,
  // silicon substrate, -250 K anneal cool-down.
  const tsvlib::TsvStructure structure = tsvlib::TsvStructure::baseline_bcb();
  const tsvlib::Placement pair = tsvlib::make_pair(structure, 10.0);

  // Proposed framework: Stage I (linear superposition of the characterized
  // single-TSV field) + Stage II (analytical interactive stress).
  const core::StressFramework framework(pair);

  // Baseline for comparison: Stage I only.
  core::FrameworkOptions ls_options;
  ls_options.enable_interactive = false;
  const core::StressFramework baseline(pair, ls_options);

  std::printf("Two TSVs, 10 um pitch, BCB liner, dT = -250 K\n");
  const ana::SingleTsvModel single(structure, mat::ThermalLoad{});
  std::printf("K (single TSV far-field constant) = %.1f MPa*um^2\n\n",
              single.k_constant());

  std::printf("%8s  %12s  %12s  %12s\n", "x (um)", "LS sxx", "PF sxx",
              "interactive");
  for (double x = 0.0; x <= 12.0; x += 1.0) {
    const geo::Point p{x, 0.0};
    const double ls = baseline.stress_at(p).s11;
    const double pf = framework.stress_at(p).s11;
    std::printf("%8.1f  %10.2f    %10.2f    %10.2f\n", x, ls, pf, pf - ls);
  }

  // Von Mises along a vertical line above the left TSV.
  const core::LineScan scan = core::make_line_scan({-5.0, 0.0}, {-5.0, 10.0}, 6);
  std::printf("\nvon Mises above the left TSV center:\n");
  for (std::size_t i = 0; i < scan.points.size(); ++i) {
    const double vm =
        num::von_mises_plane_stress(framework.stress_at(scan.points[i]));
    std::printf("  y = %5.1f um: %7.2f MPa\n", scan.points[i].y, vm);
  }
  return 0;
}
