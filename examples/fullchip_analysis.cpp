// Full-chip stress analysis: a few hundred TSVs, a dense simulation grid,
// von Mises hot-spot extraction and a CSV field dump — the workload the
// paper's framework is built for.
//
//   build/examples/fullchip_analysis [placement.tsv]
//
// With no argument a 15x15 jittered TSV array (10 um minimal pitch) is
// generated; with an argument the placement file is loaded (see
// tsv/placement_io.h for the format).

#include <algorithm>
#include <cstdio>

#include "core/framework.h"
#include "core/koz.h"
#include "io/csv.h"
#include "tsv/generators.h"
#include "tsv/placement_io.h"

int main(int argc, char** argv) {
  using namespace tsv;

  const tsvlib::Placement placement =
      argc > 1 ? tsvlib::read_placement_file(argv[1])
               : tsvlib::make_jittered_array(
                     tsvlib::TsvStructure::baseline_bcb(), 225, 0.69e-2, 10.0,
                     2024);
  std::printf("placement: %zu TSVs, min pitch %.2f um, density %.3g /um^2\n",
              placement.size(), placement.min_pitch(), placement.density());

  const core::StressFramework framework(placement);
  core::FrameworkOptions ls_options;
  ls_options.enable_interactive = false;
  const core::StressFramework ls_only(placement, ls_options);

  // Simulation grid over the chip with a 25 um halo.
  const geo::Box roi = placement.bounding_box().expanded(25.0);
  const geo::SampleGrid grid = geo::SampleGrid::with_spacing(roi, 0.5);
  std::printf("grid: %zu x %zu = %zu points (%.0f x %.0f um)\n", grid.nx(),
              grid.ny(), grid.size(), roi.width(), roi.height());

  // The framework walks each TSV's disc once for both stages, so its run
  // has no Stage I time of its own; AR is measured against an LS-only run
  // on the same grid, as in the paper's Table 6.
  const core::StressResult result = framework.evaluate(grid);
  const core::StressResult ls = ls_only.evaluate(grid);
  const double pf_s = result.stage1_seconds + result.stage2_seconds;
  const double ls_s = ls.stage1_seconds;
  std::printf("LS %.2fs, PF %.2fs (AR = %.0f%%)\n", ls_s, pf_s,
              ls_s > 0.0 ? 100.0 * (pf_s - ls_s) / ls_s : 0.0);

  // Von Mises hot spots in the device layer (outside the TSVs themselves).
  const std::vector<geo::Point> pts = grid.points();
  struct HotSpot {
    double vm;
    geo::Point p;
  };
  std::vector<HotSpot> hot;
  std::vector<double> vm_field(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    vm_field[i] = num::von_mises_plane_stress(result.stress[i]);
    if (!placement.inside_any_tsv(pts[i]) && vm_field[i] > 0.0)
      hot.push_back({vm_field[i], pts[i]});
  }
  std::partial_sort(hot.begin(), hot.begin() + std::min<std::size_t>(5, hot.size()),
                    hot.end(),
                    [](const HotSpot& a, const HotSpot& b) { return a.vm > b.vm; });
  std::printf("\ntop von Mises hot spots (substrate):\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(5, hot.size()); ++i)
    std::printf("  %.1f MPa at (%.2f, %.2f)\n", hot[i].vm, hot[i].p.x,
                hot[i].p.y);

  // Interactive-stress significance: how much Stage II moved the answer.
  double max_interactive = 0.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    num::SymTensor2 interactive = result.stress[i];
    interactive -= ls.stress[i];
    max_interactive =
        std::max(max_interactive, num::von_mises_plane_stress(interactive));
  }
  std::printf("largest interactive von Mises correction: %.1f MPa\n",
              max_interactive);

  io::write_scalar_field("fullchip_von_mises.csv", pts, vm_field);
  std::printf("wrote fullchip_von_mises.csv\n");

  // Keep-out-zone report on the 9 most crowded TSVs (full-chip KOZ over
  // every TSV is the same call without the sub-placement).
  tsvlib::Placement crowded(placement.structure());
  for (std::size_t i = 0; i < std::min<std::size_t>(9, placement.size()); ++i)
    crowded.add(placement.centers()[i]);
  const core::StressFramework crowded_fw(crowded);
  core::KozOptions koz_opt;
  koz_opt.limit = 120.0;
  const auto contours = core::compute_koz(crowded_fw, crowded, koz_opt);
  const core::KozReport koz = core::summarize_koz(contours);
  std::printf("\nkeep-out zones (von Mises > %.0f MPa, first 9 TSVs):\n",
              koz_opt.limit);
  std::printf("  mean radius %.2f um, worst %.2f um (TSV %zu), total area "
              "%.0f um^2, worst asymmetry %.2fx\n",
              koz.mean_radius, koz.worst_radius, koz.worst_tsv,
              koz.total_area, koz.worst_asymmetry);
  return 0;
}
