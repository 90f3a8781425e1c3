#include "core/koz.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace tsv::core {

std::vector<KozContour> compute_koz(const StressFramework& framework,
                                    const tsvlib::Placement& placement,
                                    const KozOptions& options) {
  TSV_REQUIRE(options.rays >= 8, "need at least 8 rays");
  TSV_REQUIRE(options.radial_step > 0.0, "radial step must be positive");
  TSV_REQUIRE(options.max_radius > placement.structure().outer_radius(),
              "max radius must reach beyond the TSV");
  const double r0 = placement.structure().outer_radius();

  // Outward scan: the KOZ boundary is the last radius above the limit. The
  // metric can re-exceed the limit further out near another TSV; such
  // regions belong to the TSV that owns them, so the scan stops at half the
  // cap, which keeps distinct TSVs' zones from swallowing each other.
  // Another TSV's body is never keep-out for this one.
  const auto exceeds = [&](const geo::Point& p) {
    return !placement.inside_any_tsv(p) &&
           std::abs(extract(options.measure, framework.stress_at(p))) >
               options.limit;
  };
  std::vector<KozContour> contours;
  contours.reserve(placement.size());
  for (std::size_t t = 0; t < placement.size(); ++t)
    contours.push_back(march_koz(t, placement.centers()[t], r0,
                                 options.max_radius / 2.0,
                                 options.radial_step, options.rays, exceeds));
  return contours;
}

void finish_contour(KozContour& contour) {
  const std::size_t rays = contour.radius.size();
  contour.max_radius =
      *std::max_element(contour.radius.begin(), contour.radius.end());
  contour.min_radius =
      *std::min_element(contour.radius.begin(), contour.radius.end());
  // Polygonal area of the star-shaped contour.
  const double sin_dtheta =
      std::sin(2.0 * std::numbers::pi / static_cast<double>(rays));
  double area = 0.0;
  for (std::size_t k = 0; k < rays; ++k)
    area += 0.5 * contour.radius[k] * contour.radius[(k + 1) % rays] *
            sin_dtheta;
  contour.area = area;
}

KozReport summarize_koz(const std::vector<KozContour>& contours) {
  KozReport report;
  if (contours.empty()) return report;
  double sum = 0.0;
  for (const KozContour& c : contours) {
    sum += c.max_radius;
    report.total_area += c.area;
    if (c.max_radius > report.worst_radius) {
      report.worst_radius = c.max_radius;
      report.worst_tsv = c.tsv_index;
    }
    if (c.min_radius > 0.0)
      report.worst_asymmetry =
          std::max(report.worst_asymmetry, c.max_radius / c.min_radius);
  }
  report.mean_radius = sum / static_cast<double>(contours.size());
  return report;
}

}  // namespace tsv::core
