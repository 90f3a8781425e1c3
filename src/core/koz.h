#pragma once
// Keep-out-zone (KOZ) and reliability analysis on top of the stress
// framework — the downstream applications the paper motivates (its refs
// [1, 2]: stress-driven placement with TSV keep-out zones and stress-aware
// timing; ref [4]: interfacial crack analysis).
//
// A keep-out zone is the region around a TSV where a stress-derived metric
// (von Mises for reliability, mobility shift for timing) exceeds a limit,
// so devices must not be placed there. Interactive stress makes KOZs
// non-circular and placement-dependent; this module measures them from the
// evaluated field rather than assuming the isolated-TSV radius.

#include <cmath>
#include <cstddef>
#include <vector>

#include "core/framework.h"
#include "core/metrics.h"
#include "geometry/point.h"
#include "tsv/placement.h"

namespace tsv::core {

struct KozOptions {
  StressMeasure measure = StressMeasure::kVonMises;
  double limit = 100.0;        ///< MPa; metric above this is keep-out
  double max_radius = 25.0;    ///< um, search cap per TSV
  std::size_t rays = 64;       ///< angular resolution of the KOZ contour
  double radial_step = 0.1;    ///< um, contour search resolution
};

/// Keep-out contour of one TSV: per ray, the largest radius at which the
/// metric still exceeds the limit (at least the TSV outer radius).
struct KozContour {
  std::size_t tsv_index = 0;
  std::vector<double> radius;  ///< per ray, um; rays uniform in [0, 2 pi)
  double max_radius = 0.0;
  double min_radius = 0.0;
  double area = 0.0;  ///< um^2, polygonal area of the contour
};

/// Fills `max_radius`, `min_radius` and `area` from `radius` (at least one
/// ray).
void finish_contour(KozContour& contour);

/// The one KOZ ray march, shared by compute_koz, the daemon's koz op and the
/// variation engine's statistical KOZ. Casts `rays` rays uniform in
/// [0, 2 pi) from `center` and samples each at r = r0 + i * step while
/// r <= cap. A ray's radius is the largest sample at which `exceeds(point)`
/// holds, r0 when none does. Each ray takes floor((cap - r0) / step) + 1
/// samples, so a caller taking `step` from untrusted input bounds that count
/// first.
template <class Exceeds>
KozContour march_koz(std::size_t tsv_index, const geo::Point& center,
                     double r0, double cap, double step, std::size_t rays,
                     const Exceeds& exceeds) {
  // Not std::numbers::pi: this header also builds as C++17, in the
  // end-to-end benchmark's own project.
  constexpr double kPi = 3.14159265358979323846;
  KozContour contour;
  contour.tsv_index = tsv_index;
  contour.radius.resize(rays, r0);
  for (std::size_t k = 0; k < rays; ++k) {
    const double th =
        2.0 * kPi * static_cast<double>(k) / static_cast<double>(rays);
    const geo::Point dir{std::cos(th), std::sin(th)};
    double last = r0;
    for (std::size_t i = 0;; ++i) {
      const double r = r0 + static_cast<double>(i) * step;
      if (!(r <= cap)) break;
      if (exceeds(center + r * dir)) last = r;
    }
    contour.radius[k] = last;
  }
  finish_contour(contour);
  return contour;
}

/// Computes the KOZ contour of every TSV under the given framework.
std::vector<KozContour> compute_koz(const StressFramework& framework,
                                    const tsvlib::Placement& placement,
                                    const KozOptions& options = {});

/// Summary across a placement.
struct KozReport {
  double mean_radius = 0.0;      ///< mean of per-TSV max radii, um
  double worst_radius = 0.0;     ///< largest keep-out radius anywhere, um
  std::size_t worst_tsv = 0;
  double total_area = 0.0;       ///< sum of KOZ areas, um^2
  /// Largest KOZ asymmetry (max/min radius per TSV) — 1.0 for isolated
  /// TSVs; interactive stress between close TSVs stretches the contour.
  double worst_asymmetry = 1.0;
};

KozReport summarize_koz(const std::vector<KozContour>& contours);

}  // namespace tsv::core
