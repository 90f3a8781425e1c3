#pragma once
// Monte Carlo / design-of-experiments variation engine over the resident
// incremental engine: a variation sample is an *edit batch* (jitter the
// sampled TSV subset, revert the previous sample's subset), never a fresh
// full build — the per-sample cost is O(edited pairs x disc points), which
// the bench measures at >= 50x cheaper than a cold recompute at 1k TSVs.
//
// Structure corners (radius / liner / materials, see sampler.h) each get
// their own engine over core::characterize() of the corner structure (with
// the certified surrogate when fit_surrogate is set); per corner the engine
// streams every sample through the stats/accumulators.h engines and reports
//   * per-point mean / sigma / quantiles of von Mises stress,
//   * per-point exceedance probability at the kExceedanceThresholds (MPa),
//   * statistical KOZ contours: per nominal TSV, the region where
//     P(von Mises > kKozLimit) >= kKozAlpha (a probabilistic version of
//     core/koz.h, reusing its contour/report types),
//   * a stress-vs-pitch OLS regression + correlation (pitch is the dominant
//     extrusion covariate, arXiv:2009.12388), pooling (nearest-neighbor
//     pitch, peak local von Mises) per TSV per sample.
//
// Determinism contract (mirrors the repo's threading rules): the sample
// loop and every engine apply/build are serial; threads only touch the
// per-point accumulation pass, where each point is owned by exactly one
// chunk and cross-point reductions are order-independent (max, integer
// counts). Results are therefore bitwise identical at any thread count, and
// identical across runs for a fixed (seed, samples, corners).

#include <array>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/incremental_engine.h"
#include "core/koz.h"
#include "core/metrics.h"
#include "geometry/sample_grid.h"
#include "stats/accumulators.h"
#include "stats/sampler.h"
#include "tsv/placement.h"

namespace tsv::stats {

// The sweep's fixed statistics: every corner characterizes at
// mat::ThermalLoad{} (the load StressFramework's self-characterizing
// constructor uses) and reports these levels.

/// Von Mises exceedance thresholds, MPa.
inline constexpr std::array<double, 3> kExceedanceThresholds{60.0, 80.0,
                                                             100.0};
/// Quantile levels reported per point.
inline constexpr std::array<double, 3> kQuantileLevels{0.05, 0.5, 0.95};
/// Quantile sketch shape (log-spaced bins over [lo, hi] MPa).
inline constexpr std::size_t kHistogramBins = 48;
inline constexpr double kHistogramLo = 1e-2;
inline constexpr double kHistogramHi = 1e4;
/// Radius (um) of the per-TSV probe disc whose peak von Mises feeds the
/// pitch regression.
inline constexpr double kProbeRadius = 5.0;
/// Statistical KOZ: contour of P(von Mises > kKozLimit) >= kKozAlpha. The
/// limit is exceedance threshold kKozThreshold, so its probabilities come
/// from the same pass.
inline constexpr std::size_t kKozThreshold = 2;
inline constexpr double kKozLimit = 100.0;
static_assert(kExceedanceThresholds[kKozThreshold] == kKozLimit,
              "the KOZ limit must be one of the exceedance thresholds");
inline constexpr double kKozAlpha = 0.05;
inline constexpr std::size_t kKozRays = 32;
inline constexpr double kKozMaxRadius = 25.0;
inline constexpr double kKozRadialStep = 0.25;

struct VariationOptions {
  /// Sweep the LS baseline: Stage I alone, no interaction model.
  bool ls_only = false;
  /// Threads for the per-point accumulation pass (0 = hardware, 1 = serial).
  /// Every corner's engine runs on the default cutoffs and builds and
  /// applies serially.
  std::size_t num_threads = 1;
  /// Sweep structure corners concurrently on the shared pool. Corners are
  /// fully independent (own engine, own accumulators, counter-based
  /// sampler), and nested parallel regions run serially, so per-corner
  /// results stay bitwise identical to the sequential sweep.
  bool parallel_corners = false;
  /// Fit and attach a certified Chebyshev surrogate per corner before the
  /// sweep (fast Stage II per sample at the cost of one ~40 ms fit).
  bool fit_surrogate = false;
};

/// Everything the sweep learned about one structure corner.
struct CornerResult {
  std::string name;
  std::size_t samples = 0;

  /// Per grid point (indexed like the sample grid).
  std::vector<double> mean;
  std::vector<double> sigma;
  /// quantile[qi][point] for kQuantileLevels[qi].
  std::vector<std::vector<double>> quantile;
  /// exceedance[ti][point] for kExceedanceThresholds[ti].
  std::vector<std::vector<double>> exceedance;

  /// Distribution of the per-sample peak von Mises over the grid.
  DescriptiveAccumulator sample_peak;
  /// Pooled (nearest-neighbor pitch, local peak von Mises) regression.
  BivariateAccumulator pitch_stress;
  OlsFit pitch_fit;

  /// Statistical KOZ around each nominal TSV.
  std::vector<core::KozContour> koz_contours;
  core::KozReport koz;

  double build_seconds = 0.0;   ///< characterization + initial full build
  double sample_seconds = 0.0;  ///< total apply + accumulate time
  std::size_t point_updates = 0;  ///< engine stage1+stage2 point updates
};

class VariationEngine {
 public:
  /// Builds one resident engine per corner (spec.corners; nominal-only when
  /// empty) over `nominal`'s centers and `grid`. Throws InvalidInputError
  /// via TSV_REQUIRE when a corner's outer radius leaves no jitter slack.
  VariationEngine(const tsvlib::Placement& nominal,
                  const geo::SampleGrid& grid, const VariationSpec& spec,
                  const VariationOptions& options = {});

  const VariationSampler& sampler() const { return sampler_; }
  const geo::SampleGrid& grid() const { return grid_; }
  const VariationOptions& options() const { return options_; }
  std::size_t corner_count() const { return corners_.size(); }
  const StructureCorner& corner(std::size_t i) const { return corners_[i]; }
  /// The resident engine of corner i (at the nominal placement before and
  /// after run()).
  core::IncrementalEngine& engine(std::size_t i) { return *engines_[i]; }

  /// Streams spec().samples Monte Carlo samples through every corner's
  /// engine and returns one result per corner. Deterministic: same
  /// (seed, samples, corners) => bitwise-identical results at any
  /// options().num_threads, with or without parallel_corners.
  std::vector<CornerResult> run();

 private:
  CornerResult run_corner(std::size_t corner_index);

  tsvlib::Placement nominal_;
  geo::SampleGrid grid_;
  VariationSpec spec_;
  VariationOptions options_;
  VariationSampler sampler_;
  std::vector<StructureCorner> corners_;
  std::vector<std::unique_ptr<core::IncrementalEngine>> engines_;
  std::vector<double> build_seconds_;
};

}  // namespace tsv::stats
