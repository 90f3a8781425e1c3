#include "stats/variation_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <limits>

#include "core/framework.h"
#include "geometry/grid_index.h"
#include "numeric/check.h"
#include "numeric/parallel.h"
#include "numeric/tensor.h"

namespace tsv::stats {

namespace {

/// Points per block of the accumulation pass: the block's von Mises values
/// (32 KB) stay in L1/L2 across the per-field passes over them.
constexpr std::size_t kAccumulateBlock = 4096;

double seconds_since(
    const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Calls f(point_index) for every grid point within `radius` of `c`
/// (rectangular window refined by the disc test).
template <typename F>
void for_window_points(const geo::SampleGrid& grid, const geo::Point& c,
                       double radius, F&& f) {
  const geo::Box& box = grid.box();
  const double r2 = radius * radius;
  const auto clamp_idx = [](double v, std::size_t n) {
    if (v < 0.0) return std::size_t{0};
    const auto i = static_cast<std::size_t>(v);
    return std::min(i, n - 1);
  };
  const std::size_t ix0 =
      clamp_idx(grid.dx() > 0.0 ? (c.x - radius - box.lo.x) / grid.dx() : 0.0,
                grid.nx());
  const std::size_t ix1 = clamp_idx(
      grid.dx() > 0.0 ? (c.x + radius - box.lo.x) / grid.dx() + 1.0 : 0.0,
      grid.nx());
  const std::size_t iy0 =
      clamp_idx(grid.dy() > 0.0 ? (c.y - radius - box.lo.y) / grid.dy() : 0.0,
                grid.ny());
  const std::size_t iy1 = clamp_idx(
      grid.dy() > 0.0 ? (c.y + radius - box.lo.y) / grid.dy() + 1.0 : 0.0,
      grid.ny());
  for (std::size_t iy = iy0; iy <= iy1; ++iy)
    for (std::size_t ix = ix0; ix <= ix1; ++ix) {
      const geo::Point p = grid.point(ix, iy);
      const double dx = p.x - c.x;
      const double dy = p.y - c.y;
      if (dx * dx + dy * dy <= r2) f(iy * grid.nx() + ix);
    }
}

/// The edit batch turning the previous realization into the next one:
/// previously jittered TSVs not jittered again return to nominal, the new
/// subset moves to its jittered centers. Merged over the two sorted id
/// lists so the batch has one canonical order.
core::Delta delta_between(const std::vector<geo::Point>& nominal,
                          const SampleRealization& prev,
                          const SampleRealization& next) {
  core::Delta delta;
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < prev.jittered_ids.size() || b < next.jittered_ids.size()) {
    const bool take_prev =
        b >= next.jittered_ids.size() ||
        (a < prev.jittered_ids.size() &&
         prev.jittered_ids[a] < next.jittered_ids[b]);
    if (take_prev) {
      const std::uint32_t id = prev.jittered_ids[a++];
      delta.push_back(core::EcoOp::move(id, nominal[id]));
    } else {
      const std::uint32_t id = next.jittered_ids[b];
      if (a < prev.jittered_ids.size() && prev.jittered_ids[a] == id) ++a;
      delta.push_back(core::EcoOp::move(id, next.jittered_centers[b]));
      ++b;
    }
  }
  return delta;
}

}  // namespace

VariationEngine::VariationEngine(const tsvlib::Placement& nominal,
                                 const geo::SampleGrid& grid,
                                 const VariationSpec& spec,
                                 const VariationOptions& options)
    : nominal_(nominal),
      grid_(grid),
      spec_(spec),
      options_(options),
      sampler_(nominal, spec) {
  TSV_REQUIRE(!nominal_.empty(), "variation needs a non-empty placement");
  TSV_REQUIRE(!options_.quantiles.empty() && !options_.thresholds.empty(),
              "variation needs >= 1 quantile and >= 1 threshold");
  corners_ = spec_.corners;
  if (corners_.empty()) corners_.push_back({"nominal", nominal_.structure()});

  for (const StructureCorner& corner : corners_) {
    corner.structure.validate();
    // Every realization must stay legal in every corner: the tightest two
    // jittered TSVs approach each other by at most 2 * max_displacement.
    TSV_REQUIRE(nominal_.size() < 2 ||
                    nominal_.min_pitch() - 2.0 * sampler_.max_displacement() >
                        2.0 * corner.structure.outer_radius(),
                "corner outer radius leaves no jitter slack");

    const auto t0 = std::chrono::steady_clock::now();
    const tsvlib::Placement placement(corner.structure, nominal_.centers());
    const core::Characterization ch = core::characterize(
        corner.structure, options_.load,
        !options_.engine.enable_interactive ? core::StageTwo::kOff
        : options_.fit_surrogate            ? core::StageTwo::kSurrogate
                                            : core::StageTwo::kSeries);
    core::IncrementalOptions opt = options_.engine;
    opt.num_threads = 1;  // serial engine builds (see VariationOptions)
    engines_.push_back(std::make_unique<core::IncrementalEngine>(
        placement, grid_, ch.table, ch.model, opt));
    build_seconds_.push_back(seconds_since(t0));
  }
}

std::vector<CornerResult> VariationEngine::run() {
  std::vector<CornerResult> results(corners_.size());
  if (options_.parallel_corners && corners_.size() > 1) {
    // Corners are fully independent: each run_corner touches only its own
    // engine and local accumulators, and the sampler is a pure function of
    // (seed, sample index). Inside a worker the per-point accumulation's
    // nested parallel_for runs serially, so result slot c carries the same
    // bits as a sequential sweep.
    num::parallel_for(corners_.size(), /*num_threads=*/0,
                      [&](std::size_t c) { results[c] = run_corner(c); });
  } else {
    for (std::size_t c = 0; c < corners_.size(); ++c)
      results[c] = run_corner(c);
  }
  return results;
}

CornerResult VariationEngine::run_corner(std::size_t corner_index) {
  core::IncrementalEngine& engine = *engines_[corner_index];
  const std::size_t n_points = grid_.size();
  const std::vector<geo::Point>& nominal = sampler_.nominal_centers();

  CornerResult res;
  res.name = corners_[corner_index].name;
  res.samples = spec_.samples;
  res.build_seconds = build_seconds_[corner_index];

  // The KOZ threshold rides along in the exceedance engine; only the
  // user-requested thresholds are exported.
  std::vector<double> thresholds = options_.thresholds;
  auto koz_it =
      std::find(thresholds.begin(), thresholds.end(), options_.koz_limit);
  if (koz_it == thresholds.end()) {
    thresholds.push_back(options_.koz_limit);
    koz_it = std::prev(thresholds.end());
  }
  const auto koz_threshold =
      static_cast<std::size_t>(koz_it - thresholds.begin());

  DescriptiveField desc(n_points);
  QuantileField quant(n_points, options_.histogram_lo, options_.histogram_hi,
                      options_.histogram_bins);
  ExceedanceField exceed(n_points, thresholds);
  std::vector<double> vm(n_points, 0.0);
  std::vector<double> chunk_peak(
      num::resolve_thread_count(options_.num_threads));

  const double pitch_cutoff = options_.engine.stage2.pair_pitch_cutoff;
  SampleRealization prev;  // sample 0 edits away from the nominal placement

  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t s = 0; s < spec_.samples; ++s) {
    const SampleRealization r = sampler_.realize(s);
    const core::Delta delta = delta_between(nominal, prev, r);
    if (!delta.empty()) {
      const core::ApplyStats st = engine.apply(delta);
      res.point_updates +=
          st.stage1_point_updates + st.stage2_point_updates;
    }

    // Per-point accumulation: each point is owned by exactly one chunk and
    // sees its samples in sample order, so every per-point statistic is
    // bitwise independent of the thread count. A chunk works in blocks of
    // kAccumulateBlock points: one von Mises pass (the expression
    // core::extract(kVonMises) evaluates, inlined) that also keeps the
    // chunk's peak, then one block pass per statistic field while the
    // block's values are still in cache. max is associative and exact, so
    // the peak over the chunk peaks is bitwise identical at any chunk count.
    const std::vector<num::SymTensor2>& s1 = engine.stage1_field();
    const std::vector<num::SymTensor2>& s2 = engine.stage2_field();
    const double scale = r.field_scale;
    std::fill(chunk_peak.begin(), chunk_peak.end(),
              -std::numeric_limits<double>::infinity());
    num::parallel_for_chunks(
        n_points, options_.num_threads,
        [&](std::size_t begin, std::size_t end, std::size_t chunk) {
          double chunk_max = -std::numeric_limits<double>::infinity();
          for (std::size_t b0 = begin; b0 < end; b0 += kAccumulateBlock) {
            const std::size_t b1 = std::min(end, b0 + kAccumulateBlock);
            for (std::size_t i = b0; i < b1; ++i) {
              num::SymTensor2 total = s1[i];
              total += s2[i];
              const double v = scale * num::von_mises_plane_stress(total);
              vm[i] = v;
              chunk_max = std::max(chunk_max, v);
            }
            desc.add_block(b0, vm.data() + b0, b1 - b0);
            quant.add_block(b0, vm.data() + b0, b1 - b0);
            exceed.add_block(b0, vm.data() + b0, b1 - b0);
          }
          chunk_peak[chunk] = chunk_max;
        });
    double peak = -std::numeric_limits<double>::infinity();
    for (const double p : chunk_peak) peak = std::max(peak, p);
    res.sample_peak.add(peak);

    // Pitch regression: per TSV, nearest-neighbor pitch in this sample's
    // realized placement vs the peak von Mises in the probe disc. Serial in
    // id order — the accumulator stream is one fixed sequence.
    const std::vector<geo::Point> centers = sampler_.realized_centers(r);
    const geo::GridIndex index(centers, grid_.box(), pitch_cutoff);
    std::vector<std::uint32_t> near;
    for (std::size_t id = 0; id < centers.size(); ++id) {
      index.query_radius(centers[id], pitch_cutoff, near);
      double pitch = std::numeric_limits<double>::infinity();
      for (const std::uint32_t other : near) {
        if (other == id) continue;
        const double dx = centers[other].x - centers[id].x;
        const double dy = centers[other].y - centers[id].y;
        pitch = std::min(pitch, std::hypot(dx, dy));
      }
      if (!std::isfinite(pitch)) continue;  // isolated TSV: no pitch
      double local_peak = 0.0;
      for_window_points(grid_, centers[id], options_.probe_radius,
                        [&](std::size_t i) {
                          local_peak = std::max(local_peak, vm[i]);
                        });
      res.pitch_stress.add(pitch, local_peak);
    }

    prev = r;
  }

  // Return the engine to the nominal placement so engine(corner) is reusable
  // (and a follow-up run() starts from the same state).
  {
    const core::Delta delta = delta_between(nominal, prev, SampleRealization{});
    if (!delta.empty()) engine.apply(delta);
  }
  res.sample_seconds = seconds_since(t0);

  res.mean = desc.means();
  res.sigma = desc.stddevs();
  res.quantile.reserve(options_.quantiles.size());
  for (const double q : options_.quantiles)
    res.quantile.push_back(quant.quantiles(q));
  res.exceedance.reserve(options_.thresholds.size());
  for (std::size_t t = 0; t < options_.thresholds.size(); ++t)
    res.exceedance.push_back(exceed.probabilities(t));
  res.pitch_fit = res.pitch_stress.ols();

  // Statistical KOZ: per nominal TSV, per ray, the largest radius where the
  // interpolated exceedance probability still reaches koz_alpha (floored at
  // the corner's outer radius), through the ray march core::compute_koz
  // uses.
  const std::vector<double> p_exceed = exceed.probabilities(koz_threshold);
  const double r_outer = corners_[corner_index].structure.outer_radius();
  const auto exceeds = [&](const geo::Point& p) {
    return geo::bilinear(grid_, p_exceed, p) >= options_.koz_alpha;
  };
  res.koz_contours.reserve(nominal.size());
  for (std::size_t t = 0; t < nominal.size(); ++t)
    res.koz_contours.push_back(core::march_koz(
        t, nominal[t], r_outer, options_.koz_max_radius,
        options_.koz_radial_step, options_.koz_rays, exceeds));
  res.koz = core::summarize_koz(res.koz_contours);
  return res;
}

}  // namespace tsv::stats
