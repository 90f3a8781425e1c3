// The variation engine's statistical contract:
//   - moments match a brute-force reference (an independent full engine
//     build per sample) to <= 1e-10 relative on a 64-TSV design, and
//     exceedance counts and quantile bins match it exactly away from the
//     cuts;
//   - results are bitwise identical at any accumulation thread count and
//     across repeated runs with the same seed;
//   - different seeds agree within CLT-scaled tolerance;
//   - the sampler is a pure function of (seed, sample index) and every
//     realization keeps the placement legal;
//   - structure corners characterize independently, and corners whose outer
//     radius leaves no jitter slack are rejected up front.

#include "stats/variation_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <stdexcept>
#include <vector>

#include "analytic/interaction.h"
#include "analytic/single_tsv.h"
#include "analytic/surrogate.h"
#include "core/metrics.h"
#include "core/stress_table.h"
#include "stats/sampler.h"
#include "tsv/generators.h"

namespace tsv::stats {
namespace {

const tsvlib::TsvStructure kS = tsvlib::TsvStructure::baseline_bcb();

/// 64 seeded random TSVs on a coarse grid — large enough for real Stage II
/// work, small enough that a per-sample full rebuild (the brute force
/// reference) stays cheap.
struct Fixture {
  tsvlib::Placement placement;
  geo::SampleGrid grid;

  Fixture()
      : placement(tsvlib::make_random(
            kS, 64, geo::Box{{0.0, 0.0}, {200.0, 200.0}}, 9.0, 123)),
        grid(geo::SampleGrid::with_spacing(
            placement.bounding_box().expanded(25.0), 4.0)) {}
};

VariationSpec small_spec(std::uint64_t seed, std::size_t samples) {
  VariationSpec spec;
  spec.seed = seed;
  spec.samples = samples;
  spec.jitter_tsvs = 6;
  return spec;
}

/// Stage II through the certified surrogate (fitted per corner), the
/// sweep's cheap path.
VariationOptions fast_options() {
  VariationOptions opt;
  opt.fit_surrogate = true;
  return opt;
}

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(Variation, MomentsMatchBruteForceReference) {
  const Fixture f;
  const VariationSpec spec = small_spec(11, 10);
  const VariationOptions opt = fast_options();

  VariationEngine engine(f.placement, f.grid, spec, opt);
  const CornerResult res = engine.run().front();
  ASSERT_EQ(res.samples, spec.samples);

  // Brute force: regenerate every realization through an identical sampler
  // and evaluate each realized placement with an independent from-scratch
  // engine (same characterization, same serial options), then compute the
  // per-point moments directly from the stored samples.
  const VariationSampler sampler(f.placement, spec);
  const ana::SingleTsvModel single(kS, opt.load);
  const auto table = std::make_shared<const core::RadialStressTable>(
      core::RadialStressTable::from_analytic(single, 30.0, 4096));
  const auto model = std::make_shared<const ana::InteractiveStressModel>(
      std::make_shared<const ana::InclusionResponse>(kS), single.k_hat());
  // The fit is deterministic, so this is bitwise the engine's surrogate.
  model->attach_surrogate(std::make_shared<const ana::PairSurrogate>(
      ana::PairSurrogate::fit(*model)));
  core::IncrementalOptions eopt = opt.engine;
  eopt.num_threads = 1;

  const std::size_t n = f.grid.size();
  std::vector<std::vector<double>> vm(spec.samples,
                                      std::vector<double>(n, 0.0));
  for (std::size_t s = 0; s < spec.samples; ++s) {
    const SampleRealization r = sampler.realize(s);
    const tsvlib::Placement realized(kS, sampler.realized_centers(r));
    const core::IncrementalEngine fresh(realized, f.grid, table, model, eopt);
    const auto& s1 = fresh.stage1_field();
    const auto& s2 = fresh.stage2_field();
    for (std::size_t i = 0; i < n; ++i) {
      num::SymTensor2 total = s1[i];
      total += s2[i];
      vm[s][i] = r.field_scale *
                 core::extract(core::StressMeasure::kVonMises, total);
    }
  }

  // Reference moments, then the worst error relative to the field scale
  // (the repo's convention for field comparisons — see
  // test_incremental_engine's max_rel_err).
  std::vector<double> ref_mean(n, 0.0);
  std::vector<double> ref_sigma(n, 0.0);
  double field_scale = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (std::size_t s = 0; s < spec.samples; ++s) sum += vm[s][i];
    ref_mean[i] = sum / static_cast<double>(spec.samples);
    double ss = 0.0;
    for (std::size_t s = 0; s < spec.samples; ++s)
      ss += (vm[s][i] - ref_mean[i]) * (vm[s][i] - ref_mean[i]);
    ref_sigma[i] = std::sqrt(ss / static_cast<double>(spec.samples));
    field_scale = std::max(field_scale, std::abs(ref_mean[i]));
  }
  ASSERT_GT(field_scale, 0.0);
  double worst_mean = 0.0;
  double worst_sigma = 0.0;
  std::size_t exact_zero = 0;
  for (std::size_t i = 0; i < n; ++i) {
    worst_mean = std::max(worst_mean, std::abs(res.mean[i] - ref_mean[i]));
    worst_sigma = std::max(worst_sigma, std::abs(res.sigma[i] - ref_sigma[i]));
    // Far-field points beyond every influence disc are exactly zero on both
    // sides — no drift can reach them.
    if (ref_mean[i] == 0.0) {
      ++exact_zero;
      EXPECT_EQ(res.mean[i], 0.0) << i;
      EXPECT_EQ(res.sigma[i], 0.0) << i;
    }
  }
  EXPECT_GT(exact_zero, 0u);
  // The bound has real margin: the incremental path typically agrees to
  // ~1e-13 of the field.
  EXPECT_LE(worst_mean / field_scale, 1e-10);
  EXPECT_LE(worst_sigma / field_scale, 1e-10);

  // Exceedance and quantiles are discrete in the samples, so they match
  // the reference exactly only where no sample sits within the engine's
  // drift of a cut: at points whose samples all lie more than
  // 1e-9 x field_scale from every threshold (or bin edge), the counts must
  // be equal and each quantile must land in the bin of the reference's
  // order statistic (same rank rule: the ceil(q n)-th smallest sample).
  const double margin = 1e-9 * field_scale;
  const auto clear_of = [&](std::size_t i, const std::vector<double>& cuts) {
    for (std::size_t s = 0; s < spec.samples; ++s)
      for (const double c : cuts)
        if (std::abs(vm[s][i] - c) <= margin) return false;
    return true;
  };
  ASSERT_EQ(res.exceedance.size(), opt.thresholds.size());
  std::size_t exceed_checked = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!clear_of(i, opt.thresholds)) continue;
    ++exceed_checked;
    for (std::size_t t = 0; t < opt.thresholds.size(); ++t) {
      std::size_t above = 0;
      for (std::size_t s = 0; s < spec.samples; ++s)
        above += vm[s][i] > opt.thresholds[t] ? 1 : 0;
      EXPECT_EQ(res.exceedance[t][i], static_cast<double>(above) /
                                          static_cast<double>(spec.samples))
          << "point " << i << " threshold " << opt.thresholds[t];
    }
  }
  const QuantileField bins(1, opt.histogram_lo, opt.histogram_hi,
                           opt.histogram_bins);
  const std::vector<double>& edges = bins.edges();
  ASSERT_EQ(res.quantile.size(), opt.quantiles.size());
  std::size_t quantile_checked = 0;
  std::size_t in_range_bins = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!clear_of(i, edges)) continue;
    ++quantile_checked;
    std::vector<double> sorted(spec.samples);
    for (std::size_t s = 0; s < spec.samples; ++s) sorted[s] = vm[s][i];
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t q = 0; q < opt.quantiles.size(); ++q) {
      const auto rank = static_cast<std::size_t>(std::max(
          1.0, std::ceil(opt.quantiles[q] *
                         static_cast<double>(spec.samples))));
      const double order_stat = sorted[rank - 1];
      const std::size_t b = bins.bin_of(order_stat);
      in_range_bins += b > 0 ? 1 : 0;
      // The in-bin interpolation can round one ulp past either edge.
      EXPECT_GE(res.quantile[q][i], edges[b] * (1.0 - 1e-15))
          << "point " << i << " q=" << opt.quantiles[q];
      EXPECT_LE(res.quantile[q][i], edges[b + 1] * (1.0 + 1e-15))
          << "point " << i << " q=" << opt.quantiles[q];
    }
  }
  // Nearly every point is clear of every cut, and the quantile check
  // reaches the stressed points, not only the far field in the first bin.
  EXPECT_GE(exceed_checked, n * 99 / 100);
  EXPECT_GE(quantile_checked, n * 99 / 100);
  EXPECT_GT(in_range_bins, n);
}

TEST(Variation, BitwiseIdenticalAtAnyThreadCount) {
  const Fixture f;
  const VariationSpec spec = small_spec(5, 6);

  VariationOptions serial = fast_options();
  serial.num_threads = 1;
  VariationOptions threaded = fast_options();
  threaded.num_threads = 5;

  VariationEngine a(f.placement, f.grid, spec, serial);
  VariationEngine b(f.placement, f.grid, spec, threaded);
  const CornerResult ra = a.run().front();
  const CornerResult rb = b.run().front();

  EXPECT_TRUE(bitwise_equal(ra.mean, rb.mean));
  EXPECT_TRUE(bitwise_equal(ra.sigma, rb.sigma));
  ASSERT_EQ(ra.quantile.size(), rb.quantile.size());
  for (std::size_t q = 0; q < ra.quantile.size(); ++q)
    EXPECT_TRUE(bitwise_equal(ra.quantile[q], rb.quantile[q])) << q;
  ASSERT_EQ(ra.exceedance.size(), rb.exceedance.size());
  for (std::size_t t = 0; t < ra.exceedance.size(); ++t)
    EXPECT_TRUE(bitwise_equal(ra.exceedance[t], rb.exceedance[t])) << t;
  EXPECT_EQ(ra.sample_peak.mean(), rb.sample_peak.mean());
  EXPECT_EQ(ra.sample_peak.max(), rb.sample_peak.max());
  EXPECT_EQ(ra.pitch_fit.slope, rb.pitch_fit.slope);
  EXPECT_EQ(ra.pitch_fit.r, rb.pitch_fit.r);
  ASSERT_EQ(ra.koz_contours.size(), rb.koz_contours.size());
  for (std::size_t t = 0; t < ra.koz_contours.size(); ++t)
    EXPECT_TRUE(bitwise_equal(ra.koz_contours[t].radius,
                              rb.koz_contours[t].radius));
}

TEST(Variation, SameSeedRepeatsBitwise) {
  const Fixture f;
  const VariationSpec spec = small_spec(21, 5);
  VariationEngine a(f.placement, f.grid, spec, fast_options());
  VariationEngine b(f.placement, f.grid, spec, fast_options());
  const CornerResult ra = a.run().front();
  const CornerResult rb = b.run().front();
  EXPECT_TRUE(bitwise_equal(ra.mean, rb.mean));
  EXPECT_TRUE(bitwise_equal(ra.sigma, rb.sigma));
  EXPECT_EQ(ra.sample_peak.mean(), rb.sample_peak.mean());

  // run() reverts the engine to the nominal placement, so a follow-up run
  // re-streams the same samples — identical up to the engine's accumulated
  // edit drift (<= ~1e-12 of the field scale, not bitwise).
  const CornerResult again = a.run().front();
  double field_scale = 0.0;
  for (const double m : ra.mean) field_scale = std::max(field_scale, m);
  double worst = 0.0;
  for (std::size_t i = 0; i < ra.mean.size(); ++i)
    worst = std::max(worst, std::abs(again.mean[i] - ra.mean[i]));
  EXPECT_LE(worst, 1e-10 * field_scale);
}

TEST(Variation, DifferentSeedsAgreeWithinCltTolerance) {
  const Fixture f;
  const std::size_t samples = 24;
  VariationEngine a(f.placement, f.grid, small_spec(1, samples),
                    fast_options());
  VariationEngine b(f.placement, f.grid, small_spec(2, samples),
                    fast_options());
  const CornerResult ra = a.run().front();
  const CornerResult rb = b.run().front();

  // The per-sample peak distributions are estimates of the same population:
  // their means differ by O(sigma / sqrt(n)).
  const double se = std::sqrt((ra.sample_peak.variance() +
                               rb.sample_peak.variance()) /
                              static_cast<double>(samples));
  EXPECT_GT(se, 0.0);
  EXPECT_LE(std::abs(ra.sample_peak.mean() - rb.sample_peak.mean()),
            6.0 * se);

  // Pooled over the grid, the mean fields agree to a CLT-scaled budget
  // (per-point sigma / sqrt(n), averaged over the points that vary at all).
  double diff_sum = 0.0;
  double se_sum = 0.0;
  std::size_t varying = 0;
  for (std::size_t i = 0; i < ra.mean.size(); ++i) {
    const double s = std::max(ra.sigma[i], rb.sigma[i]);
    if (s == 0.0) {
      EXPECT_EQ(ra.mean[i], rb.mean[i]) << i;  // both exactly nominal
      continue;
    }
    ++varying;
    diff_sum += std::abs(ra.mean[i] - rb.mean[i]);
    se_sum += s / std::sqrt(static_cast<double>(samples));
  }
  ASSERT_GT(varying, 0u);
  EXPECT_LE(diff_sum / static_cast<double>(varying),
            6.0 * se_sum / static_cast<double>(varying));
}

TEST(VariationSampler, RealizationsArePureAndLegal) {
  const Fixture f;
  const VariationSpec spec = small_spec(77, 40);
  const VariationSampler sampler(f.placement, spec);
  EXPECT_GT(sampler.max_displacement(), 0.0);

  // Purity: the same index realizes identically regardless of call order.
  const SampleRealization late = sampler.realize(37);
  const SampleRealization early = sampler.realize(2);
  const SampleRealization late2 = sampler.realize(37);
  EXPECT_EQ(late.jittered_ids, late2.jittered_ids);
  ASSERT_EQ(late.jittered_centers.size(), late2.jittered_centers.size());
  for (std::size_t i = 0; i < late.jittered_centers.size(); ++i) {
    EXPECT_EQ(late.jittered_centers[i].x, late2.jittered_centers[i].x);
    EXPECT_EQ(late.jittered_centers[i].y, late2.jittered_centers[i].y);
  }
  EXPECT_EQ(late.field_scale, late2.field_scale);
  EXPECT_NE(early.jittered_ids, late.jittered_ids);  // different subsets

  const double r_outer = kS.outer_radius();
  for (std::size_t s = 0; s < spec.samples; ++s) {
    const SampleRealization r = sampler.realize(s);
    EXPECT_EQ(r.sample_index, s);
    EXPECT_EQ(r.jittered_ids.size(), spec.jitter_tsvs);
    EXPECT_TRUE(std::is_sorted(r.jittered_ids.begin(), r.jittered_ids.end()));
    EXPECT_EQ(std::set<std::uint32_t>(r.jittered_ids.begin(),
                                      r.jittered_ids.end())
                  .size(),
              r.jittered_ids.size());
    // Displacements respect the clamp, and the CTE scale its +/-3 sigma.
    for (std::size_t i = 0; i < r.jittered_ids.size(); ++i) {
      const geo::Point& nom = sampler.nominal_centers()[r.jittered_ids[i]];
      const double dx = r.jittered_centers[i].x - nom.x;
      const double dy = r.jittered_centers[i].y - nom.y;
      EXPECT_LE(std::hypot(dx, dy),
                sampler.max_displacement() * (1.0 + 1e-12));
    }
    EXPECT_GE(r.field_scale, 1.0 - 3.0 * spec.cte_sigma - 1e-12);
    EXPECT_LE(r.field_scale, 1.0 + 3.0 * spec.cte_sigma + 1e-12);
    // Legality: the realized placement keeps every pitch above 2 R'.
    const tsvlib::Placement realized(kS, sampler.realized_centers(r));
    EXPECT_GT(realized.min_pitch(), 2.0 * r_outer);
  }
}

TEST(VariationSampler, CteSigmaZeroMeansUnitScale) {
  const Fixture f;
  VariationSpec spec = small_spec(3, 4);
  spec.cte_sigma = 0.0;
  const VariationSampler sampler(f.placement, spec);
  for (std::size_t s = 0; s < spec.samples; ++s)
    EXPECT_EQ(sampler.realize(s).field_scale, 1.0);
}

TEST(Variation, MaterialCornersCharacterizeIndependently) {
  // A small, wide-pitch array keeps the 4-corner characterization cheap.
  const tsvlib::Placement placement = tsvlib::make_array(kS, 2, 2, 15.0);
  const geo::SampleGrid grid = geo::SampleGrid::with_spacing(
      placement.bounding_box().expanded(25.0), 5.0);

  VariationSpec spec = small_spec(9, 2);
  spec.jitter_tsvs = 2;
  spec.corners = material_corners(kS);
  ASSERT_EQ(spec.corners.size(), 4u);

  VariationEngine engine(placement, grid, spec, fast_options());
  const std::vector<CornerResult> results = engine.run();
  ASSERT_EQ(results.size(), 4u);
  std::set<std::string> names;
  for (const CornerResult& r : results) names.insert(r.name);
  EXPECT_EQ(names.size(), 4u);  // Cu/CNT x BCB/SiO2, all distinct
  // Material choice must move the stress statistics: Cu fill has ~17 ppm/K
  // CTE against CNT's ~1 ppm/K, so their mean peaks differ materially.
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
  for (const CornerResult& r : results) {
    lo = std::min(lo, r.sample_peak.mean());
    hi = std::max(hi, r.sample_peak.mean());
  }
  EXPECT_GT(hi, 2.0 * lo);
}

TEST(Variation, ParallelCornerSweepIsBitwiseIdenticalToSequential) {
  // Corners are independent (own engine + accumulators, counter-based
  // sampler), so sweeping them concurrently on the pool must reproduce the
  // sequential per-corner results bit for bit.
  const tsvlib::Placement placement = tsvlib::make_array(kS, 2, 2, 15.0);
  const geo::SampleGrid grid = geo::SampleGrid::with_spacing(
      placement.bounding_box().expanded(25.0), 5.0);
  VariationSpec spec = small_spec(17, 4);
  spec.jitter_tsvs = 2;
  spec.corners = material_corners(kS);

  VariationOptions sequential = fast_options();
  VariationEngine seq_engine(placement, grid, spec, sequential);
  const std::vector<CornerResult> seq = seq_engine.run();

  VariationOptions parallel = fast_options();
  parallel.parallel_corners = true;
  VariationEngine par_engine(placement, grid, spec, parallel);
  const std::vector<CornerResult> par = par_engine.run();

  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t c = 0; c < seq.size(); ++c) {
    SCOPED_TRACE(seq[c].name);
    EXPECT_EQ(seq[c].name, par[c].name);
    EXPECT_EQ(seq[c].samples, par[c].samples);
    EXPECT_EQ(seq[c].point_updates, par[c].point_updates);
    EXPECT_TRUE(bitwise_equal(seq[c].mean, par[c].mean));
    EXPECT_TRUE(bitwise_equal(seq[c].sigma, par[c].sigma));
    ASSERT_EQ(seq[c].quantile.size(), par[c].quantile.size());
    for (std::size_t q = 0; q < seq[c].quantile.size(); ++q)
      EXPECT_TRUE(bitwise_equal(seq[c].quantile[q], par[c].quantile[q]));
    ASSERT_EQ(seq[c].exceedance.size(), par[c].exceedance.size());
    for (std::size_t t = 0; t < seq[c].exceedance.size(); ++t)
      EXPECT_TRUE(bitwise_equal(seq[c].exceedance[t], par[c].exceedance[t]));
    EXPECT_EQ(seq[c].sample_peak.count(), par[c].sample_peak.count());
    EXPECT_EQ(seq[c].sample_peak.mean(), par[c].sample_peak.mean());
    EXPECT_EQ(seq[c].sample_peak.max(), par[c].sample_peak.max());
    EXPECT_EQ(seq[c].pitch_fit.slope, par[c].pitch_fit.slope);
    EXPECT_EQ(seq[c].pitch_fit.intercept, par[c].pitch_fit.intercept);
    EXPECT_EQ(seq[c].pitch_fit.r, par[c].pitch_fit.r);
    ASSERT_EQ(seq[c].koz_contours.size(), par[c].koz_contours.size());
    for (std::size_t k = 0; k < seq[c].koz_contours.size(); ++k)
      EXPECT_TRUE(bitwise_equal(seq[c].koz_contours[k].radius,
                                par[c].koz_contours[k].radius));
    EXPECT_EQ(seq[c].koz.total_area, par[c].koz.total_area);
  }
}

TEST(Variation, GeometryCornerWithoutJitterSlackIsRejected) {
  // Pitch 9 leaves max_displacement = 0.45 * (9 - 6) = 1.35 um, so a corner
  // with outer radius > (9 - 2.7) / 2 = 3.15 um cannot guarantee legality.
  const tsvlib::Placement placement = tsvlib::make_array(kS, 2, 2, 9.0);
  const geo::SampleGrid grid = geo::SampleGrid::with_spacing(
      placement.bounding_box().expanded(25.0), 5.0);
  VariationSpec spec = small_spec(1, 2);
  spec.jitter_tsvs = 2;
  spec.corners = geometry_corners(kS, 0.6, 0.0);  // R+ corner: R' = 3.6
  EXPECT_THROW(VariationEngine(placement, grid, spec, fast_options()),
               std::invalid_argument);

  // The same corners are fine at a wider pitch (the clamp scales with the
  // nominal slack, so legality needs 0.1 * pitch + 0.9 * 2 R' > 2 R'+).
  const tsvlib::Placement wide = tsvlib::make_array(kS, 2, 2, 24.0);
  const geo::SampleGrid wgrid = geo::SampleGrid::with_spacing(
      wide.bounding_box().expanded(25.0), 5.0);
  EXPECT_NO_THROW(VariationEngine(wide, wgrid, spec, fast_options()));
}

}  // namespace
}  // namespace tsv::stats
