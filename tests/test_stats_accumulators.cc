// The streaming statistic engines under src/stats: every engine must match
// its direct (store-all-samples) counterpart, and every merge must be
// equivalent to one sequential stream — that equivalence is what lets the
// variation engine parallelize over points without changing any result.

#include "stats/accumulators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace tsv::stats {
namespace {

/// Deterministic pseudo-random doubles in (lo, hi) without <random> (the
/// exact stream does not matter, only that both sides see the same one).
std::vector<double> test_values(std::size_t n, double lo, double hi,
                                std::uint64_t seed) {
  std::vector<double> v(n);
  std::uint64_t x = seed;
  for (double& out : v) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    out = lo + (hi - lo) * static_cast<double>(x >> 11) * 0x1.0p-53;
  }
  return v;
}

TEST(DescriptiveAccumulator, MatchesDirectMoments) {
  const std::vector<double> v = test_values(257, -3.0, 9.0, 42);
  DescriptiveAccumulator acc;
  for (double x : v) acc.add(x);

  double sum = 0.0;
  for (double x : v) sum += x;
  const double mean = sum / static_cast<double>(v.size());
  double ss = 0.0;
  for (double x : v) ss += (x - mean) * (x - mean);
  const double var = ss / static_cast<double>(v.size());  // population

  EXPECT_EQ(acc.count(), v.size());
  EXPECT_NEAR(acc.mean(), mean, 1e-12);
  EXPECT_NEAR(acc.variance(), var, 1e-12);
  EXPECT_NEAR(acc.stddev(), std::sqrt(var), 1e-12);
  EXPECT_EQ(acc.min(), *std::min_element(v.begin(), v.end()));
  EXPECT_EQ(acc.max(), *std::max_element(v.begin(), v.end()));
}

TEST(DescriptiveAccumulator, EmptyAndSingleton) {
  DescriptiveAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.variance(), 0.0);
  acc.add(7.5);
  EXPECT_EQ(acc.mean(), 7.5);
  EXPECT_EQ(acc.variance(), 0.0);
  EXPECT_EQ(acc.min(), 7.5);
  EXPECT_EQ(acc.max(), 7.5);
}

TEST(DescriptiveAccumulator, MergeEquivalentToSequential) {
  const std::vector<double> v = test_values(500, 0.0, 100.0, 7);
  for (std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{250},
                            std::size_t{499}, std::size_t{500}}) {
    DescriptiveAccumulator a, b, whole;
    for (std::size_t i = 0; i < v.size(); ++i) {
      (i < split ? a : b).add(v[i]);
      whole.add(v[i]);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), whole.variance(),
                1e-12 * std::max(1.0, whole.variance()));
    EXPECT_EQ(a.min(), whole.min());
    EXPECT_EQ(a.max(), whole.max());
  }
}

TEST(DescriptiveField, PointsAreIndependent) {
  DescriptiveField field(3);
  field.add(0, 1.0);
  field.add(0, 3.0);
  field.add(2, 10.0);
  EXPECT_EQ(field.count(0), 2u);
  EXPECT_EQ(field.count(1), 0u);
  EXPECT_EQ(field.count(2), 1u);
  EXPECT_EQ(field.mean(0), 2.0);
  EXPECT_EQ(field.variance(0), 1.0);  // population: ((1)^2 + (1)^2) / 2
  EXPECT_EQ(field.mean(2), 10.0);
  EXPECT_EQ(field.means()[0], 2.0);
  EXPECT_EQ(field.stddevs()[0], 1.0);
}

TEST(QuantileField, RecoversQuantilesWithinBinResolution) {
  // Log-spaced bins over [1, 1000] with 96 bins: one bin spans a factor of
  // 1000^(1/96) ~ 7.5%, so a recovered quantile is within that of the true
  // one.
  QuantileField q(1, 1.0, 1000.0, 96);
  const std::vector<double> v = test_values(4000, 5.0, 500.0, 99);
  for (double x : v) q.add(0, x);

  std::vector<double> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (double level : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(level * static_cast<double>(v.size())));
    const double want = sorted[std::min(rank, v.size()) - 1];
    const double got = q.quantile(0, level);
    EXPECT_NEAR(got, want, 0.08 * want) << "q=" << level;
  }
  // Monotone in the level.
  EXPECT_LE(q.quantile(0, 0.1), q.quantile(0, 0.9));
}

TEST(QuantileField, ClampsOutOfRangeValues) {
  QuantileField q(1, 1.0, 100.0, 16);
  q.add(0, 0.001);  // below lo -> first bin
  q.add(0, 1e9);    // above hi -> last bin
  EXPECT_LE(q.quantile(0, 0.5), 2.0);
  EXPECT_GE(q.quantile(0, 1.0), 90.0);
  // No samples at another point -> 0.
  QuantileField empty(2, 1.0, 100.0, 16);
  EXPECT_EQ(empty.quantile(1, 0.5), 0.0);
}

TEST(ExceedanceField, CountsAreExact) {
  ExceedanceField e(2, {10.0, 50.0});
  for (double x : {5.0, 15.0, 55.0, 10.0}) e.add(0, x);  // 10.0 is NOT >10
  EXPECT_EQ(e.count(0, 0), 2u);
  EXPECT_EQ(e.count(0, 1), 1u);
  EXPECT_EQ(e.probability(0, 0), 0.5);
  EXPECT_EQ(e.probability(0, 1), 0.25);
  EXPECT_EQ(e.probability(1, 0), 0.0);  // no samples at point 1
  EXPECT_EQ(e.probabilities(0)[0], 0.5);
}

// Four points whose values sit in different bins: every point's quantiles
// must be a one-point field's fed the same values, so a wrong point or bin
// index in the bin-major layout shows.
TEST(QuantileField, PointsBeyondZeroMatchOnePointFields) {
  const std::vector<std::vector<double>> per_point = {
      test_values(50, 0.02, 0.5, 1), test_values(50, 3.0, 40.0, 2),
      test_values(50, 200.0, 9000.0, 3), test_values(50, 0.5, 5000.0, 4)};
  QuantileField field(per_point.size(), 1e-2, 1e4, 48);
  for (std::size_t s = 0; s < 50; ++s)
    for (std::size_t i = 0; i < per_point.size(); ++i)
      field.add(i, per_point[i][s]);
  for (std::size_t i = 0; i < per_point.size(); ++i) {
    QuantileField one(1, 1e-2, 1e4, 48);
    for (const double x : per_point[i]) one.add(0, x);
    for (const double level : {0.0, 0.05, 0.5, 0.95, 1.0}) {
      EXPECT_EQ(field.quantile(i, level), one.quantile(0, level))
          << "point " << i << " q=" << level;
      EXPECT_EQ(field.quantiles(level)[i], one.quantile(0, level));
    }
  }
  // The four points' medians lie in four different bins.
  std::vector<std::size_t> bins;
  for (std::size_t i = 0; i < per_point.size(); ++i)
    bins.push_back(field.bin_of(field.quantile(i, 0.5)));
  std::sort(bins.begin(), bins.end());
  EXPECT_EQ(std::unique(bins.begin(), bins.end()), bins.end());
}

TEST(ExceedanceField, PointsBeyondZeroMatchOnePointFields) {
  const std::vector<double> thresholds = {10.0, 50.0, 80.0};
  // Point 0 stays under every threshold, point 1 straddles 10 and 50,
  // point 2 straddles 50 and 80 (10 is never crossed from below), point 3
  // straddles all three.
  const std::vector<std::vector<double>> per_point = {
      test_values(40, 1.0, 9.0, 5), test_values(40, 5.0, 60.0, 6),
      test_values(40, 40.0, 95.0, 7), test_values(40, 0.0, 100.0, 8)};
  ExceedanceField field(per_point.size(), thresholds);
  for (std::size_t s = 0; s < 40; ++s)
    for (std::size_t i = 0; i < per_point.size(); ++i)
      field.add(i, per_point[i][s]);
  for (std::size_t i = 0; i < per_point.size(); ++i) {
    ExceedanceField one(1, thresholds);
    for (const double x : per_point[i]) one.add(0, x);
    for (std::size_t t = 0; t < thresholds.size(); ++t) {
      std::uint32_t want = 0;
      for (const double x : per_point[i]) want += x > thresholds[t] ? 1 : 0;
      EXPECT_EQ(field.count(i, t), want) << "point " << i << " t=" << t;
      EXPECT_EQ(one.count(0, t), want);
      EXPECT_EQ(field.probabilities(t)[i], one.probability(0, t));
    }
  }
  EXPECT_EQ(field.count(0, 0), 0u);
  EXPECT_GT(field.count(1, 0), field.count(1, 1));
  EXPECT_GT(field.count(1, 1), 0u);
  EXPECT_EQ(field.count(2, 0), 40u);
  EXPECT_GT(field.count(2, 1), field.count(2, 2));
  EXPECT_GT(field.count(2, 2), 0u);
}

// add_block(begin, values, n) is add(begin + k, values[k]) for every k,
// bit for bit, for blocks that start anywhere and cover part of the field.
TEST(FieldBlockAdd, IsBitwiseThePerPointAdd) {
  const std::size_t n = 37;
  DescriptiveField desc_a(n), desc_b(n);
  QuantileField quant_a(n, 1e-2, 1e4, 48), quant_b(n, 1e-2, 1e4, 48);
  ExceedanceField exceed_a(n, {1.0, 30.0, 500.0});
  ExceedanceField exceed_b(n, {1.0, 30.0, 500.0});
  for (std::uint64_t s = 0; s < 12; ++s) {
    const std::vector<double> v = test_values(n, 0.0, 1000.0, 100 + s);
    for (std::size_t i = 0; i < n; ++i) {
      desc_a.add(i, v[i]);
      quant_a.add(i, v[i]);
      exceed_a.add(i, v[i]);
    }
    // Uneven blocks: [0, 5), [5, 21), [21, 37).
    for (const auto& [begin, end] :
         {std::pair<std::size_t, std::size_t>{0, 5}, {5, 21}, {21, 37}}) {
      desc_b.add_block(begin, v.data() + begin, end - begin);
      quant_b.add_block(begin, v.data() + begin, end - begin);
      exceed_b.add_block(begin, v.data() + begin, end - begin);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(desc_a.count(i), desc_b.count(i));
    EXPECT_EQ(desc_a.mean(i), desc_b.mean(i));
    EXPECT_EQ(desc_a.variance(i), desc_b.variance(i));
    EXPECT_EQ(desc_a.min(i), desc_b.min(i));
    EXPECT_EQ(desc_a.max(i), desc_b.max(i));
    for (const double level : {0.05, 0.5, 0.95})
      EXPECT_EQ(quant_a.quantile(i, level), quant_b.quantile(i, level));
    for (std::size_t t = 0; t < 3; ++t)
      EXPECT_EQ(exceed_a.count(i, t), exceed_b.count(i, t));
  }
}

/// bin() against the reference bin_of() on every double within `ulps` of
/// each bin threshold (found here by bisection over bin_of), on log-uniform
/// values over [lo / 100, hi * 100] and on the special values. Returns the
/// number of values checked.
std::size_t check_log_free_bins(const QuantileField& field, std::size_t ulps,
                                std::size_t log_uniform) {
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  const auto check = [&](double x) {
    ++checked;
    if (field.bin(x) != field.bin_of(x) && ++mismatches <= 5)
      ADD_FAILURE() << "bin(" << x << ") = " << field.bin(x)
                    << ", bin_of = " << field.bin_of(x);
  };
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const auto from_bits = [](std::uint64_t u) {
    return std::bit_cast<double>(u);
  };
  const std::vector<double>& edges = field.edges();
  for (std::size_t b = 1; b < field.bins(); ++b) {
    std::uint64_t below = bits(edges.front());
    std::uint64_t at = bits(edges.back());
    while (at - below > 1) {
      const std::uint64_t mid = below + (at - below) / 2;
      (field.bin_of(from_bits(mid)) >= b ? at : below) = mid;
    }
    EXPECT_EQ(field.bin_of(from_bits(at)), b);
    for (std::uint64_t u = at - ulps; u <= at + ulps; ++u) check(from_bits(u));
  }
  const std::vector<double> u =
      test_values(log_uniform, std::log(edges.front() / 100.0),
                  std::log(edges.back() * 100.0), field.bins());
  for (const double e : u) check(std::exp(e));
  const double inf = std::numeric_limits<double>::infinity();
  for (const double x :
       {0.0, -0.0, -1.0, -inf, inf, std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(), edges.front(), edges.back(),
        std::nextafter(edges.front(), inf), std::nextafter(edges.back(), 0.0),
        from_bits(bits(inf) + 1)})  // a NaN sharing +inf's top bits
    check(x);
  for (const double e : edges) check(e);
  EXPECT_EQ(mismatches, 0u);
  return checked;
}

// The table-and-step binning is the log formula on every value checked:
// >= 10^7 values over three shapes, including every double within 20000
// ulps of each threshold. The third shape's bins (ratio 1.0046) are far
// narrower than a top-bits key (ratio up to 1.125), so one key spans ~25
// thresholds and the step loop runs.
TEST(QuantileField, LogFreeBinsMatchLogFormula) {
  std::size_t checked = 0;
  checked += check_log_free_bins(QuantileField(1, 1e-2, 1e4, 48), 20000,
                                 3'000'000);
  checked += check_log_free_bins(QuantileField(1, 1.0, 1000.0, 96), 20000,
                                 2'000'000);
  checked += check_log_free_bins(QuantileField(1, 1.0, 100.0, 1000), 1000,
                                 1'000'000);
  EXPECT_GE(checked, std::size_t{10'000'000});
}

TEST(BivariateAccumulator, ExactLineRecovered) {
  BivariateAccumulator biv;
  for (double x = -4.0; x <= 4.0; x += 0.5) biv.add(x, 2.0 * x + 1.0);
  const OlsFit fit = biv.ols();
  ASSERT_TRUE(fit.ok);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r, 1.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
  EXPECT_NEAR(biv.correlation(), 1.0, 1e-12);
}

TEST(BivariateAccumulator, MatchesClosedFormOnNoisyData) {
  const std::vector<double> xs = test_values(300, 0.0, 10.0, 3);
  const std::vector<double> ys = test_values(300, -5.0, 5.0, 4);
  BivariateAccumulator biv;
  double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
  const auto n = static_cast<double>(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double y = 0.7 * xs[i] + ys[i];
    biv.add(xs[i], y);
    sx += xs[i];
    sy += y;
    sxx += xs[i] * xs[i];
    syy += y * y;
    sxy += xs[i] * y;
  }
  const double cov = sxy / n - (sx / n) * (sy / n);
  const double varx = sxx / n - (sx / n) * (sx / n);
  const double vary = syy / n - (sy / n) * (sy / n);
  const OlsFit fit = biv.ols();
  ASSERT_TRUE(fit.ok);
  EXPECT_NEAR(fit.slope, cov / varx, 1e-9);
  EXPECT_NEAR(fit.intercept, sy / n - (cov / varx) * (sx / n), 1e-9);
  EXPECT_NEAR(fit.r, cov / std::sqrt(varx * vary), 1e-9);
  EXPECT_NEAR(fit.r2, fit.r * fit.r, 1e-12);
}

TEST(BivariateAccumulator, DegenerateInputsAreFlagged) {
  BivariateAccumulator biv;
  EXPECT_FALSE(biv.ols().ok);  // n = 0
  biv.add(1.0, 2.0);
  EXPECT_FALSE(biv.ols().ok);  // n = 1
  biv.add(1.0, 5.0);           // x degenerate
  EXPECT_FALSE(biv.ols().ok);
  EXPECT_EQ(biv.correlation(), 0.0);
}

TEST(BivariateAccumulator, MergeEquivalentToSequential) {
  const std::vector<double> xs = test_values(200, 0.0, 10.0, 11);
  const std::vector<double> ys = test_values(200, 0.0, 10.0, 12);
  BivariateAccumulator a, b, whole;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    (i < 77 ? a : b).add(xs[i], ys[i]);
    whole.add(xs[i], ys[i]);
  }
  a.merge(b);
  // Merging an empty accumulator is the identity.
  a.merge(BivariateAccumulator{});
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.ols().slope, whole.ols().slope, 1e-12);
  EXPECT_NEAR(a.ols().intercept, whole.ols().intercept, 1e-12);
  EXPECT_NEAR(a.correlation(), whole.correlation(), 1e-12);
}

}  // namespace
}  // namespace tsv::stats
