#pragma once
// Streaming statistic engines for the variation layer, in the spirit of
// gnumeric's analysis-tools: one small reusable engine per statistic
// (descriptive moments, quantile sketch, exceedance counting, bivariate
// OLS/correlation) behind a common streaming contract instead of ad-hoc
// loops scattered through the sampler.
//
// The shared contract every engine follows:
//   * construction fixes the shape (number of points, bins, thresholds) —
//     add() and add_block() never allocate, so a Monte Carlo sweep streams
//     samples in a single pass with O(points) memory regardless of sample
//     count;
//   * add() is O(1) per value, add_block() is add() over a run of
//     consecutive points, and both must be called for a given point by at
//     most one thread (the variation engine parallelizes over *points*, so
//     each point's accumulator sees its samples in sample order — the
//     per-point result is bitwise independent of the thread count);
//   * cross-point reductions are either order-independent (integer counts,
//     max) or merged in fixed chunk order, keeping every derived statistic
//     deterministic at any thread count.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

namespace tsv::stats {

/// Scalar count/mean/variance/min/max in one pass (Welford's update), with
/// a numerically stable pairwise merge (Chan et al.) so per-chunk partials
/// combine in fixed order.
class DescriptiveAccumulator {
 public:
  void add(double x) {
    ++n_;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  /// Folds `o` into this accumulator, as if every value added to `o` had
  /// been added here after this one's values.
  void merge(const DescriptiveAccumulator& o);

  std::uint64_t count() const { return n_; }
  double mean() const { return mean_; }
  /// Population variance (divides by n); 0 for n < 2.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Per-point Welford moments over a fixed point set, stored as flat arrays
/// (SoA) so the accumulation pass vectorizes.
class DescriptiveField {
 public:
  explicit DescriptiveField(std::size_t n_points);

  std::size_t size() const { return count_.size(); }

  void add(std::size_t point, double x) {
    const double n = static_cast<double>(++count_[point]);
    const double d = x - mean_[point];
    mean_[point] += d / n;
    m2_[point] += d * (x - mean_[point]);
    if (x < min_[point]) min_[point] = x;
    if (x > max_[point]) max_[point] = x;
  }

  /// add(begin + k, values[k]) for k in [0, n): the same update per point.
  void add_block(std::size_t begin, const double* values, std::size_t n);

  std::uint32_t count(std::size_t point) const { return count_[point]; }
  double mean(std::size_t point) const { return mean_[point]; }
  double variance(std::size_t point) const;
  double stddev(std::size_t point) const;
  double min(std::size_t point) const { return min_[point]; }
  double max(std::size_t point) const { return max_[point]; }

  const std::vector<double>& means() const { return mean_; }
  /// Materializes the per-point population standard deviation.
  std::vector<double> stddevs() const;

 private:
  std::vector<std::uint32_t> count_;
  std::vector<double> mean_;
  std::vector<double> m2_;
  std::vector<double> min_;
  std::vector<double> max_;
};

/// Per-point quantile sketch over a fixed log-spaced bin grid. Integer bin
/// counts make the sketch order-independent and exactly mergeable, so
/// quantiles are bitwise deterministic at any thread count — unlike P²-style
/// streaming estimators, whose state depends on arrival order. Resolution is
/// the bin width: with the default 48 bins over [1e-2, 1e4] MPa a quantile
/// is exact to within ~33% of its value (one bin), which the variation
/// reports' log-scale maps absorb; moments use DescriptiveField instead.
///
/// Binning is log-free and bit-exact. bin_of() is the reference rule (one
/// std::log per value); the constructor bisects the bit patterns of the
/// doubles in (edges.front, edges.back) for each bin's threshold, the
/// smallest double bin_of puts in that bin or above, and checks each one
/// against bin_of from both sides. add() then looks the bin up by the top
/// bits of x (sign, exponent, kKeyMantissaBits mantissa bits), which gives
/// bin_of at the low end of the key's range, and steps up past every
/// threshold <= x. Because bin_of is monotone, the result is bin_of(x) for
/// every double, NaN (bin 0) and the infinities included.
class QuantileField {
 public:
  QuantileField(std::size_t n_points, double lo, double hi, std::size_t bins);

  std::size_t size() const { return n_points_; }
  std::size_t bins() const { return bins_; }
  /// The bins_ + 1 log-spaced bin edges.
  const std::vector<double>& edges() const { return edges_; }

  void add(std::size_t point, double x) {
    ++counts_[bin(x) * n_points_ + point];
    ++totals_[point];
  }

  /// add(begin + k, values[k]) for k in [0, n).
  void add_block(std::size_t begin, const double* values, std::size_t n);

  /// The bin add() counts x in: bin_of(x), without a log.
  std::size_t bin(double x) const {
    std::uint64_t key;
    std::memcpy(&key, &x, sizeof key);  // the bits of x
    std::size_t b = key_bin_[key >> kKeyShift];
    while (x >= thresholds_[b + 1]) ++b;
    return b;
  }

  /// Reference binning rule: floor((log x - log lo) / log step), clamped to
  /// the first bin at or below edges.front (and for NaN) and to the last
  /// bin at or above edges.back. Used to build and check bin().
  std::size_t bin_of(double x) const;

  /// Quantile q in [0, 1] for one point: locates the bin whose cumulative
  /// count crosses ceil(q * n) and interpolates geometrically inside it.
  /// Returns 0 when the point has no samples.
  double quantile(std::size_t point, double q) const;

  /// Materializes quantile(point, q) for every point.
  std::vector<double> quantiles(double q) const;

 private:
  static constexpr int kKeyMantissaBits = 3;
  static constexpr int kKeyShift = 64 - 12 - kKeyMantissaBits;

  std::size_t n_points_ = 0;
  std::size_t bins_ = 0;
  double log_lo_ = 0.0;
  double inv_log_step_ = 0.0;
  std::vector<double> edges_;  ///< bins_ + 1 log-spaced bin edges
  /// Bin b holds [thresholds_[b], thresholds_[b + 1]): thresholds_[0] is
  /// -inf and thresholds_[bins_] is NaN, which no x reaches, so the step in
  /// bin() stops at the last bin (for +inf too).
  std::vector<double> thresholds_;
  /// bin_of at the low end of each top-bits key's range, except the key
  /// +inf shares with NaNs: it holds 0 (NaN's bin), and the step in bin()
  /// walks +inf up to the last bin.
  std::vector<std::uint32_t> key_bin_;
  /// Bin-major [bin][point]: neighbouring points that fall in one bin bump
  /// counters on one cache line.
  std::vector<std::uint32_t> counts_;
  std::vector<std::uint32_t> totals_;
};

/// Per-point, per-threshold exceedance counting: after n samples,
/// probability(point, t) estimates P(value > threshold[t]). Integer counts,
/// so exact and order-independent.
class ExceedanceField {
 public:
  ExceedanceField(std::size_t n_points, std::vector<double> thresholds);

  std::size_t size() const { return n_points_; }
  const std::vector<double>& thresholds() const { return thresholds_; }

  void add(std::size_t point, double x) {
    for (std::size_t t = 0; t < thresholds_.size(); ++t)
      counts_[t * n_points_ + point] += x > thresholds_[t] ? 1u : 0u;
    ++totals_[point];
  }

  /// add(begin + k, values[k]) for k in [0, n): one compare-and-add pass
  /// over the range per threshold.
  void add_block(std::size_t begin, const double* values, std::size_t n);

  std::uint32_t count(std::size_t point, std::size_t t) const {
    return counts_[t * n_points_ + point];
  }
  double probability(std::size_t point, std::size_t t) const;

  /// Materializes probability(point, t) for every point.
  std::vector<double> probabilities(std::size_t t) const;

 private:
  std::size_t n_points_ = 0;
  std::vector<double> thresholds_;
  /// Threshold-major [threshold][point]: a block add streams each
  /// threshold's row.
  std::vector<std::uint32_t> counts_;
  std::vector<std::uint32_t> totals_;
};

/// Ordinary-least-squares fit y = slope * x + intercept.
struct OlsFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r = 0.0;   ///< Pearson correlation
  double r2 = 0.0;  ///< coefficient of determination
  std::uint64_t n = 0;
  bool ok = false;  ///< false when n < 2 or x is degenerate
};

/// Streaming bivariate moments (centered co-moments, Welford-style) serving
/// both the OLS regression and the Pearson correlation the pitch-vs-stress
/// report needs — one pass, no stored samples.
class BivariateAccumulator {
 public:
  void add(double x, double y) {
    ++n_;
    const double inv_n = 1.0 / static_cast<double>(n_);
    const double dx = x - mean_x_;
    const double dy = y - mean_y_;
    mean_x_ += dx * inv_n;
    mean_y_ += dy * inv_n;
    m2x_ += dx * (x - mean_x_);
    m2y_ += dy * (y - mean_y_);
    cxy_ += dx * (y - mean_y_);
  }

  void merge(const BivariateAccumulator& o);

  std::uint64_t count() const { return n_; }

  OlsFit ols() const;
  /// Pearson r; 0 when either variable is degenerate.
  double correlation() const;

 private:
  std::uint64_t n_ = 0;
  double mean_x_ = 0.0;
  double mean_y_ = 0.0;
  double m2x_ = 0.0;
  double m2y_ = 0.0;
  double cxy_ = 0.0;
};

}  // namespace tsv::stats
