#include "stats/accumulators.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "numeric/check.h"

namespace tsv::stats {

// ---------------------------------------------------------------- scalar

void DescriptiveAccumulator::merge(const DescriptiveAccumulator& o) {
  if (o.n_ == 0) return;
  if (n_ == 0) {
    *this = o;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(o.n_);
  const double d = o.mean_ - mean_;
  const double nt = na + nb;
  mean_ += d * (nb / nt);
  m2_ += o.m2_ + d * d * (na * nb / nt);
  n_ += o.n_;
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
}

double DescriptiveAccumulator::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_);
}

double DescriptiveAccumulator::stddev() const { return std::sqrt(variance()); }

// ----------------------------------------------------------- point field

DescriptiveField::DescriptiveField(std::size_t n_points)
    : count_(n_points, 0),
      mean_(n_points, 0.0),
      m2_(n_points, 0.0),
      min_(n_points, std::numeric_limits<double>::infinity()),
      max_(n_points, -std::numeric_limits<double>::infinity()) {}

double DescriptiveField::variance(std::size_t point) const {
  if (count_[point] < 2) return 0.0;
  return m2_[point] / static_cast<double>(count_[point]);
}

double DescriptiveField::stddev(std::size_t point) const {
  return std::sqrt(variance(point));
}

std::vector<double> DescriptiveField::stddevs() const {
  std::vector<double> out(size());
  for (std::size_t i = 0; i < size(); ++i) out[i] = stddev(i);
  return out;
}

void DescriptiveField::add_block(std::size_t begin, const double* values,
                                 std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) add(begin + k, values[k]);
}

// -------------------------------------------------------------- quantile

QuantileField::QuantileField(std::size_t n_points, double lo, double hi,
                             std::size_t bins)
    : n_points_(n_points), bins_(bins) {
  TSV_REQUIRE(bins >= 2, "QuantileField needs at least 2 bins");
  TSV_REQUIRE(lo > 0.0 && hi > lo, "QuantileField needs 0 < lo < hi");
  log_lo_ = std::log(lo);
  const double log_step = (std::log(hi) - log_lo_) / static_cast<double>(bins);
  inv_log_step_ = 1.0 / log_step;
  edges_.resize(bins + 1);
  for (std::size_t b = 0; b <= bins; ++b)
    edges_[b] = std::exp(log_lo_ + log_step * static_cast<double>(b));

  // Threshold b is the smallest double bin_of puts in bin b or above:
  // bisection over the bit patterns of the positive doubles, whose integer
  // order is their value order. bin_of(edges.front) = 0 and
  // bin_of(edges.back) = bins - 1 bracket every threshold.
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const auto from_bits = [](std::uint64_t u) {
    return std::bit_cast<double>(u);
  };
  thresholds_.assign(bins + 1, -std::numeric_limits<double>::infinity());
  thresholds_[bins] = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t b = 1; b < bins; ++b) {
    std::uint64_t below = bits(edges_.front());
    std::uint64_t at = bits(edges_.back());
    while (at - below > 1) {
      const std::uint64_t mid = below + (at - below) / 2;
      (bin_of(from_bits(mid)) >= b ? at : below) = mid;
    }
    thresholds_[b] = from_bits(at);
    TSV_REQUIRE(
        bin_of(thresholds_[b]) == b && bin_of(from_bits(at - 1)) == b - 1,
        "QuantileField bins narrower than the spacing of doubles");
  }

  key_bin_.resize(std::size_t{1} << (64 - kKeyShift));
  for (std::size_t k = 0; k < key_bin_.size(); ++k)
    key_bin_[k] = static_cast<std::uint32_t>(
        bin_of(from_bits(static_cast<std::uint64_t>(k) << kKeyShift)));
  // +inf shares its key with NaNs of small payload: start that key at bin 0
  // (NaN's bin), from where the step walks +inf up to the last bin.
  key_bin_[bits(std::numeric_limits<double>::infinity()) >> kKeyShift] = 0;

  counts_.assign(n_points * bins, 0);
  totals_.assign(n_points, 0);
}

std::size_t QuantileField::bin_of(double x) const {
  if (!(x > edges_.front())) return 0;  // underflow (and NaN) -> first bin
  if (x >= edges_.back()) return bins_ - 1;
  const double b = (std::log(x) - log_lo_) * inv_log_step_;
  const auto bin = static_cast<std::size_t>(b);
  return bin >= bins_ ? bins_ - 1 : bin;
}

void QuantileField::add_block(std::size_t begin, const double* values,
                              std::size_t n) {
  std::uint32_t* base = counts_.data() + begin;
  for (std::size_t k = 0; k < n; ++k) ++base[bin(values[k]) * n_points_ + k];
  std::uint32_t* totals = totals_.data() + begin;
  for (std::size_t k = 0; k < n; ++k) ++totals[k];
}

double QuantileField::quantile(std::size_t point, double q) const {
  const std::uint32_t total = totals_[point];
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank in [1, total]: the smallest value v such that at least
  // ceil(q * total) samples are <= v.
  const auto rank = static_cast<std::uint64_t>(
      std::max<double>(1.0, std::ceil(q * static_cast<double>(total))));
  const std::uint32_t* column = counts_.data() + point;
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < bins_; ++b) {
    const std::uint32_t count = column[b * n_points_];
    const std::uint64_t next = cum + count;
    if (next >= rank) {
      // Geometric interpolation of the rank's position inside the bin.
      const double frac = count == 0 ? 0.0
                                     : (static_cast<double>(rank - cum)) /
                                           static_cast<double>(count);
      const double lo = edges_[b];
      const double hi = edges_[b + 1];
      return lo * std::pow(hi / lo, frac);
    }
    cum = next;
  }
  return edges_.back();
}

std::vector<double> QuantileField::quantiles(double q) const {
  std::vector<double> out(n_points_);
  for (std::size_t i = 0; i < n_points_; ++i) out[i] = quantile(i, q);
  return out;
}

// ------------------------------------------------------------ exceedance

ExceedanceField::ExceedanceField(std::size_t n_points,
                                 std::vector<double> thresholds)
    : n_points_(n_points), thresholds_(std::move(thresholds)) {
  TSV_REQUIRE(!thresholds_.empty(), "ExceedanceField needs >= 1 threshold");
  counts_.assign(n_points_ * thresholds_.size(), 0);
  totals_.assign(n_points_, 0);
}

void ExceedanceField::add_block(std::size_t begin, const double* values,
                                std::size_t n) {
  for (std::size_t t = 0; t < thresholds_.size(); ++t) {
    const double threshold = thresholds_[t];
    std::uint32_t* row = counts_.data() + t * n_points_ + begin;
    for (std::size_t k = 0; k < n; ++k)
      row[k] += values[k] > threshold ? 1u : 0u;
  }
  std::uint32_t* totals = totals_.data() + begin;
  for (std::size_t k = 0; k < n; ++k) ++totals[k];
}

double ExceedanceField::probability(std::size_t point, std::size_t t) const {
  const std::uint32_t total = totals_[point];
  if (total == 0) return 0.0;
  return static_cast<double>(count(point, t)) / static_cast<double>(total);
}

std::vector<double> ExceedanceField::probabilities(std::size_t t) const {
  std::vector<double> out(n_points_);
  for (std::size_t i = 0; i < n_points_; ++i) out[i] = probability(i, t);
  return out;
}

// ------------------------------------------------------------- bivariate

void BivariateAccumulator::merge(const BivariateAccumulator& o) {
  if (o.n_ == 0) return;
  if (n_ == 0) {
    *this = o;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(o.n_);
  const double nt = na + nb;
  const double dx = o.mean_x_ - mean_x_;
  const double dy = o.mean_y_ - mean_y_;
  mean_x_ += dx * (nb / nt);
  mean_y_ += dy * (nb / nt);
  m2x_ += o.m2x_ + dx * dx * (na * nb / nt);
  m2y_ += o.m2y_ + dy * dy * (na * nb / nt);
  cxy_ += o.cxy_ + dx * dy * (na * nb / nt);
  n_ += o.n_;
}

OlsFit BivariateAccumulator::ols() const {
  OlsFit fit;
  fit.n = n_;
  if (n_ < 2 || m2x_ <= 0.0) return fit;
  fit.slope = cxy_ / m2x_;
  fit.intercept = mean_y_ - fit.slope * mean_x_;
  if (m2y_ > 0.0) {
    fit.r = cxy_ / std::sqrt(m2x_ * m2y_);
    fit.r2 = fit.r * fit.r;
  }
  fit.ok = true;
  return fit;
}

double BivariateAccumulator::correlation() const {
  if (n_ < 2 || m2x_ <= 0.0 || m2y_ <= 0.0) return 0.0;
  return cxy_ / std::sqrt(m2x_ * m2y_);
}

}  // namespace tsv::stats
