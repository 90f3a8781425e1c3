#include "geometry/grid_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace tsv::geo {

GridIndex::GridIndex(const std::vector<Point>& points, const Box& bounds,
                     double cell)
    : points_(points), bounds_(bounds), cell_(cell) {
  TSV_REQUIRE(cell > 0.0, "cell size must be positive");
  nx_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(bounds_.width() / cell_)));
  ny_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(bounds_.height() / cell_)));

  bucket_ptr_.assign(nx_ * ny_ + 1, 0);
  for (const Point& p : points_) ++bucket_ptr_[cell_of(p) + 1];
  for (std::size_t c = 0; c < nx_ * ny_; ++c)
    bucket_ptr_[c + 1] += bucket_ptr_[c];
  bucket_items_.resize(points_.size());
  std::vector<std::size_t> cursor(bucket_ptr_.begin(), bucket_ptr_.end() - 1);
  for (std::uint32_t i = 0; i < points_.size(); ++i)
    bucket_items_[cursor[cell_of(points_[i])]++] = i;
}

std::size_t GridIndex::cell_of(const Point& p) const {
  const auto clamp_idx = [](double v, std::size_t n) {
    if (v < 0.0) return std::size_t{0};
    const std::size_t i = static_cast<std::size_t>(v);
    return std::min(i, n - 1);
  };
  const std::size_t ix = clamp_idx((p.x - bounds_.lo.x) / cell_, nx_);
  const std::size_t iy = clamp_idx((p.y - bounds_.lo.y) / cell_, ny_);
  return iy * nx_ + ix;
}

void GridIndex::query_radius(const Point& q, double radius,
                             std::vector<std::uint32_t>& out) const {
  TSV_REQUIRE(radius >= 0.0, "negative query radius");
  out.clear();
  // Both ends are clamped into [0, n-1] independently: points outside the
  // index bounds live in the edge cells, so a query reaching past the bounds
  // must still visit those cells.
  const auto cell_range = [&](double lo, double hi, double origin,
                              std::size_t n) {
    const double a = (lo - origin) / cell_;
    const double b = (hi - origin) / cell_;
    const long last = static_cast<long>(n) - 1;
    const long ia =
        std::clamp(static_cast<long>(std::floor(a)), 0L, last);
    const long ib =
        std::clamp(static_cast<long>(std::floor(b)), 0L, last);
    return std::pair<long, long>{ia, ib};
  };
  const auto [ix0, ix1] =
      cell_range(q.x - radius, q.x + radius, bounds_.lo.x, nx_);
  const auto [iy0, iy1] =
      cell_range(q.y - radius, q.y + radius, bounds_.lo.y, ny_);
  const double r2 = radius * radius;
  for (long iy = iy0; iy <= iy1; ++iy) {
    for (long ix = ix0; ix <= ix1; ++ix) {
      const std::size_t c =
          static_cast<std::size_t>(iy) * nx_ + static_cast<std::size_t>(ix);
      for (std::size_t k = bucket_ptr_[c]; k < bucket_ptr_[c + 1]; ++k) {
        const std::uint32_t idx = bucket_items_[k];
        if (distance_squared(points_[idx], q) <= r2) out.push_back(idx);
      }
    }
  }
  std::sort(out.begin(), out.end());
}

std::vector<std::uint32_t> GridIndex::query_radius(const Point& q,
                                                   double radius) const {
  std::vector<std::uint32_t> out;
  query_radius(q, radius, out);
  return out;
}

std::uint32_t GridIndex::nearest(const Point& q) const {
  if (points_.empty()) return 0;
  // Expanding ring search; falls back to linear scan when the ring exceeds
  // the indexed area (correct albeit slow for far-away queries).
  double radius = cell_;
  const double max_radius =
      std::hypot(bounds_.width(), bounds_.height()) + cell_ +
      std::max({std::abs(q.x - bounds_.lo.x), std::abs(q.x - bounds_.hi.x),
                std::abs(q.y - bounds_.lo.y), std::abs(q.y - bounds_.hi.y)});
  std::vector<std::uint32_t> found;
  while (radius <= max_radius) {
    query_radius(q, radius, found);
    if (!found.empty()) break;
    radius *= 2.0;
  }
  if (found.empty()) {
    found.resize(points_.size());
    for (std::uint32_t i = 0; i < points_.size(); ++i) found[i] = i;
  }
  std::uint32_t best = found.front();
  double best_d2 = std::numeric_limits<double>::infinity();
  for (std::uint32_t i : found) {
    const double d2 = distance_squared(points_[i], q);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = i;
    }
  }
  return best;
}

OccupancyGrid::OccupancyGrid(const Box& bounds, double cell)
    : bounds_(bounds), cell_(cell) {
  TSV_REQUIRE(cell > 0.0, "cell size must be positive");
  nx_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(bounds_.width() / cell_)));
  ny_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(bounds_.height() / cell_)));
  buckets_.resize(nx_ * ny_);
}

std::size_t OccupancyGrid::cell_of(const Point& p) const {
  const auto clamp_idx = [](double v, std::size_t n) {
    if (v < 0.0) return std::size_t{0};
    const std::size_t i = static_cast<std::size_t>(v);
    return std::min(i, n - 1);
  };
  const std::size_t ix = clamp_idx((p.x - bounds_.lo.x) / cell_, nx_);
  const std::size_t iy = clamp_idx((p.y - bounds_.lo.y) / cell_, ny_);
  return iy * nx_ + ix;
}

std::uint32_t OccupancyGrid::insert(const Point& p) {
  const std::uint32_t index = static_cast<std::uint32_t>(points_.size());
  points_.push_back(p);
  buckets_[cell_of(p)].push_back(index);
  return index;
}

template <typename Visit>
bool OccupancyGrid::visit_candidates(const Point& q, double radius,
                                     Visit&& visit) const {
  TSV_REQUIRE(radius >= 0.0, "negative query radius");
  // Both ends clamp independently so queries past the bounds still visit
  // the edge cells holding clamped outside points (see GridIndex).
  const auto cell_range = [&](double lo, double hi, double origin,
                              std::size_t n) {
    const double a = (lo - origin) / cell_;
    const double b = (hi - origin) / cell_;
    const long last = static_cast<long>(n) - 1;
    const long ia = std::clamp(static_cast<long>(std::floor(a)), 0L, last);
    const long ib = std::clamp(static_cast<long>(std::floor(b)), 0L, last);
    return std::pair<long, long>{ia, ib};
  };
  const auto [ix0, ix1] =
      cell_range(q.x - radius, q.x + radius, bounds_.lo.x, nx_);
  const auto [iy0, iy1] =
      cell_range(q.y - radius, q.y + radius, bounds_.lo.y, ny_);
  const double r2 = radius * radius;
  for (long iy = iy0; iy <= iy1; ++iy) {
    for (long ix = ix0; ix <= ix1; ++ix) {
      const std::size_t c =
          static_cast<std::size_t>(iy) * nx_ + static_cast<std::size_t>(ix);
      for (const std::uint32_t idx : buckets_[c]) {
        if (distance_squared(points_[idx], q) <= r2 && visit(idx))
          return true;
      }
    }
  }
  return false;
}

bool OccupancyGrid::any_within(const Point& q, double radius) const {
  return visit_candidates(q, radius, [](std::uint32_t) { return true; });
}

std::vector<std::uint32_t> OccupancyGrid::query_radius(const Point& q,
                                                       double radius) const {
  std::vector<std::uint32_t> out;
  visit_candidates(q, radius, [&out](std::uint32_t idx) {
    out.push_back(idx);
    return false;
  });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace tsv::geo
