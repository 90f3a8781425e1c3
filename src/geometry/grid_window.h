#pragma once
// A rectangular window of a SampleGrid (the whole grid, or a tile), the unit
// both stages evaluate in bulk; its points are grid.point(ix, iy), row-major.
// for_disc_rows walks a disc as one column span per row, tightened with the
// exact predicate of GridIndex::query_radius, so it finds that query's
// members over the same points, in its (sorted) order.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "geometry/point.h"
#include "geometry/sample_grid.h"

namespace tsv::geo::detail {

/// [first, last + 1) of the i in [0, n) where in(i) holds ({n, n} if none),
/// from a guess of each end, in O(1 + distance from the guess) tests. in(i)
/// holds on one interval that, if non-empty, holds the last i where left(i)
/// (i before the center: a prefix) holds or the first where it does not.
template <typename In, typename Left>
std::pair<std::size_t, std::size_t> tighten(std::size_t n, double lo_guess,
                                            double hi_guess, In&& in,
                                            Left&& left) {
  const auto clamp_index = [n](double g) {  // NaN (zero spacing) gives 0
    if (!(g > 0.0)) return std::size_t{0};
    return g >= static_cast<double>(n - 1) ? n - 1
                                           : static_cast<std::size_t>(g);
  };
  std::size_t lo = clamp_index(lo_guess);
  if (!in(lo)) {
    // Walk towards the center; crossing it without a member means none.
    const bool before = left(lo);
    do {
      if (before ? ++lo == n : lo-- == 0) return {n, n};
      if (left(lo) != before && !in(lo)) return {n, n};
    } while (!in(lo));
  }
  while (lo > 0 && in(lo - 1)) --lo;
  std::size_t hi = std::max(lo, clamp_index(hi_guess));
  while (!in(hi)) --hi;  // stops at lo at the latest
  while (hi + 1 < n && in(hi + 1)) ++hi;
  return {lo, hi + 1};
}

}  // namespace tsv::geo::detail

namespace tsv::geo {

class GridWindow {
 public:
  /// The whole grid.
  explicit GridWindow(const SampleGrid& grid)
      : GridWindow(grid, 0, grid.nx(), 0, grid.ny()) {}

  /// Columns [ix0, ix1) and rows [iy0, iy1) of `grid`, non-empty.
  GridWindow(const SampleGrid& grid, std::size_t ix0, std::size_t ix1,
             std::size_t iy0, std::size_t iy1)
      : grid_(grid), ix0_(ix0), iy0_(iy0), nx_(ix1 - ix0), ny_(iy1 - iy0) {
    TSV_REQUIRE(ix0 < ix1 && ix1 <= grid.nx() && iy0 < iy1 &&
                    iy1 <= grid.ny(),
                "grid window must be a non-empty part of its grid");
  }

  std::size_t ix0() const { return ix0_; }  ///< first grid column
  std::size_t iy0() const { return iy0_; }  ///< first grid row
  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }
  std::size_t size() const { return nx_ * ny_; }

  /// Window column ix, row iy: grid.point(ix0 + ix, iy0 + iy).
  Point point(std::size_t ix, std::size_t iy) const {
    return grid_.point(ix0_ + ix, iy0_ + iy);
  }

  /// Materializes the window's points, row-major (y outer).
  std::vector<Point> points() const {
    std::vector<Point> out;
    out.reserve(size());
    for (std::size_t iy = 0; iy < ny_; ++iy)
      for (std::size_t ix = 0; ix < nx_; ++ix) out.push_back(point(ix, iy));
    return out;
  }

  /// Hull of the window's points.
  Box bounds() const { return Box{point(0, 0), point(nx_ - 1, ny_ - 1)}; }

  /// Rows [begin, end) of this window, as a window of the same grid.
  GridWindow rows(std::size_t begin, std::size_t end) const {
    return GridWindow(grid_, ix0_, ix0_ + nx_, iy0_ + begin, iy0_ + end);
  }

  /// Calls visit(row, col_begin, col_end), rows ascending, for every window
  /// row holding points within `radius` of `c` (distance_squared <=
  /// radius^2): window columns [col_begin, col_end) of that row, so window
  /// indices row * nx() + col ascend. O(rows of the disc) predicate tests.
  template <typename Visit>
  void for_disc_rows(const Point& c, double radius, Visit&& visit) const {
    TSV_REQUIRE(radius >= 0.0, "negative disc radius");
    const double r2 = radius * radius;
    const Point o = point(0, 0);
    // fl(dx^2 + dy^2) >= fl(dy^2): only rows with fl(dy^2) <= r2 can hold
    // members, and as fl(y - c.y) is monotone in the row they are one
    // interval, as are the members of each row.
    const auto dy = [&](std::size_t iy) { return point(0, iy).y - c.y; };
    const auto [row_lo, row_hi] = detail::tighten(
        ny_, std::ceil((c.y - radius - o.y) / grid_.dy()),
        std::floor((c.y + radius - o.y) / grid_.dy()),
        [&](std::size_t iy) { return dy(iy) * dy(iy) <= r2; },
        [&](std::size_t iy) { return dy(iy) < 0.0; });
    for (std::size_t iy = row_lo; iy < row_hi; ++iy) {
      const double half = std::sqrt(std::max(r2 - dy(iy) * dy(iy), 0.0));
      const auto [col_lo, col_hi] = detail::tighten(
          nx_, std::ceil((c.x - half - o.x) / grid_.dx()),
          std::floor((c.x + half - o.x) / grid_.dx()),
          [&](std::size_t ix) {
            return distance_squared(point(ix, iy), c) <= r2;
          },
          [&](std::size_t ix) { return point(ix, iy).x < c.x; });
      if (col_lo < col_hi) visit(iy, col_lo, col_hi);
    }
  }

  /// The members of for_disc_rows as window indices and points, ascending.
  template <typename Index>
  void gather_disc(const Point& c, double radius, std::vector<Index>& idx,
                   std::vector<Point>& pts) const {
    idx.clear();
    pts.clear();
    for_disc_rows(c, radius, [&](std::size_t iy, std::size_t b, std::size_t e) {
      for (std::size_t ix = b; ix < e; ++ix) {
        idx.push_back(static_cast<Index>(iy * nx_ + ix));
        pts.push_back(point(ix, iy));
      }
    });
  }

 private:
  SampleGrid grid_;
  std::size_t ix0_ = 0;
  std::size_t iy0_ = 0;
  std::size_t nx_ = 1;
  std::size_t ny_ = 1;
};

}  // namespace tsv::geo
