#pragma once
// Uniform-bucket spatial index over 2D points. Used by the framework to find
// the TSVs within the influence radius of a simulation point (Stage I) and
// the nearby TSV pairs (Stage II) in O(1) per query for bounded density.

#include <cstdint>
#include <vector>

#include "geometry/point.h"

namespace tsv::geo {

class GridIndex {
 public:
  /// Builds an index over `points`, bucketed on `bounds` with square cells of
  /// size `cell`, doubled as often as it takes to keep the bucket count at
  /// most max(2^20, 16 x points). Points outside bounds are clamped into the
  /// edge cells, so queries remain correct for them.
  GridIndex(const std::vector<Point>& points, const Box& bounds, double cell);

  std::size_t size() const { return points_.size(); }

  /// Indices of all points with distance(p, q) <= radius, in index order.
  std::vector<std::uint32_t> query_radius(const Point& q, double radius) const;

  /// Appends to `out` instead of allocating (hot-path variant). `out` is
  /// cleared first.
  void query_radius(const Point& q, double radius,
                    std::vector<std::uint32_t>& out) const;

  /// Nearest point index to q, or size() when the index is empty.
  std::uint32_t nearest(const Point& q) const;

 private:
  std::size_t cell_of(const Point& p) const;

  std::vector<Point> points_;
  Box bounds_;
  double cell_ = 1.0;
  std::size_t nx_ = 1;
  std::size_t ny_ = 1;
  // CSR-style bucket layout.
  std::vector<std::size_t> bucket_ptr_;
  std::vector<std::uint32_t> bucket_items_;
};

/// Dynamic sibling of GridIndex: points are inserted incrementally and
/// queried between insertions, which a CSR layout cannot do. Used by the
/// placement generators to enforce a minimum pitch during dart throwing in
/// O(1) per candidate instead of scanning every accepted point. Points
/// outside the bounds are clamped into the edge cells, like GridIndex.
class OccupancyGrid {
 public:
  OccupancyGrid(const Box& bounds, double cell);

  std::size_t size() const { return points_.size(); }
  const std::vector<Point>& points() const { return points_; }

  /// Inserts p and returns its index.
  std::uint32_t insert(const Point& p);

  /// True if any inserted point lies within `radius` of q.
  bool any_within(const Point& q, double radius) const;

  /// Indices of all inserted points with distance(p, q) <= radius, in
  /// index order.
  std::vector<std::uint32_t> query_radius(const Point& q, double radius) const;

 private:
  std::size_t cell_of(const Point& p) const;
  /// Visits the buckets overlapping the radius-`radius` disc around q;
  /// stops early when visit returns true.
  template <typename Visit>
  bool visit_candidates(const Point& q, double radius, Visit&& visit) const;

  std::vector<Point> points_;
  Box bounds_;
  double cell_ = 1.0;
  std::size_t nx_ = 1;
  std::size_t ny_ = 1;
  std::vector<std::vector<std::uint32_t>> buckets_;
};

}  // namespace tsv::geo
