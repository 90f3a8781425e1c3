#pragma once
// Structured quadrilateral mesh over a rectangular domain with per-element
// material regions defined by the TSV placement (copper body, liner ring,
// silicon substrate, assigned by element centroid).

#include <array>
#include <cstdint>
#include <vector>

#include "geometry/point.h"
#include "tsv/placement.h"

namespace tsv::fem {

enum class MaterialRegion : std::uint8_t {
  kSubstrate = 0,
  kBody = 1,
  kLiner = 2,
};

class StructuredMesh {
 public:
  /// Covers `domain` with square-ish elements of size ~element_size
  /// (adjusted so the counts divide the domain exactly). Materials come from
  /// the placement: centroid inside body circle -> kBody, inside liner ring
  /// -> kLiner, otherwise substrate.
  StructuredMesh(const geo::Box& domain, double element_size,
                 const tsvlib::Placement& placement);

  const geo::Box& domain() const { return domain_; }
  std::size_t nx() const { return nx_; }  ///< elements along x
  std::size_t ny() const { return ny_; }  ///< elements along y
  double dx() const { return dx_; }
  double dy() const { return dy_; }

  std::size_t node_count() const { return (nx_ + 1) * (ny_ + 1); }
  std::size_t element_count() const { return nx_ * ny_; }

  std::size_t node_index(std::size_t ix, std::size_t iy) const {
    TSV_ASSERT(ix <= nx_ && iy <= ny_);
    return iy * (nx_ + 1) + ix;
  }
  geo::Point node(std::size_t ix, std::size_t iy) const {
    return {domain_.lo.x + static_cast<double>(ix) * dx_,
            domain_.lo.y + static_cast<double>(iy) * dy_};
  }

  std::size_t element_index(std::size_t ex, std::size_t ey) const {
    TSV_ASSERT(ex < nx_ && ey < ny_);
    return ey * nx_ + ex;
  }
  /// Counter-clockwise corner nodes of element (ex, ey):
  /// (ix,iy), (ix+1,iy), (ix+1,iy+1), (ix,iy+1).
  std::array<std::size_t, 4> element_nodes(std::size_t ex, std::size_t ey) const;

  /// Majority material of the element (used for recovery bucketing).
  MaterialRegion material(std::size_t ex, std::size_t ey) const {
    return materials_[element_index(ex, ey)];
  }

  /// Volume fractions {substrate, body, liner} of the element, from
  /// sub-cell sampling. Pure elements have a single 1.0 entry; elements cut
  /// by a TSV interface carry fractional values, which the assembly uses to
  /// blend the constitutive data (Voigt average). This removes most of the
  /// staircase bias of centroid-only stamping.
  const std::array<double, 3>& fractions(std::size_t ex, std::size_t ey) const {
    return fractions_[element_index(ex, ey)];
  }

  /// True if the element is cut by a material interface.
  bool is_mixed(std::size_t ex, std::size_t ey) const {
    const auto& f = fractions(ex, ey);
    return f[0] != 1.0 && f[1] != 1.0 && f[2] != 1.0;
  }

  /// True for nodes on the outer boundary of the domain.
  bool is_boundary_node(std::size_t ix, std::size_t iy) const {
    return ix == 0 || iy == 0 || ix == nx_ || iy == ny_;
  }

  /// Element containing p (clamped to the domain edge elements) plus local
  /// isoparametric coordinates (xi, eta) in [-1, 1].
  struct Location {
    std::size_t ex = 0;
    std::size_t ey = 0;
    double xi = 0.0;
    double eta = 0.0;
  };
  Location locate(const geo::Point& p) const;

 private:
  geo::Box domain_;
  std::size_t nx_ = 0;
  std::size_t ny_ = 0;
  double dx_ = 0.0;
  double dy_ = 0.0;
  std::vector<MaterialRegion> materials_;
  std::vector<std::array<double, 3>> fractions_;
};

}  // namespace tsv::fem
