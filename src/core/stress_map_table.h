#pragma once
// 2D single-TSV stress map, the characterization format of the original
// linear-superposition method [Jung DAC'11]: the full tensor field of an
// isolated TSV on a regular grid around its center, bilinearly interpolated
// at query time. Characterized from a FEM solve so that model-vs-FEM
// comparisons share the same discretized single-TSV field.

#include <vector>

#include "core/single_tsv_field.h"
#include "fem/field.h"

namespace tsv::core {

class StressMapTable : public SingleTsvField {
 public:
  /// Map over [-half_extent, half_extent]^2 with the given grid spacing.
  StressMapTable(std::vector<num::SymTensor2> values, std::size_t n,
                 double half_extent);

  /// Samples a FEM single-TSV field centered at `center` on a
  /// (2*half_extent/spacing + 1)^2 grid.
  static StressMapTable from_fem(const fem::StressField& field,
                                 const geo::Point& center, double half_extent,
                                 double spacing);

  num::SymTensor2 stress_at(const geo::Point& center,
                            const geo::Point& p) const override;
  double coverage_radius() const override { return half_extent_; }

 private:
  std::vector<num::SymTensor2> values_;  ///< row-major, y outer
  std::size_t n_ = 0;                    ///< points per axis
  double half_extent_ = 0.0;
  double inv_spacing_ = 0.0;
};

}  // namespace tsv::core
