#pragma once
// Stage I of Algorithm 1: linear superposition [Jung/Pan/Lim DAC'11].
// Each simulation point accumulates the isolated-TSV field of every TSV
// within the influence radius: on a grid window each TSV walks its disc as
// row spans, on a point list each point queries a uniform-grid spatial
// index. Both add the same TSVs in the same order, so they agree bit for
// bit.
//
// The batched evaluates run on num_threads workers (a constructor argument:
// 0 = hardware concurrency, 1 = serial, the default). Points are
// independent, so the results are bitwise identical for every thread count.

#include <memory>
#include <vector>

#include "core/stress_table.h"
#include "geometry/grid_index.h"
#include "geometry/grid_window.h"
#include "tsv/placement.h"

namespace tsv::core {

struct SuperpositionOptions {
  /// TSVs farther than this from a simulation point are ignored
  /// (paper: 25 um; the field decays as 1/r^2).
  double influence_radius = 25.0;
};

class LinearSuperposition {
 public:
  LinearSuperposition(const tsvlib::Placement& placement,
                      std::shared_ptr<const SingleTsvField> table,
                      const SuperpositionOptions& options = {},
                      std::size_t num_threads = 1);

  const tsvlib::Placement& placement() const { return placement_; }
  const SingleTsvField& table() const { return *table_; }
  const geo::GridIndex& index() const { return index_; }
  const SuperpositionOptions& options() const { return options_; }
  std::size_t num_threads() const { return num_threads_; }

  /// Stage-I stress at one point.
  num::SymTensor2 stress_at(const geo::Point& p) const;

  /// Stage-I stress at many points, point-parallel over num_threads()
  /// workers (each owns a contiguous slice of `out` and its own query
  /// scratch buffer).
  std::vector<num::SymTensor2> evaluate(
      const std::vector<geo::Point>& points) const;

  /// Stage-I stress at a grid window's points, row-major: threads take
  /// bands of rows, and each TSV reaching a band, ascending, adds its field
  /// along its disc's row spans with SingleTsvField::accumulate. Bitwise
  /// evaluate(window.points()) at every thread count.
  std::vector<num::SymTensor2> evaluate(const geo::GridWindow& window) const;

 private:
  tsvlib::Placement placement_;
  std::shared_ptr<const SingleTsvField> table_;
  SuperpositionOptions options_;
  std::size_t num_threads_;
  geo::GridIndex index_;
};

}  // namespace tsv::core
