#pragma once
// The paper's contribution: the two-stage semi-analytical full-chip stress
// modeling framework (Algorithm 1).
//
//   Stage I  — linear superposition of characterized single-TSV fields
//              over nearby TSVs (the prior art baseline).
//   Stage II — analytical interactive stress of nearby TSV pairs.
//
// Run Stage I alone for the LS baseline, or both for the proposed framework
// (PF). Timings for both stages are reported for the Table 6 study.

#include <memory>
#include <vector>

#include "core/interactive_stage.h"
#include "core/superposition.h"
#include "geometry/sample_grid.h"
#include "materials/material.h"
#include "tsv/placement.h"

namespace tsv::core {

struct FrameworkOptions {
  mat::ThermalLoad load{};
  SuperpositionOptions stage1{};
  InteractiveOptions stage2{};
  ana::InclusionResponseOptions characterization{};
  /// Radial table extent; must cover the influence radius.
  double table_radius = 30.0;
  std::size_t table_samples = 4096;
  bool enable_interactive = true;  ///< false = plain linear superposition
  /// Convenience thread knob for both stages: 0 = hardware concurrency,
  /// n > 1 = n threads; either overrides stage1.num_threads and
  /// stage2.num_threads at construction. The default 1 leaves the per-stage
  /// settings untouched (per-stage defaults are serial).
  std::size_t num_threads = 1;
};

struct StressResult {
  std::vector<num::SymTensor2> stress;      ///< total (Stage I [+ II])
  std::vector<num::SymTensor2> interactive; ///< Stage II part (empty if off)
  double stage1_seconds = 0.0;
  double stage2_seconds = 0.0;
};

class StressFramework {
 public:
  StressFramework(const tsvlib::Placement& placement,
                  const FrameworkOptions& options = {});

  /// Shares a pre-built characterization (it depends only on the TSV
  /// structure, so sweeps over placements should reuse it).
  StressFramework(const tsvlib::Placement& placement,
                  std::shared_ptr<const ana::InteractiveStressModel> model,
                  const FrameworkOptions& options = {});

  /// Full injection: caller supplies the Stage-I single-TSV field (e.g. a
  /// StressMapTable characterized from a FEM solve, the methodology of the
  /// original LS work) and the Stage-II model (may be null when
  /// options.enable_interactive is false).
  StressFramework(const tsvlib::Placement& placement,
                  std::shared_ptr<const SingleTsvField> table,
                  std::shared_ptr<const ana::InteractiveStressModel> model,
                  const FrameworkOptions& options = {});

  /// Convenience overload taking a radial table by value.
  StressFramework(const tsvlib::Placement& placement, RadialStressTable table,
                  std::shared_ptr<const ana::InteractiveStressModel> model,
                  const FrameworkOptions& options = {});

  const FrameworkOptions& options() const { return options_; }
  const LinearSuperposition& stage1() const { return stage1_; }
  const InteractiveStage* stage2() const { return stage2_.get(); }
  const ana::SingleTsvModel& single_tsv() const { return single_; }

  /// Full evaluation at a list of points.
  StressResult evaluate(const std::vector<geo::Point>& points) const;

  /// Evaluation over a grid (row-major point order): both stages run
  /// disc-major on the whole-grid window, bitwise evaluate(grid.points()).
  StressResult evaluate(const geo::SampleGrid& grid) const;

  /// Single-point evaluation (slow path; prefer the batched overloads).
  num::SymTensor2 stress_at(const geo::Point& p) const;

 private:
  /// Both stages at a point list or a grid window.
  template <typename Points>
  StressResult evaluate_stages(const Points& points) const;

  FrameworkOptions options_;
  ana::SingleTsvModel single_;
  LinearSuperposition stage1_;
  std::shared_ptr<const ana::InteractiveStressModel> model_;
  std::unique_ptr<InteractiveStage> stage2_;
};

}  // namespace tsv::core
