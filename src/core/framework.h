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
//
// Besides a placement, a run needs its cutoffs (FrameworkOptions) and a
// one-time characterization of the TSV structure, built only by
// characterize() and shared by sweeps over placements. Both stages (and a
// tiled evaluator's tiles) run on the framework's one thread count.

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/interactive_stage.h"
#include "core/superposition.h"
#include "geometry/sample_grid.h"
#include "materials/material.h"
#include "tsv/placement.h"

namespace tsv::core {

/// How a characterization serves Stage II.
enum class StageTwo : std::uint8_t {
  kOff,        ///< no Stage II: no interaction model is built
  kSeries,     ///< the exact interaction series
  kSurrogate,  ///< the series with a fitted certified surrogate attached
};

/// A TSV structure's one-time characterization under a thermal load.
struct Characterization {
  std::shared_ptr<const RadialStressTable> table;
  /// Null for StageTwo::kOff.
  std::shared_ptr<const ana::InteractiveStressModel> model;
};

/// The characterization recipe: the analytic single-TSV radial table over
/// 30 um with 4096 samples, the inclusion response with k_hat of the same
/// single-TSV solution, and for kSurrogate a PairSurrogate fitted on that
/// model and attached (its certificate gates use per evaluation).
Characterization characterize(const tsvlib::TsvStructure& structure,
                              const mat::ThermalLoad& load, StageTwo stage2);

struct FrameworkOptions {
  mat::ThermalLoad load{};
  SuperpositionOptions stage1{};
  InteractiveOptions stage2{};
  bool enable_interactive = true;  ///< false = plain linear superposition
  /// Threads for both stages: 0 = hardware concurrency, 1 = serial.
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
  /// Characterizes the placement's structure (characterize() with
  /// StageTwo::kSeries, or kOff when options.enable_interactive is false).
  StressFramework(const tsvlib::Placement& placement,
                  const FrameworkOptions& options = {});

  /// Full injection: caller supplies the Stage-I single-TSV field (a
  /// characterize() table, or e.g. a StressMapTable characterized from a
  /// FEM solve, the methodology of the original LS work) and the Stage-II
  /// model (may be null when options.enable_interactive is false). The
  /// characterization depends only on the TSV structure, so sweeps over
  /// placements should share one.
  StressFramework(const tsvlib::Placement& placement,
                  std::shared_ptr<const SingleTsvField> table,
                  std::shared_ptr<const ana::InteractiveStressModel> model,
                  const FrameworkOptions& options = {});

  const FrameworkOptions& options() const { return options_; }
  const LinearSuperposition& stage1() const { return stage1_; }
  const InteractiveStage* stage2() const { return stage2_.get(); }

  /// Full evaluation at a list of points.
  StressResult evaluate(const std::vector<geo::Point>& points) const;

  /// Evaluation over a grid (row-major point order): both stages run
  /// disc-major on the whole-grid window, bitwise evaluate(grid.points()).
  StressResult evaluate(const geo::SampleGrid& grid) const;

  /// Single-point evaluation (slow path; prefer the batched overloads).
  num::SymTensor2 stress_at(const geo::Point& p) const;

 private:
  friend class TiledEvaluator;
  using PairList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

  StressFramework(const tsvlib::Placement& placement, Characterization ch,
                  const FrameworkOptions& options);

  /// Both stages at a point list or a grid window. Stage II evaluates the
  /// pair list `pairs()` returns, enumerated inside the Stage II timer:
  /// ordered_pairs() for a whole evaluation, ordered_pairs_near(tile) for a
  /// tile of a TiledEvaluator.
  template <typename Points>
  StressResult evaluate_stages(const Points& points,
                               const std::function<PairList()>& pairs) const;

  FrameworkOptions options_;
  LinearSuperposition stage1_;
  std::unique_ptr<InteractiveStage> stage2_;
};

}  // namespace tsv::core
