#pragma once
// The paper's contribution: the two-stage semi-analytical full-chip stress
// modeling framework (Algorithm 1).
//
//   Stage I  — linear superposition of characterized single-TSV fields
//              over nearby TSVs (the prior art baseline).
//   Stage II — analytical interactive stress of nearby TSV pairs.
//
// Stage II runs exactly when an interaction model is given: without one the
// run is the LS baseline (Stage I alone), with one the proposed framework
// (PF). Both stages add fields over the same disc around each TSV, of the
// one influence radius, so a grid evaluation with Stage II on walks each
// disc once: InteractiveStage's fused pass adds the TSV's Stage I field and
// its pair corrections as a victim into one buffer. That pass has no
// separate Stage I part or time: it reports its whole time as
// stage2_seconds and stage1_seconds = 0. Point lists and LS-only runs run
// the stages one after the other and time each; the Table 6 study times a
// PF run against an LS-only run instead (bench_table6_runtime).
//
// Besides a placement, a run needs a one-time characterization of the TSV
// structure, built only by characterize() (the thermal load is its
// argument) and shared by sweeps over placements, and FrameworkOptions: the
// influence radius, the pair pitch cutoff and the one thread count both
// stages (and a tiled evaluator's tiles) run on.

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

/// A run's configuration: a framework's and an incremental engine's alike
/// (IncrementalOptions names the same struct).
struct FrameworkOptions {
  /// Both stages: a TSV adds its fields over the points within this
  /// distance of its center, um.
  double influence_radius = kInfluenceRadius;
  /// Stage II: pairs at least this far apart do not interact, um.
  double pair_pitch_cutoff = kPairPitchCutoff;
  /// Threads for both stages: 0 = hardware concurrency, 1 = serial.
  std::size_t num_threads = 1;
};

/// The total field (Stage I [+ II]); the Stage II part alone comes from
/// stage2()->evaluate, or as the difference with an LS-only framework.
/// A fused grid pass reports its whole time as stage2_seconds and
/// stage1_seconds = 0 (see the header comment).
struct StressResult {
  std::vector<num::SymTensor2> stress;
  double stage1_seconds = 0.0;
  double stage2_seconds = 0.0;
};

class StressFramework {
 public:
  /// Characterizes the placement's structure at the default thermal load
  /// (characterize() with `stage2`; kOff is the LS baseline).
  StressFramework(const tsvlib::Placement& placement,
                  const FrameworkOptions& options = {},
                  StageTwo stage2 = StageTwo::kSeries);

  /// Full injection: caller supplies the Stage-I single-TSV field (a
  /// characterize() table, or e.g. a StressMapTable characterized from a
  /// FEM solve, the methodology of the original LS work) and the Stage-II
  /// model, or null for the LS baseline. The characterization depends only
  /// on the TSV structure, so sweeps over placements should share one.
  StressFramework(const tsvlib::Placement& placement,
                  std::shared_ptr<const SingleTsvField> table,
                  std::shared_ptr<const ana::InteractiveStressModel> model,
                  const FrameworkOptions& options = {});

  const FrameworkOptions& options() const { return options_; }
  const LinearSuperposition& stage1() const { return stage1_; }
  const InteractiveStage* stage2() const { return stage2_.get(); }

  /// Full evaluation at a list of points.
  StressResult evaluate(const std::vector<geo::Point>& points) const;

  /// Evaluation over a grid (row-major point order), disc-major on the
  /// whole-grid window: the fused pass when Stage II is on
  /// (evaluate(grid.points()) up to summation regrouping), else Stage I
  /// alone (bitwise evaluate(grid.points())).
  StressResult evaluate(const geo::SampleGrid& grid) const;

  /// Single-point evaluation (slow path; prefer the batched overloads).
  num::SymTensor2 stress_at(const geo::Point& p) const;

 private:
  friend class TiledEvaluator;

  StressFramework(const tsvlib::Placement& placement, Characterization ch,
                  const FrameworkOptions& options);

  /// Both stages at a point list or a grid window: one fused pass on a
  /// window when Stage II is on, else Stage I then (on a point list)
  /// Stage II. Stage II evaluates the victim runs `runs()` returns,
  /// enumerated inside the Stage II timer: victim_runs() for a whole
  /// evaluation, victim_runs_near(tile) for a tile of a TiledEvaluator.
  template <typename Points>
  StressResult evaluate_stages(const Points& points,
                               const std::function<VictimRuns()>& runs) const;

  FrameworkOptions options_;
  LinearSuperposition stage1_;
  std::unique_ptr<InteractiveStage> stage2_;
};

}  // namespace tsv::core
