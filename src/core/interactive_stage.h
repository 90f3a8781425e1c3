#pragma once
// Stage II of Algorithm 1: interactive stress of nearby TSV pairs.
//
// A pair (victim, aggressor) contributes at a simulation point when
//   1) the pair pitch is below `pair_pitch_cutoff`, and
//   2) the victim lies within `influence_radius` of the point
// (both 25 um in the paper). Each unordered pair is processed in two rounds
// with the roles exchanged, exactly as in Sec. 4.
//
// The batched evaluates walk victim runs: a victim with its aggressors
// (VictimRuns, enumerated per call or per tile). Each run hands its pairs
// to InteractiveStressModel::accumulate_run: the model's certified
// surrogate when one is attached, the exact series otherwise (and for every
// pitch outside the surrogate's domain). The pairs of a run read the same
// disc of points, so the disc is gathered once per run, and the surrogate
// stages it once and evaluates the whole run as one chip-frame series, at a
// cost per point that does not grow with the number of aggressors. A run
// walks its victim's disc as row spans of a grid window, or queries a
// per-call point GridIndex on a point list: the same points in the same
// order, so the two agree bit for bit. A stage holds no per-call state, and
// every batched evaluation goes through the one run loop evaluate_runs.
//
// Stage I adds each TSV's single-TSV field over the same disc, so on a grid
// window the two stages share the walk: given the Stage I field, the fused
// evaluate_runs adds every run's victim field and pair corrections into
// one buffer per disc, scattered once (StressFramework's window evaluations
// take this path whenever Stage II is on and both radii agree). It then
// also visits the victims with no aggressor, for their Stage I disc alone.
// IncrementalEngine makes the same accumulate_run call per victim run.
// stress_at always uses the exact series, so it can differ from evaluate()
// by up to the surrogate's certified bound.
//
// The batched evaluates and the pair enumeration run on num_threads workers
// (a constructor argument: 0 = hardware concurrency, 1 = serial, the
// default). Victim runs are chunked statically; each chunk accumulates into
// a private output buffer and the partials merge in chunk index order, on
// the same workers, so results are deterministic for a fixed thread count
// but can differ from the serial sum by floating-point regrouping (<= ~1e-12
// relative; the determinism tests pin this down).

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "analytic/interaction.h"
#include "core/single_tsv_field.h"
#include "geometry/grid_index.h"
#include "geometry/grid_window.h"
#include "tsv/placement.h"

namespace tsv::core {

struct InteractiveOptions {
  double pair_pitch_cutoff = 25.0;  ///< um
  double influence_radius = 25.0;   ///< um, victim to simulation point
};

using PairList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// Victims with their aggressors in CSR form: victims[i] pairs with
/// aggressors[offsets[i], offsets[i + 1]), in index order. A victim may
/// have no aggressor (it still owns a Stage I disc).
struct VictimRuns {
  std::vector<std::uint32_t> victims;
  std::vector<std::size_t> offsets{0};
  std::vector<std::uint32_t> aggressors;

  std::size_t pair_count() const { return aggressors.size(); }

  /// The ordered (victim, aggressor) pairs, run by run.
  PairList pairs() const;

  /// One run per maximal stretch of consecutive pairs with one victim.
  static VictimRuns from_pairs(const PairList& pairs);
};

class InteractiveStage {
 public:
  InteractiveStage(const tsvlib::Placement& placement,
                   std::shared_ptr<const ana::InteractiveStressModel> model,
                   const InteractiveOptions& options = {},
                   std::size_t num_threads = 1);

  const InteractiveOptions& options() const { return options_; }
  std::size_t num_threads() const { return num_threads_; }
  const ana::InteractiveStressModel& model() const { return *model_; }

  /// Interactive stress at one point (enumerates nearby ordered pairs).
  num::SymTensor2 stress_at(const geo::Point& p) const;

  /// Interactive stress at many points: evaluate_runs over victim_runs().
  /// Organized victim-outer so that each victim's affected points are found
  /// (through a point GridIndex built per call) and gathered once and
  /// reused by all of its pairs. Run-parallel over num_threads() workers:
  /// `out[n] +=` across runs would race, so each worker owns a private
  /// buffer (see the header comment).
  std::vector<num::SymTensor2> evaluate(
      const std::vector<geo::Point>& points) const;

  /// Interactive stress at `points` from a caller-supplied pair list: its
  /// maximal same-victim stretches as runs (VictimRuns::from_pairs). Only
  /// pairs whose victim lies within influence_radius of a point contribute
  /// there.
  std::vector<num::SymTensor2> evaluate_with_pairs(
      const std::vector<geo::Point>& points, const PairList& pairs) const;

  /// The same at a grid window's points, row-major, bitwise
  /// evaluate_with_pairs(window.points(), pairs) with no point index.
  std::vector<num::SymTensor2> evaluate_with_pairs(
      const geo::GridWindow& window, const PairList& pairs) const;

  /// Interactive stress at `points` from the runs with aggressors in
  /// `runs`, e.g. victim_runs_near(tile bounds), which the tiled evaluator
  /// enumerates once per tile for its statistics and its evaluation.
  std::vector<num::SymTensor2> evaluate_runs(
      const std::vector<geo::Point>& points, const VictimRuns& runs) const;

  /// The same at a grid window's points, row-major, bitwise
  /// evaluate_runs(window.points(), runs). With a Stage I field it is the
  /// fused pass: every victim of `runs` (those without an aggressor too)
  /// also adds stage1's field of a TSV at its center over the same disc,
  /// into the same per-run buffer, so the result is Stage I of those TSVs
  /// plus Stage II, one gather and one scatter per victim. It equals the two
  /// separate passes up to summation regrouping, provided stage1's reach is
  /// influence_radius and `runs` holds every TSV within that reach of the
  /// window (as victim_runs_near(window.bounds()) does).
  std::vector<num::SymTensor2> evaluate_runs(
      const geo::GridWindow& window, const VictimRuns& runs,
      const SingleTsvField* stage1 = nullptr) const;

  /// ordered_pairs().size(), from the enumeration's count pass alone.
  std::size_t pair_count() const;

  /// Every TSV as a victim, ascending, with its aggressors within the
  /// pitch cutoff. Enumerated on num_threads() workers; the runs are the
  /// same, element for element, at every thread count.
  VictimRuns victim_runs() const;

  /// The TSVs within influence_radius of `region` (by the same squared
  /// distance test the disc walks apply, so every TSV whose disc holds a
  /// point of the region is one), ascending, with their aggressors.
  /// Thread-count independent, like victim_runs.
  VictimRuns victim_runs_near(const geo::Box& region) const;

  /// Ordered victim/aggressor pairs within the pitch cutoff:
  /// victim_runs().pairs(). All pairs of one victim are contiguous
  /// (victim-major order), the order the run loop batches on.
  PairList ordered_pairs() const;

  /// Ordered pairs whose victim lies within influence_radius of `region`
  /// (the pairs that can contribute to any point inside it):
  /// victim_runs_near(region).pairs().
  PairList ordered_pairs_near(const geo::Box& region) const;

 private:
  /// The runs of `victims` in their order, each victim's aggressors in
  /// index order, enumerated in parallel chunks of victims. With `count`,
  /// only the count pass runs: it stores the number and returns no runs.
  VictimRuns runs_of(std::vector<std::uint32_t> victims,
                     std::size_t* count = nullptr) const;

  /// The batched run loop behind every evaluate, over `num_points` points.
  /// Each run has gather(victim, affected, gathered) collect its disc's
  /// point indices (ascending) and points once, adds into a zeroed buffer
  /// stage1's field of the victim (when stage1 is given) and all its
  /// aggressors with one InteractiveStressModel::accumulate_run (one
  /// chip-frame series for a covered stretch, equal to the sequence of its
  /// pairs as runs of one up to rounding), and scatters that buffer into the
  /// chunk's output once. Without stage1, runs with no aggressor are
  /// skipped. Any run order is correct: one that is not victim-major just
  /// splits a victim into several runs, and differs from the sorted one by
  /// summation regrouping only. Threads take chunks of whole runs; the
  /// chunk partials merge point-parallel, each point in chunk index order
  /// (see the header comment).
  template <typename GatherDisc>
  std::vector<num::SymTensor2> evaluate_runs(std::size_t num_points,
                                             const VictimRuns& runs,
                                             const SingleTsvField* stage1,
                                             GatherDisc&& gather) const;

  tsvlib::Placement placement_;
  std::shared_ptr<const ana::InteractiveStressModel> model_;
  InteractiveOptions options_;
  std::size_t num_threads_;
  geo::GridIndex tsv_index_;
};

}  // namespace tsv::core
