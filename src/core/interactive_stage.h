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
// take this path whenever Stage II is on). It then also visits the victims
// with no aggressor, for their Stage I disc alone.
// IncrementalEngine makes the same accumulate_run call per victim run.
// stress_at always uses the exact series, so it can differ from evaluate()
// by up to the surrogate's certified bound.
//
// The cutoffs and the thread count are constructor arguments. The batched
// evaluates and the pair enumeration run on num_threads workers (0 =
// hardware concurrency, 1 = serial, the default). The run loop schedules
// its runs by victim cell (VictimCells): square cells wider than twice the
// influence radius, coloured by the parity of their column and row. Two
// victims in different cells of one colour are too far apart for their
// discs to share a point, and the victims that reach one point lie in a
// 2 x 2 block of neighbouring cells, one of each colour. Workers claim
// whole cells from one cursor, colour by colour and largest first within a
// colour; a cell starts once its neighbours of earlier colours are done,
// and scatters straight into the one shared output. Each point thus sums
// its contributions by colour, then within the one cell of that colour
// that reaches it, in run order: an order no schedule or thread count
// changes, so every batched evaluate is bitwise the same at any thread
// count, 1 included. The run loop is a RunPlan (the schedule and the zeroed
// output) plus its claimable cell body: evaluate_runs claims a plan's cells
// on num_threads workers, and a TiledEvaluator claims the cells of two
// tiles' plans in one parallel region.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "analytic/interaction.h"
#include "core/single_tsv_field.h"
#include "core/superposition.h"
#include "geometry/grid_index.h"
#include "geometry/grid_window.h"
#include "tsv/placement.h"

namespace tsv::core {

/// Pairs at least this far apart do not interact (paper: 25 um).
inline constexpr double kPairPitchCutoff = 25.0;

using PairList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// The square cells the run loop buckets victims into (see the header
/// comment), laid from the corner of a hull that holds every victim. A
/// cell's side is 2 x influence_radius widened by 2^-20 of itself and by
/// 2^-40 of the hull's larger extent, more than the rounding of the disc
/// predicate and of cell(), so victims whose cells are not neighbours (two
/// cells of one colour never are) are more than 2 x influence_radius apart.
/// Cell coordinates are 64-bit and stay below 2^41, so they neither
/// overflow nor alias however wide the hull.
struct VictimCells {
  struct Cell {
    std::int64_t x = 0;
    std::int64_t y = 0;
    /// 0..3, from the parities of x and y.
    int colour() const { return static_cast<int>((x & 1) | ((y & 1) << 1)); }
  };

  VictimCells(const geo::Box& hull, double influence_radius);

  /// The cell of a point of the hull.
  Cell cell(const geo::Point& p) const;

  geo::Point origin;
  double side = 0.0;
};

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

/// The runs of one evaluation bucketed into victim cells, in the order
/// workers claim the cells, with the cells each one waits for: cell k runs
/// runs[cell_offsets[k], cell_offsets[k + 1]) in that order, after the
/// cells waits[wait_offsets[k], wait_offsets[k + 1]) (claim order indices).
struct CellSchedule {
  std::vector<std::size_t> runs;
  std::vector<std::size_t> cell_offsets{0};
  std::vector<std::size_t> wait_offsets{0};
  std::vector<std::size_t> waits;

  std::size_t cells() const { return cell_offsets.size() - 1; }
};

/// A thread's buffers for the runs it executes: a disc's point indices and
/// points, the run's aggressors and its contribution. Reused across cells
/// and plans, they keep their steady-state capacity.
struct RunScratch {
  std::vector<std::uint32_t> affected;
  std::vector<geo::Point> gathered;
  std::vector<geo::Point> aggressors;
  std::vector<num::SymTensor2> contrib;
};

class InteractiveStage;

/// One batched evaluation as claimable cells, made by
/// InteractiveStage::plan_runs: the cell schedule of its runs and the zeroed
/// output, plus a cell body any thread may run. Claim the cells in index
/// order from one cursor and run every claimed cell: run_cell waits for the
/// cell's neighbours of earlier colours, which come earlier in that order,
/// so no set of claiming threads deadlocks, and output() is the same, bit
/// for bit, whichever threads run which cells. Plans are independent:
/// threads may run the cells of several at once. The stage and the runs a
/// plan was made from (and a window plan's grid) must outlive it.
class RunPlan {
 public:
  std::size_t cells() const { return schedule_.cells(); }

  /// Runs cell `cell` with `scratch`, once its neighbours of earlier
  /// colours are done, and marks it done, also when it throws (so no other
  /// cell waits on it forever; the exception still propagates). The cell's
  /// runs execute in run order. Each run gathers its disc's point indices
  /// (ascending) and points once, adds into a zeroed buffer the Stage I
  /// field of its victim (in a fused plan) and all its aggressors with one
  /// InteractiveStressModel::accumulate_run (one chip-frame series for a
  /// covered stretch, equal to the sequence of its pairs as runs of one up
  /// to rounding), and scatters that buffer into the output once. Without
  /// a Stage I field, runs with no aggressor are not scheduled. Any run
  /// order is correct: one that is not victim-major just splits a victim
  /// into several runs, which share its cell, and differs from the sorted
  /// one by summation regrouping only.
  void run_cell(std::size_t cell, RunScratch& scratch);

  /// The field, complete once every cell has run.
  std::vector<num::SymTensor2>& output() { return out_; }

 private:
  friend class InteractiveStage;
  using GatherDisc = std::function<void(
      const geo::Point&, std::vector<std::uint32_t>&, std::vector<geo::Point>&)>;

  RunPlan(const InteractiveStage& stage, std::size_t num_points,
          const VictimRuns& runs, const SingleTsvField* stage1,
          GatherDisc gather);

  const InteractiveStage* stage_;
  const VictimRuns* runs_;
  const SingleTsvField* stage1_;
  /// The certificate/coverage gate, resolved once per plan; the per-pair
  /// pitch gate lives in accumulate_run.
  std::shared_ptr<const ana::PairSurrogate> surrogate_;
  GatherDisc gather_;
  CellSchedule schedule_;
  std::vector<std::atomic<bool>> done_;
  std::vector<num::SymTensor2> out_;
};

class InteractiveStage {
 public:
  InteractiveStage(const tsvlib::Placement& placement,
                   std::shared_ptr<const ana::InteractiveStressModel> model,
                   double influence_radius = kInfluenceRadius,
                   double pair_pitch_cutoff = kPairPitchCutoff,
                   std::size_t num_threads = 1);

  double influence_radius() const { return influence_radius_; }
  double pair_pitch_cutoff() const { return pair_pitch_cutoff_; }
  std::size_t num_threads() const { return num_threads_; }
  const ana::InteractiveStressModel& model() const { return *model_; }

  /// Interactive stress at one point (enumerates nearby ordered pairs).
  num::SymTensor2 stress_at(const geo::Point& p) const;

  /// Interactive stress at many points: evaluate_runs over victim_runs().
  /// Organized victim-outer so that each victim's affected points are found
  /// (through a point GridIndex built per call) and gathered once and
  /// reused by all of its pairs.
  std::vector<num::SymTensor2> evaluate(
      const std::vector<geo::Point>& points) const;

  /// Interactive stress at `points` from the runs with aggressors in
  /// `runs`, e.g. victim_runs_near(tile bounds), which the tiled evaluator
  /// enumerates once per tile for its statistics and its evaluation, or
  /// VictimRuns::from_pairs of a pair list. Only pairs whose victim lies
  /// within influence_radius of a point contribute there.
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

  /// That evaluation as a plan whose cells the caller runs: running every
  /// cell leaves output() bitwise evaluate_runs(window, runs, stage1).
  /// `runs` and the window's grid must outlive the plan.
  RunPlan plan_runs(const geo::GridWindow& window, const VictimRuns& runs,
                    const SingleTsvField* stage1 = nullptr) const;

  /// victim_runs().pair_count(), from the enumeration's count pass alone.
  std::size_t pair_count() const;

  /// Every TSV as a victim, ascending, with its aggressors within the
  /// pitch cutoff: all ordered pairs, victim-major. Enumerated on
  /// num_threads() workers; the runs are the same, element for element, at
  /// every thread count.
  VictimRuns victim_runs() const;

  /// The TSVs within influence_radius of `region` (by the same squared
  /// distance test the disc walks apply, so every TSV whose disc holds a
  /// point of the region is one), ascending, with their aggressors.
  /// Thread-count independent, like victim_runs.
  VictimRuns victim_runs_near(const geo::Box& region) const;

 private:
  /// The runs of `victims` in their order, each victim's aggressors in
  /// index order, enumerated in parallel chunks of victims. With `count`,
  /// only the count pass runs: it stores the number and returns no runs.
  VictimRuns runs_of(std::vector<std::uint32_t> victims,
                     std::size_t* count = nullptr) const;

  /// Runs every cell of `plan` on num_threads() workers and returns its
  /// output: the batched run loop behind every evaluate.
  std::vector<num::SymTensor2> run(RunPlan& plan) const;

  friend class RunPlan;

  tsvlib::Placement placement_;
  std::shared_ptr<const ana::InteractiveStressModel> model_;
  double influence_radius_;
  double pair_pitch_cutoff_;
  std::size_t num_threads_;
  geo::GridIndex tsv_index_;
  VictimCells cells_;
};

}  // namespace tsv::core
