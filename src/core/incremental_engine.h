#pragma once
// Incremental (delta) stress evaluation for ECO-style placement edits.
//
// Placement optimization loops (stress-driven placement, KOZ-aware ECO)
// evaluate thousands of *nearly identical* placements: each iteration moves,
// adds, or removes a handful of TSVs and asks for the updated field. A full
// re-evaluation costs O(points x TSVs) for Stage I plus O(pairs x points)
// for Stage II; an edit only changes the field inside the influence radius
// of the affected TSVs.
//
// IncrementalEngine owns a placement (with stable TSV ids), a sample grid,
// and the accumulated Stage I / Stage II fields per grid point. apply(Delta)
// updates the fields by subtracting the departing contributions and adding
// the arriving ones:
//
//   Stage I  — per affected TSV, only the grid points within the influence
//              radius of its old/new center;
//   Stage II — only the ordered pairs involving an affected TSV (partners
//              found through a GridIndex over the TSV centers), sorted
//              victim-major and evaluated as victim runs over the points
//              within the influence radius of the victim.
//
// Stage II runs exactly when the engine is given an interaction model;
// without one the engine maintains the LS baseline and its Stage II field
// stays zero.
//
// The per-TSV kernel and the victim-run call (accumulate_run) are the code
// paths of LinearSuperposition / InteractiveStage, so an incrementally
// maintained field agrees with a full recompute to floating-point
// regrouping only (<= ~1e-12 of the field scale; see
// test_incremental_engine). apply() is serial and therefore bitwise
// deterministic: the same edit sequence always produces the same bits.
// rebuild() re-evaluates from scratch to measure and clear the accumulated
// drift. The engine's options are a framework's (IncrementalOptions names
// FrameworkOptions), and their num_threads is the engine's one thread count:
// the build and rebuild() run both stages on it (0 = hardware, 1 = serial,
// the default) with the same bits at every count, and apply() is serial
// whatever it says.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/framework.h"
#include "geometry/sample_grid.h"
#include "tsv/placement.h"

namespace tsv::core {

/// One placement edit. `id` is the engine's stable TSV handle: adds append
/// a new slot and removals deactivate one, so ids never shift.
struct EcoOp {
  enum class Kind : std::uint8_t { kAdd, kMove, kRemove };

  Kind kind = Kind::kAdd;
  std::uint32_t id = 0;  ///< target TSV (kMove / kRemove)
  geo::Point center{};   ///< new center (kAdd / kMove)

  static EcoOp add(const geo::Point& c) { return {Kind::kAdd, 0, c}; }
  static EcoOp move(std::uint32_t id, const geo::Point& c) {
    return {Kind::kMove, id, c};
  }
  static EcoOp remove(std::uint32_t id) { return {Kind::kRemove, id, {}}; }
};

/// A batch of edits applied atomically (validation happens before any field
/// is touched, so a throwing apply leaves the engine unchanged).
using Delta = std::vector<EcoOp>;

/// An engine runs on a framework's options. Their num_threads drives the
/// initial full build and rebuild() only: apply() itself is always serial —
/// deltas are small and serial updates keep the engine bitwise
/// deterministic.
using IncrementalOptions = FrameworkOptions;

/// Work accounting of one apply(), for the ECO benches: the incremental
/// cost is proportional to point_updates, a full recompute to
/// grid.size() x (TSVs + pairs).
struct ApplyStats {
  std::size_t ops = 0;
  std::size_t dirty_points = 0;          ///< distinct grid points touched
  std::size_t stage1_point_updates = 0;  ///< per-TSV disc point ops
  std::size_t stage2_point_updates = 0;  ///< per-pair disc point ops
  std::size_t removed_pairs = 0;         ///< ordered pairs subtracted
  std::size_t added_pairs = 0;           ///< ordered pairs added
  double seconds = 0.0;
};

class IncrementalEngine {
 public:
  /// Builds the engine and fully evaluates both stages over `grid`
  /// (parallel per options.num_threads). A null `model` is the LS
  /// baseline: Stage I alone.
  IncrementalEngine(const tsvlib::Placement& placement,
                    const geo::SampleGrid& grid,
                    std::shared_ptr<const SingleTsvField> table,
                    std::shared_ptr<const ana::InteractiveStressModel> model,
                    const IncrementalOptions& options = {});

  const geo::SampleGrid& grid() const { return grid_; }
  const IncrementalOptions& options() const { return options_; }
  const tsvlib::TsvStructure& structure() const { return structure_; }
  const SingleTsvField& table() const { return *table_; }
  std::shared_ptr<const SingleTsvField> shared_table() const { return table_; }
  std::shared_ptr<const ana::InteractiveStressModel> model() const {
    return model_;
  }

  /// Slots ever allocated, including deactivated (removed) ones.
  std::size_t slot_count() const { return centers_.size(); }
  std::size_t active_count() const { return active_count_; }
  bool is_active(std::uint32_t id) const;
  /// Center of an active TSV.
  const geo::Point& center(std::uint32_t id) const;
  /// Ids of the active TSVs in ascending order.
  std::vector<std::uint32_t> active_ids() const;
  /// Materializes the active TSVs (in id order) as a Placement — the
  /// placement a from-scratch evaluation would see.
  tsvlib::Placement placement() const;

  /// Accumulated per-point fields, indexed like grid().points().
  const std::vector<num::SymTensor2>& stage1_field() const { return stage1_; }
  const std::vector<num::SymTensor2>& stage2_field() const { return stage2_; }
  /// Stage I + Stage II per point (materialized on call).
  std::vector<num::SymTensor2> total_field() const;

  /// Applies a batch of edits. Throws std::invalid_argument (leaving the
  /// engine untouched) when an op references an inactive id or an edit
  /// brings two active TSVs closer than the TSV diameter 2R'.
  ApplyStats apply(const Delta& delta);

  /// Single-op conveniences. add() returns the new TSV's id.
  std::uint32_t add(const geo::Point& c);
  void move(std::uint32_t id, const geo::Point& c);
  void remove(std::uint32_t id);

  /// Re-evaluates both stages from scratch (parallel per
  /// options.num_threads) and replaces the accumulated fields. Returns the
  /// largest absolute per-component drift (MPa) the incremental fields had
  /// accumulated against the fresh evaluation.
  double rebuild();

  /// Everything needed to resurrect an engine without re-evaluating:
  /// io/snapshot serializes this verbatim (plus the single-TSV table,
  /// whether a model runs Stage II, and the model's surrogate).
  struct State {
    tsvlib::TsvStructure structure;
    geo::Box grid_box{{0.0, 0.0}, {1.0, 1.0}};
    std::size_t grid_nx = 1;
    std::size_t grid_ny = 1;
    IncrementalOptions options{};
    std::vector<geo::Point> centers;   ///< all slots, including inactive
    std::vector<std::uint8_t> active;  ///< parallel to centers
    std::vector<num::SymTensor2> stage1;
    std::vector<num::SymTensor2> stage2;
  };
  State state() const;

  /// Restores an engine from a snapshot state without recomputing the
  /// fields. `table` and `model` (null for an LS engine) must match the
  /// ones the state was built with (the snapshot layer reconstructs them
  /// from the same file). The state's cutoffs are held to the build
  /// constructor's rules (finite, positive, the radius covered by the
  /// table); a state that breaks them throws tsv::InvalidInputError.
  static IncrementalEngine restore(
      State state, std::shared_ptr<const SingleTsvField> table,
      std::shared_ptr<const ana::InteractiveStressModel> model);

 private:
  struct RestoreTag {};
  IncrementalEngine(RestoreTag, State state,
                    std::shared_ptr<const SingleTsvField> table,
                    std::shared_ptr<const ana::InteractiveStressModel> model);

  /// Collects the disc around `c` (GridWindow::gather_disc) into the
  /// disc_* scratch buffers (disc_contrib_ zeroed to the same length) for
  /// the batch kernels.
  void gather_disc(const geo::Point& c, double radius);

  /// Adds (sign = +1) or subtracts (sign = -1) the Stage-I field of a TSV
  /// at `c` over its influence disc.
  void apply_stage1(const geo::Point& c, double sign, ApplyStats& stats);

  /// Adds `sign` x disc_contrib_ into `field` at the gathered disc points
  /// and marks them dirty.
  void scatter_disc(std::vector<num::SymTensor2>& field, double sign,
                    ApplyStats& stats);

  using IdPair = std::pair<std::uint32_t, std::uint32_t>;

  /// Adds or subtracts the Stage-II contribution of `pairs` (ordered
  /// (victim, aggressor) slot ids at the current centers, victim-major) as
  /// victim runs: one disc gather and one
  /// InteractiveStressModel::accumulate_run per victim, the call
  /// InteractiveStage::evaluate_runs makes. `surrogate` is the model's
  /// surrogate_for gate, resolved once per apply().
  void apply_stage2(const ana::PairSurrogate* surrogate,
                    const std::vector<IdPair>& pairs, double sign,
                    ApplyStats& stats);

  /// Fresh full evaluation of the current active placement.
  void full_evaluate(std::vector<num::SymTensor2>& stage1,
                     std::vector<num::SymTensor2>& stage2) const;

  void touch(std::size_t point_index, ApplyStats& stats);

  tsvlib::TsvStructure structure_;
  geo::SampleGrid grid_;
  std::shared_ptr<const SingleTsvField> table_;
  std::shared_ptr<const ana::InteractiveStressModel> model_;
  IncrementalOptions options_;

  std::vector<geo::Point> centers_;   ///< slot id -> center
  std::vector<std::uint8_t> active_;  ///< slot id -> alive?
  std::size_t active_count_ = 0;

  std::vector<num::SymTensor2> stage1_;
  std::vector<num::SymTensor2> stage2_;

  /// Distinct-dirty-point accounting: stamp_[i] == epoch_ marks a point
  /// already counted during the current apply().
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;

  /// Gather/scatter scratch for the batch kernels (apply() is serial, so
  /// plain members suffice; capacities reach steady state after a few ops).
  std::vector<std::size_t> disc_idx_;
  std::vector<geo::Point> disc_pts_;
  std::vector<num::SymTensor2> disc_contrib_;
  std::vector<geo::Point> run_aggressors_;
};

}  // namespace tsv::core
