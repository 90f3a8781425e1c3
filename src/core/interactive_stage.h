#pragma once
// Stage II of Algorithm 1: interactive stress of nearby TSV pairs.
//
// A pair (victim, aggressor) contributes at a simulation point when
//   1) the pair pitch is below `pair_pitch_cutoff`, and
//   2) the victim lies within `influence_radius` of the point
// (both 25 um in the paper). Each unordered pair is processed in two rounds
// with the roles exchanged, exactly as in Sec. 4.
//
// The batched evaluate hands each run of same-victim pairs to
// InteractiveStressModel::accumulate_run: the model's certified surrogate
// when one is attached, the exact series otherwise (and for every pitch
// outside the surrogate's domain). The pairs of a run read the same disc of
// points, so the disc is gathered once per run, and the surrogate stages it
// once and evaluates the whole run as one chip-frame series, at a cost per
// point that does not grow with the number of aggressors. A stage holds no
// per-call state, and every batched evaluation goes through the one pair
// loop evaluate_pairs. A run walks its victim's disc as row spans of a grid
// window, or queries a per-call point GridIndex on a point list: the same
// points in the same order, so the two agree bit for bit.
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
#include "geometry/grid_index.h"
#include "geometry/grid_window.h"
#include "tsv/placement.h"

namespace tsv::core {

struct InteractiveOptions {
  double pair_pitch_cutoff = 25.0;  ///< um
  double influence_radius = 25.0;   ///< um, victim to simulation point
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

  /// Interactive stress at many points: evaluate_with_pairs over
  /// ordered_pairs(). Organized victim-outer so that each victim's affected
  /// points are found (through a point GridIndex built per call) and
  /// gathered once and reused by all of its pairs. Run-parallel over
  /// num_threads() workers: `out[n] +=` across runs would race, so each
  /// worker owns a private buffer (see the header comment).
  std::vector<num::SymTensor2> evaluate(
      const std::vector<geo::Point>& points) const;

  /// Interactive stress at `points` from a caller-supplied pair list, e.g.
  /// ordered_pairs_near(tile bounds), which the tiled evaluator enumerates
  /// once per tile for its statistics and its evaluation. Only pairs whose
  /// victim lies within influence_radius of a point contribute there.
  std::vector<num::SymTensor2> evaluate_with_pairs(
      const std::vector<geo::Point>& points,
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs)
      const;

  /// The same at a grid window's points, row-major, bitwise
  /// evaluate_with_pairs(window.points(), pairs) with no point index.
  std::vector<num::SymTensor2> evaluate_with_pairs(
      const geo::GridWindow& window,
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs)
      const;

  /// ordered_pairs().size(), from the enumeration's count pass alone.
  std::size_t pair_count() const;

  /// Ordered victim/aggressor pairs within the pitch cutoff. All pairs of
  /// one victim are contiguous (victim-major order), the order
  /// evaluate_pairs batches on. The victims are enumerated on
  /// num_threads() workers; the list is the same, element for
  /// element, at every thread count.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ordered_pairs() const;

  /// Ordered pairs whose victim lies within influence_radius of `region`
  /// (the pairs that can contribute to any point inside it). Victim-major
  /// and thread-count independent, like ordered_pairs.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ordered_pairs_near(
      const geo::Box& region) const;

 private:
  /// The pairs of `victims` in their order, each victim's aggressors in
  /// index order, enumerated in parallel chunks of victims. With `count`,
  /// only the count pass runs: it stores the number and returns no list.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs_of(
      const std::vector<std::uint32_t>& victims,
      std::size_t* count = nullptr) const;

  /// The batched pair loop behind every evaluate, over `num_points` points.
  /// Each run of consecutive pairs with the same victim has
  /// gather(victim, affected, gathered) collect its disc's point indices
  /// (ascending) and points once, evaluates all its aggressors with one
  /// InteractiveStressModel::accumulate_run into a zeroed buffer (one
  /// chip-frame series for a covered stretch, equal to the sequence of its
  /// pairs as runs of one up to rounding) and scatters that buffer into the
  /// chunk's output once. Any pair order is correct: a list that is not
  /// victim-major just forms shorter runs, and differs from the sorted one
  /// by summation regrouping only. Threads take chunks of whole runs; the
  /// chunk partials merge point-parallel, each point in chunk index order
  /// (see the header comment).
  template <typename GatherDisc>
  std::vector<num::SymTensor2> evaluate_pairs(
      std::size_t num_points,
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs,
      GatherDisc&& gather) const;

  tsvlib::Placement placement_;
  std::shared_ptr<const ana::InteractiveStressModel> model_;
  InteractiveOptions options_;
  std::size_t num_threads_;
  geo::GridIndex tsv_index_;
};

}  // namespace tsv::core
