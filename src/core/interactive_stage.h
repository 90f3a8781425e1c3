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
// points, so the disc is gathered once per run and the surrogate stages it
// once per run.
// stress_at always uses the exact series, so it can differ from evaluate()
// by up to the surrogate's certified bound.

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "analytic/interaction.h"
#include "geometry/grid_index.h"
#include "tsv/placement.h"

namespace tsv::core {

struct InteractiveOptions {
  double pair_pitch_cutoff = 25.0;  ///< um
  double influence_radius = 25.0;   ///< um, victim to simulation point
  /// Threads for the batched evaluate: 0 = hardware concurrency, 1 = serial
  /// (the default baseline path). Pairs are chunked statically; each chunk
  /// accumulates into a private output buffer and the partials merge in
  /// chunk index order, so results are deterministic for a fixed thread
  /// count but can differ from the serial sum by floating-point regrouping
  /// (<= ~1e-12 relative; the determinism tests pin this down). The merge
  /// itself runs point-parallel on the same workers.
  std::size_t num_threads = 1;
};

class InteractiveStage {
 public:
  InteractiveStage(const tsvlib::Placement& placement,
                   std::shared_ptr<const ana::InteractiveStressModel> model,
                   const InteractiveOptions& options = {});

  const InteractiveOptions& options() const { return options_; }
  const ana::InteractiveStressModel& model() const { return *model_; }

  /// Interactive stress at one point (enumerates nearby ordered pairs).
  num::SymTensor2 stress_at(const geo::Point& p) const;

  /// Interactive stress at many points. Organized victim-outer so that each
  /// victim's affected points are found and gathered once and reused by all
  /// of its pairs (a point GridIndex accelerates the lookup; it is cached
  /// keyed on the point set, so repeated sweeps over the same points —
  /// pitch sweeps, LS-vs-PF comparisons — build it once). Pair-parallel over
  /// options().num_threads workers: `out[n] +=` across pairs would race,
  /// so each worker owns a private buffer (see InteractiveOptions).
  std::vector<num::SymTensor2> evaluate(
      const std::vector<geo::Point>& points) const;

  /// Tile variant for streaming full-chip sweeps: `points` must lie inside
  /// `bounds`, and only pairs whose victim can reach `bounds` (distance to
  /// the box <= influence_radius) are enumerated — for a small tile of a
  /// large chip that culls almost all pairs. Builds a throwaway point index
  /// (tile-sized, cheap) instead of touching the point-index cache.
  std::vector<num::SymTensor2> evaluate(const std::vector<geo::Point>& points,
                                        const geo::Box& bounds) const;

  /// Like the tile variant, but over a caller-supplied pair list (e.g. the
  /// one the tiled evaluator already enumerated for its statistics) so the
  /// pairs are not re-derived. Builds the same throwaway point index as the
  /// tile variant; results are identical to evaluate(points, bounds) when
  /// `pairs` == ordered_pairs_near(bounds).
  std::vector<num::SymTensor2> evaluate_with_pairs(
      const std::vector<geo::Point>& points,
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs)
      const;

  /// Ordered victim/aggressor pairs within the pitch cutoff. All pairs of
  /// one victim are contiguous (victim-major order), the order
  /// evaluate_pairs batches on.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ordered_pairs() const;

  /// Ordered pairs whose victim lies within influence_radius of `region`
  /// (the pairs that can contribute to any point inside it). Victim-major,
  /// like ordered_pairs.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ordered_pairs_near(
      const geo::Box& region) const;

 private:
  /// The batched pair loop behind every evaluate. Each run of consecutive
  /// pairs with the same victim queries the victim's influence disc once,
  /// gathers its points once, evaluates all its aggressors with one
  /// InteractiveStressModel::accumulate_run into a zeroed buffer (bitwise
  /// the per-pair accumulate_pair sequence) and scatters that buffer into
  /// the chunk's output once. Any pair order is correct: a list that is not
  /// victim-major just forms shorter runs, and differs from the sorted one
  /// by summation regrouping only. Runs never cross a thread chunk; the
  /// chunk partials merge point-parallel, each point in chunk index order
  /// (see InteractiveOptions).
  std::vector<num::SymTensor2> evaluate_pairs(
      const std::vector<geo::Point>& points,
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs,
      const geo::GridIndex& point_index) const;

  /// Cached point index, keyed on a fingerprint of the point set. The
  /// fingerprint is a content hash (FNV-1a over the raw coordinate bytes)
  /// plus the point count — NOT the vector's identity — so mutating a point
  /// buffer in place (even to an equal length) changes the key and rebuilds
  /// the index; callers never observe a stale index for edited coordinates
  /// (test_interactive_stage locks this down). The only theoretical
  /// staleness is a 64-bit hash collision between two different point sets
  /// of equal size.
  std::shared_ptr<const geo::GridIndex> point_index_for(
      const std::vector<geo::Point>& points) const;

  tsvlib::Placement placement_;
  std::shared_ptr<const ana::InteractiveStressModel> model_;
  InteractiveOptions options_;
  geo::GridIndex tsv_index_;
  /// Guards the point-index cache (evaluate is const and may run from
  /// several threads).
  mutable std::mutex point_cache_mutex_;
  mutable std::uint64_t point_cache_fingerprint_ = 0;
  mutable std::shared_ptr<const geo::GridIndex> point_index_cache_;
};

}  // namespace tsv::core
