#pragma once
// Tiled, streaming evaluation of the two-stage framework over a sample
// grid — the full-chip driver. A 10k-TSV chip sampled at sub-um spacing has
// millions of points; materializing the whole field costs O(chip) memory.
// This
// driver splits the grid into cache-sized tiles, evaluates both stages per
// tile (Stage II enumerates only the pairs whose victim can reach the tile,
// via the TSV grid index) and hands each finished tile to a consumer, so
// peak memory is O(tile) and results stream in deterministic row-major
// tile order. A tile is a geo::GridWindow evaluated disc-major. Each tile
// runs through the framework's own stage sequence on its threads (tiles x
// threads compose because the outer tile loop is serial), given the tile's
// victim runs, victim_runs_near(tile) instead of the whole grid's
// victim_runs(): every TSV that can reach the tile, with its aggressors
// (possibly none). With Stage II on that is the fused pass, one disc walk per TSV for both stages, and the tile's whole time
// counts as Stage II: TiledStats::stage1_seconds stays 0. A tile (and a
// checkpoint) carries the total field only; the Stage II part alone comes
// from InteractiveStage::evaluate, or as the difference with an LS-only
// framework.

#include <cstdint>
#include <functional>
#include <vector>

#include "core/framework.h"
#include "geometry/sample_grid.h"

namespace tsv::core {

struct TiledOptions {
  /// Upper bound on points per tile. The default keeps a tile's output, the
  /// one buffer every Stage II worker scatters into, comfortably inside the
  /// last level cache (64k points x 24 B/tensor = 1.5 MB).
  std::size_t max_tile_points = 64 * 1024;
};

/// One finished tile, valid only for the duration of the consumer call.
struct Tile {
  std::size_t index = 0;  ///< running number, row-major (y-outer) tile order
  std::size_t ix0 = 0;    ///< first grid column of the tile
  std::size_t iy0 = 0;    ///< first grid row of the tile
  std::size_t nx = 0;     ///< tile extent in columns
  std::size_t ny = 0;     ///< tile extent in rows
  geo::Box bounds;        ///< hull of the tile's points
  /// Tile points, row-major within the tile (y outer), and the total
  /// (Stage I + Stage II) field at them.
  const std::vector<geo::Point>& points;
  const std::vector<num::SymTensor2>& stress;
};

using TileConsumer = std::function<void(const Tile&)>;

/// Completed-tile state of an interrupted (or in-flight) tiled run — enough
/// to resume without re-evaluating finished tiles. The fingerprint binds
/// the state to one run configuration (TiledEvaluator::fingerprint) so a
/// stale checkpoint can never be resumed against the wrong run.
/// Persistence is the io layer's job (io::save_tiled_checkpoint /
/// load_tiled_checkpoint).
struct TiledCheckpoint {
  std::uint64_t fingerprint = 0;
  std::size_t tiles_done = 0;
  /// Fields of the finished tiles, concatenated in row-major tile order
  /// (each tile row-major internally, matching Tile::stress).
  std::vector<num::SymTensor2> stress;
};

/// Checkpointing policy for one evaluate() run.
struct CheckpointConfig {
  /// Call `writer` after every this many freshly computed tiles. The final
  /// tile never triggers a write: a completed run needs no checkpoint.
  std::size_t every_tiles = 16;
  /// Persistence hook (e.g. [&](const auto& cp) {
  /// io::save_tiled_checkpoint(path, cp); }). Null disables writing, which
  /// makes resume-only replay possible.
  std::function<void(const TiledCheckpoint&)> writer;
  /// Resume state: finished tiles are replayed to the consumer from the
  /// stored fields (bitwise identical, no re-evaluation) and computation
  /// continues at the first unfinished tile. Must match this run's
  /// fingerprint (throws tsv::InvalidInputError otherwise).
  const TiledCheckpoint* resume = nullptr;
};

struct TiledStats {
  std::size_t tiles = 0;
  std::size_t tiles_x = 0;
  std::size_t tiles_y = 0;
  std::size_t points = 0;
  std::size_t peak_tile_points = 0;
  /// Stage times summed over the evaluated tiles; a fused tile pass counts
  /// wholly as Stage II (see the header comment).
  double stage1_seconds = 0.0;
  double stage2_seconds = 0.0;
  /// Ordered pairs in the whole design, and the total over tiles of the
  /// pairs each tile actually evaluated. Their ratio measures how much the
  /// per-tile culling saves vs. evaluating every pair against every tile.
  std::size_t total_pairs = 0;
  std::size_t culled_pairs = 0;
  /// Checkpoint accounting: tiles replayed from a resume checkpoint instead
  /// of evaluated, checkpoint writes performed, and the wall-clock they
  /// cost (the overhead the ≤5% budget in EXPERIMENTS.md tracks).
  std::size_t resumed_tiles = 0;
  std::size_t checkpoints_written = 0;
  double checkpoint_seconds = 0.0;
  /// Checkpoint files io::evaluate_with_checkpoint found but could not
  /// resume (corrupt, or from another run) and restarted without: 0 or 1.
  std::size_t checkpoints_ignored = 0;
};

class TiledEvaluator {
 public:
  explicit TiledEvaluator(const StressFramework& framework,
                          const TiledOptions& options = {});

  const TiledOptions& options() const { return options_; }

  /// Evaluates the framework over `grid`, streaming tiles to `consume` in
  /// row-major tile order. The Tile references are only valid inside the
  /// callback — copy what you keep.
  TiledStats evaluate(const geo::SampleGrid& grid,
                      const TileConsumer& consume) const;

  /// Same, with periodic checkpointing and/or resume (see CheckpointConfig).
  /// The streamed tiles — replayed and computed — are identical to an
  /// uninterrupted run's.
  TiledStats evaluate(const geo::SampleGrid& grid, const TileConsumer& consume,
                      const CheckpointConfig& checkpoint) const;

  /// FNV-1a fingerprint of everything a checkpoint must agree on: the
  /// placement (centers, radii and the three materials), the Stage I
  /// field's values at fixed probe points (so its thermal load and its
  /// kind), the grid geometry, the tile budget, the influence radius, and
  /// whether Stage II runs, with which pitch cutoff, model (k_hat and
  /// inclusion-response options), and whether a certified surrogate
  /// serves it.
  std::uint64_t fingerprint(const geo::SampleGrid& grid) const;

 private:
  const StressFramework* framework_;
  TiledOptions options_;
};

}  // namespace tsv::core
