#include "core/tiled_evaluator.h"

#include <chrono>
#include <cmath>
#include <cstring>

#include "core/error.h"
#include "numeric/parallel.h"

namespace tsv::core {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Fnv1a {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= c[i];
      h_ *= 1099511628211ull;
    }
  }
  void f64(double v) { bytes(&v, sizeof(v)); }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

}  // namespace

TiledEvaluator::TiledEvaluator(const StressFramework& framework,
                               const TiledOptions& options)
    : framework_(&framework), options_(options) {
  TSV_REQUIRE(options_.max_tile_points >= 1,
              "need at least one point per tile");
}

std::uint64_t TiledEvaluator::fingerprint(const geo::SampleGrid& grid) const {
  Fnv1a h;
  const tsvlib::Placement& p = framework_->stage1().placement();
  h.u64(p.size());
  for (const geo::Point& c : p.centers()) {
    h.f64(c.x);
    h.f64(c.y);
  }
  const tsvlib::TsvStructure& s = p.structure();
  h.f64(s.body_radius);
  h.f64(s.liner_thickness);
  for (const mat::Material* m : {&s.body, &s.liner, &s.substrate}) {
    h.f64(m->youngs_modulus);
    h.f64(m->poisson_ratio);
    h.f64(m->cte);
  }
  const FrameworkOptions& opt = framework_->options();
  h.f64(opt.load.delta_t);
  h.f64(opt.stage1.influence_radius);
  h.f64(grid.box().lo.x);
  h.f64(grid.box().lo.y);
  h.f64(grid.box().hi.x);
  h.f64(grid.box().hi.y);
  h.u64(grid.nx());
  h.u64(grid.ny());
  h.u64(options_.max_tile_points);
  const InteractiveStage* s2 = framework_->stage2();
  h.u64(s2 != nullptr ? 1 : 0);
  if (s2 != nullptr) {
    h.f64(s2->options().pair_pitch_cutoff);
    h.f64(s2->options().influence_radius);
    // Whether a certified surrogate passes its gate and serves Stage II.
    h.u64(s2->model().surrogate_for(s2->options().influence_radius) ? 1 : 0);
  }
  return h.value();
}

TiledStats TiledEvaluator::evaluate(const geo::SampleGrid& grid,
                                    const TileConsumer& consume) const {
  return evaluate(grid, consume, CheckpointConfig{0, nullptr, nullptr});
}

TiledStats TiledEvaluator::evaluate(const geo::SampleGrid& grid,
                                    const TileConsumer& consume,
                                    const CheckpointConfig& checkpoint) const {
  TSV_REQUIRE(consume != nullptr, "null tile consumer");
  TiledStats stats;
  // Square-ish tiles: side = floor(sqrt(max_tile_points)) capped by the grid
  // extents, split evenly so tile sizes differ by at most one row/column.
  const std::size_t side = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::floor(std::sqrt(static_cast<double>(
                 options_.max_tile_points)))));
  stats.tiles_x = (grid.nx() + side - 1) / side;
  stats.tiles_y = (grid.ny() + side - 1) / side;
  const InteractiveStage* stage2 = framework_->stage2();
  if (stage2 != nullptr) stats.total_pairs = stage2->pair_count();

  const bool checkpointing =
      checkpoint.writer != nullptr && checkpoint.every_tiles > 0;
  const std::size_t total_tiles = stats.tiles_x * stats.tiles_y;

  // Accumulated completed-tile state (only when a writer may need it).
  TiledCheckpoint cp;
  cp.fingerprint = fingerprint(grid);
  if (checkpointing) cp.stress.reserve(grid.size());
  const TiledCheckpoint* resume = checkpoint.resume;
  if (resume != nullptr) {
    if (resume->fingerprint != cp.fingerprint)
      throw InvalidInputError(
          "tiled checkpoint does not match this run (different placement, "
          "structure, grid, or configuration)");
    if (resume->tiles_done > total_tiles)
      throw InvalidInputError(
          "tiled checkpoint claims more finished tiles than the run has");
  }
  std::size_t resume_offset = 0;  // cursor into resume->stress
  std::size_t fresh_tiles = 0;    // computed (not replayed) since last write

  std::vector<geo::Point> points;
  std::vector<num::SymTensor2> stress;
  for (std::size_t ty = 0; ty < stats.tiles_y; ++ty) {
    const auto [iy0, iy1] = num::chunk_bounds(grid.ny(), stats.tiles_y, ty);
    for (std::size_t tx = 0; tx < stats.tiles_x; ++tx) {
      const auto [ix0, ix1] = num::chunk_bounds(grid.nx(), stats.tiles_x, tx);
      const geo::GridWindow window(grid, ix0, ix1, iy0, iy1);
      points = window.points();
      const geo::Box bounds = window.bounds();

      const bool replay = resume != nullptr && stats.tiles < resume->tiles_done;
      if (replay) {
        // Finished before the interruption: stream the stored field instead
        // of re-evaluating (bitwise what the original run produced).
        if (resume_offset + points.size() > resume->stress.size())
          throw InvalidInputError(
              "tiled checkpoint is shorter than its tile count claims");
        stress.assign(resume->stress.begin() +
                          static_cast<std::ptrdiff_t>(resume_offset),
                      resume->stress.begin() +
                          static_cast<std::ptrdiff_t>(resume_offset +
                                                      points.size()));
        resume_offset += points.size();
        ++stats.resumed_tiles;
      } else {
        // One run enumeration per tile, shared between the statistics and
        // the evaluation.
        StressResult r = framework_->evaluate_stages(window, [&] {
          VictimRuns runs = stage2->victim_runs_near(bounds);
          stats.culled_pairs += runs.pair_count();
          return runs;
        });
        stress = std::move(r.stress);
        stats.stage1_seconds += r.stage1_seconds;
        stats.stage2_seconds += r.stage2_seconds;
      }

      const Tile tile{stats.tiles, ix0,    iy0,    window.nx(),
                      window.ny(), bounds, points, stress};
      consume(tile);
      ++stats.tiles;
      stats.points += points.size();
      stats.peak_tile_points = std::max(stats.peak_tile_points, points.size());

      if (checkpointing) {
        cp.stress.insert(cp.stress.end(), stress.begin(), stress.end());
        cp.tiles_done = stats.tiles;
        if (!replay) ++fresh_tiles;
        // The final tile needs no checkpoint: the run is complete.
        if (!replay && fresh_tiles % checkpoint.every_tiles == 0 &&
            stats.tiles < total_tiles) {
          const auto t2 = Clock::now();
          checkpoint.writer(cp);
          stats.checkpoint_seconds += seconds_since(t2);
          ++stats.checkpoints_written;
        }
      }
    }
  }
  return stats;
}

}  // namespace tsv::core
