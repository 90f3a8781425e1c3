#include "core/tiled_evaluator.h"

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <thread>

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

/// The Stage I field as a run evaluates it: its coverage radius and its
/// values at a fixed spiral of probe points around a TSV at the origin,
/// spread over the covered disc at golden-angle turns so an anisotropic map
/// is probed in every direction. Two characterizations built alike give the
/// same values, bit for bit, in any process.
void hash_field(Fnv1a& h, const SingleTsvField& field) {
  constexpr int kProbes = 64;
  const double reach = field.coverage_radius();
  h.f64(reach);
  for (int k = 0; k < kProbes; ++k) {
    const double r = reach * (k + 0.5) / kProbes;
    const double turn = 2.399963229728653 * k;
    const num::SymTensor2 s =
        field.stress_at({0.0, 0.0}, {r * std::cos(turn), r * std::sin(turn)});
    h.f64(s.s11);
    h.f64(s.s22);
    h.f64(s.s12);
  }
}

/// One tile alive in the pipeline: where it lies, and the plan of its fused
/// pass (a fresh Stage II tile) or its field (a replayed or LS-only tile).
struct TileSlot {
  std::optional<geo::GridWindow> window;
  geo::Box bounds;
  std::vector<geo::Point> points;
  VictimRuns runs;  ///< the plan's runs
  std::optional<RunPlan> plan;
  std::vector<num::SymTensor2> stress;
  bool replay = false;
  /// Cells run so far; the thread that runs the last one stamps `completed`
  /// and then sets `complete`.
  std::atomic<std::size_t> cells_run{0};
  std::atomic<bool> complete{false};
  Clock::time_point published, completed;
};

/// The tiles of one evaluate as two slots (tile k lives in slot k % 2) and
/// the cells of their plans as one claim sequence: tile k's cells are
/// numbers [first_cell[k], first_cell[k + 1]), known once it is published.
/// Every thread claims from the one cursor, so each tile's cells are claimed
/// in its plan's order, as RunPlan requires, and a thread that runs out of
/// one tile's cells goes on with the next tile's without a join. A worker
/// may claim a number its tile has not yet been published for; it waits for
/// the publication (or the end) and then runs it. No cell waits on such a
/// claim: a cell waits only on earlier cells of its own tile.
class TilePipeline {
 public:
  explicit TilePipeline(std::size_t tiles) : first_cell_(tiles + 1, 0) {}

  TileSlot& slot(std::size_t tile) { return slots_[tile % 2]; }

  /// Makes tile `tile`'s cells claimable (tiles publish in order; the slot
  /// holds the tile).
  void publish(std::size_t tile) {
    TileSlot& s = slot(tile);
    const std::size_t cells = s.plan ? s.plan->cells() : 0;
    s.cells_run.store(0, std::memory_order_relaxed);
    s.complete.store(cells == 0, std::memory_order_relaxed);
    s.published = s.completed = Clock::now();
    first_cell_[tile + 1] = first_cell_[tile] + cells;
    published_.store(first_cell_[tile + 1], std::memory_order_release);
  }

  /// Every tile is published: workers return once no cell is left.
  void close() { closed_.store(true, std::memory_order_release); }

  /// Abandons the run: workers return after the cell they are running.
  void stop() { stopped_.store(true, std::memory_order_relaxed); }

  /// A worker: claims and runs cells until the run is closed and drained,
  /// or stopped.
  void work(RunScratch& scratch) {
    std::size_t tile = 0;
    while (!stopped_.load(std::memory_order_relaxed)) {
      const std::size_t g = next_.fetch_add(1, std::memory_order_relaxed);
      while (g >= published_.load(std::memory_order_acquire)) {
        if (stopped_.load(std::memory_order_relaxed)) return;
        if (closed_.load(std::memory_order_acquire) &&
            g >= published_.load(std::memory_order_acquire))
          return;
        std::this_thread::yield();
      }
      run(g, tile, scratch);
    }
  }

  /// The driver: runs published cells until tile `tile` is complete. False
  /// when a worker's cell threw, so the tile never will be.
  bool await(std::size_t tile, RunScratch& scratch) {
    const TileSlot& s = slot(tile);
    while (!s.complete.load(std::memory_order_acquire)) {
      if (stopped_.load(std::memory_order_relaxed)) return false;
      std::size_t g = next_.load(std::memory_order_relaxed);
      if (g < published_.load(std::memory_order_acquire) &&
          next_.compare_exchange_weak(g, g + 1, std::memory_order_relaxed))
        run(g, driver_tile_, scratch);
      else
        std::this_thread::yield();
    }
    return true;
  }

 private:
  /// Runs claimed cell `g` of a published tile; `tile` is the caller's
  /// last tile, advanced to g's (claims only grow).
  void run(std::size_t g, std::size_t& tile, RunScratch& scratch) {
    while (g >= first_cell_[tile + 1]) ++tile;
    TileSlot& s = slot(tile);
    const std::size_t cells = s.plan->cells();
    try {
      s.plan->run_cell(g - first_cell_[tile], scratch);
    } catch (...) {
      stop();
      throw;
    }
    // Past its count a thread touches the slot only if its cell was the
    // last: the driver may refill the slot as soon as the tile completes.
    if (s.cells_run.fetch_add(1, std::memory_order_acq_rel) + 1 == cells) {
      s.completed = Clock::now();
      s.complete.store(true, std::memory_order_release);
    }
  }

  std::array<TileSlot, 2> slots_;
  std::vector<std::size_t> first_cell_;
  std::size_t driver_tile_ = 0;
  std::atomic<std::size_t> next_{0};       ///< the claim cursor
  std::atomic<std::size_t> published_{0};  ///< cells claimable so far
  std::atomic<bool> closed_{false};
  std::atomic<bool> stopped_{false};
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
  hash_field(h, framework_->stage1().table());
  h.f64(framework_->options().influence_radius);
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
    h.f64(s2->pair_pitch_cutoff());
    const ana::InteractiveStressModel& model = s2->model();
    h.f64(model.k_hat());
    const ana::InclusionResponseOptions& ropt = model.response().options();
    h.u64(static_cast<std::uint64_t>(ropt.max_basis_power));
    h.u64(static_cast<std::uint64_t>(ropt.series_order));
    h.u64(static_cast<std::uint64_t>(ropt.collocation_points));
    // Whether a certified surrogate passes its gate and serves Stage II.
    h.u64(model.surrogate_for(s2->influence_radius()) ? 1 : 0);
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
  const TiledCheckpoint* resume = checkpoint.resume;
  if (checkpoint.writer != nullptr || resume != nullptr)
    cp.fingerprint = fingerprint(grid);
  if (checkpointing) cp.stress.reserve(grid.size());
  // Tile k, row-major (y outer).
  const auto tile_window = [&](std::size_t k) {
    const auto [iy0, iy1] =
        num::chunk_bounds(grid.ny(), stats.tiles_y, k / stats.tiles_x);
    const auto [ix0, ix1] =
        num::chunk_bounds(grid.nx(), stats.tiles_x, k % stats.tiles_x);
    return geo::GridWindow(grid, ix0, ix1, iy0, iy1);
  };
  if (resume != nullptr) {
    if (resume->fingerprint != cp.fingerprint)
      throw InvalidInputError(
          "tiled checkpoint does not match this run (different placement, "
          "structure, grid, or configuration)");
    if (resume->tiles_done > total_tiles)
      throw InvalidInputError(
          "tiled checkpoint claims more finished tiles than the run has");
    std::size_t stored = 0;
    for (std::size_t k = 0; k < resume->tiles_done; ++k)
      stored += tile_window(k).size();
    if (stored > resume->stress.size())
      throw InvalidInputError(
          "tiled checkpoint is shorter than its tile count claims");
  }
  std::size_t resume_offset = 0;  // cursor into resume->stress
  std::size_t fresh_tiles = 0;    // computed (not replayed) since last write

  TilePipeline pipe(total_tiles);
  // Tile k's window, its replayed field, Stage I field (LS only) or plan.
  const auto prepare = [&](std::size_t k) {
    TileSlot& s = pipe.slot(k);
    s.plan.reset();
    const geo::GridWindow& window = s.window.emplace(tile_window(k));
    s.bounds = window.bounds();
    s.points = window.points();
    s.replay = resume != nullptr && k < resume->tiles_done;
    if (s.replay) {
      // Finished before the interruption: stream the stored field instead
      // of re-evaluating (bitwise what the original run produced).
      s.stress.assign(resume->stress.begin() +
                          static_cast<std::ptrdiff_t>(resume_offset),
                      resume->stress.begin() +
                          static_cast<std::ptrdiff_t>(resume_offset +
                                                      s.points.size()));
      resume_offset += s.points.size();
      ++stats.resumed_tiles;
    } else if (stage2 == nullptr) {
      StressResult r = framework_->evaluate_stages(window);
      s.stress = std::move(r.stress);
      stats.stage1_seconds += r.stage1_seconds;
    } else {
      // One run enumeration per tile, shared between the statistics and
      // the evaluation.
      s.runs = stage2->victim_runs_near(s.bounds);
      stats.culled_pairs += s.runs.pair_count();
      s.plan.emplace(framework_->plan_window(window, s.runs));
    }
    pipe.publish(k);
  };
  Clock::time_point computed_until;  // end of the Stage II time counted so far
  const auto finish = [&](std::size_t k) {
    TileSlot& s = pipe.slot(k);
    if (s.plan) {
      // Tiles publish in order, so this adds the part of tile k's interval
      // not yet covered: the total is the union of the intervals.
      const Clock::time_point from = std::max(s.published, computed_until);
      if (s.completed > from)
        stats.stage2_seconds +=
            std::chrono::duration<double>(s.completed - from).count();
      computed_until = std::max(computed_until, s.completed);
    }
    const std::vector<num::SymTensor2>& stress =
        s.plan ? s.plan->output() : s.stress;
    const geo::GridWindow& w = *s.window;
    consume(Tile{k, w.ix0(), w.iy0(), w.nx(), w.ny(), s.bounds, s.points,
                 stress});
    ++stats.tiles;
    stats.points += s.points.size();
    stats.peak_tile_points = std::max(stats.peak_tile_points, s.points.size());

    if (checkpointing) {
      cp.stress.insert(cp.stress.end(), stress.begin(), stress.end());
      cp.tiles_done = stats.tiles;
      if (!s.replay) ++fresh_tiles;
      // The final tile needs no checkpoint: the run is complete.
      if (!s.replay && fresh_tiles % checkpoint.every_tiles == 0 &&
          stats.tiles < total_tiles) {
        const auto t2 = Clock::now();
        checkpoint.writer(cp);
        stats.checkpoint_seconds += seconds_since(t2);
        ++stats.checkpoints_written;
      }
    }
  };
  // The driver, on the calling thread: tile k + 1 is prepared and published
  // before tile k is awaited (its cells run meanwhile on the workers and,
  // when it has nothing else to do, the driver), and tile k is consumed
  // while the workers run tile k + 1's cells. So at most two tiles are
  // alive, one slot each.
  const auto drive = [&](RunScratch& scratch) {
    prepare(0);
    for (std::size_t k = 0; k < total_tiles; ++k) {
      if (k + 1 < total_tiles)
        prepare(k + 1);
      else
        pipe.close();
      if (!pipe.await(k, scratch)) return;  // a worker threw
      finish(k);
    }
  };

  const std::size_t threads =
      num::resolve_thread_count(framework_->options().num_threads);
  std::vector<RunScratch> scratch(threads);
  if (stage2 == nullptr || threads == 1 || num::in_parallel_region()) {
    drive(scratch[0]);
    return stats;
  }
  num::ThreadPool::shared().run(threads, [&](std::size_t c) {
    if (c != 0) {
      pipe.work(scratch[c]);
      return;
    }
    try {
      drive(scratch[0]);
    } catch (...) {
      pipe.stop();
      throw;
    }
  });
  return stats;
}

}  // namespace tsv::core
