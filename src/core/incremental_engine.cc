#include "core/incremental_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "analytic/surrogate.h"
#include "geometry/grid_index.h"

namespace tsv::core {
namespace {

using Clock = std::chrono::steady_clock;

geo::Box index_bounds(const std::vector<geo::Point>& points) {
  return points.empty() ? geo::Box{{0.0, 0.0}, {1.0, 1.0}}
                        : geo::Box::bounding(points);
}

/// FrameworkOptions-style convenience override: a non-default engine thread
/// knob wins over the per-stage settings for the full evaluations.
template <typename Opt>
Opt with_threads(Opt opt, std::size_t num_threads) {
  if (num_threads != 1) opt.num_threads = num_threads;
  return opt;
}

}  // namespace

IncrementalEngine::IncrementalEngine(
    const tsvlib::Placement& placement, const geo::SampleGrid& grid,
    std::shared_ptr<const SingleTsvField> table,
    std::shared_ptr<const ana::InteractiveStressModel> model,
    const IncrementalOptions& options)
    : structure_(placement.structure()),
      grid_(grid),
      table_(std::move(table)),
      model_(std::move(model)),
      options_(options),
      centers_(placement.centers()),
      active_(placement.size(), 1),
      active_count_(placement.size()) {
  TSV_REQUIRE(table_ != nullptr, "null single-TSV field");
  TSV_REQUIRE(!options_.enable_interactive || model_ != nullptr,
              "interactive stage enabled but no model supplied");
  TSV_REQUIRE(table_->coverage_radius() >= options_.stage1.influence_radius,
              "stress table must cover the influence radius");
  full_evaluate(stage1_, stage2_);
}

IncrementalEngine::IncrementalEngine(
    RestoreTag, State state, std::shared_ptr<const SingleTsvField> table,
    std::shared_ptr<const ana::InteractiveStressModel> model)
    : structure_(state.structure),
      grid_(state.grid_box, state.grid_nx, state.grid_ny),
      table_(std::move(table)),
      model_(std::move(model)),
      options_(state.options),
      centers_(std::move(state.centers)),
      active_(std::move(state.active)),
      stage1_(std::move(state.stage1)),
      stage2_(std::move(state.stage2)) {
  TSV_REQUIRE(table_ != nullptr, "null single-TSV field");
  TSV_REQUIRE(!options_.enable_interactive || model_ != nullptr,
              "interactive stage enabled but no model supplied");
  TSV_REQUIRE(active_.size() == centers_.size(),
              "engine state: active flags do not match centers");
  TSV_REQUIRE(stage1_.size() == grid_.size() && stage2_.size() == grid_.size(),
              "engine state: field size does not match the grid");
  active_count_ = static_cast<std::size_t>(
      std::count(active_.begin(), active_.end(), std::uint8_t{1}));
}

IncrementalEngine IncrementalEngine::restore(
    State state, std::shared_ptr<const SingleTsvField> table,
    std::shared_ptr<const ana::InteractiveStressModel> model) {
  return IncrementalEngine(RestoreTag{}, std::move(state), std::move(table),
                           std::move(model));
}

bool IncrementalEngine::is_active(std::uint32_t id) const {
  return id < active_.size() && active_[id] != 0;
}

const geo::Point& IncrementalEngine::center(std::uint32_t id) const {
  TSV_REQUIRE(is_active(id), "no active TSV with this id");
  return centers_[id];
}

std::vector<std::uint32_t> IncrementalEngine::active_ids() const {
  std::vector<std::uint32_t> ids;
  ids.reserve(active_count_);
  for (std::uint32_t id = 0; id < centers_.size(); ++id)
    if (active_[id]) ids.push_back(id);
  return ids;
}

tsvlib::Placement IncrementalEngine::placement() const {
  std::vector<geo::Point> centers;
  centers.reserve(active_count_);
  for (std::uint32_t id = 0; id < centers_.size(); ++id)
    if (active_[id]) centers.push_back(centers_[id]);
  return tsvlib::Placement(structure_, std::move(centers));
}

std::vector<num::SymTensor2> IncrementalEngine::total_field() const {
  std::vector<num::SymTensor2> total = stage1_;
  for (std::size_t i = 0; i < total.size(); ++i) total[i] += stage2_[i];
  return total;
}

template <typename F>
void IncrementalEngine::for_disc_points(const geo::Point& c, double radius,
                                        F&& f) const {
  const geo::Box& b = grid_.box();
  const double r2 = radius * radius;
  // Conservative index window (one extra cell each side guards the floor /
  // ceil rounding); the exact GridIndex predicate distance^2 <= radius^2
  // then decides membership, so the dirty set matches a spatial-index query
  // bit for bit.
  const auto axis_range = [radius](double lo, double step, std::size_t n,
                                   double cc) {
    long i0 = 0;
    long i1 = static_cast<long>(n) - 1;
    if (step > 0.0) {
      i0 = std::max(
          i0, static_cast<long>(std::floor((cc - radius - lo) / step)) - 1);
      i1 = std::min(
          i1, static_cast<long>(std::ceil((cc + radius - lo) / step)) + 1);
    }
    return std::pair<long, long>{i0, i1};
  };
  const auto [ix0, ix1] = axis_range(b.lo.x, grid_.dx(), grid_.nx(), c.x);
  const auto [iy0, iy1] = axis_range(b.lo.y, grid_.dy(), grid_.ny(), c.y);
  for (long iy = iy0; iy <= iy1; ++iy) {
    for (long ix = ix0; ix <= ix1; ++ix) {
      const geo::Point p = grid_.point(static_cast<std::size_t>(ix),
                                       static_cast<std::size_t>(iy));
      if (geo::distance_squared(p, c) <= r2)
        f(static_cast<std::size_t>(iy) * grid_.nx() +
              static_cast<std::size_t>(ix),
          p);
    }
  }
}

void IncrementalEngine::touch(std::size_t point_index, ApplyStats& stats) {
  if (stamp_[point_index] != epoch_) {
    stamp_[point_index] = epoch_;
    ++stats.dirty_points;
  }
}

void IncrementalEngine::gather_disc(const geo::Point& c, double radius) {
  disc_idx_.clear();
  disc_pts_.clear();
  for_disc_points(c, radius, [&](std::size_t i, const geo::Point& p) {
    disc_idx_.push_back(i);
    disc_pts_.push_back(p);
  });
  disc_contrib_.assign(disc_pts_.size(), num::SymTensor2{});
}

void IncrementalEngine::apply_stage1(const geo::Point& c, double sign,
                                     ApplyStats& stats) {
  // Batch path: gather the disc once, run the flat accumulate kernel, then
  // scatter with the edit's sign. apply() is serial, so the engine-owned
  // scratch buffers are safe to reuse across discs.
  gather_disc(c, options_.stage1.influence_radius);
  table_->accumulate(c, disc_pts_.data(), disc_pts_.size(),
                     disc_contrib_.data());
  for (std::size_t j = 0; j < disc_idx_.size(); ++j) {
    stage1_[disc_idx_[j]] += sign * disc_contrib_[j];
    touch(disc_idx_[j], stats);
  }
  stats.stage1_point_updates += disc_idx_.size();
}

void IncrementalEngine::apply_pair(const ana::PairSurrogate* surrogate,
                                   const geo::Point& victim,
                                   const geo::Point& aggressor, double sign,
                                   ApplyStats& stats) {
  // The very same per-pair call InteractiveStage::evaluate_pairs makes, so
  // the incremental sum is built from the contributions a full evaluation
  // would accumulate.
  gather_disc(victim, options_.stage2.influence_radius);
  model_->accumulate_pair(surrogate, victim, aggressor, disc_pts_.data(),
                          disc_pts_.size(), disc_contrib_.data());
  for (std::size_t j = 0; j < disc_idx_.size(); ++j) {
    stage2_[disc_idx_[j]] += sign * disc_contrib_[j];
    touch(disc_idx_[j], stats);
  }
  stats.stage2_point_updates += disc_idx_.size();
}

ApplyStats IncrementalEngine::apply(const Delta& delta) {
  const auto t0 = Clock::now();
  ApplyStats stats;
  stats.ops = delta.size();

  // --- Simulate the batch to its net effect. Ops apply sequentially, so a
  // TSV moved twice in one delta nets to a single old -> final move.
  std::vector<geo::Point> new_centers = centers_;
  std::vector<std::uint8_t> new_active = active_;
  for (const EcoOp& op : delta) {
    switch (op.kind) {
      case EcoOp::Kind::kAdd:
        new_centers.push_back(op.center);
        new_active.push_back(1);
        break;
      case EcoOp::Kind::kMove:
        TSV_REQUIRE(op.id < new_centers.size() && new_active[op.id] != 0,
                    "move of an unknown or removed TSV id");
        new_centers[op.id] = op.center;
        break;
      case EcoOp::Kind::kRemove:
        TSV_REQUIRE(op.id < new_centers.size() && new_active[op.id] != 0,
                    "remove of an unknown or removed TSV id");
        new_active[op.id] = 0;
        break;
    }
  }

  // Net departing (was active, now gone or elsewhere) and arriving slots.
  std::vector<std::uint32_t> departing;
  std::vector<std::uint32_t> arriving;
  for (std::uint32_t id = 0; id < new_centers.size(); ++id) {
    const bool was = id < centers_.size() && active_[id] != 0;
    const bool now = new_active[id] != 0;
    const bool moved = was && now && (centers_[id].x != new_centers[id].x ||
                                      centers_[id].y != new_centers[id].y);
    if (was && (!now || moved)) departing.push_back(id);
    if (now && (!was || moved)) arriving.push_back(id);
  }
  if (departing.empty() && arriving.empty()) {
    // Pure no-op batches (e.g. a move to the identical position) still
    // commit the (possibly grown) slot tables.
    centers_ = std::move(new_centers);
    active_ = std::move(new_active);
    stats.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    return stats;
  }

  // --- Validate the final placement around every arriving TSV before any
  // field is touched, so a rejected delta leaves the engine unchanged.
  std::vector<geo::Point> final_pts;
  std::vector<std::uint32_t> final_ids;
  final_pts.reserve(new_centers.size());
  for (std::uint32_t id = 0; id < new_centers.size(); ++id) {
    if (new_active[id]) {
      final_pts.push_back(new_centers[id]);
      final_ids.push_back(id);
    }
  }
  const double diameter = 2.0 * structure_.outer_radius();
  const geo::GridIndex final_index(
      final_pts, index_bounds(final_pts),
      std::max(options_.stage2.pair_pitch_cutoff / 2.0, 1.0));
  {
    std::vector<std::uint32_t> close;
    for (const std::uint32_t id : arriving) {
      final_index.query_radius(new_centers[id], diameter, close);
      for (const std::uint32_t k : close) {
        const std::uint32_t other = final_ids[k];
        TSV_REQUIRE(other == id ||
                        geo::distance(new_centers[id], new_centers[other]) >=
                            diameter,
                    "edit places two TSVs closer than the TSV diameter 2R'");
      }
    }
  }

  if (++epoch_ == 0) {  // wrapped: reset stamps so stale marks cannot match
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
  if (stamp_.size() != grid_.size()) stamp_.assign(grid_.size(), 0);

  const bool interactive = options_.enable_interactive;

  // Same certificate/coverage gate as a full evaluation, resolved once.
  const std::shared_ptr<const ana::PairSurrogate> surrogate =
      interactive ? model_->surrogate_for(options_.stage2.influence_radius)
                  : nullptr;

  // --- Subtract the departing contributions against the OLD placement.
  if (!departing.empty()) {
    std::vector<geo::Point> old_pts;
    std::vector<std::uint32_t> old_ids;
    old_pts.reserve(active_count_);
    for (std::uint32_t id = 0; id < centers_.size(); ++id) {
      if (active_[id]) {
        old_pts.push_back(centers_[id]);
        old_ids.push_back(id);
      }
    }
    const geo::GridIndex old_index(
        old_pts, index_bounds(old_pts),
        std::max(options_.stage2.pair_pitch_cutoff / 2.0, 1.0));

    std::vector<std::pair<std::uint32_t, std::uint32_t>> gone_pairs;
    if (interactive) {
      std::vector<std::uint32_t> nearby;
      for (const std::uint32_t id : departing) {
        old_index.query_radius(centers_[id],
                               options_.stage2.pair_pitch_cutoff, nearby);
        for (const std::uint32_t k : nearby) {
          const std::uint32_t partner = old_ids[k];
          if (partner == id) continue;
          gone_pairs.emplace_back(std::min(id, partner),
                                  std::max(id, partner));
        }
      }
      std::sort(gone_pairs.begin(), gone_pairs.end());
      gone_pairs.erase(std::unique(gone_pairs.begin(), gone_pairs.end()),
                       gone_pairs.end());
    }
    for (const std::uint32_t id : departing)
      apply_stage1(centers_[id], -1.0, stats);
    for (const auto& [u, v] : gone_pairs) {
      apply_pair(surrogate.get(), centers_[u], centers_[v], -1.0, stats);
      apply_pair(surrogate.get(), centers_[v], centers_[u], -1.0, stats);
      stats.removed_pairs += 2;
    }
  }

  // --- Commit the new placement.
  centers_ = std::move(new_centers);
  active_ = std::move(new_active);
  active_count_ = final_pts.size();

  // --- Add the arriving contributions against the NEW placement.
  if (!arriving.empty()) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> fresh_pairs;
    if (interactive) {
      std::vector<std::uint32_t> nearby;
      for (const std::uint32_t id : arriving) {
        final_index.query_radius(centers_[id],
                                 options_.stage2.pair_pitch_cutoff, nearby);
        for (const std::uint32_t k : nearby) {
          const std::uint32_t partner = final_ids[k];
          if (partner == id) continue;
          fresh_pairs.emplace_back(std::min(id, partner),
                                   std::max(id, partner));
        }
      }
      std::sort(fresh_pairs.begin(), fresh_pairs.end());
      fresh_pairs.erase(std::unique(fresh_pairs.begin(), fresh_pairs.end()),
                        fresh_pairs.end());
    }
    for (const std::uint32_t id : arriving)
      apply_stage1(centers_[id], +1.0, stats);
    for (const auto& [u, v] : fresh_pairs) {
      apply_pair(surrogate.get(), centers_[u], centers_[v], +1.0, stats);
      apply_pair(surrogate.get(), centers_[v], centers_[u], +1.0, stats);
      stats.added_pairs += 2;
    }
  }

  stats.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return stats;
}

std::uint32_t IncrementalEngine::add(const geo::Point& c) {
  const std::uint32_t id = static_cast<std::uint32_t>(centers_.size());
  apply({EcoOp::add(c)});
  return id;
}

void IncrementalEngine::move(std::uint32_t id, const geo::Point& c) {
  apply({EcoOp::move(id, c)});
}

void IncrementalEngine::remove(std::uint32_t id) {
  apply({EcoOp::remove(id)});
}

void IncrementalEngine::full_evaluate(
    std::vector<num::SymTensor2>& stage1,
    std::vector<num::SymTensor2>& stage2) const {
  const tsvlib::Placement current = placement();
  const std::vector<geo::Point> points = grid_.points();
  const LinearSuperposition s1(
      current, table_, with_threads(options_.stage1, options_.num_threads));
  stage1 = s1.evaluate(points);
  if (options_.enable_interactive && current.size() >= 2) {
    const InteractiveStage s2(
        current, model_, with_threads(options_.stage2, options_.num_threads));
    stage2 = s2.evaluate(points);
  } else {
    stage2.assign(points.size(), num::SymTensor2{});
  }
}

double IncrementalEngine::rebuild() {
  std::vector<num::SymTensor2> fresh1;
  std::vector<num::SymTensor2> fresh2;
  full_evaluate(fresh1, fresh2);
  double drift = 0.0;
  const auto dev = [](const num::SymTensor2& a, const num::SymTensor2& b) {
    return std::max({std::abs(a.s11 - b.s11), std::abs(a.s22 - b.s22),
                     std::abs(a.s12 - b.s12)});
  };
  for (std::size_t i = 0; i < stage1_.size(); ++i) {
    drift = std::max(drift, dev(stage1_[i], fresh1[i]));
    drift = std::max(drift, dev(stage2_[i], fresh2[i]));
  }
  stage1_ = std::move(fresh1);
  stage2_ = std::move(fresh2);
  return drift;
}

IncrementalEngine::State IncrementalEngine::state() const {
  State s;
  s.structure = structure_;
  s.grid_box = grid_.box();
  s.grid_nx = grid_.nx();
  s.grid_ny = grid_.ny();
  s.options = options_;
  s.centers = centers_;
  s.active = active_;
  s.stage1 = stage1_;
  s.stage2 = stage2_;
  return s;
}

}  // namespace tsv::core
