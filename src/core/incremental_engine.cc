#include "core/incremental_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "analytic/surrogate.h"
#include "core/error.h"
#include "geometry/grid_index.h"
#include "geometry/grid_window.h"

namespace tsv::core {
namespace {

using Clock = std::chrono::steady_clock;

geo::Box index_bounds(const std::vector<geo::Point>& points) {
  return points.empty() ? geo::Box{{0.0, 0.0}, {1.0, 1.0}}
                        : geo::Box::bounding(points);
}

/// The active slots of a placement and a GridIndex over their centers:
/// index entry k is slot ids[k].
struct ActiveIndex {
  std::vector<std::uint32_t> ids;
  geo::GridIndex index;
};

ActiveIndex index_active(const std::vector<geo::Point>& centers,
                         const std::vector<std::uint8_t>& active,
                         double pitch_cutoff) {
  std::vector<geo::Point> pts;
  std::vector<std::uint32_t> ids;
  for (std::uint32_t id = 0; id < centers.size(); ++id) {
    if (active[id]) {
      pts.push_back(centers[id]);
      ids.push_back(id);
    }
  }
  geo::GridIndex index(pts, index_bounds(pts),
                       std::max(pitch_cutoff / 2.0, 1.0));
  return {std::move(ids), std::move(index)};
}

/// The ordered pairs (victim, aggressor) of the indexed placement within
/// the pitch cutoff that involve one of `ids` (both rounds of Algorithm 1),
/// each once, sorted victim-major: the Stage II terms an edit of `ids`
/// changes.
std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs_touching(
    const std::vector<std::uint32_t>& ids,
    const std::vector<geo::Point>& centers, const ActiveIndex& placed,
    double pitch_cutoff) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  std::vector<std::uint32_t> nearby;
  for (const std::uint32_t id : ids) {
    placed.index.query_radius(centers[id], pitch_cutoff, nearby);
    for (const std::uint32_t k : nearby) {
      const std::uint32_t partner = placed.ids[k];
      if (partner == id) continue;
      pairs.emplace_back(id, partner);
      pairs.emplace_back(partner, id);
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

/// Why `options` cannot drive an engine over `table` (both constructors
/// refuse such options), or nullptr.
const char* cutoff_defect(const IncrementalOptions& o,
                          const SingleTsvField& table) {
  const auto ok = [](double v) { return std::isfinite(v) && v > 0.0; };
  if (!ok(o.stage1.influence_radius) || !ok(o.stage2.influence_radius) ||
      !ok(o.stage2.pair_pitch_cutoff))
    return "cutoffs must be finite and positive";
  return table.coverage_radius() >= o.stage1.influence_radius
             ? nullptr
             : "stress table must cover the influence radius";
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
  const char* defect = cutoff_defect(options_, *table_);
  TSV_REQUIRE(defect == nullptr, defect);
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
  if (const char* defect = cutoff_defect(options_, *table_))
    throw InvalidInputError(std::string("engine state: ") + defect);
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

void IncrementalEngine::touch(std::size_t point_index, ApplyStats& stats) {
  if (stamp_[point_index] != epoch_) {
    stamp_[point_index] = epoch_;
    ++stats.dirty_points;
  }
}

void IncrementalEngine::gather_disc(const geo::Point& c, double radius) {
  geo::GridWindow(grid_).gather_disc(c, radius, disc_idx_, disc_pts_);
  disc_contrib_.assign(disc_pts_.size(), num::SymTensor2{});
}

void IncrementalEngine::scatter_disc(std::vector<num::SymTensor2>& field,
                                     double sign, ApplyStats& stats) {
  for (std::size_t j = 0; j < disc_idx_.size(); ++j) {
    field[disc_idx_[j]] += sign * disc_contrib_[j];
    touch(disc_idx_[j], stats);
  }
}

void IncrementalEngine::apply_stage1(const geo::Point& c, double sign,
                                     ApplyStats& stats) {
  // Batch path: gather the disc once, run the flat accumulate kernel, then
  // scatter with the edit's sign. apply() is serial, so the engine-owned
  // scratch buffers are safe to reuse across discs.
  gather_disc(c, options_.stage1.influence_radius);
  table_->accumulate(c, disc_pts_.data(), disc_pts_.size(),
                     disc_contrib_.data());
  scatter_disc(stage1_, sign, stats);
  stats.stage1_point_updates += disc_idx_.size();
}

void IncrementalEngine::apply_stage2(const ana::PairSurrogate* surrogate,
                                     const std::vector<IdPair>& pairs,
                                     double sign, ApplyStats& stats) {
  // Victim runs, as in InteractiveStage::evaluate_runs: each victim's disc
  // is gathered once, all of its aggressors go through one accumulate_run
  // into the zeroed disc buffer, and the run's sum is scattered with the
  // edit's sign.
  for (std::size_t k = 0; k < pairs.size();) {
    const std::uint32_t v = pairs[k].first;
    run_aggressors_.clear();
    for (; k < pairs.size() && pairs[k].first == v; ++k)
      run_aggressors_.push_back(centers_[pairs[k].second]);
    gather_disc(centers_[v], options_.stage2.influence_radius);
    model_->accumulate_run(surrogate, centers_[v], run_aggressors_.data(),
                           run_aggressors_.size(), disc_pts_.data(),
                           disc_pts_.size(), disc_contrib_.data());
    scatter_disc(stage2_, sign, stats);
    stats.stage2_point_updates += disc_idx_.size() * run_aggressors_.size();
  }
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
  const double cutoff = options_.stage2.pair_pitch_cutoff;
  const ActiveIndex final_index = index_active(new_centers, new_active, cutoff);
  const double diameter = 2.0 * structure_.outer_radius();
  {
    std::vector<std::uint32_t> close;
    for (const std::uint32_t id : arriving) {
      final_index.index.query_radius(new_centers[id], diameter, close);
      for (const std::uint32_t k : close) {
        const std::uint32_t other = final_index.ids[k];
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
  for (const std::uint32_t id : departing)
    apply_stage1(centers_[id], -1.0, stats);
  if (interactive && !departing.empty()) {
    const std::vector<IdPair> gone = pairs_touching(
        departing, centers_, index_active(centers_, active_, cutoff), cutoff);
    apply_stage2(surrogate.get(), gone, -1.0, stats);
    stats.removed_pairs += gone.size();
  }

  // --- Commit the new placement.
  centers_ = std::move(new_centers);
  active_ = std::move(new_active);
  active_count_ = final_index.ids.size();

  // --- Add the arriving contributions against the NEW placement.
  for (const std::uint32_t id : arriving)
    apply_stage1(centers_[id], +1.0, stats);
  if (interactive && !arriving.empty()) {
    const std::vector<IdPair> fresh =
        pairs_touching(arriving, centers_, final_index, cutoff);
    apply_stage2(surrogate.get(), fresh, +1.0, stats);
    stats.added_pairs += fresh.size();
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
  const LinearSuperposition s1(current, table_, options_.stage1,
                               options_.num_threads);
  stage1 = s1.evaluate(points);
  if (options_.enable_interactive && current.size() >= 2) {
    const InteractiveStage s2(current, model_, options_.stage2,
                              options_.num_threads);
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
