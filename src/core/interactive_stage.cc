#include "core/interactive_stage.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <tuple>

#include "analytic/surrogate.h"
#include "numeric/kernels.h"
#include "numeric/parallel.h"

namespace tsv::core {
namespace {

geo::Box index_bounds(const tsvlib::Placement& p) {
  return p.empty() ? geo::Box{{0.0, 0.0}, {1.0, 1.0}} : p.bounding_box();
}

/// Squared distance from a point to a closed axis-aligned box (0 inside).
/// A point of the box is no closer to p, and rounding is monotone, so this
/// never exceeds the squared distance the disc walks compute to any point of
/// the box.
double distance_squared_to_box(const geo::Point& p, const geo::Box& box) {
  const double dx = std::max({box.lo.x - p.x, 0.0, p.x - box.hi.x});
  const double dy = std::max({box.lo.y - p.y, 0.0, p.y - box.hi.y});
  return dx * dx + dy * dy;
}

std::vector<std::uint32_t> all_tsvs(std::size_t n) {
  std::vector<std::uint32_t> ids(n);
  for (std::uint32_t v = 0; v < ids.size(); ++v) ids[v] = v;
  return ids;
}

/// The runs of one evaluate bucketed into victim cells, in the order
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

/// Claim order: colour by colour, and within a colour the cells with the
/// most runs first, so the last ones claimed are short (ties by position).
/// The victims that reach one point lie in a 2 x 2 block of cells, one of
/// each colour, all neighbours of each other. So a cell waits only for its
/// (up to eight) neighbours of earlier colours, which come earlier in claim
/// order, and not for a whole colour: each point still sums colour by
/// colour, and no two cells in flight share a point. Runs with no aggressor
/// are left out unless `keep_empty`.
CellSchedule schedule_cells(const VictimCells& grid,
                            const std::vector<geo::Point>& centers,
                            const VictimRuns& runs, bool keep_empty) {
  struct Slot {
    VictimCells::Cell at;
    std::size_t run;
    auto key() const { return std::tie(at.y, at.x, run); }
  };
  std::vector<Slot> slots;
  for (std::size_t i = 0; i < runs.victims.size(); ++i)
    if (keep_empty || runs.offsets[i + 1] > runs.offsets[i])
      slots.push_back({grid.cell(centers[runs.victims[i]]), i});
  std::sort(slots.begin(), slots.end(),
            [](const Slot& a, const Slot& b) { return a.key() < b.key(); });

  // Cells as stretches of `slots`, first in position order.
  struct Cell {
    VictimCells::Cell at;
    std::size_t begin, end;
    auto position() const { return std::tie(at.y, at.x); }
  };
  std::vector<Cell> by_position;
  for (std::size_t k = 0; k < slots.size(); ++k) {
    if (k == 0 || slots[k].at.y != slots[k - 1].at.y ||
        slots[k].at.x != slots[k - 1].at.x)
      by_position.push_back({slots[k].at, k, k});
    ++by_position.back().end;
  }
  std::vector<std::size_t> claim(by_position.size());
  for (std::size_t k = 0; k < claim.size(); ++k) claim[k] = k;
  std::sort(claim.begin(), claim.end(), [&](std::size_t a, std::size_t b) {
    const Cell& p = by_position[a];
    const Cell& q = by_position[b];
    return std::make_tuple(p.at.colour(), q.end - q.begin, a) <
           std::make_tuple(q.at.colour(), p.end - p.begin, b);
  });
  std::vector<std::size_t> rank(claim.size());
  for (std::size_t k = 0; k < claim.size(); ++k) rank[claim[k]] = k;

  CellSchedule schedule;
  schedule.runs.reserve(slots.size());
  for (const std::size_t c : claim) {
    const Cell& cell = by_position[c];
    for (std::size_t k = cell.begin; k < cell.end; ++k)
      schedule.runs.push_back(slots[k].run);
    schedule.cell_offsets.push_back(schedule.runs.size());
    for (std::int64_t dy = -1; dy <= 1; ++dy)
      for (std::int64_t dx = -1; dx <= 1; ++dx) {
        const Cell want{{cell.at.x + dx, cell.at.y + dy}, 0, 0};
        const auto it = std::lower_bound(
            by_position.begin(), by_position.end(), want,
            [](const Cell& a, const Cell& b) {
              return a.position() < b.position();
            });
        if (it != by_position.end() && it->position() == want.position() &&
            it->at.colour() < cell.at.colour())
          schedule.waits.push_back(rank[it - by_position.begin()]);
      }
    schedule.wait_offsets.push_back(schedule.waits.size());
  }
  return schedule;
}

}  // namespace

VictimCells::VictimCells(const geo::Box& hull, double influence_radius)
    : origin(hull.lo),
      side(std::ldexp(std::max(hull.width(), hull.height()), -40) +
           2.0 * influence_radius * (1.0 + std::ldexp(1.0, -20))) {
  TSV_REQUIRE(std::isfinite(side) && side > 0.0,
              "victim cells need a finite hull and a positive radius");
}

VictimCells::Cell VictimCells::cell(const geo::Point& p) const {
  return {static_cast<std::int64_t>(std::floor((p.x - origin.x) / side)),
          static_cast<std::int64_t>(std::floor((p.y - origin.y) / side))};
}

PairList VictimRuns::pairs() const {
  PairList out;
  out.reserve(pair_count());
  for (std::size_t i = 0; i < victims.size(); ++i)
    for (std::size_t k = offsets[i]; k < offsets[i + 1]; ++k)
      out.emplace_back(victims[i], aggressors[k]);
  return out;
}

VictimRuns VictimRuns::from_pairs(const PairList& pairs) {
  VictimRuns runs;
  runs.aggressors.reserve(pairs.size());
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    if (k == 0 || pairs[k].first != pairs[k - 1].first) {
      if (k > 0) runs.offsets.push_back(k);
      runs.victims.push_back(pairs[k].first);
    }
    runs.aggressors.push_back(pairs[k].second);
  }
  if (!pairs.empty()) runs.offsets.push_back(pairs.size());
  return runs;
}

InteractiveStage::InteractiveStage(
    const tsvlib::Placement& placement,
    std::shared_ptr<const ana::InteractiveStressModel> model,
    double influence_radius, double pair_pitch_cutoff,
    std::size_t num_threads)
    : placement_(placement),
      model_(std::move(model)),
      influence_radius_(influence_radius),
      pair_pitch_cutoff_(pair_pitch_cutoff),
      num_threads_(num_threads),
      tsv_index_(placement.centers(), index_bounds(placement),
                 std::max(pair_pitch_cutoff / 2.0, 1.0)),
      cells_(index_bounds(placement), influence_radius) {
  TSV_REQUIRE(model_ != nullptr, "null interactive model");
  TSV_REQUIRE(pair_pitch_cutoff_ > 0.0 && influence_radius_ > 0.0,
              "cutoffs must be positive");
}

num::SymTensor2 InteractiveStage::stress_at(const geo::Point& p) const {
  const auto& centers = placement_.centers();
  num::KernelScratch& scratch = num::tls_kernel_scratch();
  std::vector<std::uint32_t>& victims = scratch.idx;
  std::vector<std::uint32_t>& aggressors = scratch.idx2;
  tsv_index_.query_radius(p, influence_radius_, victims);
  num::SymTensor2 sum;
  for (const std::uint32_t v : victims) {
    tsv_index_.query_radius(centers[v], pair_pitch_cutoff_,
                            aggressors);
    for (const std::uint32_t a : aggressors) {
      if (a == v) continue;
      sum += model_->stress_at(centers[v], centers[a], p);
    }
  }
  return sum;
}

VictimRuns InteractiveStage::victim_runs() const {
  return runs_of(all_tsvs(placement_.size()));
}

std::size_t InteractiveStage::pair_count() const {
  std::size_t count = 0;
  runs_of(all_tsvs(placement_.size()), &count);
  return count;
}

VictimRuns InteractiveStage::victim_runs_near(const geo::Box& region) const {
  const auto& centers = placement_.centers();
  // Over-query a disc covering the region plus the influence halo, then
  // keep the victims whose true box distance is within the radius.
  const double reach = influence_radius_;
  const double half_diag =
      std::hypot(region.width(), region.height()) / 2.0;
  std::vector<std::uint32_t> candidates;
  tsv_index_.query_radius(region.center(), half_diag + reach, candidates);
  std::vector<std::uint32_t> victims;
  for (const std::uint32_t v : candidates)
    if (distance_squared_to_box(centers[v], region) <= reach * reach)
      victims.push_back(v);
  return runs_of(std::move(victims));
}

VictimRuns InteractiveStage::runs_of(std::vector<std::uint32_t> victims,
                                     std::size_t* count) const {
  const auto& centers = placement_.centers();
  // Two parallel passes over the victims: count each victim's aggressors,
  // then write them at their prefix-sum offsets. The runs are built in
  // place, at their final size, with no per-thread copies.
  VictimRuns runs;
  runs.offsets.assign(victims.size() + 1, 0);
  const auto each_victim = [&](auto&& visit) {
    num::parallel_for_chunks(
        victims.size(), num_threads_,
        [&](std::size_t begin, std::size_t end, std::size_t) {
          std::vector<std::uint32_t> nearby;
          for (std::size_t i = begin; i < end; ++i) {
            tsv_index_.query_radius(centers[victims[i]],
                                    pair_pitch_cutoff_, nearby);
            visit(i, nearby);
          }
        });
  };
  std::vector<std::size_t>& offsets = runs.offsets;
  each_victim([&](std::size_t i, const std::vector<std::uint32_t>& nearby) {
    offsets[i + 1] = nearby.size() - 1;  // every victim finds itself
  });
  for (std::size_t i = 0; i < victims.size(); ++i) offsets[i + 1] += offsets[i];
  if (count != nullptr) {
    *count = offsets.back();
    return {};
  }
  runs.aggressors.resize(offsets.back());
  each_victim([&](std::size_t i, const std::vector<std::uint32_t>& nearby) {
    std::size_t at = offsets[i];
    for (const std::uint32_t a : nearby)
      if (a != victims[i]) runs.aggressors[at++] = a;
  });
  runs.victims = std::move(victims);
  return runs;
}

std::vector<num::SymTensor2> InteractiveStage::evaluate(
    const std::vector<geo::Point>& points) const {
  return evaluate_runs(points, victim_runs());
}

std::vector<num::SymTensor2> InteractiveStage::evaluate_runs(
    const std::vector<geo::Point>& points, const VictimRuns& runs) const {
  if (placement_.size() < 2 || points.empty())
    return std::vector<num::SymTensor2>(points.size());
  // The hull is inclusive on every edge, so points exactly on the boundary
  // stay indexed.
  const geo::GridIndex index(points, geo::Box::bounding(points),
                             std::max(influence_radius_ / 2.0, 1.0));
  return evaluate_runs(
      points.size(), runs, nullptr,
      [&](const geo::Point& victim, std::vector<std::uint32_t>& affected,
          std::vector<geo::Point>& gathered) {
        index.query_radius(victim, influence_radius_, affected);
        gathered.resize(affected.size());
        for (std::size_t j = 0; j < affected.size(); ++j)
          gathered[j] = points[affected[j]];
      });
}

std::vector<num::SymTensor2> InteractiveStage::evaluate_runs(
    const geo::GridWindow& window, const VictimRuns& runs,
    const SingleTsvField* stage1) const {
  TSV_REQUIRE(window.size() <= UINT32_MAX,
              "grid window too large for 32-bit point indices");
  return evaluate_runs(
      window.size(), runs, stage1,
      [&](const geo::Point& victim, std::vector<std::uint32_t>& affected,
          std::vector<geo::Point>& gathered) {
        window.gather_disc(victim, influence_radius_, affected,
                           gathered);
      });
}

template <typename GatherDisc>
std::vector<num::SymTensor2> InteractiveStage::evaluate_runs(
    std::size_t num_points, const VictimRuns& runs,
    const SingleTsvField* stage1, GatherDisc&& gather) const {
  const auto& centers = placement_.centers();
  // The certificate/coverage gate is resolved once per evaluate; the
  // per-pair pitch gate lives in accumulate_run.
  const std::shared_ptr<const ana::PairSurrogate> surrogate =
      model_->surrogate_for(influence_radius_);

  const CellSchedule schedule =
      schedule_cells(cells_, centers, runs, stage1 != nullptr);
  std::vector<std::atomic<bool>> done(schedule.cells());
  for (std::atomic<bool>& d : done) d.store(false, std::memory_order_relaxed);

  // Worker-local gather/scatter buffers keep their steady-state capacity
  // across victims.
  struct Scratch {
    std::vector<std::uint32_t> affected;
    std::vector<geo::Point> gathered;
    std::vector<geo::Point> aggressors;
    std::vector<num::SymTensor2> contrib;
  };
  std::vector<Scratch> scratch(num::resolve_thread_count(num_threads_));
  std::vector<num::SymTensor2> out(num_points);
  // Every aggressor of a victim, and the victim's own Stage I field, read
  // the same disc: one gather, one buffer, one scatter per run. The cells
  // in flight touch disjoint points of `out`.
  const auto run_cell = [&](std::size_t cell, Scratch& w) {
    for (std::size_t k = schedule.cell_offsets[cell];
         k < schedule.cell_offsets[cell + 1]; ++k) {
      const std::size_t i = schedule.runs[k];
      const geo::Point& victim = centers[runs.victims[i]];
      gather(victim, w.affected, w.gathered);
      const std::size_t m = w.affected.size();
      w.aggressors.clear();
      for (std::size_t a = runs.offsets[i]; a < runs.offsets[i + 1]; ++a)
        w.aggressors.push_back(centers[runs.aggressors[a]]);
      w.contrib.assign(m, num::SymTensor2{});
      if (stage1 != nullptr)
        stage1->accumulate(victim, w.gathered.data(), m, w.contrib.data());
      if (!w.aggressors.empty())
        model_->accumulate_run(surrogate.get(), victim, w.aggressors.data(),
                               w.aggressors.size(), w.gathered.data(), m,
                               w.contrib.data());
      for (std::size_t j = 0; j < m; ++j) out[w.affected[j]] += w.contrib[j];
    }
  };
  num::parallel_for_dynamic(
      schedule.cells(), num_threads_,
      [&](std::size_t cell, std::size_t worker) {
        for (std::size_t k = schedule.wait_offsets[cell];
             k < schedule.wait_offsets[cell + 1]; ++k)
          while (!done[schedule.waits[k]].load(std::memory_order_acquire))
            std::this_thread::yield();
        // Marked done even when the cell throws, so no worker waits on it
        // forever; the exception still reaches the caller.
        struct MarkDone {
          std::atomic<bool>& flag;
          ~MarkDone() { flag.store(true, std::memory_order_release); }
        } mark{done[cell]};
        run_cell(cell, scratch[worker]);
      });
  return out;
}

}  // namespace tsv::core
