#include "core/interactive_stage.h"

#include <algorithm>

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

}  // namespace

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
    const InteractiveOptions& options, std::size_t num_threads)
    : placement_(placement),
      model_(std::move(model)),
      options_(options),
      num_threads_(num_threads),
      tsv_index_(placement.centers(), index_bounds(placement),
                 std::max(options.pair_pitch_cutoff / 2.0, 1.0)) {
  TSV_REQUIRE(model_ != nullptr, "null interactive model");
  TSV_REQUIRE(options_.pair_pitch_cutoff > 0.0 &&
                  options_.influence_radius > 0.0,
              "cutoffs must be positive");
}

num::SymTensor2 InteractiveStage::stress_at(const geo::Point& p) const {
  const auto& centers = placement_.centers();
  num::KernelScratch& scratch = num::tls_kernel_scratch();
  std::vector<std::uint32_t>& victims = scratch.idx;
  std::vector<std::uint32_t>& aggressors = scratch.idx2;
  tsv_index_.query_radius(p, options_.influence_radius, victims);
  num::SymTensor2 sum;
  for (const std::uint32_t v : victims) {
    tsv_index_.query_radius(centers[v], options_.pair_pitch_cutoff,
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
  const double reach = options_.influence_radius;
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

PairList InteractiveStage::ordered_pairs() const {
  return victim_runs().pairs();
}

PairList InteractiveStage::ordered_pairs_near(const geo::Box& region) const {
  return victim_runs_near(region).pairs();
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
                                    options_.pair_pitch_cutoff, nearby);
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

std::vector<num::SymTensor2> InteractiveStage::evaluate_with_pairs(
    const std::vector<geo::Point>& points, const PairList& pairs) const {
  return evaluate_runs(points, VictimRuns::from_pairs(pairs));
}

std::vector<num::SymTensor2> InteractiveStage::evaluate_with_pairs(
    const geo::GridWindow& window, const PairList& pairs) const {
  return evaluate_runs(window, VictimRuns::from_pairs(pairs));
}

std::vector<num::SymTensor2> InteractiveStage::evaluate_runs(
    const std::vector<geo::Point>& points, const VictimRuns& runs) const {
  if (placement_.size() < 2 || points.empty())
    return std::vector<num::SymTensor2>(points.size());
  // The hull is inclusive on every edge, so points exactly on the boundary
  // stay indexed.
  const geo::GridIndex index(points, geo::Box::bounding(points),
                             std::max(options_.influence_radius / 2.0, 1.0));
  return evaluate_runs(
      points.size(), runs, nullptr,
      [&](const geo::Point& victim, std::vector<std::uint32_t>& affected,
          std::vector<geo::Point>& gathered) {
        index.query_radius(victim, options_.influence_radius, affected);
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
        window.gather_disc(victim, options_.influence_radius, affected,
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
      model_->surrogate_for(options_.influence_radius);
  // Run-parallel: every chunk of runs accumulates into its own private
  // buffer (writing `out[n] +=` across chunks would race). A run costs
  // about the same whatever its length, so chunks of equal run counts
  // balance where chunks of equal pair counts would not. With one chunk
  // (num_threads == 1, or a call from inside a pool worker) this is the
  // exact serial run loop.
  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < runs.victims.size(); ++i)
    if (stage1 != nullptr || runs.offsets[i + 1] > runs.offsets[i])
      todo.push_back(i);
  const std::size_t max_chunks = std::max<std::size_t>(
      1, std::min(num::resolve_thread_count(num_threads_), todo.size()));
  std::vector<std::vector<num::SymTensor2>> parts(max_chunks);
  num::parallel_for_chunks(
      todo.size(), num_threads_,
      [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        std::vector<num::SymTensor2>& out = parts[chunk];
        out.assign(num_points, num::SymTensor2{});
        // Chunk-local gather/scatter buffers keep their steady-state
        // capacity across victims.
        std::vector<std::uint32_t> affected;
        std::vector<geo::Point> gathered;
        std::vector<geo::Point> aggressors;
        std::vector<num::SymTensor2> contrib;
        // Every aggressor of a victim, and the victim's own Stage I field,
        // read the same disc: one gather, one buffer, one scatter per run.
        for (std::size_t r = begin; r < end; ++r) {
          const std::size_t i = todo[r];
          const geo::Point& victim = centers[runs.victims[i]];
          gather(victim, affected, gathered);
          const std::size_t m = affected.size();
          aggressors.clear();
          for (std::size_t k = runs.offsets[i]; k < runs.offsets[i + 1]; ++k)
            aggressors.push_back(centers[runs.aggressors[k]]);
          contrib.assign(m, num::SymTensor2{});
          if (stage1 != nullptr)
            stage1->accumulate(victim, gathered.data(), m, contrib.data());
          if (!aggressors.empty())
            model_->accumulate_run(surrogate.get(), victim, aggressors.data(),
                                   aggressors.size(), gathered.data(), m,
                                   contrib.data());
          for (std::size_t j = 0; j < m; ++j) out[affected[j]] += contrib[j];
        }
      });
  // Merge the chunk partials point-parallel. Each point still sums its
  // partials in chunk index order, so the result does not depend on how the
  // points are split.
  std::size_t used = 0;
  while (used < parts.size() && !parts[used].empty()) ++used;
  if (used == 0) return std::vector<num::SymTensor2>(num_points);
  std::vector<num::SymTensor2> total = std::move(parts[0]);
  if (used > 1) {
    num::parallel_for_chunks(
        total.size(), num_threads_,
        [&](std::size_t begin, std::size_t end, std::size_t) {
          for (std::size_t c = 1; c < used; ++c) {
            const std::vector<num::SymTensor2>& part = parts[c];
            for (std::size_t n = begin; n < end; ++n) total[n] += part[n];
          }
        });
  }
  return total;
}

}  // namespace tsv::core
