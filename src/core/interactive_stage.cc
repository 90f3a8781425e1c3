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

/// Distance from a point to a closed axis-aligned box (0 inside).
double distance_to_box(const geo::Point& p, const geo::Box& box) {
  const double dx = std::max({box.lo.x - p.x, 0.0, p.x - box.hi.x});
  const double dy = std::max({box.lo.y - p.y, 0.0, p.y - box.hi.y});
  return std::hypot(dx, dy);
}

}  // namespace

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

std::vector<std::pair<std::uint32_t, std::uint32_t>>
InteractiveStage::ordered_pairs() const {
  std::vector<std::uint32_t> victims(placement_.size());
  for (std::uint32_t v = 0; v < victims.size(); ++v) victims[v] = v;
  return pairs_of(victims);
}

std::size_t InteractiveStage::pair_count() const {
  std::vector<std::uint32_t> victims(placement_.size());
  for (std::uint32_t v = 0; v < victims.size(); ++v) victims[v] = v;
  std::size_t count = 0;
  pairs_of(victims, &count);
  return count;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>>
InteractiveStage::ordered_pairs_near(const geo::Box& region) const {
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
    if (distance_to_box(centers[v], region) <= reach) victims.push_back(v);
  return pairs_of(victims);
}

std::vector<std::pair<std::uint32_t, std::uint32_t>>
InteractiveStage::pairs_of(const std::vector<std::uint32_t>& victims,
                           std::size_t* count) const {
  const auto& centers = placement_.centers();
  // Two parallel passes over the victims: count each victim's pairs, then
  // write them at their prefix-sum offsets. The list is built in place, at
  // its final size, with no per-thread copies.
  std::vector<std::size_t> offsets(victims.size() + 1, 0);
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
  each_victim([&](std::size_t i, const std::vector<std::uint32_t>& nearby) {
    offsets[i + 1] = nearby.size() - 1;  // every victim finds itself
  });
  for (std::size_t i = 0; i < victims.size(); ++i) offsets[i + 1] += offsets[i];
  if (count != nullptr) {
    *count = offsets.back();
    return {};
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs(offsets.back());
  each_victim([&](std::size_t i, const std::vector<std::uint32_t>& nearby) {
    std::size_t at = offsets[i];
    for (const std::uint32_t a : nearby)
      if (a != victims[i]) pairs[at++] = {victims[i], a};
  });
  return pairs;
}

std::vector<num::SymTensor2> InteractiveStage::evaluate(
    const std::vector<geo::Point>& points) const {
  return evaluate_with_pairs(points, ordered_pairs());
}

std::vector<num::SymTensor2> InteractiveStage::evaluate_with_pairs(
    const std::vector<geo::Point>& points,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs) const {
  if (placement_.size() < 2 || points.empty())
    return std::vector<num::SymTensor2>(points.size());
  // The hull is inclusive on every edge, so points exactly on the boundary
  // stay indexed.
  const geo::GridIndex index(points, geo::Box::bounding(points),
                             std::max(options_.influence_radius / 2.0, 1.0));
  return evaluate_pairs(
      points.size(), pairs,
      [&](const geo::Point& victim, std::vector<std::uint32_t>& affected,
          std::vector<geo::Point>& gathered) {
        index.query_radius(victim, options_.influence_radius, affected);
        gathered.resize(affected.size());
        for (std::size_t j = 0; j < affected.size(); ++j)
          gathered[j] = points[affected[j]];
      });
}

std::vector<num::SymTensor2> InteractiveStage::evaluate_with_pairs(
    const geo::GridWindow& window,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs) const {
  TSV_REQUIRE(window.size() <= UINT32_MAX,
              "grid window too large for 32-bit point indices");
  return evaluate_pairs(
      window.size(), pairs,
      [&](const geo::Point& victim, std::vector<std::uint32_t>& affected,
          std::vector<geo::Point>& gathered) {
        window.gather_disc(victim, options_.influence_radius, affected,
                           gathered);
      });
}

template <typename GatherDisc>
std::vector<num::SymTensor2> InteractiveStage::evaluate_pairs(
    std::size_t num_points,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs,
    GatherDisc&& gather) const {
  const auto& centers = placement_.centers();
  // The certificate/coverage gate is resolved once per evaluate; the
  // per-pair pitch gate lives in accumulate_run.
  const std::shared_ptr<const ana::PairSurrogate> surrogate =
      model_->surrogate_for(options_.influence_radius);
  // Run-parallel: the pair list splits into victim runs (maximal stretches
  // of consecutive pairs with one victim), and every chunk of runs
  // accumulates into its own private buffer (writing `out[n] +=` across
  // chunks would race). A run costs about the same whatever its length, so
  // chunks of equal run counts balance where chunks of equal pair counts
  // would not. With one chunk (num_threads == 1, or a call from inside a
  // pool worker) this is the exact serial pair loop.
  std::vector<std::size_t> run_starts;
  for (std::size_t k = 0; k < pairs.size(); ++k)
    if (k == 0 || pairs[k].first != pairs[k - 1].first) run_starts.push_back(k);
  const std::size_t runs = run_starts.size();
  run_starts.push_back(pairs.size());
  const std::size_t max_chunks = std::max<std::size_t>(
      1, std::min(num::resolve_thread_count(num_threads_), runs));
  std::vector<std::vector<num::SymTensor2>> parts(max_chunks);
  num::parallel_for_chunks(
      runs, num_threads_,
      [&](std::size_t first_run, std::size_t last_run, std::size_t chunk) {
        const std::size_t begin = run_starts[first_run];
        const std::size_t end = run_starts[last_run];
        std::vector<num::SymTensor2>& out = parts[chunk];
        out.assign(num_points, num::SymTensor2{});
        // Chunk-local gather/scatter buffers keep their steady-state
        // capacity across victims.
        std::vector<std::uint32_t> affected;
        std::vector<geo::Point> gathered;
        std::vector<geo::Point> aggressors;
        std::vector<num::SymTensor2> contrib;
        // Every aggressor of a victim reads the same disc, so a run of
        // consecutive pairs with one victim shares a single gather,
        // accumulate_run and scatter.
        for (std::size_t k = begin; k < end;) {
          const std::uint32_t v = pairs[k].first;
          const geo::Point& victim = centers[v];
          gather(victim, affected, gathered);
          const std::size_t m = affected.size();
          aggressors.clear();
          for (; k < end && pairs[k].first == v; ++k)
            aggressors.push_back(centers[pairs[k].second]);
          contrib.assign(m, num::SymTensor2{});
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
