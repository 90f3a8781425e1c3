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

/// FNV-1a over the raw coordinate bytes. One pass over the points is far
/// cheaper than rebuilding the GridIndex (counting sort + allocations), and
/// a 64-bit digest plus the size check makes accidental collisions across
/// sweep iterations vanishingly unlikely.
std::uint64_t fingerprint_points(const std::vector<geo::Point>& points) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffull;
      h *= 1099511628211ull;
    }
  };
  for (const geo::Point& p : points) {
    mix(p.x);
    mix(p.y);
  }
  return h;
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
    const InteractiveOptions& options)
    : placement_(placement),
      model_(std::move(model)),
      options_(options),
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
  const auto& centers = placement_.centers();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  std::vector<std::uint32_t> nearby;
  for (std::uint32_t v = 0; v < centers.size(); ++v) {
    tsv_index_.query_radius(centers[v], options_.pair_pitch_cutoff, nearby);
    for (const std::uint32_t a : nearby) {
      if (a != v) pairs.emplace_back(v, a);
    }
  }
  return pairs;
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
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  std::vector<std::uint32_t> nearby;
  for (const std::uint32_t v : candidates) {
    if (distance_to_box(centers[v], region) > reach) continue;
    tsv_index_.query_radius(centers[v], options_.pair_pitch_cutoff, nearby);
    for (const std::uint32_t a : nearby) {
      if (a != v) pairs.emplace_back(v, a);
    }
  }
  return pairs;
}

std::shared_ptr<const geo::GridIndex> InteractiveStage::point_index_for(
    const std::vector<geo::Point>& points) const {
  const std::uint64_t fp = fingerprint_points(points);
  {
    const std::lock_guard<std::mutex> lock(point_cache_mutex_);
    if (point_index_cache_ != nullptr &&
        point_index_cache_->size() == points.size() &&
        point_cache_fingerprint_ == fp) {
      return point_index_cache_;
    }
  }
  // The hull is inclusive on every edge, so points exactly on the boundary
  // stay indexed.
  auto index = std::make_shared<const geo::GridIndex>(
      points, geo::Box::bounding(points),
      std::max(options_.influence_radius / 2.0, 1.0));
  const std::lock_guard<std::mutex> lock(point_cache_mutex_);
  point_cache_fingerprint_ = fp;
  point_index_cache_ = index;
  return index;
}

std::vector<num::SymTensor2> InteractiveStage::evaluate(
    const std::vector<geo::Point>& points) const {
  if (placement_.size() < 2 || points.empty())
    return std::vector<num::SymTensor2>(points.size());
  const std::shared_ptr<const geo::GridIndex> index = point_index_for(points);
  return evaluate_pairs(points, ordered_pairs(), *index);
}

std::vector<num::SymTensor2> InteractiveStage::evaluate(
    const std::vector<geo::Point>& points, const geo::Box& bounds) const {
  if (placement_.size() < 2 || points.empty())
    return std::vector<num::SymTensor2>(points.size());
  return evaluate_with_pairs(points, ordered_pairs_near(bounds));
}

std::vector<num::SymTensor2> InteractiveStage::evaluate_with_pairs(
    const std::vector<geo::Point>& points,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs) const {
  if (placement_.size() < 2 || points.empty())
    return std::vector<num::SymTensor2>(points.size());
  const geo::GridIndex index(points, geo::Box::bounding(points),
                             std::max(options_.influence_radius / 2.0, 1.0));
  return evaluate_pairs(points, pairs, index);
}

std::vector<num::SymTensor2> InteractiveStage::evaluate_pairs(
    const std::vector<geo::Point>& points,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs,
    const geo::GridIndex& point_index) const {
  const auto& centers = placement_.centers();
  // The certificate/coverage gate is resolved once per evaluate; the
  // per-pair pitch gate lives in accumulate_pair.
  const std::shared_ptr<const ana::PairSurrogate> surrogate =
      model_->surrogate_for(options_.influence_radius);
  // Pair-parallel: every chunk of pairs accumulates into its own private
  // buffer (writing `out[n] +=` across chunks would race), and the partial
  // fields merge in chunk index order afterwards. With num_threads == 1
  // this degenerates to the exact serial pair loop.
  return num::parallel_reduce<std::vector<num::SymTensor2>>(
      pairs.size(), options_.num_threads,
      [&] { return std::vector<num::SymTensor2>(points.size()); },
      [&](std::vector<num::SymTensor2>& out, std::size_t begin,
          std::size_t end) {
        // Chunk-local gather/scatter buffers keep their steady-state
        // capacity across pairs.
        std::vector<std::uint32_t> affected;
        std::vector<geo::Point> gathered;
        std::vector<num::SymTensor2> contrib;
        for (std::size_t k = begin; k < end; ++k) {
          const auto [v, a] = pairs[k];
          const geo::Point& victim = centers[v];
          point_index.query_radius(victim, options_.influence_radius,
                                   affected);
          const std::size_t m = affected.size();
          gathered.resize(m);
          for (std::size_t j = 0; j < m; ++j)
            gathered[j] = points[affected[j]];
          contrib.assign(m, num::SymTensor2{});
          model_->accumulate_pair(surrogate.get(), victim, centers[a],
                                  gathered.data(), m, contrib.data());
          for (std::size_t j = 0; j < m; ++j) out[affected[j]] += contrib[j];
        }
      },
      [](std::vector<num::SymTensor2>& total,
         const std::vector<num::SymTensor2>& part) {
        for (std::size_t n = 0; n < total.size(); ++n) total[n] += part[n];
      });
}

}  // namespace tsv::core
