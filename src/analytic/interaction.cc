#include "analytic/interaction.h"

#include <cmath>
#include <cstdio>

#include "analytic/surrogate.h"

namespace tsv::ana {

InteractiveStressModel::InteractiveStressModel(
    std::shared_ptr<const InclusionResponse> response, double k_hat)
    : response_(std::move(response)), k_hat_(k_hat) {
  TSV_REQUIRE(response_ != nullptr, "null inclusion response");
  outer_radius_ = response_->structure().outer_radius();
}

const RegionField& InteractiveStressModel::combined_for_pitch(
    double pitch) const {
  TSV_REQUIRE(pitch > 2.0 * outer_radius_ * 0.999,
              "pair pitch must exceed the TSV diameter");
  // Quantize to 1e-6 um to make cache keys robust against fp noise.
  const long long key = std::llround(pitch * 1e6);
  {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    if (const auto it = cache_.find(key); it != cache_.end())
      return it->second;
  }

  // Built outside the lock: concurrent callers may race to build the same
  // pitch, but only the first emplace lands and the losers are discarded.
  const double d_hat = pitch / outer_radius_;
  RegionField combined;
  for (int n = 0; n <= response_->max_basis_power(); ++n) {
    // psi_applied(z) = khat / (z - dhat) = sum_n beta_n z^n on |z| < dhat.
    const double beta = -k_hat_ / std::pow(d_hat, n + 1);
    const RegionField& basis = response_->response_to_psi(n);
    combined.core.accumulate(basis.core, beta);
    combined.liner.accumulate(basis.liner, beta);
    combined.substrate.accumulate(basis.substrate, beta);
  }
  // The combined series decay fast (each term carries (1/d_hat)^n); trimming
  // the negligible tail roughly halves per-point evaluation cost with a
  // sub-1e-8 relative field change.
  combined.core.trim(1e-9);
  combined.liner.trim(1e-9);
  combined.substrate.trim(1e-9);
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  return cache_.emplace(key, std::move(combined)).first->second;
}

void InteractiveStressModel::attach_surrogate(
    std::shared_ptr<const PairSurrogate> surrogate) const {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  surrogate_ = std::move(surrogate);
  has_surrogate_.store(surrogate_ != nullptr, std::memory_order_relaxed);
}

std::shared_ptr<const PairSurrogate> InteractiveStressModel::surrogate()
    const {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  return surrogate_;
}

std::shared_ptr<const PairSurrogate> InteractiveStressModel::surrogate_for(
    double r_needed) const {
  std::shared_ptr<const PairSurrogate> s = surrogate();
  if (s == nullptr) return nullptr;
  if (!s->certificate().certified_within(kSurrogateTolerance)) return nullptr;
  if (s->r_max() < r_needed) return nullptr;
  return s;
}

void InteractiveStressModel::accumulate_run(
    const PairSurrogate* surrogate, const geo::Point& victim,
    const geo::Point* aggressors, std::size_t count, const geo::Point* points,
    std::size_t n, num::SymTensor2* out) const {
  if (surrogate == nullptr) {
    if (count > 0 && has_surrogate_.load(std::memory_order_relaxed))
      note_rejected_surrogate(count);
    for (std::size_t k = 0; k < count; ++k)
      accumulate_series(victim, aggressors[k], points, n, out);
    return;
  }
  // Maximal covered stretches run on the surrogate, each followed by the
  // out-of-domain pair that ended it on the series, so `out` sees the
  // pairs in aggressor order.
  std::uint64_t fallbacks = 0;
  for (std::size_t k = 0; k < count;) {
    std::size_t end = k;
    while (end < count &&
           surrogate->covers(geo::distance(victim, aggressors[end])))
      ++end;
    surrogate->accumulate_run(victim, aggressors + k, end - k, points, n,
                              out);
    if (end < count) {
      accumulate_series(victim, aggressors[end], points, n, out);
      ++fallbacks;
      ++end;
    }
    k = end;
  }
  surrogate->record_use(count - fallbacks, fallbacks);
}

void InteractiveStressModel::note_rejected_surrogate(
    std::uint64_t pairs) const {
  rejected_surrogate_pairs_.fetch_add(pairs, std::memory_order_relaxed);
  if (rejection_reported_.exchange(true, std::memory_order_relaxed)) return;
  const std::shared_ptr<const PairSurrogate> s = surrogate();
  if (s == nullptr) return;  // detached meanwhile
  std::fprintf(stderr,
               "warning: the attached Stage II surrogate is not used "
               "(certified bound %.3g, tolerance %.3g; fitted radius %.4g "
               "um): its pairs take the exact series\n",
               s->certificate().certified_rel_bound, kSurrogateTolerance,
               s->r_max());
}

void InteractiveStressModel::accumulate_series(const geo::Point& victim,
                                               const geo::Point& aggressor,
                                               const geo::Point* points,
                                               std::size_t n,
                                               num::SymTensor2* out) const {
  const double pitch = geo::distance(victim, aggressor);
  const RegionField& combined = combined_for_pitch(pitch);
  for (std::size_t i = 0; i < n; ++i)
    out[i] += stress_with_combined(combined, victim, aggressor, pitch,
                                   points[i]);
}

num::SymTensor2 InteractiveStressModel::stress_at(
    const geo::Point& victim, const geo::Point& aggressor,
    const geo::Point& p) const {
  const double pitch = geo::distance(victim, aggressor);
  return stress_with_combined(combined_for_pitch(pitch), victim, aggressor,
                              pitch, p);
}

num::SymTensor2 InteractiveStressModel::stress_with_combined(
    const RegionField& combined, const geo::Point& victim,
    const geo::Point& aggressor, double pitch, const geo::Point& p) const {
  const double d_hat = pitch / outer_radius_;
  const double beta = geo::angle_of(victim, aggressor);
  // Rotate into the victim-centered frame with the aggressor on +x.
  const Complex rel{p.x - victim.x, p.y - victim.y};
  const Complex rot{std::cos(-beta), std::sin(-beta)};
  const Complex z = rel * rot / outer_radius_;
  const double r_hat = std::abs(z);

  num::SymTensor2 local;
  const double k = response_->structure().radius_ratio();
  if (r_hat >= 1.0) {
    local = combined.substrate.stress(z);
  } else if (r_hat >= k) {
    local = combined.liner.stress(z) - aggressor_stress(z, d_hat, k_hat_);
  } else {
    local = combined.core.stress(z) - aggressor_stress(z, d_hat, k_hat_);
  }
  // Rotate the tensor from the pair-local frame back to the global frame
  // (same congruence Q sigma Q^T as the cylindrical transform at angle beta).
  return num::cylindrical_to_cartesian(local, beta);
}

}  // namespace tsv::ana
