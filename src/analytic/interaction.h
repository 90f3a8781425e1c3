#pragma once
// Interactive-stress evaluation for arbitrary TSV pairs (paper Sec. 3.3 /
// eq. (18), via the characterized inclusion response).
//
// For an ordered pair (victim, aggressor) the model expresses the aggressor's
// ideal field about the victim, applies the victim's characterized scattering
// response and returns the correction to linear superposition:
//   * outside the victim (substrate): the scattered field,
//   * inside the victim's liner/body: (interior field) - (applied field),
//     because Stage I already superposed the aggressor's ideal field there.
//
// Pitch enters only through the expansion coefficients
// beta_n = -khat / dhat^(n+1); responses are combined once per pitch and
// cached, so evaluating many points against the same pair is cheap.
//
// Stage II has exactly two evaluation paths, and accumulate_pair is the one
// place that chooses between them: the attached certified surrogate
// (analytic/surrogate.h) for pitches inside its fitted domain, the exact
// series for everything else.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "analytic/mode_solver.h"
#include "analytic/single_tsv.h"
#include "analytic/surrogate.h"
#include "geometry/point.h"

namespace tsv::ana {

class InteractiveStressModel {
 public:
  /// `response` is the per-geometry characterization; `single` supplies K.
  InteractiveStressModel(std::shared_ptr<const InclusionResponse> response,
                         const SingleTsvModel& single);

  /// Convenience: characterizes the structure internally.
  InteractiveStressModel(const tsvlib::TsvStructure& structure,
                         const mat::ThermalLoad& load,
                         const InclusionResponseOptions& options = {});

  /// Explicit k_hat (= K / R'^2, MPa), e.g. fitted from a FEM
  /// characterization so that Stage II matches a FEM-derived Stage I table.
  InteractiveStressModel(std::shared_ptr<const InclusionResponse> response,
                         double k_hat);

  const InclusionResponse& response() const { return *response_; }
  double k_hat() const { return k_hat_; }

  /// Combined (pitch-specific) response potentials, victim-centered hat
  /// frame with the aggressor on the +x axis. Cached per quantized pitch.
  /// Thread-safe: the cache is mutex-guarded and map nodes are stable, so
  /// the returned reference stays valid for the model's lifetime; races to
  /// build the same pitch resolve to the first insert.
  const RegionField& combined_for_pitch(double pitch) const;

  /// Interactive stress (Cartesian, global frame) at point p induced by the
  /// ordered pair: `victim` scatters the field of `aggressor`. The total
  /// pair correction is stress_at(v, a, p) + stress_at(a, v, p).
  num::SymTensor2 stress_at(const geo::Point& victim,
                            const geo::Point& aggressor,
                            const geo::Point& p) const;

  /// As stress_at, but with the combined field precomputed (hot path for
  /// per-pair point loops).
  num::SymTensor2 stress_with_combined(const RegionField& combined,
                                       const geo::Point& victim,
                                       const geo::Point& aggressor,
                                       double pitch, const geo::Point& p) const;

  /// Attaches (or, with nullptr, detaches) a certified Chebyshev surrogate
  /// (analytic/surrogate.h) for the Stage II fast path. Thread-safe;
  /// replaces any previous surrogate. Like the per-pitch cache this is an
  /// evaluation accelerator, so it lives mutably on the const model shared
  /// across stages.
  void attach_surrogate(std::shared_ptr<const PairSurrogate> surrogate) const;

  /// The currently attached surrogate (nullptr when none).
  std::shared_ptr<const PairSurrogate> surrogate() const;

  /// The attached surrogate iff its certificate attests a verified relative
  /// bound <= kSurrogateTolerance AND its fitted radius covers `r_needed`
  /// (points beyond the fitted r_max would silently evaluate to zero);
  /// nullptr otherwise. Stage II callers resolve this once per evaluation
  /// (or edit) and hand it to accumulate_pair.
  std::shared_ptr<const PairSurrogate> surrogate_for(double r_needed) const;

  /// Stage II per-pair evaluation, the only place a path is chosen: adds
  /// the ordered pair's interactive stress at points[0..n) into out[i]
  /// through `surrogate` when it is non-null and covers the pair pitch
  /// (counted on its use stats either way), and through the exact series
  /// otherwise. `surrogate` must come from surrogate_for (or be nullptr for
  /// the series only). Defined inline so the callers' pair loops call the
  /// surrogate kernel directly.
  void accumulate_pair(const PairSurrogate* surrogate,
                       const geo::Point& victim, const geo::Point& aggressor,
                       const geo::Point* points, std::size_t n,
                       num::SymTensor2* out) const {
    if (surrogate == nullptr ||
        !surrogate->try_accumulate(victim, aggressor, points, n, out))
      accumulate_series(victim, aggressor, points, n, out);
  }

 private:
  /// The exact series leg of accumulate_pair.
  void accumulate_series(const geo::Point& victim,
                         const geo::Point& aggressor,
                         const geo::Point* points, std::size_t n,
                         num::SymTensor2* out) const;

  std::shared_ptr<const InclusionResponse> response_;
  double k_hat_ = 0.0;        ///< K / R'^2, MPa
  double outer_radius_ = 0.0; ///< R', um
  /// Guards the pitch cache and the surrogate slot (Stage II evaluates
  /// pairs from many threads).
  mutable std::mutex cache_mutex_;
  mutable std::map<long long, RegionField> cache_;
  mutable std::shared_ptr<const PairSurrogate> surrogate_;
};

}  // namespace tsv::ana
