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
// Stage II has exactly two evaluation paths, and accumulate_run is the one
// place that chooses between them: the attached certified surrogate
// (analytic/surrogate.h) for pitches inside its fitted domain, the exact
// series for everything else.

#include <atomic>
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
  /// `response` is the per-geometry characterization and k_hat (= K / R'^2,
  /// MPa) the single-TSV load: SingleTsvModel::k_hat() for the analytic
  /// characterization (core::characterize), or a value fitted from a FEM
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
  /// (or edit) and hand it to accumulate_run.
  std::shared_ptr<const PairSurrogate> surrogate_for(double r_needed) const;

  /// Pairs accumulate_run sent to the exact series while a surrogate was
  /// attached: surrogate_for rejected it (certificate above
  /// kSurrogateTolerance, or fitted r_max below the reach), so the whole
  /// evaluation ran at series cost. The first such run also prints one line
  /// to stderr per model. Pitch-domain misses of a used surrogate are
  /// counted on its own use stats instead. Thread-safe (relaxed).
  std::uint64_t rejected_surrogate_pairs() const {
    return rejected_surrogate_pairs_.load(std::memory_order_relaxed);
  }

  /// Stage II evaluation of one victim's run of ordered pairs (victim,
  /// aggressors[k]), k < count: the one entry into Stage II, which
  /// InteractiveStage and IncrementalEngine both call (a single pair is a
  /// run of one), and the only place a path is chosen. Adds their
  /// interactive stress at points[0..n) into out[i]. Each pair goes
  /// through `surrogate` when it is non-null and covers the pair pitch, and
  /// through the exact series otherwise (counted on
  /// rejected_surrogate_pairs when a surrogate is attached); consecutive
  /// covered pairs share one surrogate run (PairSurrogate::accumulate_run),
  /// which evaluates a stretch of two or more as one chip-frame series.
  /// The result is the per-pair sequence in aggressor order up to rounding
  /// (bitwise where every stretch is a run of one), and the run is counted
  /// on the surrogate's use stats once. `surrogate` must come from
  /// surrogate_for (or be nullptr for the series only).
  void accumulate_run(const PairSurrogate* surrogate, const geo::Point& victim,
                      const geo::Point* aggressors, std::size_t count,
                      const geo::Point* points, std::size_t n,
                      num::SymTensor2* out) const;

 private:
  /// Counts `pairs` on rejected_surrogate_pairs_; the first time, prints
  /// why the attached surrogate is not used.
  void note_rejected_surrogate(std::uint64_t pairs) const;

  /// The exact series leg of accumulate_run.
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
  mutable std::atomic<bool> has_surrogate_{false};  ///< surrogate_ != null
  mutable std::atomic<std::uint64_t> rejected_surrogate_pairs_{0};
  mutable std::atomic<bool> rejection_reported_{false};
};

}  // namespace tsv::ana
