#pragma once
// Certified Chebyshev surrogate for the Stage II pair-local field.
//
// The interactive correction of an ordered pair is a smooth function of
// (pitch, r, theta) in the pair frame: a finite Fourier series in theta
// (s11/s22 even, s12 odd about the pair axis) whose radius-dependent
// coefficients decay geometrically with the harmonic index. That structure
// makes it exactly the kind of field a tensor-product Chebyshev expansion
// compresses well:
//
//   * theta enters only through x = cos(theta): the even components are
//     polynomials in x (T_j(cos th) = cos j*th), and s12 = sin(theta) *
//     G12(r, x) with G12 again a polynomial in x — evaluated by Clenshaw
//     recurrences, so the kernel needs no atan2/sin/cos at all;
//   * the radius axis is split at the material interfaces (and optionally
//     inside the substrate), each segment fitted separately; substrate
//     segments expand in u = 1/r, which the Laurent-series far field favors
//     and which reuses the 1/r the kernel already computes for cos(theta);
//   * pitch is a third Chebyshev axis, expanded in q = 1/pitch (the
//     interaction strength is Laurent in the pair distance, so convergence
//     at the small-pitch end — where the field is steepest — improves by
//     orders of magnitude over expanding in pitch directly); contracting
//     it turns the 3-D coefficient tensor into small per-segment matrices
//     per pair, leaving the per-point cost at a few dozen fused
//     multiply-adds, evaluated in lane-parallel SoA blocks bucketed by
//     radial segment (numeric/kernels style).
//
// Stage II evaluates a victim's pairs as one run (accumulate_run): the
// victim's disc is staged once (one sqrt, one divide and the segment
// bucket per point). A run of two or more becomes one series in the chip
// frame: turning a pair frame by its angle beta multiplies harmonic j by
// e^{i j beta} (and the deviator (s11 - s22)/2 + i s12 by e^{2 i beta}), so
// with the tensor re-expressed in that harmonic basis (finalize) a run folds
// all of its pairs into one complex matrix per segment in a single pass,
// and each point pays one radial combine and three complex Horner sums in
// z = e^{i phi}, about two pairs' worth, whatever the run length. A run of
// one (an edit's partner runs, stress_at, certification) evaluates its pair
// directly and keeps the per-thread contraction memo for the next run of
// one with a bitwise-equal pitch. Every Stage II caller enters through
// InteractiveStressModel::accumulate_run. bench_micro_kernels'
// stage2_surrogate rows time the batch kernel, a single pair and a
// 9-aggressor run; EXPERIMENTS.md records the numbers.
//
// Certification is first-class: fitting ends with a dense adversarial
// comparison against the exact series (Chebyshev-offset nodes, random
// points, segment/interface boundaries, random pair frames) whose observed
// maximum error — with a safety margin — becomes the SurrogateCertificate.
// Stage II only uses a surrogate whose certificate passes
// kSurrogateTolerance; pairs whose pitch falls outside the fitted
// [pitch_min, pitch_max] fall back to the exact series per pair, tracked by
// counters. Certificates and coefficients serialize
// through io/snapshot (SnapshotKind::kSurrogate) bitwise.

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "geometry/point.h"
#include "numeric/tensor.h"

namespace tsv::ana {

class InteractiveStressModel;

/// Fit domain and resolution. The defaults target the paper's geometry
/// (R = 2.5, R' = 3 um) at <= 1e-6 certified relative field error while
/// keeping the dominant-area outer substrate segment cheap; re-fit with
/// larger orders if the certificate comes back above your tolerance.
struct SurrogateFitOptions {
  double pitch_min = 8.0;   ///< um; inclusive (the paper's minimum pitch)
  double pitch_max = 25.0;  ///< um; inclusive (= the pair pitch cutoff)
  double r_max = 25.0;      ///< um; must cover the influence radius
  /// Chebyshev order of the pitch axis.
  std::size_t pitch_order = 16;
  /// Extra radial breakpoints inside the substrate (strictly increasing,
  /// in (R', r_max)). More splits let the far, area-dominant segments use
  /// small orders: the per-point cost is the orders of the one segment the
  /// point lands in, not the sum.
  std::vector<double> substrate_splits{8.0, 13.0};
  /// Per-segment Chebyshev orders, one entry per segment in radial order:
  /// core [0,R], liner [R,R'], then the substrate pieces. Sizes must equal
  /// 2 + substrate_splits.size() + 1.
  /// Calibrated against the exact series: the angular orders sit at their
  /// accuracy floor (the far-substrate Fourier content is set by aggressor
  /// proximity, not segment width — cutting any of them past this blows the
  /// 1e-6 budget by orders of magnitude), while the radial orders are the
  /// smallest that keep each segment's band error under the certification
  /// budget.
  std::vector<std::size_t> radial_orders{14, 10, 12, 6, 5};
  std::vector<std::size_t> angular_orders{20, 20, 16, 12, 10};
  // --- certification sampling ---
  std::size_t cert_pitches = 48;          ///< pitch samples (nodes+random+ends)
  std::size_t cert_points_per_pitch = 224;
  /// Safety factor applied to the observed max error: fresh samples between
  /// the certification points may peak slightly above the observed maximum.
  double cert_margin = 1.3;
  std::uint64_t cert_seed = 0x5eed0001ull;
};

/// The machine-checked accuracy contract of a fitted surrogate. Produced by
/// PairSurrogate::fit from dense adversarial sampling against the exact
/// series; serialized with the coefficients, and consulted (not recomputed)
/// by consumers to gate use.
struct SurrogateCertificate {
  double pitch_min = 0.0;  ///< fitted pitch domain, um (inclusive)
  double pitch_max = 0.0;
  double r_max = 0.0;      ///< fitted radial domain, um
  std::uint64_t coefficient_count = 0;  ///< stored doubles across segments
  std::uint64_t sample_count = 0;       ///< adversarial samples compared
  /// Largest |exact| component over the certification samples, MPa — the
  /// normalization of the relative bound.
  double field_scale = 0.0;
  /// Largest |surrogate - exact| component observed, MPa.
  double max_abs_error = 0.0;
  /// cert_margin * max_abs_error / field_scale: the bound consumers compare
  /// against their tolerance.
  double certified_rel_bound = 0.0;

  /// True when the certificate attests a verified bound <= `tolerance`.
  /// An empty (never-certified) certificate passes nothing.
  bool certified_within(double tolerance) const {
    return sample_count > 0 && certified_rel_bound > 0.0 &&
           certified_rel_bound <= tolerance;
  }
};

/// Largest certified relative field error Stage II accepts from an attached
/// surrogate (InteractiveStressModel::surrogate_for gates on it).
inline constexpr double kSurrogateTolerance = 1e-6;

/// Counters of the pitch-domain gate (InteractiveStressModel::accumulate_run).
struct SurrogateUseStats {
  std::uint64_t surrogate_pairs = 0;  ///< pairs evaluated by the surrogate
  std::uint64_t fallback_pairs = 0;   ///< pairs declined (pitch out of domain)
};

class PairSurrogate {
 public:
  /// Plain mirror for binary snapshots (io/snapshot): coefficients, domain,
  /// and the certificate. Round trip through the Data constructor is
  /// bitwise exact.
  struct Data {
    double pitch_min = 0.0;
    double pitch_max = 0.0;
    double r_max = 0.0;
    std::size_t pitch_order = 0;
    struct Segment {
      std::uint8_t inverse_radial = 0;  ///< expand in u = 1/r (substrate)
      double r0 = 0.0;
      double r1 = 0.0;
      std::size_t nr = 0;  ///< radial Chebyshev order (>= 2)
      std::size_t nx = 0;  ///< angular (cos theta) Chebyshev order (>= 1)
      /// pitch_order * 3 * nr * nx coefficients, layout
      /// [pitch][component][radial][angular] with components (s11, s22,
      /// s12/sin(theta)).
      std::vector<double> coeffs;
    };
    std::vector<Segment> segments;
    SurrogateCertificate certificate;
  };

  /// Fits and certifies a surrogate against `model`'s exact interaction
  /// series. Sampling is in the pair frame (victim at the origin,
  /// aggressor on +x) at Chebyshev-Gauss nodes per segment.
  /// Deterministic for fixed options. Resets the use counters on return.
  static PairSurrogate fit(const InteractiveStressModel& model,
                           const SurrogateFitOptions& options = {});

  /// Reconstructs a surrogate from snapshot data (validates shape; throws
  /// via TSV_REQUIRE on inconsistent dimensions).
  explicit PairSurrogate(Data data);

  PairSurrogate(PairSurrogate&&) noexcept = default;
  PairSurrogate& operator=(PairSurrogate&&) noexcept = default;
  PairSurrogate(const PairSurrogate&) = delete;
  PairSurrogate& operator=(const PairSurrogate&) = delete;

  /// Copies the surrogate into snapshot form (bitwise round trip).
  Data to_data() const;

  const SurrogateCertificate& certificate() const { return certificate_; }
  double pitch_min() const { return pitch_min_; }
  double pitch_max() const { return pitch_max_; }
  double r_max() const { return r_max_; }
  std::size_t pitch_order() const { return pitch_order_; }
  std::uint64_t coefficient_count() const;

  /// Radial breakpoints {0, R, R', substrate splits..., r_max} of the
  /// fitted segments (certification and diagnostics).
  std::vector<double> radial_boundaries() const;

  /// True when `pitch` lies in the fitted (inclusive) pitch domain — the
  /// gate InteractiveStressModel::accumulate_run applies per pair.
  bool covers(double pitch) const {
    return pitch >= pitch_min_ && pitch <= pitch_max_;
  }

  /// The run kernel: adds the interactive stress of every ordered pair
  /// (victim, aggressors[k]), k < count, at each of points[0..n) into
  /// out[i]. A run of one evaluates its pair in the pair frame, trig-free
  /// per point. A longer run evaluates one chip-frame series built from all
  /// of its pairs: it equals the sequence of its pairs as runs of one up to
  /// rounding (well inside 1e-12 of the certificate's field scale), and a
  /// point at the victim center keeps the runs-of-one convention (each pair
  /// at theta = 0). Requires covers(distance(victim, aggressors[k])) for
  /// every k; counts nothing (the caller records its run with record_use).
  /// Points at r >= r_max() contribute exactly zero. Thread-safe; bitwise
  /// deterministic for a fixed (run, points) regardless of thread count,
  /// call order or how the points are split across calls.
  void accumulate_run(const geo::Point& victim, const geo::Point* aggressors,
                      std::size_t count, const geo::Point* points,
                      std::size_t n, num::SymTensor2* out) const;

  /// Scalar reference path: accumulate_run with one aggressor and n = 1, so
  /// it is bitwise the batch kernel by construction. Requires covers(pitch).
  num::SymTensor2 stress_at(const geo::Point& victim,
                            const geo::Point& aggressor,
                            const geo::Point& p) const;

  /// Adds one run's gate outcome to the use counters (thread-safe,
  /// relaxed): pairs evaluated here and pairs sent to the exact series.
  void record_use(std::uint64_t surrogate_pairs,
                  std::uint64_t fallback_pairs) const;

  /// Cumulative use counters (thread-safe, relaxed).
  SurrogateUseStats use_stats() const;
  void reset_use_stats() const;

 private:
  struct Segment {
    bool inverse_radial = false;
    double r0 = 0.0;
    double r1 = 0.0;
    /// Maps the radial variable (r, or 1/r when inverse) onto [-1, 1]:
    /// t_hat = (v - t_mid) * t_half_inv.
    double t_mid = 0.0;
    double t_half_inv = 0.0;
    std::size_t nr = 0;
    std::size_t nx = 0;
    std::vector<double> coeffs;  ///< [pitch][component][radial][angular]
    /// The same tensor in the chip-frame harmonic basis, derived in
    /// finalize and never serialized (harmonic_tensor in surrogate.cc).
    std::vector<double> harmonic;
  };

  struct Counters {
    std::atomic<std::uint64_t> surrogate_pairs{0};
    std::atomic<std::uint64_t> fallback_pairs{0};
  };

  PairSurrogate() = default;

  /// Validates the loaded/fitted shape and derives the per-segment radial
  /// maps. Throws via TSV_REQUIRE on inconsistency.
  void finalize();

  /// Chebyshev weights T_a(q_hat) of the pitch axis, a < pitch_order_.
  void pitch_weights(double pitch, double* t) const;

  /// Contracts the pitch axis for `pitch` into the calling thread's memo
  /// (per-segment [component][radial][angular] matrices) and returns the
  /// flat matrix storage; the run-of-one path of accumulate_run. Pure
  /// function of (surrogate identity, pitch), so per-thread recomputation
  /// is bitwise identical across thread counts.
  const double* contracted_for_pitch(double pitch) const;

  double pitch_min_ = 0.0;
  double pitch_max_ = 0.0;
  /// Pitch-axis map onto [-1, 1] in q = 1/pitch (derived in finalize):
  /// q_hat = (1/pitch - pitch_q_mid_) * pitch_q_half_inv_.
  double pitch_q_mid_ = 0.0;
  double pitch_q_half_inv_ = 0.0;
  double r_max_ = 0.0;
  std::size_t pitch_order_ = 0;
  std::vector<Segment> segments_;
  std::vector<std::size_t> segment_offsets_;  ///< into the contracted memo
  std::vector<std::size_t> victim_offsets_;   ///< into a run's victim series
  /// Per pitch plane, s11 and s22 of the pair frame at the victim center
  /// (core segment, theta = 0): a run's center points keep that convention.
  std::vector<double> center_;
  std::size_t max_nx_ = 0;  ///< largest angular order over the segments
  SurrogateCertificate certificate_;
  std::uint64_t id_ = 0;  ///< process-unique memo key (survives moves)
  std::unique_ptr<Counters> counters_;
};

namespace detail {

/// The pitch-axis contraction behind a run of one, over one segment's
/// [pitch][block] coefficients: dst[q] = src[q] + t[1] * src[block + q] +
/// ... + t[order - 1] * src[(order - 1) * block + q], summed in that plane
/// order for every q.
using PitchContractionFn = void (*)(const double* src, std::size_t block,
                                    const double* t, std::size_t order,
                                    double* dst);

/// Baseline-ISA variant: bitwise the plane-order scalar loop.
void contract_pitch_generic(const double* src, std::size_t block,
                            const double* t, std::size_t order, double* dst);

/// The variant selected for this host, together with the point kernel (the
/// one accumulate_run and the certificate run).
PitchContractionFn active_pitch_contraction();

}  // namespace detail

}  // namespace tsv::ana
