#pragma once
// Radial stress look-up table for the single-TSV field, the "table look-up
// method" of Stage I (paper Sec. 4). The axisymmetric field is fully
// described by (srr(r), stt(r)); entries are linearly interpolated.
//
// Tables can be characterized from the exact analytical solution (default)
// or from a FEM solve of an isolated TSV (the paper's approach with COMSOL);
// tests show the two agree to discretization error.
//
// accumulate (one TSV's field over a disc of points) is the Stage I kernel
// of every grid evaluation, including the fused Stage I + II pass, where it
// runs once per TSV disc. It is compiled for three ISA levels (2, 4 and 8
// lanes) and dispatched once per process; each lane does the scalar
// kernel's operations in the scalar order with no fused multiply-add, so
// every variant is bitwise the scalar per-point loop
// (detail::radial_accumulate_scalar) and the host never changes a value.

#include <vector>

#include "analytic/single_tsv.h"
#include "core/single_tsv_field.h"
#include "fem/field.h"
#include "geometry/point.h"
#include "numeric/tensor.h"

namespace tsv::core {

class RadialStressTable : public SingleTsvField {
 public:
  /// Uniformly spaced table on [0, max_radius] with `samples` entries.
  RadialStressTable(std::vector<double> srr, std::vector<double> stt,
                    double max_radius);

  /// Characterizes from the exact single-TSV model.
  static RadialStressTable from_analytic(const ana::SingleTsvModel& model,
                                         double max_radius,
                                         std::size_t samples = 4096);

  /// Characterizes from a FEM stress field of a single TSV centered at
  /// `center` by averaging srr/stt over `rays` azimuthal directions.
  static RadialStressTable from_fem(const fem::StressField& field,
                                    const geo::Point& center,
                                    double max_radius,
                                    std::size_t samples = 1024,
                                    std::size_t rays = 16);

  double max_radius() const { return max_radius_; }
  /// Raw table entries (uniform on [0, max_radius]); exposed for binary
  /// snapshots (io/snapshot) — the (srr, stt, max_radius) triple round-trips
  /// through the value constructor bitwise.
  const std::vector<double>& srr() const { return srr_; }
  const std::vector<double>& stt() const { return stt_; }

  /// {srr, stt, 0} at distance r from the TSV center; zero beyond the table.
  num::SymTensor2 cylindrical(double r) const;

  /// Cartesian stress at p for a TSV centered at `center`. This is the
  /// scalar reference path (atan2 + trig rotation); the batch overrides
  /// below are the hot path and agree with it to <= 1e-12 relative
  /// (test_kernels).
  num::SymTensor2 stress_at(const geo::Point& center,
                            const geo::Point& p) const override;

  /// Trig-free batch kernel, "one center, many points" (the disc walk of
  /// both Stage I passes, and of the fused Stage I + II pass): one sqrt, two
  /// table loads and the double-angle rotation per point, no atan2/sin/cos,
  /// a block of 4 or 8 points at a time. Runs the SIMD variant selected
  /// once per process for the host (generic, AVX2 or AVX-512; see
  /// detail::radial_accumulate_variants), every lane bitwise the scalar
  /// per-point kernel, so the choice never changes a value.
  void accumulate(const geo::Point& center, const geo::Point* points,
                  std::size_t n, num::SymTensor2* out) const override;

  /// Trig-free batch kernel, "one point, many centers" (the Stage I
  /// superposition shape). Sums in k order like the scalar default.
  num::SymTensor2 sum_at(const geo::Point& p, const geo::Point* centers,
                         const std::uint32_t* idx,
                         std::size_t n) const override;

  double coverage_radius() const override { return max_radius_; }

 private:
  std::vector<double> srr_, stt_;
  double max_radius_;
  double inv_dr_;
};

namespace detail {

/// One way to run RadialStressTable::accumulate's loop.
using RadialAccumulateFn = void (*)(const RadialStressTable& table,
                                    const geo::Point& center,
                                    const geo::Point* points, std::size_t n,
                                    num::SymTensor2* out);

/// The per-point scalar loop every SIMD variant reproduces bit for bit
/// (kernel tests and the stage1_disc kernel row).
void radial_accumulate_scalar(const RadialStressTable& table,
                              const geo::Point& center,
                              const geo::Point* points, std::size_t n,
                              num::SymTensor2* out);

struct RadialAccumulateVariant {
  const char* name;  ///< "generic", "avx2" or "avx512"
  RadialAccumulateFn run;
};

/// The SIMD variants of accumulate this host can run, narrowest first
/// ("generic" always); accumulate runs the last one.
std::vector<RadialAccumulateVariant> radial_accumulate_variants();

}  // namespace detail

/// Fits the effective far-field constant K (paper eq. 6) of a FEM
/// single-TSV field: the mean of sigma_rr * r^2 over rays and radii in
/// [r_min, r_max]. Using the FEM-effective K (rather than the exact
/// analytic one) keeps Stage II consistent with a FEM-characterized Stage I
/// table — the paper's own methodology with COMSOL.
double effective_k_from_fem(const fem::StressField& field,
                            const geo::Point& center, double r_min,
                            double r_max, std::size_t samples = 48,
                            std::size_t rays = 32);

}  // namespace tsv::core
