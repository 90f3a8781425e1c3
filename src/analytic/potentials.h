#pragma once
// Muskhelishvili complex potentials (paper eqs. (3)-(5)).
//
// A plane elastic field is represented by two holomorphic functions phi and
// psi. We store both as Laurent series in a normalized frame ("hat space"):
// lengths divided by the TSV outer radius R', potentials divided by R', so
// that evaluated stresses are in MPa directly and coefficients stay O(1).
//
//   sxx + syy           = 4 Re phi'(z)
//   syy - sxx + 2 i sxy = 2 [ conj(z) phi''(z) + psi'(z) ]
//   2 mu (ux + i uy)    = kappa phi(z) - z conj(phi'(z)) - conj(psi(z))
//
// kappa = (3 - nu)/(1 + nu) (plane stress), mu = E / (2 (1 + nu)).

#include <complex>

#include "materials/material.h"
#include "numeric/laurent.h"
#include "numeric/tensor.h"

namespace tsv::ana {

using num::Complex;

/// A phi/psi pair plus cached derivative series for fast evaluation.
class PotentialField {
 public:
  PotentialField() = default;
  PotentialField(num::LaurentSeries phi, num::LaurentSeries psi);

  const num::LaurentSeries& phi() const { return phi_; }
  const num::LaurentSeries& psi() const { return psi_; }

  /// Cartesian stress tensor (MPa) at z (hat space).
  num::SymTensor2 stress(Complex z) const;

  /// Displacement (ux + i uy) in hat-space lengths for material m.
  Complex displacement(Complex z, const mat::Material& m) const;

  /// Traction combination sigma_rr - i sigma_rt on the circle through z
  /// (polar frame centered at the origin) — paper's boundary quantity.
  Complex radial_traction(Complex z) const;

  /// Adds a real-scaled field (elastic fields are real-linear in their
  /// potentials; complex scaling would not correspond to a scaled load).
  void accumulate(const PotentialField& other, double scale);

  /// Drops negligible edge coefficients (relative threshold) to cheapen
  /// evaluation; used on per-pitch combined response fields.
  void trim(double rel_eps);

  bool empty() const { return phi_.empty() && psi_.empty(); }

 private:
  void refresh_derivatives();

  num::LaurentSeries phi_, psi_;
  num::LaurentSeries dphi_, ddphi_, dpsi_;
};

/// Stress of the explicit aggressor potential psi(z) = khat / (z - d)
/// (phi = 0) — the isolated-TSV substrate field of eq. (6) recentered, in
/// hat space (d in units of R', khat = K / R'^2 in MPa). Evaluating it in
/// closed form avoids series truncation inside the victim.
num::SymTensor2 aggressor_stress(Complex z, double d_hat, double k_hat);

/// Displacement of the aggressor potential for material m (hat space).
Complex aggressor_displacement(Complex z, double d_hat, double k_hat,
                               const mat::Material& m);

}  // namespace tsv::ana
