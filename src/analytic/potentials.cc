#include "analytic/potentials.h"

namespace tsv::ana {

PotentialField::PotentialField(num::LaurentSeries phi, num::LaurentSeries psi)
    : phi_(std::move(phi)), psi_(std::move(psi)) {
  refresh_derivatives();
}

void PotentialField::refresh_derivatives() {
  dphi_ = phi_.derivative_series();
  ddphi_ = dphi_.derivative_series();
  dpsi_ = psi_.derivative_series();
}

num::SymTensor2 PotentialField::stress(Complex z) const {
  const Complex dphi = dphi_.empty() ? Complex{} : dphi_.evaluate(z);
  const Complex ddphi = ddphi_.empty() ? Complex{} : ddphi_.evaluate(z);
  const Complex dpsi = dpsi_.empty() ? Complex{} : dpsi_.evaluate(z);
  const double p = 4.0 * dphi.real();               // sxx + syy
  const Complex q = std::conj(z) * ddphi + dpsi;    // (syy - sxx)/2 + i sxy
  num::SymTensor2 s;
  s.s11 = 0.5 * p - q.real();
  s.s22 = 0.5 * p + q.real();
  s.s12 = q.imag();
  return s;
}

Complex PotentialField::displacement(Complex z, const mat::Material& m) const {
  const double mu = m.shear_modulus();
  const double kappa = m.kolosov_plane_stress();
  const Complex phi = phi_.empty() ? Complex{} : phi_.evaluate(z);
  const Complex dphi = dphi_.empty() ? Complex{} : dphi_.evaluate(z);
  const Complex psi = psi_.empty() ? Complex{} : psi_.evaluate(z);
  return (kappa * phi - z * std::conj(dphi) - std::conj(psi)) / (2.0 * mu);
}

Complex PotentialField::radial_traction(Complex z) const {
  const Complex dphi = dphi_.empty() ? Complex{} : dphi_.evaluate(z);
  const Complex ddphi = ddphi_.empty() ? Complex{} : ddphi_.evaluate(z);
  const Complex dpsi = dpsi_.empty() ? Complex{} : dpsi_.evaluate(z);
  const double r = std::abs(z);
  TSV_REQUIRE(r > 0.0, "radial traction undefined at the origin");
  const Complex e2it = (z / r) * (z / r);
  // sigma_rr - i sigma_rt = 2 Re phi' - e^{2 i theta} (conj(z) phi'' + psi')
  return 2.0 * dphi.real() - e2it * (std::conj(z) * ddphi + dpsi);
}

void PotentialField::accumulate(const PotentialField& other, double scale) {
  num::LaurentSeries sp = other.phi_;
  sp *= Complex{scale, 0.0};
  phi_ += sp;
  num::LaurentSeries ss = other.psi_;
  ss *= Complex{scale, 0.0};
  psi_ += ss;
  refresh_derivatives();
}

void PotentialField::trim(double rel_eps) {
  phi_ = phi_.trimmed(rel_eps);
  psi_ = psi_.trimmed(rel_eps);
  refresh_derivatives();
}

num::SymTensor2 aggressor_stress(Complex z, double d_hat, double k_hat) {
  const Complex w = z - Complex{d_hat, 0.0};
  const Complex dpsi = -k_hat / (w * w);
  num::SymTensor2 s;
  s.s11 = -dpsi.real();
  s.s22 = dpsi.real();
  s.s12 = dpsi.imag();
  return s;
}

Complex aggressor_displacement(Complex z, double d_hat, double k_hat,
                               const mat::Material& m) {
  const double mu = m.shear_modulus();
  const Complex psi = k_hat / (z - Complex{d_hat, 0.0});
  return -std::conj(psi) / (2.0 * mu);
}

}  // namespace tsv::ana
