#pragma once
// Gauss-Legendre quadrature rules on [-1, 1], as used by the Q4 element.

#include <array>
#include <cmath>

namespace tsv::num {

struct QuadraturePoint1D {
  double xi;
  double weight;
};

/// Two-point Gauss rule (exact for cubics) — the standard Q4 choice.
inline constexpr std::array<QuadraturePoint1D, 2> gauss2() {
  constexpr double g = 0.57735026918962576451;  // 1/sqrt(3)
  return {{{-g, 1.0}, {g, 1.0}}};
}

}  // namespace tsv::num
