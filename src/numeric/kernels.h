#pragma once
// Trig-free helpers and reusable scratch for the Stage I/II batch kernels.
//
// The tensor rotation of paper eq. (2) enters the hot loops only through the
// double angle: for a displacement (dx, dy) with r^2 = dx^2 + dy^2 > 0 and
// rotation angle theta = atan2(dy, dx),
//
//     cos 2theta = (dx^2 - dy^2) / r^2,   sin 2theta = 2 dx dy / r^2,
//
// so the cylindrical -> Cartesian transform needs no atan2/sin/cos at all.
// The identities below are exact algebraic rewrites of
// num::cylindrical_to_cartesian in mean/deviator form; batch kernels built on
// them agree with the scalar trig path to floating-point regrouping
// (<= ~1e-15 relative, locked down by test_kernels).
//
// KernelScratch holds the gather/accumulate buffers the batch kernels reuse
// between calls. One instance lives per thread (tls_kernel_scratch), so the
// hot paths allocate only until every buffer has reached its steady-state
// capacity — no per-call vectors, and no sharing between pool workers.

#include <cstdint>
#include <vector>

#include "numeric/tensor.h"

namespace tsv::num {

/// Cartesian tensor of an axisymmetric cylindrical tensor (srr, stt, srt=0)
/// whose r-axis points along the double angle (cos2t, sin2t). Equals
/// cylindrical_to_cartesian({srr, stt, 0}, theta) with cos2t = cos 2theta,
/// sin2t = sin 2theta.
inline SymTensor2 rotate_axisymmetric(double srr, double stt, double cos2t,
                                      double sin2t) {
  const double mean = 0.5 * (srr + stt);
  const double dev = 0.5 * (srr - stt);
  return {mean + dev * cos2t, mean - dev * cos2t, dev * sin2t};
}

/// Reusable buffers for the batch kernels. Members are assigned to fixed
/// roles so nested users never alias:
///   * idx / idx2 — spatial-query results (caller-side gather lists);
///   * ax / ay    — displacement / coordinate SoA gathers inside the
///                  RadialStressTable kernel.
struct KernelScratch {
  std::vector<std::uint32_t> idx;
  std::vector<std::uint32_t> idx2;
  std::vector<double> ax;
  std::vector<double> ay;
};

/// The calling thread's scratch instance. Pool workers are persistent, so
/// each thread's buffers warm up once and are reused for the rest of the
/// process.
KernelScratch& tls_kernel_scratch();

}  // namespace tsv::num
