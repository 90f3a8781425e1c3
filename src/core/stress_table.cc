#include "core/stress_table.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "numeric/kernels.h"

namespace tsv::core {
namespace {

/// Everything the flat radial kernel needs, hoisted out of the point loops.
struct RadialKernel {
  const double* srr;
  const double* stt;
  std::size_t last;  ///< srr/stt sample count - 1
  double inv_dr;
  double max_radius;

  explicit RadialKernel(const RadialStressTable& table)
      : srr(table.srr().data()),
        stt(table.stt().data()),
        last(table.srr().size() - 1),
        inv_dr(static_cast<double>(table.srr().size() - 1) /
               table.max_radius()),
        max_radius(table.max_radius()) {}

  /// Cartesian tensor for one displacement (dx, dy): one sqrt, a linear
  /// table interpolation and the trig-free double-angle rotation
  /// (cos 2theta = (dx^2-dy^2)/r^2, sin 2theta = 2 dx dy / r^2) — no
  /// atan2/sin/cos. Matches the scalar stress_at to floating-point
  /// regrouping; at r == 0 the rotation degenerates to the identity, and
  /// beyond max_radius the contribution is zero, both as in the scalar path.
  num::SymTensor2 at(double dx, double dy) const {
    const double r2 = dx * dx + dy * dy;
    const double r = std::sqrt(r2);
    if (r >= max_radius) return {};
    const double f = r * inv_dr;
    const std::size_t i0 = static_cast<std::size_t>(f);
    const double t = f - static_cast<double>(i0);
    const std::size_t i1 = std::min(i0 + 1, last);
    const double vrr = srr[i0] * (1.0 - t) + srr[i1] * t;
    const double vtt = stt[i0] * (1.0 - t) + stt[i1] * t;
    const double inv_r2 = r2 > 0.0 ? 1.0 / r2 : 0.0;
    const double cos2t = r2 > 0.0 ? (dx * dx - dy * dy) * inv_r2 : 1.0;
    const double sin2t = 2.0 * dx * dy * inv_r2;
    return num::rotate_axisymmetric(vrr, vtt, cos2t, sin2t);
  }
};

// The lane-parallel accumulate: RadialKernel::at over a block of points at
// once, as the same IEEE operations in the same order on every lane (this
// file is compiled with -ffp-contract=off, so no multiply-add is fused), so
// each lane is bitwise the scalar kernel. The body is compiled for three
// ISA levels and one is selected per process, like the Stage II surrogate
// kernels.
typedef double v2d __attribute__((vector_size(2 * sizeof(double))));
typedef int v2si __attribute__((vector_size(2 * sizeof(int))));
typedef double v4d __attribute__((vector_size(4 * sizeof(double))));
typedef int v4si __attribute__((vector_size(4 * sizeof(int))));
#if defined(__x86_64__) && defined(__GNUC__)
typedef double v8d __attribute__((vector_size(8 * sizeof(double))));
typedef int v8si __attribute__((vector_size(8 * sizeof(int))));
#endif

enum class Isa { kGeneric, kAvx2, kAvx512 };

#if defined(__x86_64__) && defined(__GNUC__)
// The merge forms of the gathers: the plain ones read an undefined source
// register, which GCC 12 reports as maybe-uninitialized.
__attribute__((target("avx2"))) inline void gather_avx2(const double* base,
                                                        const v4si& idx,
                                                        v4d& out) {
  const __m256d zero = _mm256_setzero_pd();
  out = reinterpret_cast<v4d>(_mm256_mask_i32gather_pd(
      zero, base, reinterpret_cast<__m128i>(idx),
      _mm256_cmp_pd(zero, zero, _CMP_EQ_OQ), 8));
}
__attribute__((target("avx512f,avx2"))) inline void gather_avx512(
    const double* base, const v8si& idx, v8d& out) {
  out = reinterpret_cast<v8d>(_mm512_mask_i32gather_pd(
      _mm512_setzero_pd(), 0xff, reinterpret_cast<__m256i>(idx), base, 8));
}
#endif

/// out[l] = base[idx[l]] for every lane.
template <Isa kIsa, class V, class VI>
__attribute__((always_inline)) inline void gather(const double* base,
                                                  const VI& idx, V& out) {
#if defined(__x86_64__) && defined(__GNUC__)
  if constexpr (kIsa == Isa::kAvx2) return gather_avx2(base, idx, out);
  if constexpr (kIsa == Isa::kAvx512) return gather_avx512(base, idx, out);
#endif
  for (std::size_t l = 0; l < sizeof(V) / sizeof(double); ++l)
    out[l] = base[idx[l]];
}

/// Adds the kernel's tensor at points[0, kLanes) into out[0, cnt): one
/// block of lanes. Table indices stay below 2^31 (the constructor's size
/// limit), so they fit 32-bit lanes; lanes at or beyond max_radius look up
/// entry 0 and add zero, as the scalar kernel does.
template <Isa kIsa, class V, class VI>
__attribute__((always_inline)) inline void accumulate_block(
    const RadialKernel& k, const geo::Point& center, const geo::Point* points,
    std::size_t cnt, num::SymTensor2* out) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(double);
  const V zero = {};
  const V one = zero + 1.0;
  const VI last = VI{} + static_cast<int>(k.last);
  V dx = {}, dy = {};
  for (std::size_t l = 0; l < kLanes; ++l) {
    dx[l] = points[l].x;
    dy[l] = points[l].y;
  }
  dx -= center.x;
  dy -= center.y;
  const V r2 = dx * dx + dy * dy;
  V r = {};
  for (std::size_t l = 0; l < kLanes; ++l) r[l] = __builtin_sqrt(r2[l]);
  const auto inside = r < k.max_radius;
  const V f = inside ? r * k.inv_dr : zero;
  const VI i0 = __builtin_convertvector(f, VI);
  const V t = f - __builtin_convertvector(i0, V);
  VI i1 = i0 + 1;
  i1 = i1 > last ? last : i1;
  V rr0 = {}, rr1 = {}, tt0 = {}, tt1 = {};
  gather<kIsa>(k.srr, i0, rr0);
  gather<kIsa>(k.srr, i1, rr1);
  gather<kIsa>(k.stt, i0, tt0);
  gather<kIsa>(k.stt, i1, tt1);
  const V w0 = one - t;
  const V vrr = rr0 * w0 + rr1 * t;
  const V vtt = tt0 * w0 + tt1 * t;
  const auto off_center = r2 > zero;
  const V inv_r2 = off_center ? one / r2 : zero;
  const V cos2t = off_center ? (dx * dx - dy * dy) * inv_r2 : one;
  const V sin2t = 2.0 * dx * dy * inv_r2;
  // num::rotate_axisymmetric, lane by lane.
  const V mean = 0.5 * (vrr + vtt);
  const V dev = 0.5 * (vrr - vtt);
  const V s11 = inside ? mean + dev * cos2t : zero;
  const V s22 = inside ? mean - dev * cos2t : zero;
  const V s12 = inside ? dev * sin2t : zero;
  for (std::size_t l = 0; l < cnt; ++l) {
    out[l].s11 += s11[l];
    out[l].s22 += s22[l];
    out[l].s12 += s12[l];
  }
}

/// Whole blocks of lanes over points[0, n), then a partial last block
/// padded by replicating its first point (a lane's result depends on its
/// own point only).
template <Isa kIsa, class V, class VI>
__attribute__((always_inline)) inline void accumulate_body(
    const RadialStressTable& table, const geo::Point& center,
    const geo::Point* points, std::size_t n, num::SymTensor2* out) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(double);
  const RadialKernel k(table);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes)
    accumulate_block<kIsa, V, VI>(k, center, points + i, kLanes, out + i);
  if (i == n) return;
  geo::Point pad[kLanes];
  for (std::size_t l = 0; l < kLanes; ++l)
    pad[l] = points[i + l < n ? i + l : i];
  accumulate_block<kIsa, V, VI>(k, center, pad, n - i, out + i);
}

void accumulate_generic(const RadialStressTable& table,
                        const geo::Point& center, const geo::Point* points,
                        std::size_t n, num::SymTensor2* out) {
  accumulate_body<Isa::kGeneric, v2d, v2si>(table, center, points, n, out);
}
#if defined(__x86_64__) && defined(__GNUC__)
__attribute__((target("avx2"))) void accumulate_avx2(
    const RadialStressTable& table, const geo::Point& center,
    const geo::Point* points, std::size_t n, num::SymTensor2* out) {
  accumulate_body<Isa::kAvx2, v4d, v4si>(table, center, points, n, out);
}
__attribute__((target("avx512f,avx2"))) void accumulate_avx512(
    const RadialStressTable& table, const geo::Point& center,
    const geo::Point* points, std::size_t n, num::SymTensor2* out) {
  accumulate_body<Isa::kAvx512, v8d, v8si>(table, center, points, n, out);
}
#endif

detail::RadialAccumulateFn active_accumulate() {
  static const detail::RadialAccumulateFn fn =
      detail::radial_accumulate_variants().back().run;
  return fn;
}

}  // namespace

RadialStressTable::RadialStressTable(std::vector<double> srr,
                                     std::vector<double> stt,
                                     double max_radius)
    : srr_(std::move(srr)), stt_(std::move(stt)), max_radius_(max_radius) {
  TSV_REQUIRE(srr_.size() == stt_.size(), "component tables differ in size");
  TSV_REQUIRE(srr_.size() >= 2, "table needs at least two samples");
  TSV_REQUIRE(max_radius_ > 0.0, "max radius must be positive");
  TSV_REQUIRE(srr_.size() <= std::numeric_limits<int>::max(),
              "table too large for 32-bit sample indices");
  inv_dr_ = static_cast<double>(srr_.size() - 1) / max_radius_;
}

RadialStressTable RadialStressTable::from_analytic(
    const ana::SingleTsvModel& model, double max_radius, std::size_t samples) {
  TSV_REQUIRE(samples >= 2, "need at least two samples");
  std::vector<double> srr(samples), stt(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    const double r = max_radius * static_cast<double>(i) /
                     static_cast<double>(samples - 1);
    const num::SymTensor2 s = model.stress_cylindrical(r);
    srr[i] = s.s11;
    stt[i] = s.s22;
  }
  return RadialStressTable(std::move(srr), std::move(stt), max_radius);
}

RadialStressTable RadialStressTable::from_fem(const fem::StressField& field,
                                              const geo::Point& center,
                                              double max_radius,
                                              std::size_t samples,
                                              std::size_t rays) {
  TSV_REQUIRE(samples >= 2, "need at least two samples");
  TSV_REQUIRE(rays >= 1, "need at least one ray");
  std::vector<double> srr(samples, 0.0), stt(samples, 0.0);
  for (std::size_t i = 0; i < samples; ++i) {
    const double r = max_radius * static_cast<double>(i) /
                     static_cast<double>(samples - 1);
    for (std::size_t j = 0; j < rays; ++j) {
      // Offset the rays off the axes so samples do not sit on mesh lines.
      const double th = 2.0 * std::numbers::pi *
                        (static_cast<double>(j) + 0.382) /
                        static_cast<double>(rays);
      const geo::Point p{center.x + r * std::cos(th),
                         center.y + r * std::sin(th)};
      const num::SymTensor2 cart = field.sample(p);
      const num::SymTensor2 cyl = num::cartesian_to_cylindrical(cart, th);
      srr[i] += cyl.s11;
      stt[i] += cyl.s22;
    }
    srr[i] /= static_cast<double>(rays);
    stt[i] /= static_cast<double>(rays);
  }
  return RadialStressTable(std::move(srr), std::move(stt), max_radius);
}

num::SymTensor2 RadialStressTable::cylindrical(double r) const {
  TSV_REQUIRE(r >= 0.0, "negative radius");
  if (r >= max_radius_) return {};
  const double f = r * inv_dr_;
  const std::size_t i = static_cast<std::size_t>(f);
  const double t = f - static_cast<double>(i);
  const std::size_t j = std::min(i + 1, srr_.size() - 1);
  num::SymTensor2 s;
  s.s11 = srr_[i] * (1.0 - t) + srr_[j] * t;
  s.s22 = stt_[i] * (1.0 - t) + stt_[j] * t;
  return s;
}

num::SymTensor2 RadialStressTable::stress_at(const geo::Point& center,
                                             const geo::Point& p) const {
  const double r = geo::distance(center, p);
  const num::SymTensor2 cyl = cylindrical(r);
  if (r == 0.0) return cyl;
  return num::cylindrical_to_cartesian(cyl, geo::angle_of(center, p));
}

void RadialStressTable::accumulate(const geo::Point& center,
                                   const geo::Point* points, std::size_t n,
                                   num::SymTensor2* out) const {
  active_accumulate()(*this, center, points, n, out);
}

num::SymTensor2 RadialStressTable::sum_at(const geo::Point& p,
                                          const geo::Point* centers,
                                          const std::uint32_t* idx,
                                          std::size_t n) const {
  num::KernelScratch& scratch = num::tls_kernel_scratch();
  scratch.ax.resize(n);
  scratch.ay.resize(n);
  double* const dx = scratch.ax.data();
  double* const dy = scratch.ay.data();
  for (std::size_t k = 0; k < n; ++k) {
    const geo::Point& c = centers[idx[k]];
    dx[k] = p.x - c.x;
    dy[k] = p.y - c.y;
  }
  const RadialKernel kernel(*this);
  // Three scalar accumulators added in k order: the same grouping as the
  // scalar default's SymTensor2 += loop, so the sum stays deterministic and
  // thread-count independent.
  double s11 = 0.0, s22 = 0.0, s12 = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const num::SymTensor2 s = kernel.at(dx[k], dy[k]);
    s11 += s.s11;
    s22 += s.s22;
    s12 += s.s12;
  }
  return {s11, s22, s12};
}

namespace detail {

void radial_accumulate_scalar(const RadialStressTable& table,
                              const geo::Point& center,
                              const geo::Point* points, std::size_t n,
                              num::SymTensor2* out) {
  const RadialKernel kernel(table);
  for (std::size_t i = 0; i < n; ++i)
    out[i] += kernel.at(points[i].x - center.x, points[i].y - center.y);
}

std::vector<RadialAccumulateVariant> radial_accumulate_variants() {
  std::vector<RadialAccumulateVariant> v = {{"generic", accumulate_generic}};
#if defined(__x86_64__) && defined(__GNUC__)
  if (__builtin_cpu_supports("avx2")) v.push_back({"avx2", accumulate_avx2});
  if (__builtin_cpu_supports("avx512f"))
    v.push_back({"avx512", accumulate_avx512});
#endif
  return v;
}

}  // namespace detail

double effective_k_from_fem(const fem::StressField& field,
                            const geo::Point& center, double r_min,
                            double r_max, std::size_t samples,
                            std::size_t rays) {
  TSV_REQUIRE(r_max > r_min && r_min > 0.0, "invalid fit range");
  TSV_REQUIRE(samples >= 2 && rays >= 1, "need samples and rays");
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < samples; ++i) {
    const double r = r_min + (r_max - r_min) * static_cast<double>(i) /
                                 static_cast<double>(samples - 1);
    for (std::size_t j = 0; j < rays; ++j) {
      const double th = 2.0 * std::numbers::pi *
                        (static_cast<double>(j) + 0.382) /
                        static_cast<double>(rays);
      const geo::Point p{center.x + r * std::cos(th),
                         center.y + r * std::sin(th)};
      const num::SymTensor2 cyl =
          num::cartesian_to_cylindrical(field.sample(p), th);
      // Use the deviatoric combination (srr - stt)/2 * r^2, which equals K
      // exactly for the eq. (6) field and cancels any residual hydrostatic
      // discretization artifact.
      sum += 0.5 * (cyl.s11 - cyl.s22) * r * r;
      ++count;
    }
  }
  return sum / static_cast<double>(count);
}

}  // namespace tsv::core
