#include "analytic/surrogate.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <random>
#include <type_traits>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "analytic/interaction.h"
#include "numeric/check.h"
#include "numeric/kernels.h"

namespace tsv::ana {
namespace {

constexpr std::size_t kMaxOrder = 64;
constexpr std::size_t kMaxSegments = 8;

std::uint64_t next_surrogate_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// First-kind Chebyshev-Gauss node m of n: cos(pi (m + 1/2) / n). Interior
/// only — sampling never lands exactly on a segment end or on sin(theta)=0.
double cheb_node(std::size_t m, std::size_t n) {
  return std::cos(std::numbers::pi * (static_cast<double>(m) + 0.5) /
                  static_cast<double>(n));
}

/// cm[k*n + m] = cos(k pi (m + 1/2) / n), the discrete cosine kernel of the
/// Chebyshev-Gauss forward transform.
std::vector<double> cheb_cos_matrix(std::size_t n) {
  std::vector<double> cm(n * n);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t m = 0; m < n; ++m) {
      cm[k * n + m] =
          std::cos(std::numbers::pi * static_cast<double>(k) *
                   (static_cast<double>(m) + 0.5) / static_cast<double>(n));
    }
  }
  return cm;
}

/// In-place forward Chebyshev transform of one strided line of samples at
/// the Gauss nodes: c_k = (2/n) sum_m f(x_m) cos(k pi (m+1/2)/n), c_0
/// halved, so f(x) = sum_k c_k T_k(x) exactly at the nodes.
void cheb_transform_line(double* base, std::size_t stride, std::size_t n,
                         const std::vector<double>& cm,
                         std::vector<double>& tmp) {
  tmp.resize(n);
  const double scale = 2.0 / static_cast<double>(n);
  for (std::size_t k = 0; k < n; ++k) {
    double acc = 0.0;
    for (std::size_t m = 0; m < n; ++m) acc += base[m * stride] * cm[k * n + m];
    tmp[k] = scale * acc;
  }
  tmp[0] *= 0.5;
  for (std::size_t k = 0; k < n; ++k) base[k * stride] = tmp[k];
}

/// Per-thread memo of the pitch-contracted coefficient matrices, keyed on
/// (surrogate id, pitch bits), for runs of one (accumulate_run with
/// count == 1: certification, stress_at, an edit's partner runs, victims
/// with a single aggressor). Longer runs build one chip-frame series
/// instead (see accumulate_run). The memo hits when consecutive runs of one
/// share a bitwise-equal pitch: certification evaluates each sampled pitch
/// at many points, one call per point, and a regular array repeats pitches.
struct ContractionMemo {
  std::uint64_t id = 0;
  std::uint64_t pitch_bits = 0;
  std::vector<double> m;
};

ContractionMemo& tls_contraction_memo() {
  static thread_local ContractionMemo memo;
  return memo;
}

/// Flat per-segment view for the hot kernel (selection threshold, radial
/// map, orders, offsets into the contracted matrices and a run's victim
/// series).
struct SegView {
  double r1 = 0.0;  ///< selection: first segment with r < r1 wins
  double t_mid = 0.0;
  double t_half_inv = 0.0;
  std::uint32_t inverse = 0;
  std::uint32_t nr = 0;
  std::uint32_t nx = 0;
  std::uint64_t offset = 0;
  std::uint64_t victim_offset = 0;
};

/// The victim side of a run: everything the staging pass needs.
struct KernelArgs {
  const SegView* segs = nullptr;
  std::size_t nseg = 0;
  double r_max2 = 0.0;
  double vx = 0.0, vy = 0.0;
};

/// A run of one: its pair-frame rotation and contracted matrices.
struct PairArgs {
  const double* contracted = nullptr;
  double cb = 0.0, sb = 0.0;    ///< cos/sin of the pair angle beta
  double c2b = 0.0, s2b = 0.0;  ///< cos/sin of 2 beta
};

/// A longer run: its chip-frame series and the tensor its victim-center
/// points take.
struct VictimArgs {
  const double* series = nullptr;
  bool has_center = false;
  double c11 = 0.0, c22 = 0.0, c12 = 0.0;
};

/// Widest SIMD block any dispatch variant uses: 8 doubles = one AVX-512
/// register (the AVX2 variant runs 4-wide, the generic one legalizes the
/// same 4-wide code to SSE2 pairs). A lane's result depends only on its own
/// values (every op is elementwise), so a point's stress is bitwise
/// identical whatever block or lane it lands in — in particular stress_at
/// (n = 1, padded lanes) matches the batch kernel.
constexpr std::size_t kMaxLanes = 8;

/// Angular columns are stored even orders first, then odd (see finalize):
/// position of the T_j(x) coefficient within an nx-column row.
constexpr std::size_t angular_column(std::size_t j, std::size_t nx) {
  return j % 2 == 0 ? j / 2 : (nx + 1) / 2 + j / 2;
}

/// Reorders every nx-wide angular row between natural Chebyshev order
/// (Data / snapshots) and the kernel's even-orders-first layout. A pure
/// reshuffle — round trips are bitwise.
void permute_angular_rows(std::vector<double>& coeffs, std::size_t nx,
                          bool to_kernel_order) {
  if (nx < 3) return;  // the parity split is the identity below order 3
  std::vector<double> row(nx);
  for (std::size_t base = 0; base < coeffs.size(); base += nx) {
    double* r = coeffs.data() + base;
    if (to_kernel_order) {
      for (std::size_t j = 0; j < nx; ++j) row[angular_column(j, nx)] = r[j];
    } else {
      for (std::size_t j = 0; j < nx; ++j) row[j] = r[angular_column(j, nx)];
    }
    std::copy(row.begin(), row.end(), r);
  }
}

/// A harmonic row (see harmonic_tensor) holds two blocks, the mean's nx
/// columns and, from column pad_columns(nx), the deviator's 2 nx + 1, each
/// padded with zero columns to whole 4-double vectors, so the fold and the
/// radial combine run without tails.
constexpr std::size_t kHarmonicLanes = 4;
constexpr std::size_t pad_columns(std::size_t n) {
  return (n + kHarmonicLanes - 1) / kHarmonicLanes * kHarmonicLanes;
}
constexpr std::size_t harmonic_columns(std::size_t nx) {
  return pad_columns(nx) + pad_columns(2 * nx + 1);
}

/// Thread-local run scratch: the victim's disc staged into per-segment SoA
/// buckets (radial map value, victim-relative x/y, 1/r, point index),
/// padded to whole lane blocks, plus a longer run's weights and chip-frame
/// series. Reused across calls, so steady-state allocation cost is zero.
struct RunScratch {
  std::vector<double> th[kMaxSegments];
  std::vector<double> px[kMaxSegments];
  std::vector<double> py[kMaxSegments];
  std::vector<double> ir[kMaxSegments];
  std::vector<std::uint32_t> idx[kMaxSegments];
  std::size_t fill[kMaxSegments] = {};
  std::vector<PairArgs> pairs;  ///< a longer run's pair frames
  std::vector<double> t;         ///< [aggressor][pitch order] weights
  std::vector<double> wre, wim;  ///< [pitch order][exponent] run weights
  std::vector<double> series;    ///< [segment][radial][re | im columns]
};

RunScratch& tls_run_scratch() {
  static thread_local RunScratch scratch;
  return scratch;
}

typedef double v4d __attribute__((vector_size(4 * sizeof(double))));
#if defined(__x86_64__) && defined(__GNUC__)
typedef double v8d __attribute__((vector_size(8 * sizeof(double))));
#endif

/// Matching integer-lane vector (vector compares on V produce this shape).
template <class V>
struct LaneInt;
template <>
struct LaneInt<v4d> {
  typedef long long type __attribute__((vector_size(4 * sizeof(long long))));
};
#if defined(__x86_64__) && defined(__GNUC__)
template <>
struct LaneInt<v8d> {
  typedef long long type __attribute__((vector_size(8 * sizeof(long long))));
};
#endif

#if defined(__x86_64__) && defined(__GNUC__)
/// AVX-512 drain of one staged chunk: per segment, compress-store the lanes
/// that selected it (vcompresspd preserves lane order, so bucket contents
/// are bitwise the scalar append's) and advance the fill count once — the
/// scalar drain's per-point fill[] load-increment-store chain disappears.
__attribute__((target("avx512f,avx512dq,avx512vl,avx2,fma,popcnt"))) inline void
drain_chunk_avx512(const KernelArgs& k, RunScratch& sc,
                   typename LaneInt<v8d>::type seg, v8d r, v8d inv_r, v8d px,
                   v8d py, std::size_t i, unsigned live_mask) {
  const __m512i segv = (__m512i)seg;
  const __m256i idxv = _mm256_add_epi32(
      _mm256_set1_epi32(static_cast<int>(i)),
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  const v8d one = {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  for (std::size_t s = 0; s < k.nseg; ++s) {
    const SegView& sv = k.segs[s];
    __mmask8 msk = _mm512_cmpeq_epi64_mask(
        segv, _mm512_set1_epi64(static_cast<long long>(s)));
    msk &= static_cast<__mmask8>(live_mask);
    if (msk == 0) continue;
    const v8d v = sv.inverse != 0 ? inv_r : r;
    v8d th = (v - sv.t_mid) * sv.t_half_inv;
    th = th > one ? one : th;
    th = th < -one ? -one : th;
    const std::size_t pos = sc.fill[s];
    _mm512_mask_compressstoreu_pd(sc.th[s].data() + pos, msk, (__m512d)th);
    _mm512_mask_compressstoreu_pd(sc.px[s].data() + pos, msk, (__m512d)px);
    _mm512_mask_compressstoreu_pd(sc.py[s].data() + pos, msk, (__m512d)py);
    _mm512_mask_compressstoreu_pd(sc.ir[s].data() + pos, msk,
                                  (__m512d)inv_r);
    _mm256_mask_compressstoreu_epi32(sc.idx[s].data() + pos, msk, idxv);
    sc.fill[s] =
        pos + static_cast<std::size_t>(__builtin_popcount(unsigned{msk}));
  }
}
#endif

/// Staging pass, once per victim: every in-range point's victim-relative
/// (x, y), 1/r and radial map value t_hat, bucketed by radial segment. All
/// of it depends on the victim and the point only, so a run's aggressors
/// share it. Lane-chunked so the sqrt, divide and segment select execute
/// packed; only the data-dependent bucket append drains each chunk lane by
/// lane. A partial final chunk pads by replicating lane 0 (every op is
/// elementwise, so a point's staged values never depend on its lane),
/// keeping stress_at (n = 1) bitwise the batch. Templated on the lane
/// vector type and forced inline into the ISA dispatch wrappers below so
/// each wrapper compiles the same lane math at its own register width.
template <class V>
__attribute__((always_inline)) inline void stage_body(
    const KernelArgs& k, const geo::Point* points, std::size_t n,
    RunScratch& sc) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(double);
  static_assert(kLanes <= kMaxLanes);
  for (std::size_t s = 0; s < k.nseg; ++s) {
    if (sc.th[s].size() < n + kMaxLanes) {
      sc.th[s].resize(n + kMaxLanes);
      sc.px[s].resize(n + kMaxLanes);
      sc.py[s].resize(n + kMaxLanes);
      sc.ir[s].resize(n + kMaxLanes);
      sc.idx[s].resize(n + kMaxLanes);
    }
    sc.fill[s] = 0;
  }
  typedef typename LaneInt<V>::type VI;
  const V vz = V{} * 0.0;
  for (std::size_t i = 0; i < n; i += kLanes) {
    const std::size_t cnt = n - i < kLanes ? n - i : kLanes;
    V px, py;
    for (std::size_t l = 0; l < kLanes; ++l) {
      const std::size_t ii = l < cnt ? i + l : i;
      px[l] = points[ii].x;
      py[l] = points[ii].y;
    }
    px -= k.vx;
    py -= k.vy;
    const V r2 = px * px + py * py;
    V r;
    for (std::size_t l = 0; l < kLanes; ++l) r[l] = __builtin_sqrt(r2[l]);
    // Lanes at the victim center (r2 = 0) stage inv_r = 0, which the
    // evaluation pass reads as "no angle" (see eval_pass).
    const VI live = r2 > vz;
    const V inv_r = live ? 1.0 / r : vz;
    // Branchless segment select: count the inner boundaries below r, and
    // push out-of-range lanes (r2 >= r_max^2) past every real segment. The
    // last view's r1 is +inf, so in-range lanes stay below nseg.
    VI seg = {};
    for (std::size_t t = 0; t + 1 < k.nseg; ++t) seg -= r >= (vz + k.segs[t].r1);
    seg -= (r2 >= (vz + k.r_max2)) * static_cast<long long>(kMaxSegments);
#if defined(__x86_64__) && defined(__GNUC__)
    if constexpr (kLanes == 8) {
      drain_chunk_avx512(k, sc, seg, r, inv_r, px, py, i,
                         cnt == kLanes ? 0xffu : (1u << cnt) - 1u);
      continue;
    }
#endif
    for (std::size_t l = 0; l < cnt; ++l) {
      const std::size_t s = static_cast<std::size_t>(seg[l]);
      if (s >= k.nseg) continue;
      const SegView& sv = k.segs[s];
      const double v = sv.inverse != 0 ? inv_r[l] : r[l];
      double th = (v - sv.t_mid) * sv.t_half_inv;
      if (th > 1.0) th = 1.0;
      if (th < -1.0) th = -1.0;
      const std::size_t pos = sc.fill[s]++;
      sc.th[s][pos] = th;
      sc.px[s][pos] = px[l];
      sc.py[s][pos] = py[l];
      sc.ir[s][pos] = inv_r[l];
      sc.idx[s][pos] = static_cast<std::uint32_t>(i + l);
    }
  }
  // Pad the last block of each bucket with benign lane values (finite
  // everywhere below; never scattered).
  for (std::size_t s = 0; s < k.nseg; ++s) {
    const std::size_t pad_end = (sc.fill[s] + kLanes - 1) / kLanes * kLanes;
    for (std::size_t pos = sc.fill[s]; pos < pad_end; ++pos) {
      sc.th[s][pos] = 0.0;
      sc.px[s][pos] = 0.0;
      sc.py[s][pos] = 0.0;
      sc.ir[s][pos] = 0.0;
    }
  }
}

/// Evaluation pass of a run of one over the staged disc: per lane block a
/// Chebyshev radial basis, the pair-frame angle from the staged (x, y,
/// 1/r), a radial combine and three halved-degree angular Clenshaw sums —
/// no trig — added straight into `out`. All lanes of a block share the
/// segment's orders and coefficient rows, so the radial combine is
/// broadcast-FMA and the serial Clenshaw chains run lane-parallel. Forced
/// inline into the ISA wrappers, like stage_body.
template <class V>
__attribute__((always_inline)) inline void eval_body(const KernelArgs& k,
                                                     const RunScratch& sc,
                                                     const PairArgs& pa,
                                                     num::SymTensor2* out) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(double);
  typedef typename LaneInt<V>::type VI;
  // One lane block = one GCC generic vector: the target-attributed wrappers
  // emit packed ops at their native width, the generic wrapper legalizes the
  // same code to SSE2 pairs — either way the lane math is guaranteed packed
  // instead of depending on the auto-vectorizer.
  for (std::size_t s = 0; s < k.nseg; ++s) {
    const std::size_t m = sc.fill[s];
    if (m == 0) continue;
    const SegView& sv = k.segs[s];
    const std::size_t nr = sv.nr;
    const std::size_t nx = sv.nx;
    const std::size_t ne = (nx + 1) / 2;  // even angular orders
    const std::size_t no = nx / 2;        // odd angular orders
    const std::uint32_t* idx_b = sc.idx[s].data();
    const double* c11 = pa.contracted + sv.offset;
    const double* c22 = c11 + nr * nx;
    const double* c12 = c22 + nr * nx;
    for (std::size_t b = 0; b < m; b += kLanes) {
      const std::size_t lanes = m - b < kLanes ? m - b : kLanes;
      V th, px, py, inv_r;
      std::memcpy(&th, sc.th[s].data() + b, sizeof(th));
      std::memcpy(&px, sc.px[s].data() + b, sizeof(px));
      std::memcpy(&py, sc.py[s].data() + b, sizeof(py));
      std::memcpy(&inv_r, sc.ir[s].data() + b, sizeof(inv_r));
      const V vzero = th - th;
      // Radial Chebyshev basis, reused by every (component, angular)
      // coefficient column.
      V tarr[kMaxOrder];
      tarr[0] = vzero + 1.0;
      tarr[1] = th;
      const V two_th = th + th;
      for (std::size_t a = 2; a < nr; ++a)
        tarr[a] = two_th * tarr[a - 1] - tarr[a - 2];
      const VI live = inv_r > vzero;
      // Pair-frame angle without atan2: x = cos(theta) = (rotated x)/r and
      // the *signed* sin(theta) = (rotated y)/r, which carries the theta
      // mirror antisymmetry of s12 with no branch at all. Lanes at the
      // victim center blend to the benign (x, st) = (1, 0).
      V x = (pa.cb * px + pa.sb * py) * inv_r;
      x = live ? x : vzero + 1.0;
      x = x > 1.0 ? vzero + 1.0 : x;
      x = x < -1.0 ? vzero - 1.0 : x;
      const V stv = (pa.cb * py - pa.sb * px) * inv_r;
      // Radial combine d[j] = sum_a T_a(th) c[a][j] in register-tiled
      // column groups: the tile accumulators live in registers across the
      // whole a loop and only the 3 * nx finished sums are stored (a
      // j-major update loop would store 3 * nr * nx partial sums and
      // saturate the store port long before the FMA ports).
      V d11[kMaxOrder], d22[kMaxOrder], d12[kMaxOrder];
      const auto combine = [&](auto tw, std::size_t j0) {
        constexpr std::size_t kTw = tw();
        V s11[kTw], s22[kTw], s12[kTw];
        for (std::size_t t = 0; t < kTw; ++t) {
          s11[t] = vzero + c11[j0 + t];
          s22[t] = vzero + c22[j0 + t];
          s12[t] = vzero + c12[j0 + t];
        }
        for (std::size_t a = 1; a < nr; ++a) {
          const V ta = tarr[a];
          const double* r11 = c11 + a * nx + j0;
          const double* r22 = c22 + a * nx + j0;
          const double* r12 = c12 + a * nx + j0;
          for (std::size_t t = 0; t < kTw; ++t) {
            s11[t] += ta * r11[t];
            s22[t] += ta * r22[t];
            s12[t] += ta * r12[t];
          }
        }
        for (std::size_t t = 0; t < kTw; ++t) {
          d11[j0 + t] = s11[t];
          d22[j0 + t] = s22[t];
          d12[j0 + t] = s12[t];
        }
      };
      std::size_t j = 0;
      for (; j + 4 <= nx; j += 4)
        combine(std::integral_constant<std::size_t, 4>{}, j);
      for (; j + 2 <= nx; j += 2)
        combine(std::integral_constant<std::size_t, 2>{}, j);
      if (j < nx) combine(std::integral_constant<std::size_t, 1>{}, j);
      // Angular sums in x = cos(theta): T_j(cos th) = cos(j th), so these
      // *are* the Fourier sums of the pair field, trig-free. The columns
      // arrive split by parity (see finalize): cos(2k th) = T_k(y) and
      // cos((2k+1) th) = cos(th) P_k(y) with y = cos(2 th) = 2 x^2 - 1 and
      // P_0 = 1, P_1 = 2y - 1 sharing the T recurrence (Clenshaw sum
      // b_0 - b_1). Splitting halves the serial chain each block waits on,
      // and the six chains (3 components x even/odd) overlap in flight.
      const V y = 2.0 * x * x - 1.0;
      const V two_y = y + y;
      V a1 = vzero, a2 = vzero;
      V e1 = vzero, e2 = vzero;
      V g1 = vzero, g2 = vzero;
      for (std::size_t q = ne; q-- > 1;) {
        const V ba = d11[q] + two_y * a1 - a2;
        const V be = d22[q] + two_y * e1 - e2;
        const V bg = d12[q] + two_y * g1 - g2;
        a2 = a1;
        a1 = ba;
        e2 = e1;
        e1 = be;
        g2 = g1;
        g1 = bg;
      }
      V oa1 = vzero, oa2 = vzero;
      V oe1 = vzero, oe2 = vzero;
      V og1 = vzero, og2 = vzero;
      for (std::size_t q = no; q-- > 1;) {
        const V ba = d11[ne + q] + two_y * oa1 - oa2;
        const V be = d22[ne + q] + two_y * oe1 - oe2;
        const V bg = d12[ne + q] + two_y * og1 - og2;
        oa2 = oa1;
        oa1 = ba;
        oe2 = oe1;
        oe1 = be;
        og2 = og1;
        og1 = bg;
      }
      V f11 = d11[0] + y * a1 - a2;
      V f22 = d22[0] + y * e1 - e2;
      V g12 = d12[0] + y * g1 - g2;
      if (no > 0) {
        f11 += x * ((d11[ne] + two_y * oa1 - oa2) - oa1);
        f22 += x * ((d22[ne] + two_y * oe1 - oe2) - oe1);
        g12 += x * ((d12[ne] + two_y * og1 - og2) - og1);
      }
      // Back-rotation into chip frame at full lane width (the double-angle
      // form of cylindrical_to_cartesian, lane-wise).
      const V s12 = stv * g12;
      const V mean = 0.5 * (f11 + f22);
      const V dev = 0.5 * (f11 - f22);
      const V rot = dev * pa.c2b - s12 * pa.s2b;
      const V o11 = mean + rot;
      const V o22 = mean - rot;
      const V o12 = dev * pa.s2b + s12 * pa.c2b;
      for (std::size_t w = 0; w < lanes; ++w) {
        num::SymTensor2& o = out[idx_b[b + w]];
        o.s11 += o11[w];
        o.s22 += o22[w];
        o.s12 += o12[w];
      }
    }
  }
}

/// Evaluation pass of a longer run over the staged disc: per lane block the
/// same radial basis, one radial combine over the victim's series columns
/// (real and imaginary parts alike), then three complex Horner sums in
/// z = e^{i phi} = (x + i y) / r, taken from the staged values: the mean
/// sum_j A_j z^j (its real part is the chip-frame mean), and the deviator's
/// sum_n P_n z^n and sum_n Q_n conj(z)^n. No trig, no rotation: the series
/// is already in the chip frame. Victim-center lanes (1/r staged as 0)
/// take the run's center tensor instead. Forced inline into the ISA
/// wrappers, like stage_body.
template <class V>
__attribute__((always_inline)) inline void eval_victim_body(
    const KernelArgs& k, const RunScratch& sc, const VictimArgs& va,
    num::SymTensor2* out) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(double);
  constexpr std::size_t kTile = 8;  // combine accumulators per tile
  static_assert(2 * kHarmonicLanes % kTile == 0, "row width is whole tiles");
  typedef typename LaneInt<V>::type VI;
  for (std::size_t s = 0; s < k.nseg; ++s) {
    const std::size_t m = sc.fill[s];
    if (m == 0) continue;
    const SegView& sv = k.segs[s];
    const std::size_t nr = sv.nr;
    const std::size_t nx = sv.nx;
    const std::size_t hc = harmonic_columns(nx);
    const std::size_t db = pad_columns(nx);  // deviator block
    const std::size_t row = 2 * hc;  // real parts, then imaginary parts
    const double* c0 = va.series + sv.victim_offset;
    const std::uint32_t* idx_b = sc.idx[s].data();
    const bool center = s == 0 && va.has_center;
    for (std::size_t b = 0; b < m; b += kLanes) {
      const std::size_t lanes = m - b < kLanes ? m - b : kLanes;
      V th, px, py, inv_r;
      std::memcpy(&th, sc.th[s].data() + b, sizeof(th));
      std::memcpy(&px, sc.px[s].data() + b, sizeof(px));
      std::memcpy(&py, sc.py[s].data() + b, sizeof(py));
      std::memcpy(&inv_r, sc.ir[s].data() + b, sizeof(inv_r));
      const V vzero = th - th;
      V tarr[kMaxOrder];
      tarr[0] = vzero + 1.0;
      tarr[1] = th;
      const V two_th = th + th;
      for (std::size_t a = 2; a < nr; ++a)
        tarr[a] = two_th * tarr[a - 1] - tarr[a - 2];
      V d[2 * harmonic_columns(kMaxOrder)];
      for (std::size_t j0 = 0; j0 < row; j0 += kTile) {
        V acc[kTile];
        for (std::size_t t = 0; t < kTile; ++t) acc[t] = vzero + c0[j0 + t];
        for (std::size_t a = 1; a < nr; ++a) {
          const V ta = tarr[a];
          const double* r = c0 + a * row + j0;
          for (std::size_t t = 0; t < kTile; ++t) acc[t] += ta * r[t];
        }
        for (std::size_t t = 0; t < kTile; ++t) d[j0 + t] = acc[t];
      }
      const V* re = d;
      const V* im = d + hc;
      const V zr = px * inv_r;
      const V zi = py * inv_r;
      // The three chains run side by side: mean (columns 0..nx-1, j
      // descending), P (db..db+nx, n descending) and Q (db+2nx down to
      // db+nx+1, n descending, in conj(z)).
      V mr = re[0], mi = im[0];
      V pr = re[db], pi = im[db];
      V qr = re[db + 2 * nx], qi = im[db + 2 * nx];
      for (std::size_t c = 1; c < nx; ++c) {
        const V tmr = mr * zr - mi * zi + re[c];
        mi = mr * zi + mi * zr + im[c];
        mr = tmr;
        const V tpr = pr * zr - pi * zi + re[db + c];
        pi = pr * zi + pi * zr + im[db + c];
        pr = tpr;
        const V tqr = qr * zr + qi * zi + re[db + 2 * nx - c];
        qi = qi * zr - qr * zi + im[db + 2 * nx - c];
        qr = tqr;
      }
      // P has one term more than the mean (n = 0); Q ends on conj(z)^1.
      {
        const V tpr = pr * zr - pi * zi + re[db + nx];
        pi = pr * zi + pi * zr + im[db + nx];
        pr = tpr;
        const V tqr = qr * zr + qi * zi;
        qi = qi * zr - qr * zi;
        qr = tqr;
      }
      const V dr = pr + qr;
      V o11 = mr + dr;
      V o22 = mr - dr;
      V o12 = pi + qi;
      if (center) {
        const VI live = inv_r > vzero;
        o11 = live ? o11 : vzero + va.c11;
        o22 = live ? o22 : vzero + va.c22;
        o12 = live ? o12 : vzero + va.c12;
      }
      for (std::size_t w = 0; w < lanes; ++w) {
        num::SymTensor2& o = out[idx_b[b + w]];
        o.s11 += o11[w];
        o.s22 += o22[w];
        o.s12 += o12[w];
      }
    }
  }
}

/// The pitch-axis contraction of a run of one: the outer loop walks the
/// coefficient block in register tiles and the inner loop runs over the
/// pitch order with the tile's running sums held in registers, so each
/// coefficient is read once and each result stored once (a plane-outer loop
/// re-reads and re-stores the whole destination once per pitch term). Every
/// element still sums src[q] + t[1] * plane_1[q] + ... in plane order, so
/// the generic variant is bitwise the plane-order scalar loop; the FMA
/// variants differ from it by fused rounding only. Forced inline into the
/// ISA wrappers below, like stage_body.
template <class V>
__attribute__((always_inline)) inline void contract_body(
    const double* src, std::size_t block, const double* t, std::size_t order,
    double* dst) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(double);
  // Eight accumulators per tile: 64 doubles on AVX-512, 32 on AVX2, with
  // room left in the register file for the broadcast weight and the loads.
  constexpr std::size_t kAcc = 8;
  const auto tile = [&](auto width, std::size_t q) {
    constexpr std::size_t kW = width();
    V acc[kW];
    for (std::size_t i = 0; i < kW; ++i)
      std::memcpy(&acc[i], src + q + i * kLanes, sizeof(V));
    for (std::size_t a = 1; a < order; ++a) {
      const double* plane = src + a * block + q;
      const double ta = t[a];
      for (std::size_t i = 0; i < kW; ++i) {
        V pv;
        std::memcpy(&pv, plane + i * kLanes, sizeof(V));
        acc[i] += ta * pv;
      }
    }
    for (std::size_t i = 0; i < kW; ++i)
      std::memcpy(dst + q + i * kLanes, &acc[i], sizeof(V));
  };
  std::size_t q = 0;
  for (; q + kAcc * kLanes <= block; q += kAcc * kLanes)
    tile(std::integral_constant<std::size_t, kAcc>{}, q);
  for (; q + kLanes <= block; q += kLanes)
    tile(std::integral_constant<std::size_t, 1>{}, q);
  for (; q < block; ++q) {
    double acc = src[q];
    for (std::size_t a = 1; a < order; ++a) acc += t[a] * src[a * block + q];
    dst[q] = acc;
  }
}

/// The fold's tile order over one segment's harmonic rows: 4-column
/// chunks, then tiles of 4, 2 and 1 radial rows. harmonic_tensor stores the
/// coefficients in exactly this order (per tile: pitch, row, column), so
/// the fold reads them as one stream.
template <class Fn>
__attribute__((always_inline)) inline void for_each_fold_tile(std::size_t nr,
                                                              std::size_t hc,
                                                              Fn&& fn) {
  for (std::size_t c = 0; c < hc; c += kHarmonicLanes) {
    std::size_t a = 0;
    for (; a + 4 <= nr; a += 4)
      fn(std::integral_constant<std::size_t, 4>{}, a, c);
    for (; a + 2 <= nr; a += 2)
      fn(std::integral_constant<std::size_t, 2>{}, a, c);
    if (a < nr) fn(std::integral_constant<std::size_t, 1>{}, a, c);
  }
}

/// A longer run's fold: its pairs with their pitch weights, the segments'
/// harmonic tensors, and the exponents -neg .. np - 1 its weights span.
struct FoldArgs {
  const KernelArgs* k = nullptr;
  const RunScratch* sc = nullptr;
  const double* const* harmonic = nullptr;  ///< per segment
  const PairArgs* pairs = nullptr;
  const double* t = nullptr;  ///< [count][kMaxOrder] pitch weights
  std::size_t count = 0, order = 0, neg = 0, np = 0;
  double* wre = nullptr;  ///< [order][neg + np] scratch
  double* wim = nullptr;
  double* series = nullptr;
};

/// The fold of a longer run into its chip-frame series. First the run
/// weights w[p][e] = sum_k T_p(q_k) e^{i e beta_k}, the powers by complex
/// recurrence from (cos beta, sin beta) and negative exponents by
/// conjugation. Then, per segment that holds staged points, series[a][c] =
/// sum_p harmonic[p][a][c] * w[p][e(c)] for every radial row a and
/// harmonic column c of exponent e(c) (see harmonic_tensor): one pass over
/// the tensor whatever the run length, each tile's sums in registers across
/// the pitch order. Always 4 lanes (the columns are padded to that). Forced
/// inline into the ISA wrappers below, like stage_body.
__attribute__((always_inline)) inline void fold_body(const FoldArgs& f) {
  typedef v4d V;
  const std::size_t ws = f.neg + f.np;
  std::fill(f.wre, f.wre + f.order * ws, 0.0);
  std::fill(f.wim, f.wim + f.order * ws, 0.0);
  double er[kMaxOrder + 2 * kHarmonicLanes], ei[kMaxOrder + 2 * kHarmonicLanes];
  for (std::size_t k = 0; k < f.count; ++k) {
    er[0] = 1.0;
    ei[0] = 0.0;
    for (std::size_t e = 1; e < f.np; ++e) {
      er[e] = er[e - 1] * f.pairs[k].cb - ei[e - 1] * f.pairs[k].sb;
      ei[e] = er[e - 1] * f.pairs[k].sb + ei[e - 1] * f.pairs[k].cb;
    }
    for (std::size_t p = 0; p < f.order; ++p) {
      const double tp = f.t[k * kMaxOrder + p];
      double* wr = f.wre + p * ws + f.neg;
      double* wi = f.wim + p * ws + f.neg;
      for (std::size_t e = 0; e < f.np; e += kHarmonicLanes) {
        V a, b, x, y;
        std::memcpy(&a, wr + e, sizeof(V));
        std::memcpy(&b, wi + e, sizeof(V));
        std::memcpy(&x, er + e, sizeof(V));
        std::memcpy(&y, ei + e, sizeof(V));
        a += tp * x;
        b += tp * y;
        std::memcpy(wr + e, &a, sizeof(V));
        std::memcpy(wi + e, &b, sizeof(V));
      }
    }
  }
  for (std::size_t p = 0; p < f.order; ++p) {
    double* wr = f.wre + p * ws + f.neg;
    double* wi = f.wim + p * ws + f.neg;
    for (std::size_t e = 1; e <= f.neg; ++e) {
      *(wr - e) = wr[e];
      *(wi - e) = -wi[e];
    }
  }
  for (std::size_t s = 0; s < f.k->nseg; ++s) {
    if (f.sc->fill[s] == 0) continue;  // nothing staged reads this segment
    const SegView& sv = f.k->segs[s];
    const std::size_t hc = harmonic_columns(sv.nx);
    const std::size_t db = pad_columns(sv.nx);  // deviator block
    const double* h = f.harmonic[s];
    double* series = f.series + sv.victim_offset;
    for_each_fold_tile(sv.nr, hc, [&](auto rows, std::size_t a0,
                                      std::size_t c) {
      constexpr std::size_t kR = rows();
      // Exponent of column c: the mean block starts at 1 - nx, the
      // deviator block at 2 - nx; padding columns read in-range weights
      // times zero.
      const std::size_t e = c < db ? f.neg + 1 + c - sv.nx
                                   : f.neg + 2 + (c - db) - sv.nx;
      V acc_re[kR], acc_im[kR];
      for (std::size_t i = 0; i < kR; ++i) acc_re[i] = acc_im[i] = V{};
      for (std::size_t p = 0; p < f.order; ++p) {
        V wr, wi;
        std::memcpy(&wr, f.wre + p * ws + e, sizeof(V));
        std::memcpy(&wi, f.wim + p * ws + e, sizeof(V));
        for (std::size_t i = 0; i < kR; ++i) {
          V hv;
          std::memcpy(&hv, h, sizeof(V));
          h += kHarmonicLanes;
          acc_re[i] += hv * wr;
          acc_im[i] += hv * wi;
        }
      }
      for (std::size_t i = 0; i < kR; ++i) {
        double* out = series + (a0 + i) * 2 * hc + c;
        std::memcpy(out, &acc_re[i], sizeof(V));
        std::memcpy(out + hc, &acc_im[i], sizeof(V));
      }
    });
  }
}

using StageFn = void (*)(const KernelArgs&, const geo::Point*, std::size_t,
                         RunScratch&);
using EvalFn = void (*)(const KernelArgs&, const RunScratch&, const PairArgs&,
                        num::SymTensor2*);
using EvalVictimFn = void (*)(const KernelArgs&, const RunScratch&,
                              const VictimArgs&, num::SymTensor2*);
using FoldFn = void (*)(const FoldArgs&);

// Every pass compiled for one ISA level at lane vector V (the fold always
// runs 4 lanes). The build intentionally carries no global -march flags
// (baseline x86-64 codegen keeps every committed kernel baseline
// bit-stable), so the FMA throughput this kernel's budget assumes is opted
// into locally: the same bodies are compiled again for AVX2+FMA (4 lanes)
// and AVX-512 (8 lanes) and selected once at runtime. Results differ from
// the generic path only by fused-rounding regrouping; the certificate is
// computed through this very dispatch, so the certified bound always covers
// the code actually running on the host.
#define TSV_KERNEL_VARIANTS(isa, target, V)                                   \
  target void stage_##isa(const KernelArgs& k, const geo::Point* points,     \
                          std::size_t n, RunScratch& sc) {                   \
    stage_body<V>(k, points, n, sc);                                         \
  }                                                                          \
  target void eval_##isa(const KernelArgs& k, const RunScratch& sc,          \
                         const PairArgs& pa, num::SymTensor2* out) {         \
    eval_body<V>(k, sc, pa, out);                                            \
  }                                                                          \
  target void eval_victim_##isa(const KernelArgs& k, const RunScratch& sc,   \
                                const VictimArgs& va, num::SymTensor2* out) { \
    eval_victim_body<V>(k, sc, va, out);                                     \
  }                                                                          \
  target void contract_##isa(const double* src, std::size_t block,           \
                             const double* t, std::size_t order,             \
                             double* dst) {                                  \
    contract_body<V>(src, block, t, order, dst);                             \
  }                                                                          \
  target void fold_##isa(const FoldArgs& f) { fold_body(f); }

TSV_KERNEL_VARIANTS(generic, , v4d)
#if defined(__x86_64__) && defined(__GNUC__)
TSV_KERNEL_VARIANTS(avx2, __attribute__((target("avx2,fma"))), v4d)
TSV_KERNEL_VARIANTS(
    avx512,
    __attribute__((target("avx512f,avx512dq,avx512vl,avx2,fma,popcnt"))),
    v8d)
#endif
#undef TSV_KERNEL_VARIANTS

/// The staging, evaluation, contraction and fold passes are selected
/// together, so all of them always run at the same ISA level.
struct Dispatch {
  StageFn stage;
  EvalFn eval;
  EvalVictimFn eval_victim;
  detail::PitchContractionFn contract;
  FoldFn fold;
};

Dispatch select_dispatch() {
#if defined(__x86_64__) && defined(__GNUC__)
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl"))
    return {stage_avx512, eval_avx512, eval_victim_avx512, contract_avx512,
            fold_avx512};
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return {stage_avx2, eval_avx2, eval_victim_avx2, contract_avx2,
            fold_avx2};
#endif
  return {stage_generic, eval_generic, eval_victim_generic, contract_generic,
          fold_generic};
}

const Dispatch& active_dispatch() {
  static const Dispatch dispatch = select_dispatch();
  return dispatch;
}

/// Pair-frame rotation coefficients of (victim, aggressor), hoisted once
/// per pair: no trig of beta anywhere.
PairArgs pair_frame(const geo::Point& victim, const geo::Point& aggressor) {
  const double ax = aggressor.x - victim.x;
  const double ay = aggressor.y - victim.y;
  const double d2 = ax * ax + ay * ay;
  TSV_REQUIRE(d2 > 0.0, "coincident pair");
  const double inv_d = 1.0 / std::sqrt(d2);
  const double inv_d2 = 1.0 / d2;
  PairArgs p;
  p.cb = ax * inv_d;
  p.sb = ay * inv_d;
  p.c2b = (ax * ax - ay * ay) * inv_d2;
  p.s2b = 2.0 * ax * ay * inv_d2;
  return p;
}

/// One segment's coefficients (natural angular order) re-expressed in the
/// chip-frame harmonic basis. Per (pitch, radial) row, with mean
/// (s11 + s22)/2 = sum_j m_j cos j theta, dev (s11 - s22)/2 = sum_j d_j
/// cos j theta and s12 = sin theta sum_j g_j cos j theta = sum_n h_n sin n
/// theta (sin theta cos j theta = [sin (j+1) theta - sin (j-1) theta] / 2):
/// dev + i s12 = sum_n P_n e^{i n theta} + Q_n e^{-i n theta}, P_0 = d_0,
/// P_n = (d_n + h_n)/2, Q_n = (d_n - h_n)/2. In the chip frame (theta = phi
/// - beta, the deviator turned by e^{2 i beta}) a pair adds m_j e^{-i j
/// beta} to z^j of the mean, P_n e^{i (2-n) beta} to z^n and Q_n e^{i (2+n)
/// beta} to conj(z)^n of the deviator. A row holds m_{nx-1} .. m_0
/// (exponents of e^{i beta} 1-nx .. 0), then P_nx .. P_0, Q_1 .. Q_nx
/// (exponents 2-nx .. nx+2), so each block's weights are one contiguous run
/// of exponents. Stored in the fold's tile order (for_each_fold_tile).
std::vector<double> harmonic_tensor(const std::vector<double>& coeffs,
                                    std::size_t order, std::size_t nr,
                                    std::size_t nx) {
  const std::size_t hc = harmonic_columns(nx);
  const std::size_t db = pad_columns(nx);  // deviator block
  std::vector<double> h(order * nr * hc, 0.0);
  std::vector<double> sh(nx + 2);
  for (std::size_t p = 0; p < order; ++p) {
    for (std::size_t a = 0; a < nr; ++a) {
      const double* c11 = coeffs.data() + (p * 3 * nr + a) * nx;
      const double* c22 = c11 + nr * nx;
      const double* c12 = c22 + nr * nx;
      double* row = h.data() + (p * nr + a) * hc;
      std::fill(sh.begin(), sh.end(), 0.0);
      for (std::size_t j = 0; j < nx; ++j) {
        sh[j + 1] += j == 0 ? c12[0] : 0.5 * c12[j];
        if (j >= 2) sh[j - 1] -= 0.5 * c12[j];
        row[nx - 1 - j] = 0.5 * (c11[j] + c22[j]);
      }
      for (std::size_t n = 0; n <= nx; ++n) {
        const double dn = n < nx ? 0.5 * (c11[n] - c22[n]) : 0.0;
        row[db + nx - n] = n == 0 ? dn : 0.5 * (dn + sh[n]);
        if (n > 0) row[db + nx + n] = 0.5 * (dn - sh[n]);
      }
    }
  }
  std::vector<double> tiled;
  tiled.reserve(h.size());
  for_each_fold_tile(nr, hc, [&](auto rows, std::size_t a0, std::size_t c) {
    for (std::size_t p = 0; p < order; ++p)
      for (std::size_t i = 0; i < rows(); ++i)
        for (std::size_t l = 0; l < kHarmonicLanes; ++l)
          tiled.push_back(h[(p * nr + a0 + i) * hc + c + l]);
  });
  return tiled;
}

}  // namespace

namespace detail {

void contract_pitch_generic(const double* src, std::size_t block,
                            const double* t, std::size_t order, double* dst) {
  contract_generic(src, block, t, order, dst);
}

PitchContractionFn active_pitch_contraction() {
  return active_dispatch().contract;
}

}  // namespace detail

PairSurrogate::PairSurrogate(Data data) {
  pitch_min_ = data.pitch_min;
  pitch_max_ = data.pitch_max;
  r_max_ = data.r_max;
  pitch_order_ = data.pitch_order;
  certificate_ = data.certificate;
  segments_.reserve(data.segments.size());
  for (Data::Segment& in : data.segments) {
    Segment s;
    s.inverse_radial = in.inverse_radial != 0;
    s.r0 = in.r0;
    s.r1 = in.r1;
    s.nr = in.nr;
    s.nx = in.nx;
    s.coeffs = std::move(in.coeffs);
    segments_.push_back(std::move(s));
  }
  finalize();
}

void PairSurrogate::finalize() {
  TSV_REQUIRE(pitch_min_ > 0.0 && pitch_max_ > pitch_min_,
              "surrogate data: pitch domain must be a positive interval");
  TSV_REQUIRE(r_max_ > 0.0, "surrogate data: r_max must be positive");
  TSV_REQUIRE(pitch_order_ >= 2 && pitch_order_ <= kMaxOrder,
              "surrogate data: pitch order out of range");
  TSV_REQUIRE(!segments_.empty() && segments_.size() <= kMaxSegments,
              "surrogate data: segment count out of range");
  segment_offsets_.assign(segments_.size() + 1, 0);
  victim_offsets_.assign(segments_.size() + 1, 0);
  max_nx_ = 0;
  double prev = 0.0;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    Segment& s = segments_[i];
    TSV_REQUIRE(s.r0 == prev && s.r1 > s.r0,
                "surrogate data: segments must tile [0, r_max] contiguously");
    TSV_REQUIRE(!s.inverse_radial || s.r0 > 0.0,
                "surrogate data: inverse-radial segment needs r0 > 0");
    TSV_REQUIRE(s.nr >= 2 && s.nr <= kMaxOrder && s.nx >= 1 &&
                    s.nx <= kMaxOrder,
                "surrogate data: segment orders out of range");
    TSV_REQUIRE(s.coeffs.size() == pitch_order_ * 3 * s.nr * s.nx,
                "surrogate data: segment coefficient shape mismatch");
    const double v_lo = s.inverse_radial ? 1.0 / s.r1 : s.r0;
    const double v_hi = s.inverse_radial ? 1.0 / s.r0 : s.r1;
    s.t_mid = 0.5 * (v_lo + v_hi);
    s.t_half_inv = 2.0 / (v_hi - v_lo);
    s.harmonic = harmonic_tensor(s.coeffs, pitch_order_, s.nr, s.nx);
    // Kernel layout: angular columns split by parity so the halved-degree
    // even/odd Clenshaw sums read contiguous coefficient runs. to_data()
    // restores natural Chebyshev order.
    permute_angular_rows(s.coeffs, s.nx, /*to_kernel_order=*/true);
    segment_offsets_[i + 1] = segment_offsets_[i] + 3 * s.nr * s.nx;
    victim_offsets_[i + 1] =
        victim_offsets_[i] + 2 * s.nr * harmonic_columns(s.nx);
    max_nx_ = std::max(max_nx_, s.nx);
    prev = s.r1;
  }
  TSV_REQUIRE(prev == r_max_, "surrogate data: segments must reach r_max");
  // The victim center as a run of one sees it: the core segment at t_hat =
  // -1 (r = 0) and theta = 0, where every T_j(cos theta) is 1 and s12
  // vanishes. One s11 and one s22 per pitch plane (center_[2 p + c]).
  const Segment& core = segments_[0];
  center_.assign(2 * pitch_order_, 0.0);
  for (std::size_t q = 0; q < center_.size(); ++q) {
    const double* m =
        core.coeffs.data() + (q / 2 * 3 + q % 2) * core.nr * core.nx;
    for (std::size_t a = 0; a < core.nr; ++a)
      for (std::size_t j = 0; j < core.nx; ++j)
        center_[q] += (a % 2 == 0 ? 1.0 : -1.0) * m[a * core.nx + j];
  }
  // Pitch axis map in q = 1/pitch (see the header: the interaction is
  // Laurent in the pair distance, so Chebyshev-in-q converges much faster
  // at the steep small-pitch end than Chebyshev-in-pitch).
  const double q_lo = 1.0 / pitch_max_;
  const double q_hi = 1.0 / pitch_min_;
  pitch_q_mid_ = 0.5 * (q_lo + q_hi);
  pitch_q_half_inv_ = 2.0 / (q_hi - q_lo);
  id_ = next_surrogate_id();
  counters_ = std::make_unique<Counters>();
}

PairSurrogate::Data PairSurrogate::to_data() const {
  Data data;
  data.pitch_min = pitch_min_;
  data.pitch_max = pitch_max_;
  data.r_max = r_max_;
  data.pitch_order = pitch_order_;
  data.certificate = certificate_;
  data.segments.reserve(segments_.size());
  for (const Segment& s : segments_) {
    Data::Segment out;
    out.inverse_radial = s.inverse_radial ? 1 : 0;
    out.r0 = s.r0;
    out.r1 = s.r1;
    out.nr = s.nr;
    out.nx = s.nx;
    out.coeffs = s.coeffs;
    permute_angular_rows(out.coeffs, out.nx, /*to_kernel_order=*/false);
    data.segments.push_back(std::move(out));
  }
  return data;
}

std::uint64_t PairSurrogate::coefficient_count() const {
  std::uint64_t n = 0;
  for (const Segment& s : segments_) n += s.coeffs.size();
  return n;
}

std::vector<double> PairSurrogate::radial_boundaries() const {
  std::vector<double> b{0.0};
  for (const Segment& s : segments_) b.push_back(s.r1);
  return b;
}

void PairSurrogate::pitch_weights(double pitch, double* t) const {
  double ph = (1.0 / pitch - pitch_q_mid_) * pitch_q_half_inv_;
  if (ph > 1.0) ph = 1.0;
  if (ph < -1.0) ph = -1.0;
  t[0] = 1.0;
  t[1] = ph;
  for (std::size_t a = 2; a < pitch_order_; ++a)
    t[a] = 2.0 * ph * t[a - 1] - t[a - 2];
}

const double* PairSurrogate::contracted_for_pitch(double pitch) const {
  ContractionMemo& memo = tls_contraction_memo();
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(pitch));
  std::memcpy(&bits, &pitch, sizeof(bits));
  if (memo.id == id_ && memo.pitch_bits == bits && !memo.m.empty())
    return memo.m.data();
  memo.m.resize(segment_offsets_.back());
  double t[kMaxOrder];
  pitch_weights(pitch, t);
  const detail::PitchContractionFn contract = active_dispatch().contract;
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    const Segment& seg = segments_[s];
    contract(seg.coeffs.data(), 3 * seg.nr * seg.nx, t, pitch_order_,
             memo.m.data() + segment_offsets_[s]);
  }
  memo.id = id_;
  memo.pitch_bits = bits;
  return memo.m.data();
}

void PairSurrogate::accumulate_run(const geo::Point& victim,
                                   const geo::Point* aggressors,
                                   std::size_t count, const geo::Point* points,
                                   std::size_t n, num::SymTensor2* out) const {
  if (count == 0) return;
  SegView views[kMaxSegments];
  const std::size_t nseg = segments_.size();
  for (std::size_t i = 0; i < nseg; ++i) {
    const Segment& s = segments_[i];
    views[i].r1 = s.r1;
    views[i].t_mid = s.t_mid;
    views[i].t_half_inv = s.t_half_inv;
    views[i].inverse = s.inverse_radial ? 1 : 0;
    views[i].nr = static_cast<std::uint32_t>(s.nr);
    views[i].nx = static_cast<std::uint32_t>(s.nx);
    views[i].offset = segment_offsets_[i];
    views[i].victim_offset = victim_offsets_[i];
  }
  // Sentinel: sqrt rounding can land r exactly on r_max even when
  // r2 < r_max^2; the open-ended last view keeps the select walk in range.
  views[nseg - 1].r1 = std::numeric_limits<double>::infinity();
  KernelArgs k;
  k.segs = views;
  k.nseg = nseg;
  k.r_max2 = r_max_ * r_max_;
  k.vx = victim.x;
  k.vy = victim.y;
  const Dispatch& d = active_dispatch();
  RunScratch& sc = tls_run_scratch();
  d.stage(k, points, n, sc);

  if (count == 1) {
    // A run of one keeps the per-thread memo, so certification's per-point
    // calls and a regular array skip the contraction.
    PairArgs pa = pair_frame(victim, aggressors[0]);
    pa.contracted = contracted_for_pitch(geo::distance(victim, aggressors[0]));
    d.eval(k, sc, pa, out);
    return;
  }
  // A longer run becomes one chip-frame series (see harmonic_tensor). Its
  // weights span every exponent a harmonic column reads, padding columns
  // included: 1 - max_nx .. max_nx + kHarmonicLanes.
  FoldArgs f;
  f.k = &k;
  f.sc = &sc;
  f.count = count;
  f.order = pitch_order_;
  f.neg = max_nx_ - 1;
  f.np = pad_columns(max_nx_ + kHarmonicLanes + 1);
  sc.pairs.resize(count);
  sc.t.resize(count * kMaxOrder);
  sc.wre.resize(f.order * (f.neg + f.np));
  sc.wim.resize(f.order * (f.neg + f.np));
  sc.series.resize(victim_offsets_.back());
  // Center points keep the runs-of-one convention, each pair at theta = 0
  // in its own frame, so the run sums those pair tensors separately.
  VictimArgs va;
  for (std::size_t i = 0; i < sc.fill[0]; ++i)
    if (sc.ir[0][i] == 0.0) va.has_center = true;
  for (std::size_t j = 0; j < count; ++j) {
    const PairArgs& pa = sc.pairs[j] = pair_frame(victim, aggressors[j]);
    double* t = sc.t.data() + j * kMaxOrder;
    pitch_weights(geo::distance(victim, aggressors[j]), t);
    if (!va.has_center) continue;
    double f11 = 0.0, f22 = 0.0;
    for (std::size_t p = 0; p < pitch_order_; ++p) {
      f11 += t[p] * center_[2 * p];
      f22 += t[p] * center_[2 * p + 1];
    }
    const double mean = 0.5 * (f11 + f22);
    const double dev = 0.5 * (f11 - f22);
    va.c11 += mean + dev * pa.c2b;
    va.c22 += mean - dev * pa.c2b;
    va.c12 += dev * pa.s2b;
  }
  const double* harmonic[kMaxSegments];
  for (std::size_t s = 0; s < nseg; ++s)
    harmonic[s] = segments_[s].harmonic.data();
  f.harmonic = harmonic;
  f.pairs = sc.pairs.data();
  f.t = sc.t.data();
  f.wre = sc.wre.data();
  f.wim = sc.wim.data();
  f.series = sc.series.data();
  d.fold(f);
  va.series = sc.series.data();
  d.eval_victim(k, sc, va, out);
}

num::SymTensor2 PairSurrogate::stress_at(const geo::Point& victim,
                                         const geo::Point& aggressor,
                                         const geo::Point& p) const {
  num::SymTensor2 t;
  accumulate_run(victim, &aggressor, 1, &p, 1, &t);
  return t;
}

void PairSurrogate::record_use(std::uint64_t surrogate_pairs,
                               std::uint64_t fallback_pairs) const {
  if (surrogate_pairs != 0)
    counters_->surrogate_pairs.fetch_add(surrogate_pairs,
                                         std::memory_order_relaxed);
  if (fallback_pairs != 0)
    counters_->fallback_pairs.fetch_add(fallback_pairs,
                                        std::memory_order_relaxed);
}

SurrogateUseStats PairSurrogate::use_stats() const {
  return {counters_->surrogate_pairs.load(std::memory_order_relaxed),
          counters_->fallback_pairs.load(std::memory_order_relaxed)};
}

void PairSurrogate::reset_use_stats() const {
  counters_->surrogate_pairs.store(0, std::memory_order_relaxed);
  counters_->fallback_pairs.store(0, std::memory_order_relaxed);
}

namespace {

/// Adversarial certification: dense exact-vs-surrogate comparison over
/// Chebyshev-offset radii (deliberately off the fit grid), uniform-disc and
/// log-radial random points, near-interface radii, full-circle angles, and
/// both identity and randomly rotated pair frames — through the very kernel
/// dispatch production uses.
SurrogateCertificate certify(const PairSurrogate& sur,
                             const InteractiveStressModel& model,
                             const SurrogateFitOptions& opt) {
  SurrogateCertificate cert;
  cert.pitch_min = sur.pitch_min();
  cert.pitch_max = sur.pitch_max();
  cert.r_max = sur.r_max();
  cert.coefficient_count = sur.coefficient_count();

  std::mt19937_64 rng(opt.cert_seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const double pmin = sur.pitch_min();
  const double pmax = sur.pitch_max();
  const double pmid = 0.5 * (pmin + pmax);
  const double phalf = 0.5 * (pmax - pmin);

  // Pitch samples: the exact domain ends (the gate is inclusive), Chebyshev
  // nodes of an order unrelated to the fit's, and random fill.
  std::vector<double> pitches{pmin, pmax};
  const std::size_t n_random = opt.cert_pitches / 6;
  const std::size_t n_nodes = opt.cert_pitches > pitches.size() + n_random
                                  ? opt.cert_pitches - pitches.size() - n_random
                                  : 0;
  for (std::size_t a = 0; a < n_nodes; ++a)
    pitches.push_back(pmid + phalf * cheb_node(a, n_nodes));
  for (std::size_t a = 0; a < n_random; ++a)
    pitches.push_back(pmin + (pmax - pmin) * unit(rng));

  // Near-interface radii: Chebyshev error peaks at segment ends, and the
  // material-interface hoop-stress jumps make *exact* boundary radii
  // ill-posed (fp rounding can flip the region on either side), so probe a
  // relative whisker off each boundary instead.
  const std::vector<double> bounds = sur.radial_boundaries();
  std::vector<double> edge_radii;
  for (std::size_t b = 1; b < bounds.size(); ++b) {
    const double delta = 1e-6 * std::max(1.0, bounds[b]);
    edge_radii.push_back(bounds[b] - delta);
    if (bounds[b] < sur.r_max()) edge_radii.push_back(bounds[b] + delta);
  }
  const std::size_t nseg = bounds.size() - 1;
  const double r_lo = 0.05;

  double field_scale = 0.0;
  double max_err = 0.0;
  std::uint64_t count = 0;
  for (const double pitch : pitches) {
    const RegionField& combined = model.combined_for_pitch(pitch);
    for (std::size_t i = 0; i < opt.cert_points_per_pitch; ++i) {
      double r = 0.0;
      double theta = 2.0 * std::numbers::pi * unit(rng);
      switch (i % 4) {
        case 0: {  // Chebyshev-offset radius inside a cycling segment
          const std::size_t s = (i / 4) % nseg;
          const double mid = 0.5 * (bounds[s] + bounds[s + 1]);
          const double half = 0.5 * (bounds[s + 1] - bounds[s]);
          r = mid + half * cheb_node((i / 4) % 29, 29);
          break;
        }
        case 1:  // area-uniform over the disc
          r = sur.r_max() * std::sqrt(unit(rng));
          break;
        case 2: {  // near-interface, with axis-aligned angles mixed in
          r = edge_radii[(i / 4) % edge_radii.size()];
          const std::size_t phase = (i / 4) % 5;
          if (phase < 4)
            theta = 0.5 * std::numbers::pi * static_cast<double>(phase);
          break;
        }
        default:  // log-radial emphasis on the large-field small radii
          r = r_lo * std::pow(sur.r_max() / r_lo, unit(rng));
          break;
      }
      if (r >= sur.r_max()) r = sur.r_max() * (1.0 - 1e-12);
      geo::Point victim{0.0, 0.0};
      geo::Point aggressor{pitch, 0.0};
      double phi = 0.0;
      if (i % 2 == 1) {  // random pair frame: exercises the hoisted rotation
        victim = {20.0 * unit(rng) - 10.0, 20.0 * unit(rng) - 10.0};
        phi = 2.0 * std::numbers::pi * unit(rng);
        aggressor = {victim.x + pitch * std::cos(phi),
                     victim.y + pitch * std::sin(phi)};
      }
      const geo::Point p{victim.x + r * std::cos(phi + theta),
                         victim.y + r * std::sin(phi + theta)};
      const num::SymTensor2 exact =
          model.stress_with_combined(combined, victim, aggressor, pitch, p);
      num::SymTensor2 approx;
      sur.accumulate_run(victim, &aggressor, 1, &p, 1, &approx);
      field_scale = std::max({field_scale, std::abs(exact.s11),
                              std::abs(exact.s22), std::abs(exact.s12)});
      max_err = std::max({max_err, std::abs(approx.s11 - exact.s11),
                          std::abs(approx.s22 - exact.s22),
                          std::abs(approx.s12 - exact.s12)});
      ++count;
    }
  }
  cert.sample_count = count;
  cert.field_scale = field_scale;
  cert.max_abs_error = max_err;
  cert.certified_rel_bound =
      field_scale > 0.0 ? opt.cert_margin * max_err / field_scale : 0.0;
  return cert;
}

}  // namespace

PairSurrogate PairSurrogate::fit(const InteractiveStressModel& model,
                                 const SurrogateFitOptions& opt) {
  const tsvlib::TsvStructure& structure = model.response().structure();
  const double r_body = structure.body_radius;
  const double r_outer = structure.outer_radius();
  TSV_REQUIRE(opt.pitch_min > 0.0 && opt.pitch_max > opt.pitch_min,
              "surrogate pitch domain must be a positive interval");
  TSV_REQUIRE(opt.pitch_min > 2.0 * r_outer * 0.999,
              "surrogate pitches must keep the pair non-overlapping");
  TSV_REQUIRE(opt.r_max > r_outer,
              "surrogate r_max must reach into the substrate");
  TSV_REQUIRE(opt.pitch_order >= 2 && opt.pitch_order <= kMaxOrder,
              "surrogate pitch order out of range");

  std::vector<double> bounds{0.0, r_body, r_outer};
  for (const double split : opt.substrate_splits) {
    TSV_REQUIRE(split > bounds.back() && split < opt.r_max,
                "substrate splits must increase strictly within (R', r_max)");
    bounds.push_back(split);
  }
  bounds.push_back(opt.r_max);
  const std::size_t nseg = bounds.size() - 1;
  TSV_REQUIRE(nseg <= kMaxSegments, "too many radial segments");
  TSV_REQUIRE(
      opt.radial_orders.size() == nseg && opt.angular_orders.size() == nseg,
      "need one radial and one angular order per segment "
      "(core, liner, then each substrate piece)");

  Data data;
  data.pitch_min = opt.pitch_min;
  data.pitch_max = opt.pitch_max;
  data.r_max = opt.r_max;
  data.pitch_order = opt.pitch_order;
  const std::size_t np = opt.pitch_order;
  // Pitch nodes in q = 1/pitch, matching the contraction's q_hat map.
  const double q_lo = 1.0 / opt.pitch_max;
  const double q_hi = 1.0 / opt.pitch_min;
  const double qmid = 0.5 * (q_lo + q_hi);
  const double qhalf = 0.5 * (q_hi - q_lo);
  std::vector<double> pitches(np);
  for (std::size_t a = 0; a < np; ++a)
    pitches[a] = 1.0 / (qmid + qhalf * cheb_node(a, np));

  const std::vector<double> cmp = cheb_cos_matrix(np);
  std::vector<double> tmp;
  for (std::size_t s = 0; s < nseg; ++s) {
    Data::Segment seg;
    seg.r0 = bounds[s];
    seg.r1 = bounds[s + 1];
    // Substrate pieces expand in u = 1/r: the scattered far field is a
    // Laurent series in r, i.e. a polynomial in u, and u is the inv_r the
    // kernel computes anyway.
    seg.inverse_radial = seg.r0 >= r_outer ? 1 : 0;
    seg.nr = opt.radial_orders[s];
    seg.nx = opt.angular_orders[s];
    TSV_REQUIRE(seg.nr >= 2 && seg.nr <= kMaxOrder && seg.nx >= 1 &&
                    seg.nx <= kMaxOrder,
                "surrogate segment orders out of range");
    const double v_lo = seg.inverse_radial != 0 ? 1.0 / seg.r1 : seg.r0;
    const double v_hi = seg.inverse_radial != 0 ? 1.0 / seg.r0 : seg.r1;
    const double mid = 0.5 * (v_lo + v_hi);
    const double half = 0.5 * (v_hi - v_lo);
    const std::size_t nr = seg.nr;
    const std::size_t nx = seg.nx;
    const std::size_t block = 3 * nr * nx;
    seg.coeffs.assign(np * block, 0.0);

    std::vector<double> radii(nr);
    for (std::size_t i = 0; i < nr; ++i) {
      const double v = mid + half * cheb_node(i, nr);
      radii[i] = seg.inverse_radial != 0 ? 1.0 / v : v;
    }
    std::vector<double> xs(nx), sins(nx);
    for (std::size_t j = 0; j < nx; ++j) {
      xs[j] = cheb_node(j, nx);
      sins[j] = std::sqrt(std::max(0.0, 1.0 - xs[j] * xs[j]));
    }

    // Sample the pair-frame field at the tensor grid. The odd component is
    // stored as G12 = s12 / sin(theta), which is itself a polynomial in
    // cos(theta); interior Gauss nodes keep sin(theta) > 0.
    for (std::size_t a = 0; a < np; ++a) {
      const RegionField& combined = model.combined_for_pitch(pitches[a]);
      double* plane = seg.coeffs.data() + a * block;
      for (std::size_t i = 0; i < nr; ++i) {
        for (std::size_t j = 0; j < nx; ++j) {
          const geo::Point p{radii[i] * xs[j], radii[i] * sins[j]};
          const num::SymTensor2 f = model.stress_with_combined(
              combined, {0.0, 0.0}, {pitches[a], 0.0}, pitches[a], p);
          plane[i * nx + j] = f.s11;
          plane[nr * nx + i * nx + j] = f.s22;
          plane[2 * nr * nx + i * nx + j] = f.s12 / sins[j];
        }
      }
    }

    // Tensor-product forward transforms: angular, radial, then pitch axis.
    const std::vector<double> cmx = cheb_cos_matrix(nx);
    const std::vector<double> cmr = cheb_cos_matrix(nr);
    for (std::size_t line = 0; line < np * 3 * nr; ++line)
      cheb_transform_line(seg.coeffs.data() + line * nx, 1, nx, cmx, tmp);
    for (std::size_t ac = 0; ac < np * 3; ++ac) {
      for (std::size_t j = 0; j < nx; ++j) {
        cheb_transform_line(seg.coeffs.data() + ac * nr * nx + j, nx, nr, cmr,
                            tmp);
      }
    }
    for (std::size_t q = 0; q < block; ++q)
      cheb_transform_line(seg.coeffs.data() + q, block, np, cmp, tmp);
    data.segments.push_back(std::move(seg));
  }

  PairSurrogate out(std::move(data));
  out.certificate_ = certify(out, model, opt);
  out.reset_use_stats();
  return out;
}

}  // namespace tsv::ana
