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

/// Per-thread memo of the pitch-contracted coefficient matrices. Keyed on
/// (surrogate id, pitch bits): full-chip sweeps evaluate long runs of pairs
/// at repeated pitches, so the contraction amortizes to ~zero.
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
/// map, orders, offset into the contracted matrices).
struct SegView {
  double r1 = 0.0;  ///< selection: first segment with r < r1 wins
  double t_mid = 0.0;
  double t_half_inv = 0.0;
  std::uint32_t inverse = 0;
  std::uint32_t nr = 0;
  std::uint32_t nx = 0;
  std::uint64_t offset = 0;
};

struct KernelArgs {
  const SegView* segs = nullptr;
  const double* contracted = nullptr;
  std::size_t nseg = 0;
  double r_max2 = 0.0;
  double vx = 0.0, vy = 0.0;
  double cb = 0.0, sb = 0.0;    ///< cos/sin of the pair angle beta
  double c2b = 0.0, s2b = 0.0;  ///< cos/sin of 2 beta
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

/// Thread-local per-segment SoA buckets (radial map value, cos/sin(theta),
/// scatter index), padded to whole lane blocks. Reused across calls, so
/// steady-state allocation cost is zero.
struct SoaScratch {
  std::vector<double> th[kMaxSegments];
  std::vector<double> cx[kMaxSegments];
  std::vector<double> sx[kMaxSegments];
  std::vector<std::uint32_t> idx[kMaxSegments];
};

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

SoaScratch& tls_soa_scratch() {
  static thread_local SoaScratch scratch;
  return scratch;
}

#if defined(__x86_64__) && defined(__GNUC__)
/// AVX-512 drain of one staged chunk: per segment, compress-store the lanes
/// that selected it (vcompresspd preserves lane order, so bucket contents
/// are bitwise the scalar append's) and advance the fill count once — the
/// scalar drain's per-point fill[] load-increment-store chain disappears.
__attribute__((target("avx512f,avx512dq,avx512vl,avx2,fma,popcnt"))) inline void
drain_chunk_avx512(const KernelArgs& k, SoaScratch& sc, std::size_t* fill,
                   typename LaneInt<v8d>::type seg, v8d r, v8d inv_r, v8d x,
                   v8d st, std::size_t i, unsigned live_mask) {
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
    const std::size_t pos = fill[s];
    _mm512_mask_compressstoreu_pd(sc.th[s].data() + pos, msk, (__m512d)th);
    _mm512_mask_compressstoreu_pd(sc.cx[s].data() + pos, msk, (__m512d)x);
    _mm512_mask_compressstoreu_pd(sc.sx[s].data() + pos, msk, (__m512d)st);
    _mm256_mask_compressstoreu_epi32(sc.idx[s].data() + pos, msk, idxv);
    fill[s] =
        pos + static_cast<std::size_t>(__builtin_popcount(unsigned{msk}));
  }
}
#endif

/// The batch kernel: one sqrt, one divide, a Chebyshev radial combine and
/// three halved-degree angular Clenshaw sums per point — no trig. Two
/// passes: stage every in-range point's (t_hat, cos theta, sin theta) and
/// bucket by radial segment, then evaluate each bucket in lane-wide SoA
/// blocks (all lanes share the segment's orders and coefficient rows, so
/// the radial combine is broadcast-FMA and the serial Clenshaw chains run
/// lane-parallel). Templated on the lane vector type and forced inline into
/// the ISA dispatch wrappers below so each wrapper compiles the same lane
/// math at its own register width.
template <class V>
__attribute__((always_inline)) inline void kernel_body(
    const KernelArgs& k, const geo::Point* points, std::size_t n,
    num::SymTensor2* out) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(double);
  static_assert(kLanes <= kMaxLanes);
  SoaScratch& sc = tls_soa_scratch();
  for (std::size_t s = 0; s < k.nseg; ++s) {
    if (sc.th[s].size() < n + kMaxLanes) {
      sc.th[s].resize(n + kMaxLanes);
      sc.cx[s].resize(n + kMaxLanes);
      sc.sx[s].resize(n + kMaxLanes);
      sc.idx[s].resize(n + kMaxLanes);
    }
  }
  std::size_t fill[kMaxSegments] = {};
  // Pass 1 runs lane-chunked so the sqrt, divide, pair-frame rotation and
  // segment select all execute packed; only the data-dependent bucket
  // append drains each chunk lane by lane. A partial final chunk pads by
  // replicating lane 0 (every op is elementwise, so a point's staged values
  // never depend on its lane), keeping stress_at (n = 1) bitwise the batch.
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
    // Pair-frame angle without atan2: x = cos(theta) = (rotated x)/r and
    // the *signed* sin(theta) = (rotated y)/r, which carries the theta
    // mirror antisymmetry of s12 with no branch at all. Lanes at the victim
    // center (r2 = 0) blend to the benign (x, st, inv_r) = (1, 0, 0).
    const VI live = r2 > vz;
    const V inv_r = live ? 1.0 / r : vz;
    V x = (k.cb * px + k.sb * py) * inv_r;
    x = live ? x : vz + 1.0;
    x = x > 1.0 ? vz + 1.0 : x;
    x = x < -1.0 ? vz - 1.0 : x;
    const V st = (k.cb * py - k.sb * px) * inv_r;
    // Branchless segment select: count the inner boundaries below r, and
    // push out-of-range lanes (r2 >= r_max^2) past every real segment. The
    // last view's r1 is +inf, so in-range lanes stay below nseg.
    VI seg = {};
    for (std::size_t t = 0; t + 1 < k.nseg; ++t) seg -= r >= (vz + k.segs[t].r1);
    seg -= (r2 >= (vz + k.r_max2)) * static_cast<long long>(kMaxSegments);
#if defined(__x86_64__) && defined(__GNUC__)
    if constexpr (kLanes == 8) {
      drain_chunk_avx512(k, sc, fill, seg, r, inv_r, x, st, i,
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
      const std::size_t pos = fill[s]++;
      sc.th[s][pos] = th;
      sc.cx[s][pos] = x[l];
      sc.sx[s][pos] = st[l];
      sc.idx[s][pos] = static_cast<std::uint32_t>(i + l);
    }
  }
  // Pad the last block of each bucket with benign lane values (finite
  // everywhere below; never scattered).
  for (std::size_t s = 0; s < k.nseg; ++s) {
    const std::size_t pad_end = (fill[s] + kLanes - 1) / kLanes * kLanes;
    for (std::size_t pos = fill[s]; pos < pad_end; ++pos) {
      sc.th[s][pos] = 0.0;
      sc.cx[s][pos] = 0.0;
      sc.sx[s][pos] = 0.0;
    }
  }

  // One lane block = one GCC generic vector: the target-attributed wrappers
  // emit packed ops at their native width, the generic wrapper legalizes the
  // same code to SSE2 pairs — either way the lane math is guaranteed packed
  // instead of depending on the auto-vectorizer.
  for (std::size_t s = 0; s < k.nseg; ++s) {
    const std::size_t m = fill[s];
    if (m == 0) continue;
    const SegView& sv = k.segs[s];
    const std::size_t nr = sv.nr;
    const std::size_t nx = sv.nx;
    const std::size_t ne = (nx + 1) / 2;  // even angular orders
    const std::size_t no = nx / 2;        // odd angular orders
    const double* c11 = k.contracted + sv.offset;
    const double* c22 = c11 + nr * nx;
    const double* c12 = c22 + nr * nx;
    const double* th_b = sc.th[s].data();
    const double* cx_b = sc.cx[s].data();
    const double* sx_b = sc.sx[s].data();
    const std::uint32_t* idx_b = sc.idx[s].data();
    for (std::size_t b = 0; b < m; b += kLanes) {
      V th, x;
      std::memcpy(&th, th_b + b, sizeof(th));
      std::memcpy(&x, cx_b + b, sizeof(x));
      const V vzero = th - th;
      // Radial Chebyshev basis, computed once per block and reused by every
      // (component, angular) coefficient column.
      V tarr[kMaxOrder];
      tarr[0] = vzero + 1.0;
      tarr[1] = th;
      const V two_th = th + th;
      for (std::size_t a = 2; a < nr; ++a)
        tarr[a] = two_th * tarr[a - 1] - tarr[a - 2];
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
      // form of cylindrical_to_cartesian, lane-wise), leaving only the
      // indexed read-modify-write of `out` per lane.
      V stv;
      std::memcpy(&stv, sx_b + b, sizeof(stv));
      const V s12 = stv * g12;
      const V mean = 0.5 * (f11 + f22);
      const V dev = 0.5 * (f11 - f22);
      const V rot = dev * k.c2b - s12 * k.s2b;
      const V o11 = mean + rot;
      const V o22 = mean - rot;
      const V o12 = dev * k.s2b + s12 * k.c2b;
      for (std::size_t w = 0; w < kLanes && b + w < m; ++w) {
        num::SymTensor2& o = out[idx_b[b + w]];
        o.s11 += o11[w];
        o.s22 += o22[w];
        o.s12 += o12[w];
      }
    }
  }
}

using KernelFn = void (*)(const KernelArgs&, const geo::Point*, std::size_t,
                          num::SymTensor2*);

void kernel_generic(const KernelArgs& k, const geo::Point* points,
                    std::size_t n, num::SymTensor2* out) {
  kernel_body<v4d>(k, points, n, out);
}

#if defined(__x86_64__) && defined(__GNUC__)
// The build intentionally carries no global -march flags (baseline x86-64
// codegen keeps every committed kernel baseline bit-stable), so the FMA
// throughput this kernel's budget assumes is opted into locally: the same
// body is compiled again for AVX2+FMA (4 lanes) and AVX-512 (8 lanes) and
// selected once at runtime. Results differ from the generic path only by
// fused-rounding regrouping; the certificate is computed through this very
// dispatch, so the certified bound always covers the kernel actually
// running on the host.
__attribute__((target("avx2,fma"))) void kernel_avx2(const KernelArgs& k,
                                                     const geo::Point* points,
                                                     std::size_t n,
                                                     num::SymTensor2* out) {
  kernel_body<v4d>(k, points, n, out);
}

__attribute__((target("avx512f,avx512dq,avx512vl,avx2,fma,popcnt"))) void
kernel_avx512(const KernelArgs& k, const geo::Point* points, std::size_t n,
              num::SymTensor2* out) {
  kernel_body<v8d>(k, points, n, out);
}

KernelFn select_kernel() {
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl"))
    return kernel_avx512;
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return kernel_avx2;
  return kernel_generic;
}
#else
KernelFn select_kernel() { return kernel_generic; }
#endif

KernelFn active_kernel() {
  static const KernelFn kernel = select_kernel();
  return kernel;
}

}  // namespace

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
    // Kernel layout: angular columns split by parity so the halved-degree
    // even/odd Clenshaw sums read contiguous coefficient runs. to_data()
    // restores natural Chebyshev order.
    permute_angular_rows(s.coeffs, s.nx, /*to_kernel_order=*/true);
    segment_offsets_[i + 1] = segment_offsets_[i] + 3 * s.nr * s.nx;
    prev = s.r1;
  }
  TSV_REQUIRE(prev == r_max_, "surrogate data: segments must reach r_max");
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

const double* PairSurrogate::contracted_for_pitch(double pitch) const {
  ContractionMemo& memo = tls_contraction_memo();
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(pitch));
  std::memcpy(&bits, &pitch, sizeof(bits));
  if (memo.id == id_ && memo.pitch_bits == bits && !memo.m.empty())
    return memo.m.data();
  memo.m.resize(segment_offsets_.back());
  double ph = (1.0 / pitch - pitch_q_mid_) * pitch_q_half_inv_;
  if (ph > 1.0) ph = 1.0;
  if (ph < -1.0) ph = -1.0;
  double t[kMaxOrder];
  t[0] = 1.0;
  t[1] = ph;
  for (std::size_t a = 2; a < pitch_order_; ++a)
    t[a] = 2.0 * ph * t[a - 1] - t[a - 2];
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    const Segment& seg = segments_[s];
    const std::size_t block = 3 * seg.nr * seg.nx;
    double* dst = memo.m.data() + segment_offsets_[s];
    const double* src = seg.coeffs.data();
    for (std::size_t q = 0; q < block; ++q) dst[q] = src[q];
    for (std::size_t a = 1; a < pitch_order_; ++a) {
      const double ta = t[a];
      const double* plane = src + a * block;
      for (std::size_t q = 0; q < block; ++q) dst[q] += ta * plane[q];
    }
  }
  memo.id = id_;
  memo.pitch_bits = bits;
  return memo.m.data();
}

void PairSurrogate::accumulate(const geo::Point& victim,
                               const geo::Point& aggressor,
                               const geo::Point* points, std::size_t n,
                               num::SymTensor2* out) const {
  const double ax = aggressor.x - victim.x;
  const double ay = aggressor.y - victim.y;
  const double d2 = ax * ax + ay * ay;
  TSV_REQUIRE(d2 > 0.0, "coincident pair");
  // Pair-frame rotation coefficients hoisted once per pair: no trig of
  // beta anywhere.
  const double inv_d = 1.0 / std::sqrt(d2);
  const double inv_d2 = 1.0 / d2;
  KernelArgs k;
  k.cb = ax * inv_d;
  k.sb = ay * inv_d;
  k.c2b = (ax * ax - ay * ay) * inv_d2;
  k.s2b = 2.0 * ax * ay * inv_d2;
  k.vx = victim.x;
  k.vy = victim.y;
  k.r_max2 = r_max_ * r_max_;
  k.contracted = contracted_for_pitch(geo::distance(victim, aggressor));
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
  }
  // Sentinel: sqrt rounding can land r exactly on r_max even when
  // r2 < r_max^2; the open-ended last view keeps the select walk in range.
  views[nseg - 1].r1 = std::numeric_limits<double>::infinity();
  k.segs = views;
  k.nseg = nseg;
  active_kernel()(k, points, n, out);
}

bool PairSurrogate::try_accumulate(const geo::Point& victim,
                                   const geo::Point& aggressor,
                                   const geo::Point* points, std::size_t n,
                                   num::SymTensor2* out) const {
  const double pitch = geo::distance(victim, aggressor);
  if (!covers(pitch)) {
    counters_->fallback_pairs.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  counters_->surrogate_pairs.fetch_add(1, std::memory_order_relaxed);
  accumulate(victim, aggressor, points, n, out);
  return true;
}

num::SymTensor2 PairSurrogate::stress_at(const geo::Point& victim,
                                         const geo::Point& aggressor,
                                         const geo::Point& p) const {
  num::SymTensor2 t;
  accumulate(victim, aggressor, &p, 1, &t);
  return t;
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
      sur.accumulate(victim, aggressor, &p, 1, &approx);
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
