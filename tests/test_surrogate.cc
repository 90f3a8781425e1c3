// Certification property suite for the Stage II Chebyshev surrogate
// (analytic/surrogate.h). The surrogate's contract: a machine-checked
// relative error bound (the SurrogateCertificate) that Stage II gates on
// (kSurrogateTolerance), exact-series fallback for
// out-of-domain pitches, and bitwise-deterministic evaluation regardless of
// thread count. Each claim is pinned here:
//
//   - the certified bound holds on fresh adversarial samples it was NOT
//     fitted or certified against;
//   - the scalar path is bitwise the batch kernel, and concurrent batch
//     evaluations from many threads are bitwise the serial ones;
//   - the pitch contraction's generic variant is bitwise the plane-order
//     loop, and whether the per-thread memo is cold or warm never changes
//     a result;
//   - the run kernel (accumulate_run) matches the per-pair sequence for
//     every run length: bitwise for a run of one, within 1e-12 of the field
//     scale for a longer run folded into one chip-frame series, which also
//     stays within the certified budget of the exact series, keeps the
//     runs-of-one convention at the victim center, and is bitwise
//     deterministic across threads and point splits;
//   - out-of-domain pitches provably fall back to the exact series
//     (counter-tracked), and points beyond the fitted radius contribute
//     exactly zero; an attached surrogate the gate refuses sends every
//     pair to the series, counted on the model and reported once;
//   - theta-mirror antisymmetry of the shear is exact (bitwise), because
//     the kernel represents s12 as sin(theta) * even-polynomial;
//   - snapshot round-trips (io/snapshot, SnapshotKind::kSurrogate) are
//     bitwise for coefficients and certificate alike;
//   - InteractiveStage and the incremental engine both dispatch through
//     the surrogate when its certificate passes, and fall back to the
//     exact series per pair when it does not cover the pitch.

#include "analytic/surrogate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numbers>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "analytic/interaction.h"
#include "core/framework.h"
#include "core/incremental_engine.h"
#include "core/interactive_stage.h"
#include "core/stress_table.h"
#include "io/snapshot.h"
#include "tsv/generators.h"

namespace tsv::ana {
namespace {

const tsvlib::TsvStructure kS = tsvlib::TsvStructure::baseline_bcb();

std::shared_ptr<const InteractiveStressModel> shared_model() {
  static auto model =
      core::characterize(kS, {}, core::StageTwo::kSeries).model;
  return model;
}

/// One default-options fit shared across the suite (the fit itself is
/// deterministic, and every test resets the use counters it asserts on).
std::shared_ptr<const PairSurrogate> fitted_shared() {
  static auto sur = std::make_shared<const PairSurrogate>(
      PairSurrogate::fit(*shared_model()));
  return sur;
}

const PairSurrogate& fitted() { return *fitted_shared(); }

/// Attaches a surrogate to the shared model for one test body and always
/// detaches on scope exit, so the suite's tests stay order-independent.
struct ScopedAttach {
  explicit ScopedAttach(std::shared_ptr<const PairSurrogate> sur) {
    shared_model()->attach_surrogate(std::move(sur));
  }
  ~ScopedAttach() { shared_model()->attach_surrogate(nullptr); }
};

void expect_bitwise_equal(const std::vector<num::SymTensor2>& got,
                          const std::vector<num::SymTensor2>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].s11, want[i].s11) << i;
    EXPECT_EQ(got[i].s22, want[i].s22) << i;
    EXPECT_EQ(got[i].s12, want[i].s12) << i;
  }
}

TEST(Surrogate, FitCertifiesWithinTheDefaultTolerance) {
  const SurrogateCertificate& c = fitted().certificate();
  // The defaults are calibrated to certify at <= 1e-6 relative field error
  // (the kSurrogateTolerance gate Stage II applies).
  EXPECT_GT(c.certified_rel_bound, 0.0);
  EXPECT_LE(c.certified_rel_bound, 1e-6);
  EXPECT_TRUE(c.certified_within(kSurrogateTolerance));
  // A tolerance below the attested bound must NOT pass the gate.
  EXPECT_FALSE(c.certified_within(0.5 * c.certified_rel_bound));
  // An empty certificate attests nothing.
  EXPECT_FALSE(SurrogateCertificate{}.certified_within(1.0));

  EXPECT_EQ(c.pitch_min, 8.0);
  EXPECT_EQ(c.pitch_max, 25.0);
  EXPECT_EQ(c.r_max, 25.0);
  EXPECT_EQ(c.coefficient_count, fitted().coefficient_count());
  const SurrogateFitOptions defaults;
  EXPECT_GE(c.sample_count,
            defaults.cert_pitches * defaults.cert_points_per_pitch);
  // The bound is margin * max_abs / scale by construction.
  EXPECT_NEAR(c.certified_rel_bound,
              defaults.cert_margin * c.max_abs_error / c.field_scale,
              1e-18);
}

TEST(Surrogate, StaysWithinTheCertifiedBoundOnFreshAdversarialSamples) {
  const PairSurrogate& sur = fitted();
  const SurrogateCertificate& c = sur.certificate();
  const auto model = shared_model();
  // The certificate normalizes by the field scale it observed; fresh
  // samples are held to the same absolute budget.
  const double budget = c.certified_rel_bound * c.field_scale;

  std::mt19937_64 rng(0xf2e54u);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  const std::vector<double> boundaries = sur.radial_boundaries();
  std::size_t samples = 0;
  double worst = 0.0;
  // 24 pitches x 448 points > 10k samples, none of them the fit nodes or
  // the certification set (different seed, different construction).
  for (int pi = 0; pi < 24; ++pi) {
    const double pitch =
        pi == 0 ? sur.pitch_min()
                : (pi == 1 ? sur.pitch_max()
                           : sur.pitch_min() + (sur.pitch_max() -
                                                sur.pitch_min()) *
                                                   u01(rng));
    // Random pair frame, victim off-origin: exercises the global->pair
    // rotation alongside the kernel.
    const double phi = 2.0 * std::numbers::pi * u01(rng);
    const geo::Point v{10.0 * (u01(rng) - 0.5), 10.0 * (u01(rng) - 0.5)};
    const geo::Point a{v.x + pitch * std::cos(phi),
                       v.y + pitch * std::sin(phi)};
    const RegionField& combined = model->combined_for_pitch(pitch);
    for (int k = 0; k < 448; ++k) {
      double r;
      if (k % 4 == 0) {
        // Adversarial: hug a random segment interface from either side.
        const double edge =
            boundaries[1 + static_cast<std::size_t>(
                               u01(rng) *
                               static_cast<double>(boundaries.size() - 2))];
        r = std::min(24.999, std::max(1e-3, edge + (u01(rng) - 0.5) * 2e-6));
      } else {
        r = 0.05 + 24.9 * u01(rng);
      }
      const double th = 2.0 * std::numbers::pi * u01(rng);
      const geo::Point p{v.x + r * std::cos(th), v.y + r * std::sin(th)};
      const num::SymTensor2 exact =
          model->stress_with_combined(combined, v, a, pitch, p);
      const num::SymTensor2 got = sur.stress_at(v, a, p);
      worst = std::max({worst, std::abs(got.s11 - exact.s11),
                        std::abs(got.s22 - exact.s22),
                        std::abs(got.s12 - exact.s12)});
      ++samples;
    }
  }
  EXPECT_GE(samples, 10000u);
  EXPECT_LE(worst, budget) << "worst " << worst << " MPa vs certified budget "
                           << budget << " MPa";
}

/// `count` pitches spanning the fitted domain, both inclusive ends included.
std::vector<double> domain_pitches(const PairSurrogate& sur,
                                   std::size_t count) {
  std::vector<double> pitches(count);
  for (std::size_t i = 0; i < count; ++i)
    pitches[i] = sur.pitch_min() + (sur.pitch_max() - sur.pitch_min()) *
                                       static_cast<double>(i) /
                                       static_cast<double>(count - 1);
  return pitches;
}

/// Aggressor at `pitch` from `v` in a direction that turns with `i`.
geo::Point aggressor_at(const geo::Point& v, double pitch, std::size_t i) {
  const double phi = 0.37 * static_cast<double>(i);
  return {v.x + pitch * std::cos(phi), v.y + pitch * std::sin(phi)};
}

TEST(Surrogate, ScalarPathIsBitwiseTheBatchKernel) {
  const PairSurrogate& sur = fitted();
  std::mt19937_64 rng(31);
  std::uniform_real_distribution<double> coord(-24.0, 24.0);
  std::vector<geo::Point> pts(777);  // odd count: exercises the partial
                                     // final SIMD chunk and its pad lanes
  for (geo::Point& p : pts) p = {coord(rng), coord(rng)};
  const geo::Point v{1.25, -0.5}, a{1.25 + 6.0, -0.5 + 7.0};  // pitch ~9.22
  std::vector<num::SymTensor2> batch(pts.size());
  sur.accumulate_run(v, &a, 1, pts.data(), pts.size(), batch.data());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const num::SymTensor2 one = sur.stress_at(v, a, pts[i]);
    EXPECT_EQ(batch[i].s11, one.s11) << i;
    EXPECT_EQ(batch[i].s22, one.s22) << i;
    EXPECT_EQ(batch[i].s12, one.s12) << i;
  }

  // Across the pitch domain, with the contraction memo cold on every
  // scalar call (the pitches alternate point by point).
  const std::vector<double> pitches = domain_pitches(sur, 64);
  const std::size_t np = 13;
  std::vector<std::vector<num::SymTensor2>> by_pitch(pitches.size());
  for (std::size_t k = 0; k < pitches.size(); ++k) {
    by_pitch[k].resize(np);
    const geo::Point a_k = aggressor_at(v, pitches[k], k);
    sur.accumulate_run(v, &a_k, 1, pts.data(), np, by_pitch[k].data());
  }
  for (std::size_t i = 0; i < np; ++i) {
    for (std::size_t k = 0; k < pitches.size(); ++k) {
      const num::SymTensor2 one =
          sur.stress_at(v, aggressor_at(v, pitches[k], k), pts[i]);
      EXPECT_EQ(by_pitch[k][i].s11, one.s11) << k << " " << i;
      EXPECT_EQ(by_pitch[k][i].s22, one.s22) << k << " " << i;
      EXPECT_EQ(by_pitch[k][i].s12, one.s12) << k << " " << i;
    }
  }
}

TEST(Surrogate, ContractionMemoStateNeverChangesTheResult) {
  // The per-thread memo holds the last pitch's contraction. A pair
  // evaluated right after a different pitch (cold) and right after itself
  // (warm, memo hit) must produce the same bits at every pitch as a fresh
  // copy of the surrogate, whose first call always contracts.
  const PairSurrogate& sur = fitted();
  const PairSurrogate::Data data = sur.to_data();
  std::mt19937_64 rng(83);
  std::uniform_real_distribution<double> coord(-24.0, 24.0);
  std::vector<geo::Point> pts(203);
  for (geo::Point& p : pts) p = {coord(rng), coord(rng)};
  const geo::Point v{0.5, -1.5};
  const std::vector<double> pitches = domain_pitches(sur, 64);
  std::vector<num::SymTensor2> scratch(pts.size());
  for (std::size_t i = 0; i < pitches.size(); ++i) {
    SCOPED_TRACE(pitches[i]);
    const geo::Point a = aggressor_at(v, pitches[i], i);
    const std::size_t other = (i + 1) % pitches.size();
    const geo::Point b = aggressor_at(v, pitches[other], other);
    sur.accumulate_run(v, &b, 1, pts.data(), pts.size(), scratch.data());
    std::vector<num::SymTensor2> cold(pts.size());
    sur.accumulate_run(v, &a, 1, pts.data(), pts.size(), cold.data());
    std::vector<num::SymTensor2> warm(pts.size());
    sur.accumulate_run(v, &a, 1, pts.data(), pts.size(), warm.data());
    const PairSurrogate fresh(data);
    std::vector<num::SymTensor2> want(pts.size());
    fresh.accumulate_run(v, &a, 1, pts.data(), pts.size(), want.data());
    expect_bitwise_equal(cold, want);
    expect_bitwise_equal(warm, want);
  }
}

TEST(Surrogate, GenericContractionIsBitwiseThePlaneOrderLoop) {
  // The register-blocked contraction keeps each element's order of
  // additions, so on the baseline ISA it must reproduce the plane-outer
  // reference loop bit for bit — on the fitted coefficients and on odd
  // block sizes that exercise every tile tail. The host-selected variant
  // may fuse roundings and is held to a tight relative bound instead.
  const PairSurrogate::Data data = fitted().to_data();
  std::mt19937_64 rng(89);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::vector<std::vector<double>> blocks;
  std::vector<std::size_t> widths;
  for (const PairSurrogate::Data::Segment& s : data.segments) {
    blocks.push_back(s.coeffs);
    widths.push_back(3 * s.nr * s.nx);
  }
  for (const std::size_t width : {1u, 3u, 7u, 9u, 33u, 65u, 101u}) {
    std::vector<double> coeffs(data.pitch_order * width);
    for (double& c : coeffs) c = unit(rng);
    blocks.push_back(std::move(coeffs));
    widths.push_back(width);
  }
  const std::size_t order = data.pitch_order;
  const detail::PitchContractionFn host = detail::active_pitch_contraction();
  for (const double ph : {-1.0, -0.61, 0.0, 0.23, 0.97, 1.0}) {
    double t[64];
    t[0] = 1.0;
    t[1] = ph;
    for (std::size_t a = 2; a < order; ++a)
      t[a] = 2.0 * ph * t[a - 1] - t[a - 2];
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      const std::size_t width = widths[b];
      const double* src = blocks[b].data();
      std::vector<double> want(src, src + width);
      for (std::size_t a = 1; a < order; ++a)
        for (std::size_t q = 0; q < width; ++q)
          want[q] += t[a] * src[a * width + q];
      std::vector<double> got(width), fused(width);
      detail::contract_pitch_generic(src, width, t, order, got.data());
      host(src, width, t, order, fused.data());
      for (std::size_t q = 0; q < width; ++q) {
        EXPECT_EQ(got[q], want[q]) << "block " << b << " q " << q;
        double mag = 0.0;
        for (std::size_t a = 0; a < order; ++a)
          mag += std::abs(t[a] * src[a * width + q]);
        EXPECT_LE(std::abs(fused[q] - want[q]), 1e-14 * mag)
            << "block " << b << " q " << q;
      }
    }
  }
}

/// `count` aggressors of `v` at random pitches in the fitted domain and
/// random angles.
std::vector<geo::Point> random_run(const PairSurrogate& sur,
                                   const geo::Point& v, std::size_t count,
                                   std::mt19937_64& rng) {
  std::uniform_real_distribution<double> pitch(sur.pitch_min(),
                                               sur.pitch_max());
  std::uniform_real_distribution<double> angle(0.0, 2.0 * std::numbers::pi);
  std::vector<geo::Point> aggressors(count);
  for (geo::Point& a : aggressors) {
    const double d = pitch(rng), phi = angle(rng);
    a = {v.x + d * std::cos(phi), v.y + d * std::sin(phi)};
  }
  return aggressors;
}

TEST(Surrogate, RunKernelMatchesTheSequentialPairs) {
  // accumulate_run stages the victim's disc once. A run of one evaluates
  // its pair directly; a longer run folds all of its pairs into one
  // chip-frame series, which is the sequence of its pairs as runs of one
  // up to rounding. For every run length 1-20, into a zeroed buffer and
  // into one that already holds a field: a run of one is that sequence bit
  // for bit, a longer run within 1e-12 of the certificate's field scale per
  // component. The points include the victim center (which keeps the
  // runs-of-one convention), one exactly at r_max and one beyond it (both
  // add exactly zero). Repeating a run, or evaluating its points one call
  // at a time, gives the same bits.
  const PairSurrogate& sur = fitted();
  const double tol = 1e-12 * sur.certificate().field_scale;
  const geo::Point v{-2.25, 3.5};
  std::mt19937_64 rng(101);
  std::uniform_real_distribution<double> coord(-27.0, 27.0);
  std::vector<geo::Point> pts = {
      v, {v.x + sur.r_max(), v.y}, {v.x, v.y - 30.0}};
  for (int i = 0; i < 250; ++i)
    pts.push_back({v.x + coord(rng), v.y + coord(rng)});
  std::vector<num::SymTensor2> prefilled(pts.size());
  for (num::SymTensor2& t : prefilled) t = {coord(rng), coord(rng), coord(rng)};
  const std::vector<num::SymTensor2> zeroed(pts.size());
  for (std::size_t count = 1; count <= 20; ++count) {
    SCOPED_TRACE(count);
    const std::vector<geo::Point> aggressors = random_run(sur, v, count, rng);
    const std::vector<num::SymTensor2>* starts[] = {&zeroed, &prefilled};
    for (const std::vector<num::SymTensor2>* start : starts) {
      std::vector<num::SymTensor2> want = *start;
      for (const geo::Point& a : aggressors)
        sur.accumulate_run(v, &a, 1, pts.data(), pts.size(), want.data());
      std::vector<num::SymTensor2> got = *start;
      sur.accumulate_run(v, aggressors.data(), count, pts.data(), pts.size(),
                         got.data());
      if (count == 1) {
        expect_bitwise_equal(got, want);
      } else {
        for (std::size_t i = 0; i < pts.size(); ++i) {
          EXPECT_NEAR(got[i].s11, want[i].s11, tol) << i;
          EXPECT_NEAR(got[i].s22, want[i].s22, tol) << i;
          EXPECT_NEAR(got[i].s12, want[i].s12, tol) << i;
        }
      }
      for (const std::size_t i : {1u, 2u}) {
        EXPECT_EQ(got[i].s11, (*start)[i].s11) << i;
        EXPECT_EQ(got[i].s22, (*start)[i].s22) << i;
        EXPECT_EQ(got[i].s12, (*start)[i].s12) << i;
      }
      if (start == &zeroed) {
        EXPECT_TRUE(std::isfinite(got[0].s11) && got[0].s11 != 0.0);
      }
      std::vector<num::SymTensor2> again = *start;
      sur.accumulate_run(v, aggressors.data(), count, pts.data(), pts.size(),
                         again.data());
      expect_bitwise_equal(again, got);
      std::vector<num::SymTensor2> split = *start;
      for (std::size_t i = 0; i < pts.size(); ++i)
        sur.accumulate_run(v, aggressors.data(), count, &pts[i], 1,
                           &split[i]);
      expect_bitwise_equal(split, got);
    }
    // An empty point set touches nothing.
    std::vector<num::SymTensor2> none;
    sur.accumulate_run(v, aggressors.data(), count, pts.data(), 0,
                       none.data());
  }
}

TEST(Surrogate, VictimCenterKeepsTheRunsOfOneConvention) {
  // A run of one evaluates the victim center at theta = 0 of its pair
  // frame. A smooth field's harmonics j >= 1 vanish at r = 0, so a good fit
  // barely depends on that choice; a surrogate whose core segment carries
  // angular terms at r = 0 depends on it fully. A longer run must keep the
  // runs-of-one convention at the center, and its series everywhere else.
  PairSurrogate::Data data = fitted().to_data();
  PairSurrogate::Data::Segment& core = data.segments[0];
  for (std::size_t p = 0; p < data.pitch_order; ++p)
    for (std::size_t comp = 0; comp < 3; ++comp)
      for (std::size_t a = 0; a < core.nr; ++a) {
        double* row = core.coeffs.data() + ((p * 3 + comp) * core.nr + a) *
                                               core.nx;
        row[1] += 5.0 / static_cast<double>(1 + p + a);
        row[3] -= 2.0 / static_cast<double>(1 + p + comp);
      }
  const PairSurrogate sur(std::move(data));
  const double tol = 1e-12 * fitted().certificate().field_scale;
  const geo::Point v{3.25, -1.0};
  const std::vector<geo::Point> pts = {
      v, {v.x + 0.7, v.y - 1.1}, {v.x - 2.0, v.y + 0.3}, {v.x + 9.0, v.y}};
  std::mt19937_64 rng(109);
  for (std::size_t count = 2; count <= 20; ++count) {
    SCOPED_TRACE(count);
    const std::vector<geo::Point> aggressors = random_run(sur, v, count, rng);
    std::vector<num::SymTensor2> want(pts.size()), got(pts.size());
    for (const geo::Point& a : aggressors)
      sur.accumulate_run(v, &a, 1, pts.data(), pts.size(), want.data());
    sur.accumulate_run(v, aggressors.data(), count, pts.data(), pts.size(),
                       got.data());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      EXPECT_NEAR(got[i].s11, want[i].s11, tol) << i;
      EXPECT_NEAR(got[i].s22, want[i].s22, tol) << i;
      EXPECT_NEAR(got[i].s12, want[i].s12, tol) << i;
    }
  }
}

TEST(Surrogate, AggregatedRunStaysWithinTheCertifiedBound) {
  // The chip-frame series of a run is an identity of the sum of its
  // certified pairs, so a run of K pairs stays within K times the
  // certified per-pair budget of the exact series, center point included.
  const PairSurrogate& sur = fitted();
  const SurrogateCertificate& c = sur.certificate();
  const auto model = shared_model();
  std::mt19937_64 rng(103);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  const geo::Point v{4.0, -7.5};
  std::vector<geo::Point> pts = {v};
  for (int i = 0; i < 160; ++i) {
    const double r = i % 2 == 0 ? sur.r_max() * std::sqrt(u01(rng))
                                : 0.05 * std::pow(500.0, u01(rng));
    const double th = 2.0 * std::numbers::pi * u01(rng);
    pts.push_back({v.x + r * std::cos(th), v.y + r * std::sin(th)});
  }
  for (const std::size_t count : {2u, 5u, 11u, 20u}) {
    SCOPED_TRACE(count);
    const std::vector<geo::Point> aggressors = random_run(sur, v, count, rng);
    std::vector<num::SymTensor2> got(pts.size());
    sur.accumulate_run(v, aggressors.data(), count, pts.data(), pts.size(),
                       got.data());
    const double budget =
        static_cast<double>(count) * c.certified_rel_bound * c.field_scale;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      num::SymTensor2 exact;
      for (const geo::Point& a : aggressors)
        exact += model->stress_at(v, a, pts[i]);
      EXPECT_LE(std::abs(got[i].s11 - exact.s11), budget) << i;
      EXPECT_LE(std::abs(got[i].s22 - exact.s22), budget) << i;
      EXPECT_LE(std::abs(got[i].s12 - exact.s12), budget) << i;
    }
  }
}

TEST(Surrogate, BatchEvaluationIsBitwiseDeterministicAcrossThreads) {
  const PairSurrogate& sur = fitted();
  std::mt19937_64 rng(47);
  std::uniform_real_distribution<double> coord(-24.0, 24.0);
  const geo::Point v{0.0, 0.0};
  std::vector<geo::Point> pts = {v};  // the victim center, then the disc
  for (int i = 0; i < 4096; ++i) pts.push_back({coord(rng), coord(rng)});
  // A run of one (per-thread contraction memo) and a 9-aggressor run (per-
  // thread fold scratch).
  const std::vector<geo::Point> runs[] = {{{11.3, 4.7}},
                                          random_run(sur, v, 9, rng)};
  for (const std::vector<geo::Point>& aggressors : runs) {
    SCOPED_TRACE(aggressors.size());
    std::vector<num::SymTensor2> want(pts.size());
    sur.accumulate_run(v, aggressors.data(), aggressors.size(), pts.data(),
                       pts.size(), want.data());
    // Eight threads evaluate the same (run, points) concurrently into
    // private buffers. Each thread recomputes its own per-thread state; the
    // contract is that this recomputation is bitwise identical, so every
    // buffer must equal the serial result exactly.
    constexpr std::size_t kThreads = 8;
    std::vector<std::vector<num::SymTensor2>> results(kThreads);
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < kThreads; ++t)
      workers.emplace_back([&, t] {
        for (int rep = 0; rep < 3; ++rep) {
          results[t].assign(pts.size(), num::SymTensor2{});
          sur.accumulate_run(v, aggressors.data(), aggressors.size(),
                             pts.data(), pts.size(), results[t].data());
        }
      });
    for (std::thread& w : workers) w.join();
    for (std::size_t t = 0; t < kThreads; ++t)
      expect_bitwise_equal(results[t], want);
  }
}

TEST(Surrogate, OutOfDomainPitchFallsBackAndIsCounted) {
  const PairSurrogate& sur = fitted();
  sur.reset_use_stats();

  EXPECT_TRUE(sur.covers(8.0));    // domain ends are inclusive
  EXPECT_TRUE(sur.covers(25.0));
  EXPECT_FALSE(sur.covers(7.999));
  EXPECT_FALSE(sur.covers(25.001));

  const geo::Point v{0, 0};
  const geo::Point near_a{7.0, 0.0};  // valid placement (diameter 6), below
                                      // the fitted pitch_min of 8
  std::vector<geo::Point> pts = {{1.0, 2.0}, {-3.0, 0.5}};
  // A declined pair goes to the exact series: the same bits as a call with
  // no surrogate at all.
  std::vector<num::SymTensor2> out = {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  std::vector<num::SymTensor2> want = out;
  shared_model()->accumulate_run(&sur, v, &near_a, 1, pts.data(),
                                 pts.size(), out.data());
  shared_model()->accumulate_run(nullptr, v, &near_a, 1, pts.data(),
                                 pts.size(), want.data());
  expect_bitwise_equal(out, want);

  const geo::Point in_a{10.0, 0.0};
  shared_model()->accumulate_run(&sur, v, &in_a, 1, pts.data(),
                                 pts.size(), out.data());
  const SurrogateUseStats stats = sur.use_stats();
  EXPECT_EQ(stats.fallback_pairs, 1u);
  EXPECT_EQ(stats.surrogate_pairs, 1u);
  sur.reset_use_stats();
  EXPECT_EQ(sur.use_stats().surrogate_pairs, 0u);
  EXPECT_EQ(sur.use_stats().fallback_pairs, 0u);

  // Points at or beyond the fitted radius contribute exactly zero (the
  // convention the consumers rely on).
  std::vector<geo::Point> far = {{sur.r_max(), 0.0}, {0.0, 30.0}};
  std::vector<num::SymTensor2> fout(far.size());
  sur.accumulate_run(v, &in_a, 1, far.data(), far.size(), fout.data());
  for (const num::SymTensor2& s : fout) {
    EXPECT_EQ(s.s11, 0.0);
    EXPECT_EQ(s.s22, 0.0);
    EXPECT_EQ(s.s12, 0.0);
  }
}

TEST(Surrogate, StageFallsBackToTheExactSeriesBitwise) {
  // A pair below the fitted pitch_min evaluated through InteractiveStage
  // with a surrogate attached must produce the exact series field — the
  // same bits as a run with no surrogate at all.
  const tsvlib::Placement close(kS, {{0.0, 0.0}, {7.0, 0.0}});
  std::vector<geo::Point> pts;
  for (double x = -8; x <= 15; x += 1.9)
    for (double y = -8; y <= 8; y += 2.3) pts.push_back({x, y});

  const core::InteractiveStage plain(close, shared_model());
  const auto want = plain.evaluate(pts);

  ScopedAttach attach(fitted_shared());
  fitted_shared()->reset_use_stats();
  const core::InteractiveStage stage(close, shared_model());
  const auto got = stage.evaluate(pts);
  expect_bitwise_equal(got, want);
  EXPECT_EQ(fitted_shared()->use_stats().surrogate_pairs, 0u);
  EXPECT_EQ(fitted_shared()->use_stats().fallback_pairs, 2u);
}

TEST(Surrogate, ThetaMirrorShearAntisymmetryIsExact) {
  // With the pair on the x axis, mirroring a point about the pair axis
  // negates sin(theta) and nothing else; because the kernel stores
  // s12 / sin(theta) as an even polynomial, the mirrored shear is the exact
  // negation and the normal components are bitwise unchanged.
  const PairSurrogate& sur = fitted();
  const geo::Point v{0, 0}, a{9.5, 0.0};
  std::mt19937_64 rng(53);
  std::uniform_real_distribution<double> ux(-20.0, 20.0);
  std::uniform_real_distribution<double> uy(0.1, 20.0);
  for (int k = 0; k < 500; ++k) {
    const geo::Point p{ux(rng), uy(rng)};
    const geo::Point m{p.x, -p.y};
    const num::SymTensor2 up = sur.stress_at(v, a, p);
    const num::SymTensor2 dn = sur.stress_at(v, a, m);
    EXPECT_EQ(dn.s11, up.s11) << k;
    EXPECT_EQ(dn.s22, up.s22) << k;
    EXPECT_EQ(dn.s12, -up.s12) << k;
  }
}

TEST(Surrogate, SnapshotRoundTripIsBitwise) {
  const PairSurrogate& sur = fitted();
  const std::string path = ::testing::TempDir() + "surrogate_roundtrip.snap";
  io::save_surrogate(path, sur);

  const io::SnapshotInfo info = io::read_snapshot_info(path);
  EXPECT_EQ(info.kind, io::SnapshotKind::kSurrogate);

  const PairSurrogate loaded = io::load_surrogate(path);
  const PairSurrogate::Data a = sur.to_data();
  const PairSurrogate::Data b = loaded.to_data();
  EXPECT_EQ(b.pitch_min, a.pitch_min);
  EXPECT_EQ(b.pitch_max, a.pitch_max);
  EXPECT_EQ(b.r_max, a.r_max);
  EXPECT_EQ(b.pitch_order, a.pitch_order);
  ASSERT_EQ(b.segments.size(), a.segments.size());
  for (std::size_t s = 0; s < a.segments.size(); ++s) {
    const auto& sa = a.segments[s];
    const auto& sb = b.segments[s];
    EXPECT_EQ(sb.inverse_radial, sa.inverse_radial);
    EXPECT_EQ(sb.r0, sa.r0);
    EXPECT_EQ(sb.r1, sa.r1);
    EXPECT_EQ(sb.nr, sa.nr);
    EXPECT_EQ(sb.nx, sa.nx);
    ASSERT_EQ(sb.coeffs.size(), sa.coeffs.size());
    for (std::size_t i = 0; i < sa.coeffs.size(); ++i)
      EXPECT_EQ(sb.coeffs[i], sa.coeffs[i]) << "segment " << s << " coeff "
                                            << i;
  }
  // The certificate — the recorded verification — survives bitwise too.
  const SurrogateCertificate& ca = sur.certificate();
  const SurrogateCertificate& cb = loaded.certificate();
  EXPECT_EQ(cb.pitch_min, ca.pitch_min);
  EXPECT_EQ(cb.pitch_max, ca.pitch_max);
  EXPECT_EQ(cb.r_max, ca.r_max);
  EXPECT_EQ(cb.coefficient_count, ca.coefficient_count);
  EXPECT_EQ(cb.sample_count, ca.sample_count);
  EXPECT_EQ(cb.field_scale, ca.field_scale);
  EXPECT_EQ(cb.max_abs_error, ca.max_abs_error);
  EXPECT_EQ(cb.certified_rel_bound, ca.certified_rel_bound);

  // And the loaded surrogate evaluates bitwise the fitted one.
  std::mt19937_64 rng(61);
  std::uniform_real_distribution<double> coord(-24.0, 24.0);
  std::vector<geo::Point> pts(513);
  for (geo::Point& p : pts) p = {coord(rng), coord(rng)};
  const geo::Point v{0, 0}, aa{12.7, 3.1};
  std::vector<num::SymTensor2> want(pts.size()), got(pts.size());
  sur.accumulate_run(v, &aa, 1, pts.data(), pts.size(), want.data());
  loaded.accumulate_run(v, &aa, 1, pts.data(), pts.size(), got.data());
  expect_bitwise_equal(got, want);
  std::remove(path.c_str());
}

TEST(Surrogate, ModelGateChecksToleranceAndRadius) {
  const auto model = shared_model();
  {
    ScopedAttach attach(fitted_shared());
    EXPECT_EQ(model->surrogate_for(25.0), fitted_shared());
    // A needed radius beyond the fitted r_max refuses it (points past r_max
    // would silently evaluate to zero).
    EXPECT_EQ(model->surrogate_for(25.5), nullptr);
  }
  EXPECT_EQ(model->surrogate_for(25.0), nullptr);
  EXPECT_EQ(model->surrogate(), nullptr);

  // A certificate attesting worse than kSurrogateTolerance is refused.
  PairSurrogate::Data loose = fitted().to_data();
  loose.certificate.certified_rel_bound = 2.0 * kSurrogateTolerance;
  ScopedAttach attach(std::make_shared<const PairSurrogate>(std::move(loose)));
  ASSERT_NE(model->surrogate(), nullptr);
  EXPECT_EQ(model->surrogate_for(25.0), nullptr);
}

TEST(Surrogate, InteractiveStageDispatchesThroughTheSurrogate) {
  const tsvlib::Placement arr = tsvlib::make_array(kS, 3, 3, 9.0);
  std::vector<geo::Point> pts;
  for (double x = -5; x <= 23; x += 1.7)
    for (double y = -5; y <= 23; y += 2.1) pts.push_back({x, y});

  const core::InteractiveStage series(arr, shared_model());
  const auto want = series.evaluate(pts);

  ScopedAttach attach(fitted_shared());
  fitted_shared()->reset_use_stats();
  const core::InteractiveStage fast(arr, shared_model());
  const auto got = fast.evaluate(pts);

  // Every ordered pair of the 9-TSV array sits inside the fitted pitch
  // domain, so the surrogate took them all.
  const SurrogateUseStats stats = fitted_shared()->use_stats();
  EXPECT_EQ(stats.surrogate_pairs, fast.victim_runs().pair_count());
  EXPECT_EQ(stats.fallback_pairs, 0u);

  // Accuracy: each point sums at most pair_count() surrogate errors,
  // each within the certified absolute budget.
  const SurrogateCertificate& c = fitted_shared()->certificate();
  const double budget = static_cast<double>(fast.victim_runs().pair_count()) *
                        c.certified_rel_bound * c.field_scale;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_NEAR(got[i].s11, want[i].s11, budget) << i;
    EXPECT_NEAR(got[i].s22, want[i].s22, budget) << i;
    EXPECT_NEAR(got[i].s12, want[i].s12, budget) << i;
  }

  // The exact path is a model with no surrogate attached: bitwise the
  // series, and the attached surrogate is never consulted.
  fitted_shared()->reset_use_stats();
  const core::InteractiveStage exact(
      arr, core::characterize(kS, {}, core::StageTwo::kSeries).model);
  expect_bitwise_equal(exact.evaluate(pts), want);
  EXPECT_EQ(fitted_shared()->use_stats().surrogate_pairs, 0u);
  EXPECT_EQ(fitted_shared()->use_stats().fallback_pairs, 0u);
}

TEST(Surrogate, RejectedAttachedSurrogateIsCountedAndReportedOnce) {
  // A surrogate fitted out to 20 um cannot serve a 25 um stage
  // (surrogate_for refuses it), so every pair takes the exact series: the
  // model counts them, and says so in one line however often it happens.
  const auto model = core::characterize(kS, {}, core::StageTwo::kSeries).model;
  SurrogateFitOptions opt;
  opt.r_max = 20.0;
  model->attach_surrogate(
      std::make_shared<const PairSurrogate>(PairSurrogate::fit(*model, opt)));
  const tsvlib::Placement arr = tsvlib::make_array(kS, 3, 3, 9.0);
  const core::InteractiveStage stage(arr, model);
  ASSERT_EQ(stage.influence_radius(), 25.0);
  ASSERT_EQ(model->surrogate_for(25.0), nullptr);
  std::vector<geo::Point> pts;
  for (double x = -5; x <= 23; x += 1.7)
    for (double y = -5; y <= 23; y += 2.1) pts.push_back({x, y});
  const std::uint64_t pairs = stage.pair_count();
  ASSERT_GT(pairs, 0u);

  testing::internal::CaptureStderr();
  stage.evaluate(pts);
  const std::string first = testing::internal::GetCapturedStderr();
  EXPECT_EQ(model->rejected_surrogate_pairs(), pairs);
  testing::internal::CaptureStderr();
  stage.evaluate(pts);
  const std::string second = testing::internal::GetCapturedStderr();
  EXPECT_EQ(model->rejected_surrogate_pairs(), 2 * pairs);

  EXPECT_EQ(std::count(first.begin(), first.end(), '\n'), 1) << first;
  EXPECT_NE(first.find("surrogate is not used"), std::string::npos) << first;
  EXPECT_EQ(second, "");

  // With no surrogate attached the series is the plan, not a fallback.
  const auto plain = core::characterize(kS, {}, core::StageTwo::kSeries).model;
  core::InteractiveStage(arr, plain).evaluate(pts);
  EXPECT_EQ(plain->rejected_surrogate_pairs(), 0u);
}

/// Largest per-component |a - b| over the field scale of `b`.
double max_rel_err(const std::vector<num::SymTensor2>& a,
                   const std::vector<num::SymTensor2>& b) {
  EXPECT_EQ(a.size(), b.size());
  double scale = 0.0;
  double worst = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    scale = std::max({scale, std::abs(b[i].s11), std::abs(b[i].s22),
                      std::abs(b[i].s12)});
    worst = std::max({worst, std::abs(a[i].s11 - b[i].s11),
                      std::abs(a[i].s22 - b[i].s22),
                      std::abs(a[i].s12 - b[i].s12)});
  }
  EXPECT_GT(scale, 0.0);
  return scale > 0.0 ? worst / scale : worst;
}

TEST(Surrogate, OutOfDomainPitchesFallBackToTheExactSeries) {
  // A 6.5 um array mixes pitches below the fitted pitch_min of 8 um with
  // covered ones (9.19, 13, ...): in-domain pairs ride the surrogate and
  // out-of-domain pairs fall back to the exact series, counted either way.
  const tsvlib::Placement arr = tsvlib::make_array(kS, 3, 3, 6.5);
  std::vector<geo::Point> pts;
  for (double x = -5; x <= 18; x += 1.9)
    for (double y = -5; y <= 18; y += 2.3) pts.push_back({x, y});

  const auto series_model =
      core::characterize(kS, {}, core::StageTwo::kSeries).model;
  const auto fast_model =
      core::characterize(kS, {}, core::StageTwo::kSeries).model;
  fast_model->attach_surrogate(fitted_shared());
  const core::InteractiveStage series(arr, series_model);
  const core::InteractiveStage fast(arr, fast_model);

  fitted_shared()->reset_use_stats();
  fast.evaluate(pts);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> fallback;
  const auto& centers = arr.centers();
  for (const auto& pair : fast.victim_runs().pairs())
    if (!fitted().covers(geo::distance(centers[pair.first],
                                       centers[pair.second])))
      fallback.push_back(pair);
  const SurrogateUseStats stats = fitted_shared()->use_stats();
  EXPECT_GT(stats.fallback_pairs, 0u);
  EXPECT_GT(stats.surrogate_pairs, 0u);
  EXPECT_EQ(stats.fallback_pairs, fallback.size());
  EXPECT_EQ(stats.surrogate_pairs,
            fast.victim_runs().pair_count() - fallback.size());
  // On the fallback pairs the stage is the exact series.
  const core::VictimRuns fallback_runs = core::VictimRuns::from_pairs(fallback);
  EXPECT_LE(max_rel_err(fast.evaluate_runs(pts, fallback_runs),
                        series.evaluate_runs(pts, fallback_runs)),
            1e-12);

  // IncrementalEngine::apply takes the same fallback. Every pitch of this
  // pair stays below the domain, before and after the move.
  const tsvlib::Placement pair = tsvlib::make_pair(kS, 7.0);
  const geo::SampleGrid grid =
      geo::SampleGrid::with_spacing(pair.bounding_box().expanded(8.0), 1.5);
  const auto table = std::make_shared<const core::RadialStressTable>(
      core::RadialStressTable::from_analytic(
          ana::SingleTsvModel(kS, mat::ThermalLoad{}), 30.0, 4096));
  core::IncrementalEngine engine(pair, grid, table, fast_model);
  fitted_shared()->reset_use_stats();
  engine.move(1, {3.9, 0.3});  // pitch 7.41 um
  EXPECT_GT(fitted_shared()->use_stats().fallback_pairs, 0u);
  EXPECT_EQ(fitted_shared()->use_stats().surrogate_pairs, 0u);
  const core::IncrementalEngine reference(engine.placement(), grid, table,
                                          series_model);
  EXPECT_LE(max_rel_err(engine.stage2_field(), reference.stage2_field()),
            1e-12);
  fitted_shared()->reset_use_stats();
}

TEST(Surrogate, IncrementalEngineDispatchesThroughTheSurrogate) {
  const tsvlib::Placement pair = tsvlib::make_pair(kS, 10.0);
  const geo::SampleGrid grid =
      geo::SampleGrid::with_spacing(pair.bounding_box().expanded(8.0), 1.5);
  const auto table = std::make_shared<const core::RadialStressTable>(
      core::RadialStressTable::from_analytic(
          ana::SingleTsvModel(kS, mat::ThermalLoad{}), 30.0, 4096));

  ScopedAttach attach(fitted_shared());
  fitted_shared()->reset_use_stats();
  core::IncrementalEngine engine(pair, grid, table, shared_model());
  // The initial full build already routed its pairs through the surrogate.
  EXPECT_GT(fitted_shared()->use_stats().surrogate_pairs, 0u);

  // An edit adds/removes the same surrogate contributions a full
  // evaluation would, so the maintained field tracks a fresh engine built
  // at the final placement to regrouping noise only.
  const std::uint64_t before =
      fitted_shared()->use_stats().surrogate_pairs;
  engine.move(1, {11.5, 0.5});
  EXPECT_GT(fitted_shared()->use_stats().surrogate_pairs, before);

  core::IncrementalEngine fresh(engine.placement(), grid, table,
                                shared_model());
  const auto& got = engine.stage2_field();
  const auto& want = fresh.stage2_field();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(got[i].s11, want[i].s11, 1e-9) << i;
    EXPECT_NEAR(got[i].s22, want[i].s22, 1e-9) << i;
    EXPECT_NEAR(got[i].s12, want[i].s12, 1e-9) << i;
  }
  fitted_shared()->reset_use_stats();
}

}  // namespace
}  // namespace tsv::ana
