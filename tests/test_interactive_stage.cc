#include "core/interactive_stage.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "analytic/surrogate.h"
#include "core/framework.h"
#include "tsv/generators.h"

namespace tsv::core {
namespace {

const tsvlib::TsvStructure kS = tsvlib::TsvStructure::baseline_bcb();

std::shared_ptr<const ana::InteractiveStressModel> make_model() {
  static auto model = characterize(kS, {}, StageTwo::kSeries).model;
  return model;
}

TEST(InteractiveStage, SingleTsvHasNoPairs) {
  const tsvlib::Placement p(kS, {{0.0, 0.0}});
  const InteractiveStage stage(p, make_model());
  EXPECT_TRUE(stage.victim_runs().pairs().empty());
  EXPECT_DOUBLE_EQ(stage.stress_at({4.0, 0.0}).s11, 0.0);
}

TEST(InteractiveStage, PairYieldsTwoOrderedRounds) {
  const tsvlib::Placement pair = tsvlib::make_pair(kS, 10.0);
  const InteractiveStage stage(pair, make_model());
  const auto pairs = stage.victim_runs().pairs();
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_NE(pairs[0].first, pairs[0].second);
  EXPECT_EQ(pairs[0].first, pairs[1].second);
  EXPECT_EQ(pairs[0].second, pairs[1].first);
}

TEST(InteractiveStage, PitchCutoffExcludesFarPairs) {
  const tsvlib::Placement p(kS, {{0.0, 0.0}, {40.0, 0.0}});
  const InteractiveStage stage(p, make_model(), kInfluenceRadius, 25.0);
  EXPECT_TRUE(stage.victim_runs().pairs().empty());
}

TEST(InteractiveStage, PointwiseSumsBothRounds) {
  const tsvlib::Placement pair = tsvlib::make_pair(kS, 10.0);
  const InteractiveStage stage(pair, make_model());
  const geo::Point p{0.0, 2.5};
  const num::SymTensor2 got = stage.stress_at(p);
  const auto& c = pair.centers();
  const num::SymTensor2 want = make_model()->stress_at(c[0], c[1], p) +
                               make_model()->stress_at(c[1], c[0], p);
  EXPECT_NEAR(got.s11, want.s11, 1e-12);
  EXPECT_NEAR(got.s22, want.s22, 1e-12);
}

TEST(InteractiveStage, BatchMatchesPointwise) {
  const tsvlib::Placement arr = tsvlib::make_array(kS, 3, 2, 9.0);
  const InteractiveStage stage(arr, make_model());
  std::vector<geo::Point> pts;
  for (double x = -4; x <= 22; x += 2.9)
    for (double y = -4; y <= 13; y += 3.3) pts.push_back({x, y});
  const auto batch = stage.evaluate(pts);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const num::SymTensor2 single = stage.stress_at(pts[i]);
    EXPECT_NEAR(batch[i].s11, single.s11, 1e-10) << i;
    EXPECT_NEAR(batch[i].s22, single.s22, 1e-10) << i;
    EXPECT_NEAR(batch[i].s12, single.s12, 1e-10) << i;
  }
}

TEST(InteractiveStage, InfluenceRadiusLimitsPointCoverage) {
  const tsvlib::Placement pair = tsvlib::make_pair(kS, 10.0);
  const InteractiveStage stage(pair, make_model(), 10.0);
  // A point 40 um away from both TSVs gets no interactive contribution.
  EXPECT_DOUBLE_EQ(stage.stress_at({0.0, 40.0}).s11, 0.0);
  const auto batch = stage.evaluate({{0.0, 40.0}, {0.0, 2.0}});
  EXPECT_DOUBLE_EQ(batch[0].s11, 0.0);
  EXPECT_NE(batch[1].s11, 0.0);
}

// Determinism: a parallel run against the serial one on a jittered array,
// within 1e-12 relative. The cell schedule in fact makes them bitwise equal
// (interactive_stage.h); EvaluateIsBitwiseAPerPairReferenceLoop and
// test_run_schedule assert the bits.
TEST(InteractiveStage, ParallelEvaluateMatchesSerialWithinTolerance) {
  const tsvlib::Placement cluster = tsvlib::make_jittered_array(
      kS, 30, 1.0e-2, 10.0, 777);
  std::vector<geo::Point> pts;
  const geo::Box roi = cluster.bounding_box().expanded(10.0);
  for (double x = roi.lo.x; x <= roi.hi.x; x += 2.9)
    for (double y = roi.lo.y; y <= roi.hi.y; y += 3.3) pts.push_back({x, y});

  const InteractiveStage serial(cluster, make_model());
  const auto want = serial.evaluate(pts);

  for (const std::size_t threads : {2u, 4u}) {
    const InteractiveStage stage(cluster, make_model(), kInfluenceRadius,
                                 kPairPitchCutoff, threads);
    const auto got = stage.evaluate(pts);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const double tol11 = 1e-12 * std::max(1.0, std::abs(want[i].s11));
      const double tol22 = 1e-12 * std::max(1.0, std::abs(want[i].s22));
      const double tol12 = 1e-12 * std::max(1.0, std::abs(want[i].s12));
      EXPECT_NEAR(got[i].s11, want[i].s11, tol11) << "threads=" << threads;
      EXPECT_NEAR(got[i].s22, want[i].s22, tol22) << "threads=" << threads;
      EXPECT_NEAR(got[i].s12, want[i].s12, tol12) << "threads=" << threads;
    }
  }
}

// Repeated parallel runs must be bitwise reproducible: the cell schedule
// fixes each point's summation order whichever worker claims which cell.
TEST(InteractiveStage, ParallelEvaluateIsReproducibleAtFixedThreadCount) {
  const tsvlib::Placement arr = tsvlib::make_array(kS, 4, 3, 9.0);
  const InteractiveStage stage(arr, make_model(), kInfluenceRadius,
                                 kPairPitchCutoff, 4);
  std::vector<geo::Point> pts;
  for (double x = -4; x <= 31; x += 1.7)
    for (double y = -4; y <= 22; y += 2.1) pts.push_back({x, y});
  const auto first = stage.evaluate(pts);
  const auto second = stage.evaluate(pts);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(first[i].s11, second[i].s11) << i;
    EXPECT_EQ(first[i].s22, second[i].s22) << i;
    EXPECT_EQ(first[i].s12, second[i].s12) << i;
  }
}

TEST(InteractiveStage, SurrogateParallelMatchesSerialWithinTolerance) {
  const tsvlib::Placement arr = tsvlib::make_array(kS, 3, 3, 10.0);
  // A private model: attaching to the shared one would leak into the
  // other tests of this binary.
  const auto model = characterize(kS, {}, StageTwo::kSeries).model;
  model->attach_surrogate(std::make_shared<const ana::PairSurrogate>(
      ana::PairSurrogate::fit(*model)));
  const InteractiveStage serial(arr, model);
  const InteractiveStage parallel(arr, model, kInfluenceRadius,
                                  kPairPitchCutoff, 3);
  std::vector<geo::Point> pts;
  for (double x = -3; x <= 23; x += 2.3)
    for (double y = -3; y <= 23; y += 2.7) pts.push_back({x, y});
  const auto want = serial.evaluate(pts);
  const auto got = parallel.evaluate(pts);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_NEAR(got[i].s11, want[i].s11,
                1e-12 * std::max(1.0, std::abs(want[i].s11)))
        << i;
  }
}

// Regression for the former `hi + 1e-9` epsilon hack: simulation points
// lying EXACTLY on the bounding-box edges of the point set must still
// receive their interactive contribution (the hull built by Box::bounding
// is closed, and GridIndex clamps hull-edge points into the last cell).
TEST(InteractiveStage, PointsExactlyOnBoundingBoxEdgeAreEvaluated) {
  const tsvlib::Placement pair = tsvlib::make_pair(kS, 10.0);
  const InteractiveStage stage(pair, make_model());
  // All extreme coordinates are attained exactly by several points, so the
  // hull's hi edge passes through points carrying nonzero stress.
  const std::vector<geo::Point> pts = {{-8.0, -6.0}, {8.0, -6.0},
                                       {8.0, 6.0},   {-8.0, 6.0},
                                       {8.0, 0.0},   {0.0, 6.0},
                                       {0.0, 0.5}};
  const auto batch = stage.evaluate(pts);
  ASSERT_EQ(batch.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const num::SymTensor2 single = stage.stress_at(pts[i]);
    EXPECT_DOUBLE_EQ(batch[i].s11, single.s11) << i;
    EXPECT_DOUBLE_EQ(batch[i].s22, single.s22) << i;
    EXPECT_DOUBLE_EQ(batch[i].s12, single.s12) << i;
  }
  // The corner/edge points sit within the influence radius of the pair, so
  // their interactive field must be nonzero — they were not dropped.
  EXPECT_NE(batch[4].s11, 0.0);
  EXPECT_NE(batch[5].s11, 0.0);
}

// A stage keeps no point state between evaluations: mutating a point
// buffer in place — to a new set of the SAME length, the case an
// address-or-size keyed cache would miss — must give the field of the new
// points. A stale point index would hand pairs the wrong affected-point
// sets and silently drop or misplace contributions.
TEST(InteractiveStage, MutatedPointBufferOfEqualLengthRebuildsTheIndex) {
  const tsvlib::Placement pair = tsvlib::make_pair(kS, 10.0);
  const InteractiveStage stage(pair, make_model());
  std::vector<geo::Point> pts;
  for (double x = -8; x <= 18; x += 1.3)
    for (double y = -8; y <= 8; y += 1.7) pts.push_back({x, y});

  // Evaluate the original coordinates first.
  const auto first = stage.evaluate(pts);
  ASSERT_EQ(first.size(), pts.size());

  // Mutate IN PLACE: same vector object, same length, every coordinate
  // changed (a quarter turn about the origin — exact in floating point, so
  // the round trip below is bitwise).
  for (geo::Point& p : pts) p = {-p.y, p.x};
  const auto got = stage.evaluate(pts);

  // A fresh stage has seen no other points; its field is the truth.
  const InteractiveStage fresh(pair, make_model());
  const auto want = fresh.evaluate(pts);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(got[i].s11, want[i].s11) << i;
    EXPECT_EQ(got[i].s22, want[i].s22) << i;
    EXPECT_EQ(got[i].s12, want[i].s12) << i;
  }
  // And mutating back gives the first field again.
  for (geo::Point& p : pts) p = {p.y, -p.x};
  const auto back = stage.evaluate(pts);
  for (std::size_t i = 0; i < pts.size(); ++i)
    EXPECT_EQ(back[i].s11, first[i].s11) << i;
}

/// 14 um grid plus a TSV midway along the outer rows: 7 um pitch (below the
/// surrogate's 8 um domain) to both row neighbours, the rest of the pairs
/// at 14-25 um.
std::vector<geo::Point> mixed_pitch_centers() {
  std::vector<geo::Point> centers;
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 3; ++j) {
      centers.push_back({14.0 * i, 14.0 * j});
      if (i < 3 && j != 1) centers.push_back({14.0 * i + 7.0, 14.0 * j});
    }
  return centers;
}

// The batched evaluate shares one gather and scatter among consecutive
// pairs with the same victim. A caller's pair list in any order must give
// the victim-sorted result up to summation regrouping; a shuffled list only
// forms shorter runs. The design mixes pitches below the surrogate's 8 um
// domain into the rows, so runs interleave surrogate and series pairs.
TEST(InteractiveStage, VictimBatchingIsOrderIndependent) {
  const std::vector<geo::Point> centers = mixed_pitch_centers();
  const tsvlib::Placement design(kS, centers);
  const auto model = characterize(kS, {}, StageTwo::kSeries).model;
  const auto surrogate = std::make_shared<const ana::PairSurrogate>(
      ana::PairSurrogate::fit(*model));
  model->attach_surrogate(surrogate);
  std::vector<geo::Point> pts;
  for (double x = -6; x <= 48; x += 1.9)
    for (double y = -6; y <= 34; y += 2.3) pts.push_back({x, y});

  const InteractiveStage serial(design, model);
  const auto sorted = serial.victim_runs().pairs();
  auto shuffled = sorted;
  std::mt19937 rng(20261017);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  ASSERT_NE(shuffled, sorted);
  std::uint64_t sub_domain = 0;
  for (const auto& [v, a] : sorted)
    if (!surrogate->covers(geo::distance(centers[v], centers[a])))
      ++sub_domain;
  ASSERT_GT(sub_domain, 0u);

  const auto want = serial.evaluate_runs(pts, VictimRuns::from_pairs(sorted));
  surrogate->reset_use_stats();
  const VictimRuns shuffled_runs = VictimRuns::from_pairs(shuffled);
  const auto got = serial.evaluate_runs(pts, shuffled_runs);
  EXPECT_EQ(surrogate->use_stats().fallback_pairs, sub_domain);
  EXPECT_EQ(surrogate->use_stats().surrogate_pairs,
            sorted.size() - sub_domain);

  double scale = 0.0;
  for (const num::SymTensor2& t : want)
    scale = std::max({scale, std::abs(t.s11), std::abs(t.s22),
                      std::abs(t.s12)});
  ASSERT_GT(scale, 0.0);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_NEAR(got[i].s11, want[i].s11, 1e-12 * scale) << i;
    EXPECT_NEAR(got[i].s22, want[i].s22, 1e-12 * scale) << i;
    EXPECT_NEAR(got[i].s12, want[i].s12, 1e-12 * scale) << i;
  }

  // Bitwise repeatable, serial and pooled.
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    const InteractiveStage stage(design, model, kInfluenceRadius,
                                 kPairPitchCutoff, threads);
    const auto first = stage.evaluate_runs(pts, shuffled_runs);
    const auto second = stage.evaluate_runs(pts, shuffled_runs);
    for (std::size_t i = 0; i < pts.size(); ++i) {
      EXPECT_EQ(first[i].s11, second[i].s11) << i;
      EXPECT_EQ(first[i].s22, second[i].s22) << i;
      EXPECT_EQ(first[i].s12, second[i].s12) << i;
      EXPECT_NEAR(first[i].s11, want[i].s11, 1e-12 * scale) << i;
    }
  }
}

// InteractiveStressModel::accumulate_run sends each covered stretch of a
// victim's aggressors to the surrogate run kernel and each out-of-domain
// aggressor to the exact series, in aggressor order. A covered stretch of
// two or more is one chip-frame series, so the result must match the
// sequence of runs of one into a zeroed buffer within 1e-12 of the
// certificate's field scale, and the run must be counted exactly once per
// pair.
TEST(InteractiveStage, MixedRunMatchesThePairSequence) {
  const auto model = characterize(kS, {}, StageTwo::kSeries).model;
  const auto surrogate = std::make_shared<const ana::PairSurrogate>(
      ana::PairSurrogate::fit(*model));
  const geo::Point v{1.5, -2.0};
  // Sub-domain (7 um) aggressors at the start, in the middle (two in a
  // row), and at the end, around covered stretches of 2 and 12.
  std::vector<double> pitches = {7.0, 9.5, 12.25, 7.0, 7.0, 8.0, 25.0};
  for (int i = 0; i < 10; ++i) pitches.push_back(10.0 + 1.4 * i);
  pitches.push_back(7.0);
  std::vector<geo::Point> aggressors;
  for (std::size_t i = 0; i < pitches.size(); ++i) {
    const double phi = 0.61 * static_cast<double>(i);
    aggressors.push_back(
        {v.x + pitches[i] * std::cos(phi), v.y + pitches[i] * std::sin(phi)});
  }
  std::uint64_t sub_domain = 0;
  for (const geo::Point& a : aggressors)
    if (!surrogate->covers(geo::distance(v, a))) ++sub_domain;
  ASSERT_EQ(sub_domain, 4u);
  std::vector<geo::Point> pts = {v};
  for (double x = -26; x <= 26; x += 1.7)
    for (double y = -26; y <= 26; y += 2.1)
      pts.push_back({v.x + x, v.y + y});

  std::vector<num::SymTensor2> want(pts.size());
  for (const geo::Point& a : aggressors)
    model->accumulate_run(surrogate.get(), v, &a, 1, pts.data(), pts.size(),
                          want.data());
  surrogate->reset_use_stats();
  std::vector<num::SymTensor2> got(pts.size());
  model->accumulate_run(surrogate.get(), v, aggressors.data(),
                        aggressors.size(), pts.data(), pts.size(), got.data());
  EXPECT_EQ(surrogate->use_stats().fallback_pairs, sub_domain);
  EXPECT_EQ(surrogate->use_stats().surrogate_pairs,
            aggressors.size() - sub_domain);
  const double tol = 1e-12 * surrogate->certificate().field_scale;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_NEAR(got[i].s11, want[i].s11, tol) << i;
    EXPECT_NEAR(got[i].s22, want[i].s22, tol) << i;
    EXPECT_NEAR(got[i].s12, want[i].s12, tol) << i;
  }
}

// The batched evaluate against a reference loop that spells out its
// contract one victim run at a time, in the schedule's documented order:
// the pair list splits into victim runs; colour by colour (of the victim's
// VictimCells cell), every run of that colour, in run order, evaluates at
// each of its disc's points alone (one accumulate_run call per point, from
// zero) and adds that to the point's field. Cells of one colour share no
// point, so at each point this is the colour, cell, run order. The gathers,
// the batched kernel calls and the cell schedule must reproduce those bits
// at 1, 2, 3 and 4 threads, surrogate and series pairs alike; and the field
// must match the same loop with every pair as a run of one within 1e-12 of
// the field scale. Four copies of the mixed-pitch block span cells of all
// four colours.
TEST(InteractiveStage, EvaluateIsBitwiseAPerPairReferenceLoop) {
  std::vector<geo::Point> centers;
  for (const geo::Point offset : {geo::Point{0.0, 0.0}, geo::Point{56.0, 0.0},
                                  geo::Point{0.0, 42.0},
                                  geo::Point{56.0, 42.0}})
    for (const geo::Point& c : mixed_pitch_centers())
      centers.push_back(c + offset);
  const tsvlib::Placement design(kS, centers);
  const auto model = characterize(kS, {}, StageTwo::kSeries).model;
  const auto surrogate = std::make_shared<const ana::PairSurrogate>(
      ana::PairSurrogate::fit(*model));
  model->attach_surrogate(surrogate);
  std::vector<geo::Point> pts;
  for (double x = -6; x <= 104; x += 1.9)
    for (double y = -6; y <= 76; y += 2.3) pts.push_back({x, y});
  const double tol = 1e-12 * surrogate->certificate().field_scale;

  const auto pairs = InteractiveStage(design, model).victim_runs().pairs();
  std::vector<std::size_t> run_starts;
  for (std::size_t k = 0; k < pairs.size(); ++k)
    if (k == 0 || pairs[k].first != pairs[k - 1].first)
      run_starts.push_back(k);
  const std::size_t runs = run_starts.size();
  run_starts.push_back(pairs.size());
  const VictimCells cells(design.bounding_box(), kInfluenceRadius);
  const double r2 = kInfluenceRadius * kInfluenceRadius;
  std::vector<num::SymTensor2> want(pts.size()), by_pair(pts.size());
  bool coloured[4] = {false, false, false, false};
  for (int colour = 0; colour < 4; ++colour) {
    for (std::size_t r = 0; r < runs; ++r) {
      const std::size_t k = run_starts[r];
      const std::size_t count = run_starts[r + 1] - k;
      const geo::Point& victim = centers[pairs[k].first];
      if (cells.cell(victim).colour() != colour) continue;
      coloured[colour] = true;
      std::vector<geo::Point> aggressors;
      for (std::size_t e = k; e < k + count; ++e)
        aggressors.push_back(centers[pairs[e].second]);
      for (std::size_t i = 0; i < pts.size(); ++i) {
        if (geo::distance_squared(pts[i], victim) > r2) continue;
        num::SymTensor2 run;
        model->accumulate_run(surrogate.get(), victim, aggressors.data(),
                              count, &pts[i], 1, &run);
        want[i] += run;
        for (const geo::Point& a : aggressors)
          model->accumulate_run(surrogate.get(), victim, &a, 1, &pts[i], 1,
                                &by_pair[i]);
      }
    }
  }
  for (const bool c : coloured) ASSERT_TRUE(c);

  for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(threads);
    const InteractiveStage stage(design, model, kInfluenceRadius,
                                 kPairPitchCutoff, threads);
    const auto got = stage.evaluate(pts);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      EXPECT_EQ(got[i].s11, want[i].s11) << i;
      EXPECT_EQ(got[i].s22, want[i].s22) << i;
      EXPECT_EQ(got[i].s12, want[i].s12) << i;
      EXPECT_NEAR(got[i].s11, by_pair[i].s11, tol) << i;
      EXPECT_NEAR(got[i].s22, by_pair[i].s22, tol) << i;
      EXPECT_NEAR(got[i].s12, by_pair[i].s12, tol) << i;
    }
  }
}

// The pair enumeration runs its victims in parallel chunks. The lists must
// be the serial ones element for element at every thread count, for the
// whole placement and for tile boxes, on the mixed-pitch grid and on a
// seeded random 2k design.
TEST(InteractiveStage, OrderedPairsAreThreadCountIndependent) {
  const tsvlib::Placement designs[] = {
      tsvlib::Placement(kS, mixed_pitch_centers()),
      tsvlib::make_random(kS, 2000, geo::Box{{0.0, 0.0}, {600.0, 600.0}},
                          8.0, 20261017)};
  for (const tsvlib::Placement& design : designs) {
    SCOPED_TRACE(design.size());
    const InteractiveStage serial(design, make_model());
    const InteractiveStage pooled(design, make_model(), kInfluenceRadius,
                                 kPairPitchCutoff, 4);
    const auto all = serial.victim_runs().pairs();
    ASSERT_GT(all.size(), 0u);
    EXPECT_EQ(pooled.victim_runs().pairs(), all);
    const geo::Box hull = design.bounding_box();
    const geo::Point c = hull.center();
    const geo::Box boxes[] = {
        hull,
        {hull.lo, c},
        {c, hull.hi},
        {{c.x - 5.0, c.y - 5.0}, {c.x + 5.0, c.y + 5.0}},
        {{hull.hi.x + 100.0, hull.hi.y + 100.0},
         {hull.hi.x + 200.0, hull.hi.y + 200.0}}};
    for (const geo::Box& box : boxes) {
      const auto near = serial.victim_runs_near(box).pairs();
      EXPECT_EQ(pooled.victim_runs_near(box).pairs(), near);
    }
    EXPECT_EQ(serial.victim_runs_near(hull).pairs(), all);
  }
}

TEST(InteractiveStage, PairCountIsTheOrderedPairListSize) {
  const tsvlib::Placement design = tsvlib::make_random(
      kS, 2000, geo::Box{{0.0, 0.0}, {600.0, 600.0}}, 8.0, 20261017);
  const InteractiveStage serial(design, make_model());
  const InteractiveStage pooled(design, make_model(), kInfluenceRadius,
                                 kPairPitchCutoff, 4);
  const std::size_t want = serial.victim_runs().pair_count();
  ASSERT_GT(want, 0u);
  EXPECT_EQ(serial.pair_count(), want);
  EXPECT_EQ(pooled.pair_count(), want);
  const tsvlib::Placement lone(kS, {{0.0, 0.0}});
  EXPECT_EQ(InteractiveStage(lone, make_model()).pair_count(), 0u);
}

TEST(InteractiveStage, FiveCrossSymmetry) {
  // The 5-TSV cross is symmetric under 90-degree rotation; von Mises of the
  // interactive field must match at rotated points.
  const tsvlib::Placement five = tsvlib::make_five_cross(kS, 10.0);
  const InteractiveStage stage(five, make_model());
  const num::SymTensor2 a = stage.stress_at({4.0, 1.0});
  const num::SymTensor2 b = stage.stress_at({-1.0, 4.0});  // rotated 90 deg
  EXPECT_NEAR(num::von_mises_plane_stress(a), num::von_mises_plane_stress(b),
              1e-9);
}

}  // namespace
}  // namespace tsv::core
