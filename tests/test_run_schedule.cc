// The Stage II cell schedule (interactive_stage.h): victim runs bucketed
// into VictimCells, coloured by cell parity, cells claimed colour by colour,
// each cell starting once its neighbours of earlier colours are done, all
// scattering into one shared output. Its safety rests on one claim: two
// victims more than one cell apart are more than 2 x influence_radius
// apart, so their discs share no point. These placements aim at that claim:
//
//   - victims exactly 2R apart, and 2R + / - 1 ulp apart, on either side of
//     a cell boundary, with points on both rims;
//   - a lattice at exactly 2R pitch with rim points at exactly R (on the
//     axes and off them);
//   - every victim in one cell, and one victim per cell;
//   - the lattice moved to 1e5 um;
//   - a span of more than 2^33 cell widths on both axes, where 32-bit cell
//     keys would overflow;
//   - a pair list that is not victim-major (a victim split into runs).
//
// Each runs on a grid window, a point list and the fused Stage I + II
// window pass, with the series and with the surrogate. Every result must be
// bitwise a reference loop in the schedule's documented order (colour, then
// run order; one cell of a colour reaches a point) at 1, 2, 3 and 4
// threads, and within 1e-12 of the field scale of the serial per-run loop.
// Runs at 2-4 threads make this a tsan test as well.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "analytic/surrogate.h"
#include "core/framework.h"
#include "core/interactive_stage.h"
#include "geometry/grid_window.h"
#include "tsv/generators.h"

namespace tsv::core {
namespace {

const tsvlib::TsvStructure kS = tsvlib::TsvStructure::baseline_bcb();

const Characterization& series() {
  static const Characterization ch =
      characterize(kS, {}, StageTwo::kSeries);
  return ch;
}

const Characterization& surrogate() {
  static const Characterization ch =
      characterize(kS, {}, StageTwo::kSurrogate);
  return ch;
}

double field_scale() {
  return surrogate().model->surrogate()->certificate().field_scale;
}

struct Case {
  std::string name;
  std::vector<geo::Point> centers;
  double radius;  ///< the influence radius
  geo::SampleGrid grid;
  std::vector<geo::Point> extra_points;  ///< appended to the point list
  /// A caller's pair list; empty means the stage's own enumeration.
  PairList pairs;
};

/// The serial per-run loop, and the same contributions summed in the
/// schedule's order: colour by colour, each colour's runs in run order.
struct Reference {
  std::vector<num::SymTensor2> serial;
  std::vector<num::SymTensor2> scheduled;
};

Reference reference(const tsvlib::Placement& design,
                    const ana::InteractiveStressModel& model,
                    double radius, const VictimRuns& runs,
                    const std::vector<geo::Point>& pts,
                    const SingleTsvField* stage1) {
  const auto surrogate = model.surrogate_for(radius);
  const std::vector<geo::Point>& centers = design.centers();
  const VictimCells cells(design.bounding_box(), radius);
  const double r2 = radius * radius;
  Reference ref;
  ref.serial.assign(pts.size(), num::SymTensor2{});
  ref.scheduled.assign(pts.size(), num::SymTensor2{});
  std::vector<std::pair<std::size_t, num::SymTensor2>> by_colour[4];
  for (std::size_t i = 0; i < runs.victims.size(); ++i) {
    const std::size_t count = runs.offsets[i + 1] - runs.offsets[i];
    if (stage1 == nullptr && count == 0) continue;
    const geo::Point& victim = centers[runs.victims[i]];
    std::vector<geo::Point> aggressors;
    for (std::size_t k = runs.offsets[i]; k < runs.offsets[i + 1]; ++k)
      aggressors.push_back(centers[runs.aggressors[k]]);
    const int colour = cells.cell(victim).colour();
    for (std::size_t j = 0; j < pts.size(); ++j) {
      if (geo::distance_squared(pts[j], victim) > r2) continue;
      num::SymTensor2 v;
      if (stage1 != nullptr) stage1->accumulate(victim, &pts[j], 1, &v);
      if (count > 0)
        model.accumulate_run(surrogate.get(), victim, aggressors.data(),
                             count, &pts[j], 1, &v);
      ref.serial[j] += v;
      by_colour[colour].emplace_back(j, v);
    }
  }
  for (const auto& contributions : by_colour)
    for (const auto& [j, v] : contributions) ref.scheduled[j] += v;
  return ref;
}

void expect_matches(const std::vector<num::SymTensor2>& got,
                    const Reference& want) {
  ASSERT_EQ(got.size(), want.scheduled.size());
  const double tol = 1e-12 * field_scale();
  for (std::size_t j = 0; j < got.size(); ++j) {
    EXPECT_EQ(got[j].s11, want.scheduled[j].s11) << j;
    EXPECT_EQ(got[j].s22, want.scheduled[j].s22) << j;
    EXPECT_EQ(got[j].s12, want.scheduled[j].s12) << j;
    EXPECT_NEAR(got[j].s11, want.serial[j].s11, tol) << j;
    EXPECT_NEAR(got[j].s22, want.serial[j].s22, tol) << j;
    EXPECT_NEAR(got[j].s12, want.serial[j].s12, tol) << j;
  }
}

/// Each path of `p`, with both Stage II models, at 1-4 threads.
void check(const Case& p) {
  SCOPED_TRACE(p.name);
  const tsvlib::Placement design(kS, p.centers);
  const geo::GridWindow window(p.grid);
  std::vector<geo::Point> pts = p.grid.points();
  pts.insert(pts.end(), p.extra_points.begin(), p.extra_points.end());
  const SingleTsvField* stage1 = series().table.get();
  for (const Characterization* ch : {&series(), &surrogate()}) {
    SCOPED_TRACE(ch == &series() ? "series" : "surrogate");
    const InteractiveStage serial(design, ch->model, p.radius);
    const VictimRuns runs = p.pairs.empty()
                                ? serial.victim_runs()
                                : VictimRuns::from_pairs(p.pairs);
    const VictimRuns near = p.pairs.empty()
                                ? serial.victim_runs_near(window.bounds())
                                : runs;
    const Reference on_window = reference(design, *ch->model, p.radius, runs,
                                          p.grid.points(), nullptr);
    const Reference on_points =
        reference(design, *ch->model, p.radius, runs, pts, nullptr);
    const Reference fused = reference(design, *ch->model, p.radius, near,
                                      p.grid.points(), stage1);
    for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
      SCOPED_TRACE(threads);
      const InteractiveStage stage(design, ch->model, p.radius,
                                   kPairPitchCutoff, threads);
      {
        SCOPED_TRACE("grid window");
        expect_matches(stage.evaluate_runs(window, runs), on_window);
      }
      {
        SCOPED_TRACE("point list");
        expect_matches(stage.evaluate_runs(pts, runs), on_points);
      }
      {
        SCOPED_TRACE("fused");
        expect_matches(stage.evaluate_runs(window, near, stage1), fused);
      }
    }
  }
}

/// TSVs at exactly 2R = 50 um pitch, each with a partner 10 um to the
/// right, on a 2.5 um grid whose points sit exactly R from every lattice
/// TSV along the axes; the point list adds rim points at (15, 20) from each.
Case lattice(const geo::Point& offset) {
  Case p{"lattice",
         {},
         kInfluenceRadius,
         geo::SampleGrid(geo::Box{offset, offset}, 1, 1),
         {},
         {}};
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j) {
      const geo::Point c{offset.x + 50.0 * i, offset.y + 50.0 * j};
      p.centers.push_back(c);
      p.centers.push_back({c.x + 10.0, c.y});
      p.extra_points.push_back({c.x + 15.0, c.y + 20.0});
      p.extra_points.push_back({c.x - 15.0, c.y - 20.0});
    }
  p.grid = geo::SampleGrid(
      geo::Box{{offset.x - 25.0, offset.y - 25.0},
               {offset.x + 185.0, offset.y + 175.0}},
      85, 81);
  return p;
}

TEST(RunSchedule, LatticeAtTwiceTheRadiusWithRimPoints) {
  const Case p = lattice({0.0, 0.0});
  ASSERT_EQ(p.grid.dx(), 2.5);
  ASSERT_EQ(p.grid.dy(), 2.5);
  check(p);
}

TEST(RunSchedule, LatticeOffsetToOneHundredThousandMicrons) {
  Case p = lattice({1e5, 1e5});
  p.name = "lattice at 1e5 um";
  check(p);
}

// Victim pairs exactly 2R, 2R + 1 ulp and 2R - 1 ulp apart, one victim on
// either side of a cell boundary (in x and in y), each victim with an
// aggressor 12 um away. Anchor TSVs at two corners fix the placement hull
// (the cells are laid from its corner), before the pairs are laid against
// the boundaries.
TEST(RunSchedule, VictimsTwiceTheRadiusApartAcrossCellBoundaries) {
  const double r = kInfluenceRadius;
  Case p{"boundaries",
         {{0.0, 0.0}, {10.0, 0.0}, {400.0, 400.0}, {390.0, 400.0}},
         r,
         geo::SampleGrid::with_spacing(geo::Box{{0.0, 0.0}, {400.0, 400.0}},
                                       2.3),
         {},
         {}};
  const geo::Box hull = tsvlib::Placement(kS, p.centers).bounding_box();
  const VictimCells cells(hull, r);
  const auto add_pair = [&](geo::Point a, geo::Point b, geo::Point partner) {
    p.centers.push_back(a);
    p.centers.push_back(a + partner);
    p.centers.push_back(b);
    p.centers.push_back(b + partner);
    p.extra_points.push_back({(a.x + b.x) / 2.0, (a.y + b.y) / 2.0});
    p.extra_points.push_back({a.x + r, a.y});
    p.extra_points.push_back({b.x - r, b.y});
  };
  const double steps[] = {0.0, INFINITY, -INFINITY};
  for (int k = 0; k < 3; ++k) {
    const auto apart = [&](double a) {
      return k == 0 ? a + 2.0 * r : std::nextafter(a + 2.0 * r, steps[k]);
    };
    // Across x = (k + 2) * side, on rows 60 um apart.
    const double ax = cells.origin.x + (k + 2) * cells.side - r;
    const double y = 60.0 + 60.0 * k;
    add_pair({ax, y}, {apart(ax), y}, {0.0, 12.0});
    // Across y = (k + 2) * side, on columns 40 um apart.
    const double ay = cells.origin.y + (k + 2) * cells.side - r;
    const double x = 280.0 + 40.0 * k;
    add_pair({x, ay}, {x, apart(ay)}, {12.0, 0.0});
  }
  const geo::Box all = tsvlib::Placement(kS, p.centers).bounding_box();
  ASSERT_EQ(all.lo.x, hull.lo.x);
  ASSERT_EQ(all.lo.y, hull.lo.y);
  ASSERT_EQ(all.hi.x, hull.hi.x);
  ASSERT_EQ(all.hi.y, hull.hi.y);
  check(p);
}

TEST(RunSchedule, EveryVictimInOneCell) {
  Case p{"one cell", {}, kInfluenceRadius,
         geo::SampleGrid(geo::Box{{-26, -26}, {48, 48}}, 38, 38), {}, {}};
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) p.centers.push_back({11.0 * i, 11.0 * j});
  const VictimCells cells(tsvlib::Placement(kS, p.centers).bounding_box(),
                          p.radius);
  for (const geo::Point& c : p.centers) {
    EXPECT_EQ(cells.cell(c).x, 0);
    EXPECT_EQ(cells.cell(c).y, 0);
  }
  check(p);
}

// A 20 um lattice where a caller's pair list names one victim per cell
// (columns and rows 20, 60, 120 and 160 um), each with its four lattice
// neighbours as aggressors.
TEST(RunSchedule, OneVictimPerCell) {
  Case p{"one victim per cell", {}, kInfluenceRadius,
         geo::SampleGrid(geo::Box{{-25, -25}, {205, 205}}, 93, 93), {}, {}};
  for (int j = 0; j < 10; ++j)
    for (int i = 0; i < 10; ++i) p.centers.push_back({20.0 * i, 20.0 * j});
  const auto id = [](int i, int j) {
    return static_cast<std::uint32_t>(10 * j + i);
  };
  const VictimCells cells(tsvlib::Placement(kS, p.centers).bounding_box(),
                          p.radius);
  std::set<std::pair<std::int64_t, std::int64_t>> seen;
  for (const int j : {1, 3, 6, 8})
    for (const int i : {1, 3, 6, 8}) {
      const VictimCells::Cell c = cells.cell(p.centers[id(i, j)]);
      EXPECT_TRUE(seen.insert({c.x, c.y}).second) << i << ", " << j;
      for (const auto& [di, dj] :
           {std::pair{-1, 0}, std::pair{1, 0}, std::pair{0, -1},
            std::pair{0, 1}})
        p.pairs.emplace_back(id(i, j), id(i + di, j + dj));
    }
  check(p);
}

// Nine pairs on a 3 x 3 lattice 2^21 um wide in x and in y, with an
// influence radius of 2^-14 um: the span is more than 2^33 cell widths on
// both axes, past the range of any 32-bit cell key. Grid points sit on the
// victims, their partners 10 um away are out of every disc.
TEST(RunSchedule, SpanBeyondThirtyTwoBitCellKeys) {
  const double span = std::ldexp(1.0, 21);
  const double radius = std::ldexp(1.0, -14);
  Case p{"wide span", {}, radius,
         geo::SampleGrid(geo::Box{{0.0, 0.0}, {span, span}}, 3, 3), {}, {}};
  for (const geo::Point& c : p.grid.points()) {
    p.centers.push_back(c);
    p.centers.push_back({c.x + 10.0, c.y});
  }
  const VictimCells cells(tsvlib::Placement(kS, p.centers).bounding_box(),
                          radius);
  const VictimCells::Cell far = cells.cell({span, span});
  EXPECT_GT(far.x, std::int64_t{1} << 33);
  EXPECT_GT(far.y, std::int64_t{1} << 33);
  const VictimCells::Cell mid = cells.cell({span / 2.0, span / 2.0});
  EXPECT_GT(mid.x, std::int64_t{1} << 32);
  EXPECT_GT(mid.y, std::int64_t{1} << 32);
  EXPECT_LT(mid.x, far.x);
  EXPECT_LT(mid.y, far.y);
  check(p);
}

// A shuffled pair list splits victims into several runs, which land in one
// cell and keep their list order there.
TEST(RunSchedule, PairListThatIsNotVictimMajor) {
  const tsvlib::Placement design = tsvlib::make_random(
      kS, 60, geo::Box{{0.0, 0.0}, {150.0, 150.0}}, 10.0, 20261018);
  Case p{"shuffled pairs", design.centers(), kInfluenceRadius,
         geo::SampleGrid::with_spacing(design.bounding_box().expanded(10.0),
                                       2.3),
         {}, InteractiveStage(design, series().model).victim_runs().pairs()};
  std::mt19937 rng(20261018);
  std::shuffle(p.pairs.begin(), p.pairs.end(), rng);
  const std::size_t runs = VictimRuns::from_pairs(p.pairs).victims.size();
  ASSERT_GT(runs, 2 * design.size());
  ASSERT_LT(runs, p.pairs.size());
  check(p);
}

}  // namespace
}  // namespace tsv::core
