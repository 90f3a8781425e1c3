// IncrementalEngine: delta evaluation must agree with a full recompute to
// <= 1e-12 of the field scale on every grid point (series and surrogate),
// stay bitwise deterministic across repeats, and reject illegal edits
// without touching any state.

#include "core/incremental_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "analytic/surrogate.h"
#include "core/framework.h"
#include "tsv/generators.h"

namespace tsv::core {
namespace {

const tsvlib::TsvStructure kS = tsvlib::TsvStructure::baseline_bcb();

std::shared_ptr<const ana::InteractiveStressModel> shared_model() {
  static auto model = characterize(kS, {}, StageTwo::kSeries).model;
  return model;
}

/// A second model with a certified surrogate attached (the fast Stage II
/// path); shared_model() stays surrogate-free, i.e. the exact series.
std::shared_ptr<const ana::InteractiveStressModel> surrogate_model() {
  static auto model = [] {
    auto m = characterize(kS, {}, StageTwo::kSeries).model;
    m->attach_surrogate(std::make_shared<const ana::PairSurrogate>(
        ana::PairSurrogate::fit(*m)));
    return m;
  }();
  return model;
}

std::shared_ptr<const RadialStressTable> shared_table() {
  static auto table = std::make_shared<const RadialStressTable>(
      RadialStressTable::from_analytic(ana::SingleTsvModel(kS, {}), 30.0,
                                       4096));
  return table;
}

/// Irregular cluster (mixed pitches, so Stage II has real work) on a fixed
/// grid: 11 TSVs, ~7k points at 2 um spacing.
struct Fixture {
  tsvlib::Placement placement;
  geo::SampleGrid grid;

  explicit Fixture(double spacing = 2.0)
      : placement(tsvlib::make_random(
            kS, 11, geo::Box{{0.0, 0.0}, {80.0, 80.0}}, 9.0, 77)),
        grid(geo::SampleGrid::with_spacing(
            placement.bounding_box().expanded(25.0), spacing)) {}

  IncrementalEngine engine(
      const IncrementalOptions& opt = {},
      std::shared_ptr<const ana::InteractiveStressModel> model =
          shared_model()) const {
    return IncrementalEngine(placement, grid, shared_table(), std::move(model),
                             opt);
  }
};

/// Largest per-component |a - b| divided by the field scale of `b`.
double max_rel_err(const std::vector<num::SymTensor2>& a,
                   const std::vector<num::SymTensor2>& b) {
  EXPECT_EQ(a.size(), b.size());
  double scale = 0.0;
  for (const auto& t : b)
    scale = std::max({scale, std::abs(t.s11), std::abs(t.s22),
                      std::abs(t.s12)});
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max({worst, std::abs(a[i].s11 - b[i].s11),
                      std::abs(a[i].s22 - b[i].s22),
                      std::abs(a[i].s12 - b[i].s12)});
  return scale > 0.0 ? worst / scale : worst;
}

bool bitwise_equal(const std::vector<num::SymTensor2>& a,
                   const std::vector<num::SymTensor2>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(),
                     a.size() * sizeof(num::SymTensor2)) == 0;
}

/// Full-recompute reference: a fresh engine on the edited placement.
std::vector<num::SymTensor2> full_reference(const IncrementalEngine& e) {
  const IncrementalEngine fresh(e.placement(), e.grid(), e.shared_table(),
                                e.model(), e.options());
  return fresh.total_field();
}

TEST(IncrementalEngine, InitialBuildMatchesFramework) {
  const Fixture f;
  const IncrementalEngine engine = f.engine();
  FrameworkOptions fopt;
  const StressFramework fw(f.placement, shared_table(), shared_model(), fopt);
  // The engine keeps the two stage buffers apart, like the framework's
  // point-list evaluation (its grid evaluation fuses the stages, which
  // regroups the sum).
  const StressResult want = fw.evaluate(f.grid.points());
  EXPECT_TRUE(bitwise_equal(engine.total_field(), want.stress));
}

TEST(IncrementalEngine, SingleMoveMatchesFullRecompute) {
  const Fixture f;
  IncrementalEngine engine = f.engine();
  const geo::Point c = engine.center(3);
  const ApplyStats st =
      engine.apply({EcoOp::move(3, {c.x + 1.5, c.y - 1.0})});
  EXPECT_EQ(st.ops, 1u);
  EXPECT_GT(st.dirty_points, 0u);
  EXPECT_LT(st.dirty_points, f.grid.size());
  EXPECT_LE(max_rel_err(engine.total_field(), full_reference(engine)),
            1e-12);
}

TEST(IncrementalEngine, SeriesPathMatchesFullRecompute) {
  const Fixture f;
  IncrementalEngine engine = f.engine();  // exact potential series per pair
  const geo::Point c = engine.center(5);
  engine.apply({EcoOp::move(5, {c.x - 1.5, c.y + 1.0})});
  EXPECT_LE(max_rel_err(engine.total_field(), full_reference(engine)),
            1e-12);
}

TEST(IncrementalEngine, SurrogatePathMatchesFullRecompute) {
  const Fixture f;
  IncrementalEngine engine = f.engine({}, surrogate_model());
  const ana::PairSurrogate& sur = *surrogate_model()->surrogate();
  sur.reset_use_stats();
  const geo::Point c = engine.center(5);
  engine.apply({EcoOp::move(5, {c.x - 1.5, c.y + 1.0})});
  EXPECT_GT(sur.use_stats().surrogate_pairs, 0u);
  EXPECT_LE(max_rel_err(engine.total_field(), full_reference(engine)),
            1e-12);
}

TEST(IncrementalEngine, MixedBatchMatchesFullRecompute) {
  const Fixture f;
  IncrementalEngine engine = f.engine();
  const geo::Point c = engine.center(1);
  const ApplyStats st = engine.apply({
      EcoOp::add({-15.0, 95.0}),
      EcoOp::move(1, {c.x + 1.0, c.y + 1.0}),
      EcoOp::remove(7),
  });
  EXPECT_EQ(st.ops, 3u);
  EXPECT_EQ(engine.active_count(), 11u);  // +1 -1
  EXPECT_FALSE(engine.is_active(7));
  EXPECT_LE(max_rel_err(engine.total_field(), full_reference(engine)),
            1e-12);
}

/// Brute-force work of one side of an edit: every ordered pair of active
/// TSVs within the pitch cutoff that involves a `touched` id, the grid
/// points within the Stage II radius of each such pair's victim, the Stage I
/// disc points of the touched TSVs, and how the surrogate's pitch gate
/// splits the pairs.
struct EditCount {
  std::size_t pairs = 0;
  std::size_t stage2_points = 0;
  std::size_t stage1_points = 0;
  std::size_t covered = 0;
  std::size_t declined = 0;
};

EditCount count_edit_side(const IncrementalEngine& e,
                          const std::vector<std::uint32_t>& touched,
                          const ana::PairSurrogate& sur) {
  const auto is_touched = [&](std::uint32_t id) {
    return std::find(touched.begin(), touched.end(), id) != touched.end();
  };
  const auto disc_points = [&](const geo::Point& c, double radius) {
    std::size_t n = 0;
    for (const geo::Point& p : e.grid().points())
      if (geo::distance_squared(p, c) <= radius * radius) ++n;
    return n;
  };
  const double cutoff = e.options().stage2.pair_pitch_cutoff;
  EditCount count;
  const std::vector<std::uint32_t> ids = e.active_ids();
  for (const std::uint32_t v : ids) {
    if (is_touched(v))
      count.stage1_points +=
          disc_points(e.center(v), e.options().stage1.influence_radius);
    for (const std::uint32_t a : ids) {
      if (a == v || !(is_touched(v) || is_touched(a))) continue;
      if (geo::distance_squared(e.center(v), e.center(a)) > cutoff * cutoff)
        continue;
      ++count.pairs;
      count.stage2_points +=
          disc_points(e.center(v), e.options().stage2.influence_radius);
      if (sur.covers(geo::distance(e.center(v), e.center(a))))
        ++count.covered;
      else
        ++count.declined;
    }
  }
  return count;
}

TEST(IncrementalEngine, EditAccountingMatchesBruteForceCount) {
  const Fixture f;
  IncrementalEngine engine = f.engine({}, surrogate_model());
  const ana::PairSurrogate& sur = *surrogate_model()->surrogate();
  // Departing: the moved TSV 1 and the removed TSV 7, against the old
  // placement. Arriving: TSV 1 at its new center and the two added TSVs
  // (ids 11 and 12, 7 um apart, below the surrogate's pitch domain so that
  // pair takes the exact series), against the new placement.
  const EditCount gone = count_edit_side(engine, {1, 7}, sur);
  const geo::Point c = engine.center(1);
  const ana::SurrogateUseStats before = sur.use_stats();
  const ApplyStats st = engine.apply({
      EcoOp::add({-15.0, 95.0}),
      EcoOp::move(1, {c.x + 1.0, c.y + 1.0}),
      EcoOp::add({-8.0, 95.0}),
      EcoOp::remove(7),
  });
  const ana::SurrogateUseStats after = sur.use_stats();
  const EditCount fresh = count_edit_side(engine, {1, 11, 12}, sur);

  EXPECT_GT(gone.pairs, 0u);
  EXPECT_GT(fresh.declined, 0u);
  EXPECT_EQ(st.removed_pairs, gone.pairs);
  EXPECT_EQ(st.added_pairs, fresh.pairs);
  EXPECT_EQ(st.stage2_point_updates, gone.stage2_points + fresh.stage2_points);
  EXPECT_EQ(st.stage1_point_updates, gone.stage1_points + fresh.stage1_points);
  EXPECT_EQ(after.surrogate_pairs - before.surrogate_pairs,
            gone.covered + fresh.covered);
  EXPECT_EQ(after.fallback_pairs - before.fallback_pairs,
            gone.declined + fresh.declined);
  EXPECT_LE(max_rel_err(engine.total_field(), full_reference(engine)),
            1e-12);
}

TEST(IncrementalEngine, EditSequenceStaysWithinBound) {
  const Fixture f;
  IncrementalEngine engine = f.engine();
  // A short ECO session: every apply leaves the engine within the bound
  // of a from-scratch evaluation (drift does not accumulate past it).
  const std::uint32_t added = engine.add({-15.0, -15.0});
  engine.move(added, {-12.0, -12.0});
  engine.remove(2);
  const geo::Point c = engine.center(9);
  engine.move(9, {c.x + 1.8, c.y});
  EXPECT_LE(max_rel_err(engine.total_field(), full_reference(engine)),
            1e-12);
}

TEST(IncrementalEngine, ApplyIsBitwiseDeterministic) {
  const Fixture f;
  IncrementalEngine a = f.engine();
  IncrementalEngine b = f.engine();
  const geo::Point c = a.center(4);
  const Delta delta = {EcoOp::move(4, {c.x + 1.2, c.y + 0.8}),
                       EcoOp::add({95.0, 95.0})};
  a.apply(delta);
  b.apply(delta);
  EXPECT_TRUE(bitwise_equal(a.stage1_field(), b.stage1_field()));
  EXPECT_TRUE(bitwise_equal(a.stage2_field(), b.stage2_field()));
}

TEST(IncrementalEngine, ParallelBuildMatchesSerialWithinBound) {
  const Fixture f;
  IncrementalOptions serial;
  serial.num_threads = 1;
  IncrementalOptions par;
  par.num_threads = 4;
  const IncrementalEngine a = f.engine(serial);
  const IncrementalEngine b = f.engine(par);
  // Stage I is bitwise under the chunk-ordered reduce; Stage II carries the
  // documented <= 1e-12 merge-order tolerance.
  EXPECT_TRUE(bitwise_equal(a.stage1_field(), b.stage1_field()));
  EXPECT_LE(max_rel_err(b.stage2_field(), a.stage2_field()), 1e-12);
}

TEST(IncrementalEngine, FarPointsUntouchedBitwise) {
  const Fixture f;
  IncrementalEngine engine = f.engine();
  const std::vector<num::SymTensor2> before = engine.total_field();
  const geo::Point c = engine.center(0);
  engine.apply({EcoOp::move(0, {c.x + 1.5, c.y})});
  const std::vector<num::SymTensor2> after = engine.total_field();
  // A move also refreshes the ordered pairs whose *victim* is a partner of
  // the moved TSV, and those re-emit over the partner's own influence disc
  // — so the conservative untouched region starts pair_pitch_cutoff +
  // influence_radius away from the moved TSV.
  const double reach =
      engine.options().stage2.pair_pitch_cutoff +
      std::max(engine.options().stage1.influence_radius,
               engine.options().stage2.influence_radius);
  const std::vector<geo::Point> pts = f.grid.points();
  std::size_t far_points = 0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const bool near_old = geo::distance(pts[i], c) <= reach;
    const bool near_new =
        geo::distance(pts[i], engine.center(0)) <= reach;
    if (near_old || near_new) continue;
    ++far_points;
    EXPECT_EQ(std::memcmp(&before[i], &after[i], sizeof(before[i])), 0)
        << "point " << i << " outside both influence discs changed";
  }
  EXPECT_GT(far_points, 0u);
}

TEST(IncrementalEngine, DirtyPointsAreABruteForceDiscScan) {
  // Stage I only: a move updates exactly the grid points within the
  // influence radius (distance_squared <= r^2) of the old and of the new
  // center, and an add near the grid corner the clipped disc around it.
  // The counts match a brute-force scan of those discs, and no point
  // outside them changes.
  const Fixture f;
  IncrementalOptions opt;
  opt.enable_interactive = false;
  IncrementalEngine engine = f.engine(opt, nullptr);
  const std::vector<num::SymTensor2> before = engine.stage1_field();
  const geo::Point old_c = engine.center(3);
  const geo::Point new_c{old_c.x + 1.37, old_c.y - 0.83};
  const geo::Point corner = f.grid.box().lo + geo::Point{3.1, 4.2};
  const ApplyStats st =
      engine.apply({EcoOp::move(3, new_c), EcoOp::add(corner)});
  const double r2 = engine.options().stage1.influence_radius *
                    engine.options().stage1.influence_radius;
  const std::vector<geo::Point> pts = f.grid.points();
  const std::vector<num::SymTensor2>& after = engine.stage1_field();
  std::size_t dirty_points = 0;
  std::size_t disc_points = 0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    std::size_t discs = 0;
    for (const geo::Point& c : {old_c, new_c, corner})
      discs += geo::distance_squared(pts[i], c) <= r2 ? 1 : 0;
    disc_points += discs;
    dirty_points += discs > 0 ? 1 : 0;
    if (discs == 0) {
      EXPECT_EQ(std::memcmp(&before[i], &after[i], sizeof(before[i])), 0)
          << "point " << i << " outside every disc changed";
    }
  }
  EXPECT_GT(dirty_points, 0u);
  EXPECT_EQ(st.dirty_points, dirty_points);
  EXPECT_EQ(st.stage1_point_updates, disc_points);
}

TEST(IncrementalEngine, RebuildReportsTinyDriftAndResets) {
  const Fixture f;
  IncrementalEngine engine = f.engine();
  for (std::uint32_t id : {0u, 3u, 6u}) {
    const geo::Point c = engine.center(id);
    engine.apply({EcoOp::move(id, {c.x + 1.4, c.y - 0.9})});
  }
  const double drift = engine.rebuild();
  EXPECT_GE(drift, 0.0);
  EXPECT_LE(drift, 1e-9);  // MPa; cancellation noise only
  // After the rebuild the fields are exactly the from-scratch evaluation.
  EXPECT_TRUE(
      bitwise_equal(engine.total_field(), full_reference(engine)));
}

TEST(IncrementalEngine, InvalidEditsRejectedAtomically) {
  const Fixture f;
  IncrementalEngine engine = f.engine();
  const std::vector<num::SymTensor2> before = engine.total_field();

  // Unknown / inactive ids.
  EXPECT_THROW(engine.apply({EcoOp::move(99, {1.0, 1.0})}),
               std::invalid_argument);
  EXPECT_THROW(engine.apply({EcoOp::remove(99)}), std::invalid_argument);
  engine.apply({EcoOp::remove(2)});
  EXPECT_THROW(engine.apply({EcoOp::move(2, {1.0, 1.0})}),
               std::invalid_argument);
  engine.apply({EcoOp::add(f.placement.centers()[2])});  // put it back

  // Overlap: moving a TSV onto another one must throw before any field
  // update (the batch also contains a valid op that must not be applied).
  const geo::Point other = engine.center(1);
  EXPECT_THROW(engine.apply({EcoOp::add({-15.0, 95.0}),
                             EcoOp::move(0, {other.x + 1.0, other.y})}),
               std::invalid_argument);
  EXPECT_EQ(engine.active_count(), 11u);
  EXPECT_LE(max_rel_err(engine.total_field(), before), 1e-12);
}

TEST(IncrementalEngine, StageOneOnlyEngineWorks) {
  const Fixture f;
  IncrementalOptions opt;
  opt.enable_interactive = false;
  IncrementalEngine engine(f.placement, f.grid, shared_table(), nullptr,
                           opt);
  for (const auto& t : engine.stage2_field()) {
    EXPECT_EQ(t.s11, 0.0);
    EXPECT_EQ(t.s22, 0.0);
    EXPECT_EQ(t.s12, 0.0);
  }
  const geo::Point c = engine.center(3);
  engine.apply({EcoOp::move(3, {c.x + 1.5, c.y})});
  const IncrementalEngine fresh(engine.placement(), f.grid, shared_table(),
                                nullptr, opt);
  EXPECT_LE(max_rel_err(engine.total_field(), fresh.total_field()), 1e-12);
}

TEST(IncrementalEngine, StateRoundTripRestoresFieldsBitwise) {
  const Fixture f;
  IncrementalEngine engine = f.engine();
  engine.apply({EcoOp::remove(4), EcoOp::add({-15.0, 40.0})});
  const IncrementalEngine restored = IncrementalEngine::restore(
      engine.state(), engine.shared_table(), engine.model());
  EXPECT_EQ(restored.active_count(), engine.active_count());
  EXPECT_EQ(restored.slot_count(), engine.slot_count());
  EXPECT_TRUE(bitwise_equal(restored.stage1_field(), engine.stage1_field()));
  EXPECT_TRUE(bitwise_equal(restored.stage2_field(), engine.stage2_field()));
  // The restored engine keeps editing correctly.
  IncrementalEngine editable = IncrementalEngine::restore(
      engine.state(), engine.shared_table(), engine.model());
  const geo::Point c = editable.center(0);
  editable.apply({EcoOp::move(0, {c.x + 1.4, c.y + 1.0})});
  EXPECT_LE(max_rel_err(editable.total_field(), full_reference(editable)),
            1e-12);
}

}  // namespace
}  // namespace tsv::core
