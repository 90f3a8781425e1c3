// Cross-path differential harness: the same seeded random placements
// evaluated through all four Stage II paths —
//   1. exact potential series      (the reference)
//   2. certified Chebyshev surrogate
//   3. tiled evaluator             (streaming tiles over the exact path)
//   4. incremental engine          (seeded random edit scripts)
// asserting pairwise agreement within each path's documented bound:
// 1e-12 of the field scale for tiling (pure regrouping) and the incremental
// engine (checked against a from-scratch build after every batch, on both
// the series and the surrogate), and the surrogate's machine-checked
// certificate (<= 4.2e-7 relative per pair). The batched stage is also
// held to the same bounds on a shuffled pair list, since it shares work
// between consecutive pairs of one victim.
// Runs under the ASan tier via the `differential` ctest label.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <vector>

#include "analytic/interaction.h"
#include "analytic/surrogate.h"
#include "core/framework.h"
#include "core/incremental_engine.h"
#include "core/interactive_stage.h"
#include "core/tiled_evaluator.h"
#include "tsv/generators.h"

namespace tsv::core {
namespace {

const tsvlib::TsvStructure kS = tsvlib::TsvStructure::baseline_bcb();

struct Design {
  tsvlib::Placement placement;
  geo::SampleGrid grid;

  explicit Design(std::uint64_t seed)
      : placement(tsvlib::make_random(
            kS, 24, geo::Box{{0.0, 0.0}, {120.0, 120.0}}, 9.0,
            static_cast<unsigned>(seed))),
        grid(geo::SampleGrid::with_spacing(
            placement.bounding_box().expanded(25.0), 3.0)) {}
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

std::shared_ptr<const ana::InteractiveStressModel> fresh_model() {
  return characterize(kS, {}, StageTwo::kSeries).model;
}

std::shared_ptr<const RadialStressTable> shared_table() {
  static auto table = std::make_shared<const RadialStressTable>(
      RadialStressTable::from_analytic(ana::SingleTsvModel(kS, {}), 30.0,
                                       4096));
  return table;
}

std::vector<num::SymTensor2> evaluate_path(const Design& d,
                                           const FrameworkOptions& opt,
                                           const std::shared_ptr<
                                               const ana::InteractiveStressModel>&
                                               model) {
  const StressFramework fw(d.placement, shared_table(), model, opt);
  return fw.evaluate(d.grid).stress;
}

TEST(Differential, StageTwoPathsAgreeWithinDocumentedBounds) {
  for (const std::uint64_t seed : {31u, 57u, 98u}) {
    SCOPED_TRACE(seed);
    const Design d(seed);

    // Path 1: exact series — the reference all others are held to.
    const std::vector<num::SymTensor2> exact =
        evaluate_path(d, FrameworkOptions{}, fresh_model());

    // Path 2: certified surrogate. Its certificate is the bound — every
    // pair it takes contributes at most certified_rel_bound * field_scale
    // absolute error, and the fit is documented to certify at <= 4.2e-7.
    const auto sur_model = fresh_model();
    const auto surrogate = std::make_shared<const ana::PairSurrogate>(
        ana::PairSurrogate::fit(*sur_model));
    const ana::SurrogateCertificate& cert = surrogate->certificate();
    EXPECT_LE(cert.certified_rel_bound, 4.2e-7);
    sur_model->attach_surrogate(surrogate);
    const std::vector<num::SymTensor2> fast =
        evaluate_path(d, FrameworkOptions{}, sur_model);
    // Conservative per-point budget: every ordered pair in range of a point
    // adds one certified error. N^2 over-counts the <= 25 um-cutoff pairs.
    const double budget = static_cast<double>(d.placement.size()) *
                          static_cast<double>(d.placement.size()) *
                          cert.certified_rel_bound * cert.field_scale;
    for (std::size_t i = 0; i < exact.size(); ++i) {
      ASSERT_NEAR(fast[i].s11, exact[i].s11, budget) << i;
      ASSERT_NEAR(fast[i].s22, exact[i].s22, budget) << i;
      ASSERT_NEAR(fast[i].s12, exact[i].s12, budget) << i;
    }

    // Path 3: tiled streaming over the exact path — pure regrouping of the
    // same sums, so <= 1e-12 of the field scale.
    const StressFramework fw(d.placement, shared_table(), fresh_model(),
                             FrameworkOptions{});
    TiledOptions topt;
    topt.max_tile_points = 1024;  // force a real multi-tile run
    const TiledEvaluator tiled(fw, topt);
    std::vector<num::SymTensor2> assembled(d.grid.size());
    const TiledStats st = tiled.evaluate(d.grid, [&](const Tile& tile) {
      for (std::size_t ty = 0; ty < tile.ny; ++ty)
        for (std::size_t tx = 0; tx < tile.nx; ++tx)
          assembled[(tile.iy0 + ty) * d.grid.nx() + (tile.ix0 + tx)] =
              tile.stress[ty * tile.nx + tx];
    });
    EXPECT_GT(st.tiles, 1u);
    EXPECT_EQ(st.points, d.grid.size());
    EXPECT_LE(max_rel_err(assembled, exact), 1e-12);
  }
}

// The batched Stage II shares one gather per run of same-victim pairs, so
// its result must not depend on the pair order it is handed beyond
// regrouping (<= 1e-12 of the field scale) on either path; the shuffled
// surrogate run must still sit within the certificate of the exact series.
TEST(Differential, StageTwoIsIndependentOfPairOrder) {
  const auto sur_model = fresh_model();
  const auto surrogate = std::make_shared<const ana::PairSurrogate>(
      ana::PairSurrogate::fit(*sur_model));
  sur_model->attach_surrogate(surrogate);
  const ana::SurrogateCertificate& cert = surrogate->certificate();
  for (const std::uint64_t seed : {31u, 57u}) {
    SCOPED_TRACE(seed);
    const Design d(seed);
    const std::vector<geo::Point> pts = d.grid.points();
    const InteractiveStage exact_stage(d.placement, fresh_model());
    const InteractiveStage fast_stage(d.placement, sur_model);
    const auto sorted = exact_stage.victim_runs().pairs();
    auto shuffled = sorted;
    std::mt19937_64 rng(seed);
    std::shuffle(shuffled.begin(), shuffled.end(), rng);

    const VictimRuns sorted_runs = VictimRuns::from_pairs(sorted);
    const VictimRuns shuffled_runs = VictimRuns::from_pairs(shuffled);
    const auto exact = exact_stage.evaluate_runs(pts, sorted_runs);
    EXPECT_LE(max_rel_err(exact_stage.evaluate_runs(pts, shuffled_runs), exact),
              1e-12);
    const auto fast = fast_stage.evaluate_runs(pts, sorted_runs);
    const auto fast_shuffled = fast_stage.evaluate_runs(pts, shuffled_runs);
    EXPECT_LE(max_rel_err(fast_shuffled, fast), 1e-12);
    const double budget = static_cast<double>(sorted.size()) *
                          cert.certified_rel_bound * cert.field_scale;
    for (std::size_t i = 0; i < exact.size(); ++i) {
      ASSERT_NEAR(fast_shuffled[i].s11, exact[i].s11, budget) << i;
      ASSERT_NEAR(fast_shuffled[i].s22, exact[i].s22, budget) << i;
      ASSERT_NEAR(fast_shuffled[i].s12, exact[i].s12, budget) << i;
    }
  }
}

/// One legal random edit batch against `engine`: moves of random active
/// TSVs by sub-um offsets, occasionally an add/remove — all guaranteed
/// legal by construction (candidate positions keep >= 2 R' + margin to
/// every active TSV).
Delta random_batch(const IncrementalEngine& engine, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> angle(0.0, 6.28318530717958647692);
  std::uniform_real_distribution<double> step(0.2, 1.0);
  const double min_clear = 2.0 * kS.outer_radius() + 0.5;

  const auto legal_for = [&](const geo::Point& cand, std::uint32_t self) {
    for (const std::uint32_t id : engine.active_ids()) {
      if (id == self) continue;
      if (geo::distance(cand, engine.center(id)) < min_clear) return false;
    }
    return true;
  };

  Delta delta;
  const std::vector<std::uint32_t> active = engine.active_ids();
  std::uniform_int_distribution<std::size_t> pick(0, active.size() - 1);
  for (int attempts = 0; attempts < 40 && delta.size() < 3; ++attempts) {
    const std::uint32_t id = active[pick(rng)];
    const double a = angle(rng);
    const double r = step(rng);
    const geo::Point c = engine.center(id);
    const geo::Point cand{c.x + r * std::cos(a), c.y + r * std::sin(a)};
    bool already = false;
    for (const EcoOp& op : delta)
      if (op.kind != EcoOp::Kind::kAdd && op.id == id) already = true;
    if (already || !legal_for(cand, id)) continue;
    delta.push_back(EcoOp::move(id, cand));
  }
  return delta;
}

TEST(Differential, RandomEditScriptTracksFullRecompute) {
  for (const bool surrogate : {false, true}) {
    SCOPED_TRACE(surrogate ? "surrogate path" : "exact-series path");
    const Design d(7);
    const auto model = fresh_model();
    if (surrogate)
      model->attach_surrogate(std::make_shared<const ana::PairSurrogate>(
          ana::PairSurrogate::fit(*model)));
    IncrementalEngine engine(d.placement, d.grid, shared_table(), model);

    std::mt19937_64 rng(0xd1ffu);
    std::size_t applied = 0;
    for (int batch = 0; batch < 6; ++batch) {
      Delta delta = random_batch(engine, rng);
      // Mix structural edits into two of the batches.
      if (batch == 2) delta.push_back(EcoOp::add({-18.0, -18.0}));
      if (batch == 4) delta.push_back(EcoOp::remove(engine.active_ids()[0]));
      if (delta.empty()) continue;
      engine.apply(delta);
      applied += delta.size();

      const IncrementalEngine fresh(engine.placement(), engine.grid(),
                                    engine.shared_table(), engine.model(),
                                    engine.options());
      EXPECT_LE(max_rel_err(engine.total_field(), fresh.total_field()),
                1e-12)
          << "after batch " << batch;
    }
    EXPECT_GE(applied, 12u);
    if (surrogate) {
      EXPECT_GT(model->surrogate()->use_stats().surrogate_pairs, 0u);
    }
  }
}

}  // namespace
}  // namespace tsv::core
