// variation_corners: a Monte Carlo sweep through VariationEngine on a
// 2k-TSV design at 2 um (4 material corners, certified surrogate fitted per
// corner, corners swept in parallel). Bulk Stage II runs only once per
// corner, in setup; the sweep is batched revert+jitter
// IncrementalEngine::apply calls plus stats accumulation on the shared
// pool -- the service's engine used with large edit batches and no wire.
//
// An op is one sample on one corner. VariationEngine::run reports each
// corner's sweep time, not single samples, so an op's latency is its
// corner's sweep time divided by the samples it swept. The correctness gate
// compares every corner engine, back at the nominal placement after the
// sweeps, against a fresh exact-series evaluation at 1024 probes.

#include <algorithm>
#include <memory>
#include <optional>

#include "analytic/surrogate.h"
#include "core/incremental_engine.h"
#include "harness.h"
#include "stats/variation_engine.h"
#include "tsv/placement_io.h"

namespace bench_e2e {
namespace {

using namespace tsv;

constexpr double kSpacing = 2.0;  // um
constexpr double kMargin = 25.0;  // um
constexpr std::size_t kProbes = 1024;

/// The edit batch taking realization `prev` to `next`, in the sweep's own
/// order: the two sorted id lists merged, ids leaving the subset reverted
/// to nominal, ids in `next` moved to their jittered centers.
core::Delta delta_between(const std::vector<geo::Point>& nominal,
                          const stats::SampleRealization& prev,
                          const stats::SampleRealization& next) {
  core::Delta delta;
  std::size_t a = 0;
  std::size_t b = 0;
  const auto& pa = prev.jittered_ids;
  const auto& nb = next.jittered_ids;
  while (a < pa.size() || b < nb.size()) {
    if (b >= nb.size() || (a < pa.size() && pa[a] < nb[b])) {
      delta.push_back(core::EcoOp::move(pa[a], nominal[pa[a]]));
      ++a;
    } else {
      if (a < pa.size() && pa[a] == nb[b]) ++a;
      delta.push_back(core::EcoOp::move(nb[b], next.jittered_centers[b]));
      ++b;
    }
  }
  return delta;
}

}  // namespace

Result run_variation(const Config& cfg, Trace* trace) {
  const std::size_t tsvs = cfg.quick ? 500 : 2000;
  const std::size_t samples = cfg.quick ? 16 : 64;  // per corner per sweep
  const std::string path =
      write_design(cfg.workdir, "variation", tsvs, sub_seed(cfg.seed, 1));
  Result res;

  stats::VariationOptions vopt;
  vopt.fit_surrogate = true;
  vopt.parallel_corners = true;
  vopt.num_threads = cfg.threads;
  const auto spec_for = [&](const tsvlib::Placement& placement) {
    stats::VariationSpec spec;
    spec.seed = sub_seed(cfg.seed, 4);
    spec.samples = samples;
    spec.corners = stats::material_corners(placement.structure());
    return spec;
  };

  // Setup: placement read + engine construction (characterization,
  // surrogate fit and full build per corner). A build is a few seconds on
  // one thread, so the untraced run builds three times, once before the
  // measured phase and twice after the gate, and reports the median. The
  // traced run builds once, with a span around each layer call.
  std::vector<double> setups;
  std::unique_ptr<stats::VariationEngine> engine;
  std::optional<tsvlib::Placement> placement;
  const auto build = [&] {
    engine.reset();
    Span setup(trace, "setup");
    const Clock::time_point t0 = Clock::now();
    {
      Span s(trace, "tsv.placement_read", setup.id());
      placement.emplace(tsvlib::read_placement_file(path));
    }
    const geo::SampleGrid grid = geo::SampleGrid::with_spacing(
        placement->bounding_box().expanded(kMargin), kSpacing);
    Span s(trace, "stats.engine_build", setup.id());
    engine = std::make_unique<stats::VariationEngine>(*placement, grid,
                                                      spec_for(*placement),
                                                      vopt);
    setups.push_back(seconds_since(t0));
  };
  build();
  const std::size_t corners = engine->corner_count();

  // Measured phase: sweeps while the time budget allows.
  struct Sweep {
    double wall_s = 0.0;
    std::vector<double> sample_ms;  ///< per corner: sweep time / samples
    double busy_s = 0.0;            ///< sum of the corners' sweep times
  };
  const auto sweep = [&](Trace* t, std::uint64_t parent) {
    Span s(t, "stats.sweep", parent);
    const Clock::time_point t0 = Clock::now();
    const std::vector<stats::CornerResult> out = engine->run();
    Sweep sw;
    sw.wall_s = seconds_since(t0);
    if (out.size() != corners) res.fail("sweep lost a corner");
    for (const stats::CornerResult& c : out) {
      if (c.samples != samples || c.sample_peak.count() != samples)
        res.fail("corner " + c.name + " swept the wrong sample count");
      sw.sample_ms.push_back(1e3 * c.sample_seconds /
                             static_cast<double>(samples));
      sw.busy_s += c.sample_seconds;
    }
    return sw;
  };
  // The first sweep after construction runs up to 1.8 times as long as the
  // later ones, by an amount that varies from run to run; it is not
  // measured.
  const Sweep warmup = sweep(nullptr, 0);
  std::vector<Sweep> sweeps;
  double measured = 0.0;
  while (another_unit(measured, sweeps.empty() ? 0.0 : sweeps.back().wall_s,
                      cfg.seconds)) {
    sweeps.push_back(sweep(nullptr, 0));
    measured += sweeps.back().wall_s;
  }
  const double per_sweep = static_cast<double>(corners * samples);
  std::vector<double> sample_ms;
  std::vector<double> rates;
  for (const Sweep& sw : sweeps) {
    sample_ms.insert(sample_ms.end(), sw.sample_ms.begin(), sw.sample_ms.end());
    rates.push_back(per_sweep / sw.wall_s);
  }
  res.attempted = static_cast<std::uint64_t>(per_sweep) * (sweeps.size() + 1);
  // Peak memory of the run itself, before the gate and the later builds.
  const double peak_rss_mb = peak_rss_mb_self();
  std::printf("design: %zu TSVs, %zu points at %.3g um, %zu corners x %zu "
              "samples per sweep, %zu sweep(s) after a %.3f s warm-up sweep\n",
              placement->size(), engine->grid().size(), kSpacing, corners,
              samples, sweeps.size(), warmup.wall_s);

  // Correctness gate: each corner engine, back at nominal, against a fresh
  // exact-series evaluation of its structure at strided probes.
  const geo::SampleGrid& grid = engine->grid();
  std::vector<std::size_t> probe_idx;
  for (std::size_t k = 0; k < kProbes; ++k)
    probe_idx.push_back(k * grid.size() / kProbes);
  std::vector<geo::Point> probe_pts;
  for (const std::size_t i : probe_idx) probe_pts.push_back(grid.point(i));
  double max_err = 0.0;
  for (std::size_t c = 0; c < corners; ++c) {
    const tsvlib::TsvStructure& s = engine->corner(c).structure;
    const Characterization ch = characterize(s);
    const core::StressFramework exact(
        tsvlib::Placement(s, placement->centers()), ch.table, ch.model,
        framework_options(cfg.threads));
    const std::vector<num::SymTensor2> ex = exact.evaluate(probe_pts).stress;
    const core::IncrementalEngine& e = engine->engine(c);
    ErrorGauge gauge;
    for (std::size_t k = 0; k < kProbes; ++k) {
      num::SymTensor2 got = e.stage1_field()[probe_idx[k]];
      got += e.stage2_field()[probe_idx[k]];
      gauge.add(got, ex[k]);
    }
    max_err = std::max(max_err, gauge.frac());
  }
  std::printf("max_err_frac %.3g over %zu corners x %zu probes vs the exact "
              "series; failed_frac 0\n",
              max_err, corners, kProbes);
  if (!(max_err <= Result::kMaxErrFrac))
    res.fail("corner field deviates from the exact series");
  if (!trace)
    for (int b = 0; b < 2; ++b) build();
  res.end_to_end = {
      {"setup_s", median(setups), "s"},
      {"ops_per_s", median(rates), "1/s"},
      {"op_p50_ms", median(sample_ms), "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  std::printf("samples_per_s %.4g (median over sweeps); wall_s %.3f (setup "
              "%.3f + sweeps %.3f); per-sample %s\n",
              median(rates), median(setups) + measured, median(setups),
              measured, describe_tail(sample_ms).c_str());
  if (!trace) return res;

  // ---- traced run: per-layer attribution ----
  Span traced(trace, "measured");
  const Sweep tr = sweep(trace, traced.id());
  const double untraced_wall = sweeps.back().wall_s;

  // The engine constructor is one call; its layers are timed by doing the
  // same work per corner through the public calls.
  double stage1_t1 = 0.0;
  double stage2_t1 = 0.0;
  double stage1_tn = 0.0;
  double stage2_tn = 0.0;
  for (std::size_t c = 0; c < corners; ++c) {
    const tsvlib::Placement corner_placement(engine->corner(c).structure,
                                             placement->centers());
    Characterization ch;
    {
      Span s(trace, "analytic.characterize", traced.id());
      ch = characterize(corner_placement.structure());
    }
    {
      Span s(trace, "analytic.surrogate_fit", traced.id());
      fit_surrogate(ch);
    }
    {
      Span s(trace, "core.engine_build", traced.id());
      core::IncrementalOptions opt;  // the sweep's engines build serially
      const core::IncrementalEngine built(corner_placement, grid, ch.table,
                                          ch.model, opt);
    }
    if (c == 0) {
      // Stage split and thread scaling of the nominal corner's full build.
      const auto eval = [&](std::size_t threads) {
        Span s(trace, "census.t" + std::to_string(threads), traced.id());
        return core::StressFramework(corner_placement, ch.table, ch.model,
                                     framework_options(threads))
            .evaluate(grid);
      };
      const core::StressResult r1 = eval(1);
      const core::StressResult rn = eval(cfg.threads);
      stage1_t1 = r1.stage1_seconds;
      stage2_t1 = r1.stage2_seconds;
      stage1_tn = rn.stage1_seconds;
      stage2_tn = rn.stage2_seconds;
    }
  }

  // Replay the sweep's edit batches through IncrementalEngine::apply on the
  // nominal corner's engine, then return it to nominal.
  core::IncrementalEngine& e0 = engine->engine(0);
  const std::shared_ptr<const ana::PairSurrogate> surrogate =
      e0.model()->surrogate();
  surrogate->reset_use_stats();
  const stats::VariationSampler& sampler = engine->sampler();
  std::vector<double> apply_ms;
  std::size_t pairs = 0;
  std::size_t point_updates = 0;
  stats::SampleRealization prev;
  for (std::size_t i = 0; i < samples; ++i) {
    const stats::SampleRealization next = sampler.realize(i);
    const core::Delta delta = delta_between(sampler.nominal_centers(), prev,
                                            next);
    const Clock::time_point t0 = Clock::now();
    const core::ApplyStats st = e0.apply(delta);
    const Clock::time_point t1 = Clock::now();
    trace->record("core.apply", traced.id(), t0, t1);
    apply_ms.push_back(ms_between(t0, t1));
    pairs += st.added_pairs + st.removed_pairs;
    point_updates += st.stage1_point_updates + st.stage2_point_updates;
    prev = next;
  }
  e0.apply(delta_between(sampler.nominal_centers(), prev, {}));
  const ana::SurrogateUseStats use = surrogate->use_stats();

  const double sweep_sample_ms = tr.sample_ms.front();
  std::printf("stats.sweep_s %.3f; core.apply_ms.p50 %.3f, p99 %.3f, "
              "core.apply_point_updates %zu; stats.accumulate_ms %.3f; "
              "stats.corner_busy_frac %.3f\n",
              tr.wall_s, quantile(apply_ms, 0.5), quantile(apply_ms, 0.99),
              point_updates, sweep_sample_ms - median(apply_ms),
              ratio(tr.busy_s, static_cast<double>(corners) * tr.wall_s));
  std::printf("stats.engine_build_s %.3f; summed over corners: "
              "analytic.surrogate_fit_s %.3f, core.engine_build_s %.3f\n",
              trace->total_seconds("stats.engine_build"),
              trace->total_seconds("analytic.surrogate_fit"),
              trace->total_seconds("core.engine_build"));

  const double n = static_cast<double>(cfg.threads);
  res.per_layer = {
      {"tsv.placement_read_s", trace->total_seconds("tsv.placement_read"), "s"},
      {"analytic.characterize_s", trace->total_seconds("analytic.characterize"),
       "s"},
      {"analytic.surrogate_fit_s",
       trace->total_seconds("analytic.surrogate_fit"), "s"},
      {"core.build_s", trace->total_seconds("core.engine_build"), "s"},
      {"core.stage1_s", stage1_t1, "s"},
      {"core.stage2_s", stage2_t1, "s"},
      {"core.stage2_ar", ratio(stage2_t1, stage1_t1), "ratio"},
      {"core.pairs_evaluated", static_cast<double>(pairs), "count"},
      {"analytic.surrogate_pairs", static_cast<double>(use.surrogate_pairs),
       "count"},
      {"analytic.fallback_pairs", static_cast<double>(use.fallback_pairs),
       "count"},
      {"numeric.scaling_eff_stage1", ratio(stage1_t1, n * stage1_tn),
       "fraction"},
      {"numeric.scaling_eff_stage2", ratio(stage2_t1, n * stage2_tn),
       "fraction"},
      {"op.inproc_ms_p50", median(apply_ms), "ms"},
      {"op.outside_ms_p50", sweep_sample_ms - median(apply_ms), "ms"},
      {"trace.overhead_frac", ratio(tr.wall_s, untraced_wall) - 1.0,
       "fraction"},
  };
  return res;
}

}  // namespace bench_e2e
