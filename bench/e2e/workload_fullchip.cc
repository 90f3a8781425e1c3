// fullchip_100k: the one-shot full-chip run of the paper's Algorithm 1 at
// 100k TSVs. Placement file in -> characterization -> surrogate fit ->
// StressFramework -> TiledEvaluator streaming 64k-point tiles into a
// reduction (peak von Mises, points above 100 MPa, field digest). Stage II
// dominates the wall time and no engine, wire or journal work runs, so the
// kernels, the thread pool and the tiling show here and nowhere else.
//
// An op is one streamed tile; its latency is the time the evaluator spent
// producing it (the reduction's own time is excluded). The correctness gate
// re-evaluates every 1009th point with the exact series (a model with no
// surrogate) and checks that repeated runs give bitwise the same field.

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>

#include "analytic/surrogate.h"
#include "core/tiled_evaluator.h"
#include "harness.h"
#include "stats/sampler.h"
#include "tsv/placement_io.h"

namespace bench_e2e {
namespace {

using namespace tsv;

constexpr double kSpacing = 2.0;  // um, simulation-point grid
constexpr double kMargin = 25.0;  // um, halo around the placement
constexpr std::size_t kProbeStride = 1009;
constexpr double kHotMpa = 100.0;

/// Everything the one-shot run builds before its first tile.
struct Pipeline {
  tsvlib::Placement placement;
  Characterization ch;
  std::unique_ptr<core::StressFramework> framework;
  std::unique_ptr<core::TiledEvaluator> tiled;
  std::optional<geo::SampleGrid> grid;
};

Pipeline build_pipeline(const std::string& path, std::size_t threads,
                        Trace* trace, std::uint64_t parent) {
  Pipeline p;
  {
    Span s(trace, "tsv.placement_read", parent);
    p.placement = tsvlib::read_placement_file(path);
  }
  {
    Span s(trace, "analytic.characterize", parent);
    p.ch = characterize(p.placement.structure());
  }
  {
    Span s(trace, "analytic.surrogate_fit", parent);
    fit_surrogate(p.ch);
  }
  {
    Span s(trace, "core.framework_build", parent);
    p.framework = std::make_unique<core::StressFramework>(
        p.placement, p.ch.table, p.ch.model, framework_options(threads));
    p.tiled = std::make_unique<core::TiledEvaluator>(*p.framework);
    p.grid.emplace(geo::SampleGrid::with_spacing(
        p.placement.bounding_box().expanded(kMargin), kSpacing));
  }
  return p;
}

struct OneShot {
  core::TiledStats stats;
  double wall_s = 0.0;
  std::vector<double> tile_ms;     ///< evaluator time per tile
  std::vector<double> consume_ms;  ///< reduction time per tile
  double peak_vm = 0.0;
  std::size_t hot_points = 0;
  std::uint64_t digest = 0;
  std::vector<geo::Point> probe_pts;
  std::vector<num::SymTensor2> probe;
};

std::uint64_t mix(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return stats::rng::splitmix64(h ^ bits);
}

OneShot evaluate_once(const Pipeline& p, Trace* trace, std::uint64_t parent) {
  OneShot r;
  std::size_t seen = 0;
  Span span(trace, "core.tiled_evaluate", parent);
  Clock::time_point mark = Clock::now();
  const auto consume = [&](const core::Tile& tile) {
    const Clock::time_point in = Clock::now();
    r.tile_ms.push_back(ms_between(mark, in));
    for (std::size_t i = 0; i < tile.stress.size(); ++i, ++seen) {
      const num::SymTensor2& s = tile.stress[i];
      const double vm = num::von_mises_plane_stress(s);
      r.peak_vm = std::max(r.peak_vm, vm);
      if (vm > kHotMpa) ++r.hot_points;
      r.digest = mix(mix(mix(r.digest, s.s11), s.s22), s.s12);
      if (seen % kProbeStride == 0) {
        r.probe_pts.push_back(tile.points[i]);
        r.probe.push_back(s);
      }
    }
    const Clock::time_point out = Clock::now();
    r.consume_ms.push_back(ms_between(in, out));
    if (trace) {
      trace->record("core.tile", span.id(), mark, in);
      trace->record("bench.consume", span.id(), in, out);
    }
    mark = out;
  };
  const Clock::time_point t0 = Clock::now();
  r.stats = p.tiled->evaluate(*p.grid, consume);
  r.wall_s = seconds_since(t0);
  return r;
}

/// The exact series (a model with no surrogate) at `pts`, band by band: the
/// probes of one horizontal band only see TSVs within reach, so each band is
/// evaluated against that sub-placement with a fresh model. The series
/// model caches one response per distinct pitch; over the whole 100k design
/// that cache alone would take most of a gigabyte.
std::vector<num::SymTensor2> exact_series_at(const Pipeline& p,
                                             const std::vector<geo::Point>& pts,
                                             std::size_t threads) {
  // Stage I reaches 25 um; a Stage II victim within 25 um of a point pairs
  // with aggressors up to 25 um further out.
  constexpr double kReach = 55.0;
  constexpr std::size_t kBands = 16;
  const geo::Box& box = p.grid->box();
  const double h = box.height() / static_cast<double>(kBands);
  std::vector<std::vector<std::size_t>> members(kBands);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const auto b = static_cast<std::size_t>(
        std::max(0.0, (pts[i].y - box.lo.y) / h));
    members[std::min(b, kBands - 1)].push_back(i);
  }
  std::vector<num::SymTensor2> out(pts.size());
  for (std::size_t b = 0; b < kBands; ++b) {
    if (members[b].empty()) continue;
    const double lo = box.lo.y + static_cast<double>(b) * h - kReach;
    const double hi = lo + h + 2.0 * kReach;
    std::vector<geo::Point> centers;
    for (const geo::Point& c : p.placement.centers())
      if (c.y >= lo && c.y <= hi) centers.push_back(c);
    const tsvlib::Placement sub(p.placement.structure(), std::move(centers));
    const core::StressFramework exact(sub, p.ch.table, exact_model(p.ch),
                                      framework_options(threads));
    std::vector<geo::Point> band_pts;
    for (const std::size_t i : members[b]) band_pts.push_back(pts[i]);
    const std::vector<num::SymTensor2> band = exact.evaluate(band_pts).stress;
    for (std::size_t j = 0; j < band.size(); ++j) out[members[b][j]] = band[j];
  }
  return out;
}

}  // namespace

Result run_fullchip(const Config& cfg, Trace* trace) {
  const std::size_t tsvs = cfg.quick ? 5000 : 100000;
  const std::string path = write_design(cfg.workdir, "fullchip", tsvs,
                                        cfg.seed);
  Result res;

  // Setup: independent builds, median reported. A build takes a fraction of
  // a second, so the untraced run spreads nine of them over the run (four
  // before the measured phase, five after the gate), past the host's
  // second-long slow spells. The traced run builds once, with a span
  // around each layer call.
  std::vector<double> setups;
  const auto build = [&] {
    Span setup(trace, "setup");
    const Clock::time_point t0 = Clock::now();
    Pipeline built = build_pipeline(path, cfg.threads, trace, setup.id());
    setups.push_back(seconds_since(t0));
    return built;
  };
  std::optional<Pipeline> p;
  for (int b = 0; b < (cfg.trace ? 1 : 4); ++b) {
    p.reset();
    p.emplace(build());
  }
  const std::shared_ptr<const ana::PairSurrogate> surrogate =
      p->ch.model->surrogate();

  // Measured phase: one-shot runs while the time budget allows.
  std::vector<OneShot> runs;
  double measured = 0.0;
  double peak_rss_mb = 0.0;
  while (another_unit(measured, runs.empty() ? 0.0 : runs.back().wall_s,
                      cfg.seconds)) {
    runs.push_back(evaluate_once(*p, nullptr, 0));
    measured += runs.back().wall_s;
    // Peak memory of one one-shot run, read before the gate allocates its
    // own: a second run, which only a fast host fits in, adds a few MB.
    if (runs.size() == 1) peak_rss_mb = peak_rss_mb_self();
  }

  std::size_t tiles = 0;
  std::vector<double> tile_ms;
  for (const OneShot& r : runs) {
    tiles += r.stats.tiles;
    tile_ms.insert(tile_ms.end(), r.tile_ms.begin(), r.tile_ms.end());
    if (r.digest != runs.front().digest)
      res.fail("tiled field is not bitwise repeatable across runs");
  }
  res.attempted = tiles;
  const OneShot& first = runs.front();
  std::printf("design: %zu TSVs, %zu points at %.3g um, %zu tiles (peak %zu "
              "points), %zu pairs; %zu run(s)\n",
              p->placement.size(), p->grid->size(), kSpacing,
              first.stats.tiles, first.stats.peak_tile_points,
              first.stats.total_pairs, runs.size());
  std::printf("wall_s %.3f (stage I %.3f s, stage II %.3f s, AR %.3f); %.4g "
              "points/s; tile %s; peak von Mises %.1f MPa, %zu points > %.0f "
              "MPa\n",
              first.wall_s, first.stats.stage1_seconds,
              first.stats.stage2_seconds,
              ratio(first.stats.stage2_seconds, first.stats.stage1_seconds),
              static_cast<double>(first.stats.points) / first.wall_s,
              describe_tail(tile_ms).c_str(), first.peak_vm, first.hot_points,
              kHotMpa);

  // Correctness gate: the probes against the exact series.
  ErrorGauge gauge;
  const std::vector<num::SymTensor2> ex =
      exact_series_at(*p, first.probe_pts, cfg.threads);
  for (std::size_t i = 0; i < ex.size(); ++i) gauge.add(first.probe[i], ex[i]);
  std::printf("max_err_frac %.3g over %zu probes vs the exact series; "
              "failed_frac 0\n",
              gauge.frac(), first.probe.size());
  if (!(gauge.frac() <= Result::kMaxErrFrac))
    res.fail("fullchip field deviates from the exact series");
  if (first.probe.empty()) res.fail("no probe points");
  if (!trace)
    for (int b = 0; b < 5; ++b) build();
  res.end_to_end = {
      {"setup_s", median(setups), "s"},
      {"ops_per_s", static_cast<double>(tiles) / measured, "1/s"},
      {"op_p50_ms", median(tile_ms), "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  if (!trace) return res;

  // ---- traced run: per-layer attribution ----
  surrogate->reset_use_stats();
  Span traced_span(trace, "measured");
  const OneShot tr = evaluate_once(*p, trace, traced_span.id());
  const ana::SurrogateUseStats use = surrogate->use_stats();
  if (tr.digest != first.digest)
    res.fail("traced run produced a different field");
  const double consume_s = trace->total_seconds("bench.consume");
  const double eval_span_s = trace->total_seconds("core.tiled_evaluate");
  const double driver_s = eval_span_s - tr.stats.stage1_seconds -
                          tr.stats.stage2_seconds - consume_s;
  const double setup_parts =
      trace->total_seconds("tsv.placement_read") +
      trace->total_seconds("analytic.characterize") +
      trace->total_seconds("analytic.surrogate_fit") +
      trace->total_seconds("core.framework_build");
  std::printf("setup parts sum %.4f s of setup %.4f s (%.1f%%)\n", setup_parts,
              trace->total_seconds("setup"),
              100.0 * ratio(setup_parts, trace->total_seconds("setup")));
  std::printf("evaluate span %.3f s = stage I %.3f + stage II %.3f + "
              "core.tiled_driver_s %.3f + bench.consume_s %.3f\n",
              eval_span_s, tr.stats.stage1_seconds, tr.stats.stage2_seconds,
              driver_s, consume_s);
  std::printf("core.tiles %zu, core.peak_tile_points %zu, core.pairs_total "
              "%zu, analytic.fallback_frac %.4g\n",
              tr.stats.tiles, tr.stats.peak_tile_points, tr.stats.total_pairs,
              ratio(static_cast<double>(use.fallback_pairs),
                    static_cast<double>(use.surrogate_pairs +
                                        use.fallback_pairs)));

  // Scaling census: the 10k design from the same seed, full-grid evaluate at
  // 1, 2 and the run's thread count, and the exact series at 1 thread.
  const std::string census_path =
      write_design(cfg.workdir, "census", cfg.quick ? 1000 : 10000, cfg.seed);
  const tsvlib::Placement census = tsvlib::read_placement_file(census_path);
  const geo::SampleGrid census_grid = geo::SampleGrid::with_spacing(
      census.bounding_box().expanded(kMargin), kSpacing);
  const auto census_eval = [&](const std::string& label,
                               std::shared_ptr<
                                   const ana::InteractiveStressModel> model,
                               std::size_t threads) {
    Span s(trace, label + ".t" + std::to_string(threads), traced_span.id());
    const core::StressFramework fw(census, p->ch.table, std::move(model),
                                   framework_options(threads));
    return fw.evaluate(census_grid);
  };
  std::vector<std::pair<std::size_t, core::StressResult>> by_threads;
  for (const std::size_t t : {std::size_t{1}, std::size_t{2}, cfg.threads})
    if (t <= cfg.threads && (by_threads.empty() || by_threads.back().first < t))
      by_threads.emplace_back(t, census_eval("census", p->ch.model, t));
  const core::StressResult series =
      census_eval("census.series", exact_model(p->ch), 1);
  const core::StressResult& t1 = by_threads.front().second;
  const core::StressResult& tn = by_threads.back().second;
  const double n = static_cast<double>(by_threads.back().first);
  for (const auto& [t, r] : by_threads)
    std::printf("census %zu TSVs, %zu points: core.stage1_s.t%zu %.3f, "
                "core.stage2_s.t%zu %.3f (AR %.3f)\n",
                census.size(), census_grid.size(), t, r.stage1_seconds, t,
                r.stage2_seconds, ratio(r.stage2_seconds, r.stage1_seconds));
  std::printf("census core.stage2_series_s.t1 %.3f: core.stage2_ar.series.t1 "
              "%.3f, core.stage2_ar.surrogate.t1 %.3f\n",
              series.stage2_seconds,
              ratio(series.stage2_seconds, series.stage1_seconds),
              ratio(t1.stage2_seconds, t1.stage1_seconds));

  res.per_layer = {
      {"tsv.placement_read_s", trace->total_seconds("tsv.placement_read"), "s"},
      {"analytic.characterize_s", trace->total_seconds("analytic.characterize"),
       "s"},
      {"analytic.surrogate_fit_s",
       trace->total_seconds("analytic.surrogate_fit"), "s"},
      {"core.build_s", trace->total_seconds("core.framework_build"), "s"},
      {"core.stage1_s", tr.stats.stage1_seconds, "s"},
      {"core.stage2_s", tr.stats.stage2_seconds, "s"},
      {"core.stage2_ar",
       ratio(tr.stats.stage2_seconds, tr.stats.stage1_seconds), "ratio"},
      {"core.pairs_evaluated", static_cast<double>(tr.stats.culled_pairs),
       "count"},
      {"analytic.surrogate_pairs", static_cast<double>(use.surrogate_pairs),
       "count"},
      {"analytic.fallback_pairs", static_cast<double>(use.fallback_pairs),
       "count"},
      {"numeric.scaling_eff_stage1",
       ratio(t1.stage1_seconds, n * tn.stage1_seconds), "fraction"},
      {"numeric.scaling_eff_stage2",
       ratio(t1.stage2_seconds, n * tn.stage2_seconds), "fraction"},
      {"op.inproc_ms_p50", median(tr.tile_ms), "ms"},
      {"op.outside_ms_p50", median(tr.consume_ms), "ms"},
      {"trace.overhead_frac", ratio(tr.wall_s, runs.back().wall_s) - 1.0,
       "fraction"},
  };
  return res;
}

}  // namespace bench_e2e
