// Full-chip scalability bench: synthetic designs (regular arrays +
// clustered banks + random logic TSVs, see tsv/fullchip.h) evaluated with
// the tiled streaming driver. For each design size it times Stage I and
// the two Stage II paths at equal thread count:
//
//   series   — the exact potential series (the accuracy-bench path),
//   surrogate— the certified Chebyshev surrogate (analytic/surrogate.h)
//              fitted once up front; pairs whose pitch falls outside the
//              fitted domain fall back to the exact series, and the
//              per-design fallback counters are reported.
//
// Above kSeriesLimit TSVs the exact-series row is skipped (it dominates
// wall time); accuracy is still measured exactly by evaluating the exact
// framework on the strided probe points only.
//
// The surrogate configuration is then re-run with tiled checkpointing
// enabled (io::evaluate_with_checkpoint, ~3 checkpoints per run) to measure
// the wall-time overhead of crash tolerance — the README quotes a <= 5%
// budget.
//
// Prints a human table plus one machine-readable JSON line per design
// (also appended to <out-dir>/fullchip.jsonl) for trajectory tracking.
//
// Options (beyond the shared bench flags):
//   --designs=1000,10000   TSV counts to sweep
//   --density=0.0025       TSVs per um^2 (chip is sized from count/density)
//
// No FEM solve is needed: Stage I uses the analytic radial table.

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "analytic/surrogate.h"
#include "common.h"
#include "core/tiled_evaluator.h"
#include "io/snapshot.h"
#include "io/table_printer.h"
#include "numeric/parallel.h"
#include "tsv/fullchip.h"

namespace {

struct Options {
  std::vector<std::size_t> designs = {1000, 10000};
  double density = 0.25e-2;    // paper Table 6 sparse case
  double spacing = 2.0;        // um, simulation-point grid
  std::size_t threads = 1;
  std::size_t tile_points = 64 * 1024;
  bool fast = false;
  std::string out_dir = ".";
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) {
      return arg.substr(std::strlen(prefix));
    };
    if (arg == "--fast") {
      o.fast = true;
      o.spacing = 4.0;
      o.designs = {1000};
    } else if (arg.rfind("--designs=", 0) == 0) {
      o.designs.clear();
      std::string list = value("--designs=");
      for (std::size_t pos = 0; pos < list.size();) {
        const std::size_t comma = list.find(',', pos);
        const std::size_t end = comma == std::string::npos ? list.size()
                                                           : comma;
        o.designs.push_back(std::stoul(list.substr(pos, end - pos)));
        pos = end + 1;
      }
    } else if (arg.rfind("--density=", 0) == 0) {
      o.density = std::stod(value("--density="));
    } else if (arg.rfind("--spacing=", 0) == 0) {
      o.spacing = std::stod(value("--spacing="));
    } else if (arg.rfind("--threads=", 0) == 0) {
      o.threads = std::stoul(value("--threads="));
    } else if (arg.rfind("--tile-points=", 0) == 0) {
      o.tile_points = std::stoul(value("--tile-points="));
    } else if (arg.rfind("--out-dir=", 0) == 0) {
      o.out_dir = value("--out-dir=");
    } else {
      throw std::invalid_argument("unknown bench option: " + arg);
    }
  }
  return o;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  // Linux reports ru_maxrss in KiB.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// One Stage II configuration evaluated through the tiled driver with a
/// fresh interactive model (so every run starts with a cold pitch cache).
struct RunResult {
  tsv::core::TiledStats stats;
  double max_vm = 0.0;
  double wall_seconds = 0.0;  ///< full evaluate() wall time, consumer included
  std::vector<tsv::num::SymTensor2> probe;  ///< strided field subsample
  std::vector<tsv::geo::Point> probe_pts;   ///< coordinates of the probes
};

}  // namespace

int main(int argc, char** argv) {
  using namespace tsv;
  const Options opt = parse(argc, argv);
  const std::size_t threads = num::resolve_thread_count(opt.threads);
  const tsvlib::TsvStructure structure = tsvlib::TsvStructure::baseline_bcb();
  const mat::ThermalLoad load{};

  std::printf("=== Full-chip workloads: tiled evaluation, exact series vs "
              "certified surrogate ===\n");
  std::printf("host hardware threads: %zu; rows use threads=%zu, spacing=%.3g "
              "um, tile=%zu points\n",
              num::hardware_thread_count(), threads, opt.spacing,
              opt.tile_points);

  const ana::SingleTsvModel single(structure, load);
  const core::RadialStressTable table =
      core::RadialStressTable::from_analytic(single, 30.0, 4096);
  const auto response =
      std::make_shared<const ana::InclusionResponse>(structure);

  // One certified surrogate fit up front (design-independent: the fit is a
  // property of the structure/load, not the placement); every surrogate row
  // below shares it, so the fit cost is paid once per process like a
  // characterization step.
  const auto fit_start = std::chrono::steady_clock::now();
  const auto surrogate = [&] {
    const ana::InteractiveStressModel fit_model(response, single.k_hat());
    return std::make_shared<const ana::PairSurrogate>(
        ana::PairSurrogate::fit(fit_model));
  }();
  const double fit_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - fit_start)
                            .count();
  std::printf("surrogate: %zu coefficients fitted in %.0f ms, certified rel "
              "bound %.3g over pitch [%.3g, %.3g] um\n",
              surrogate->coefficient_count(), fit_ms,
              surrogate->certificate().certified_rel_bound,
              surrogate->pitch_min(), surrogate->pitch_max());

  for (const std::size_t count : opt.designs) {
    const tsvlib::FullChipSpec spec =
        tsvlib::spec_for_count(count, opt.density, 90000 + count);
    const tsvlib::FullChipDesign design = tsvlib::make_fullchip(structure,
                                                               spec);
    const std::string csv_path =
        opt.out_dir + "/fullchip_" + std::to_string(count) + ".csv";
    tsvlib::write_fullchip_csv(csv_path, design);

    const geo::Box roi = design.placement.bounding_box().expanded(25.0);
    const geo::SampleGrid grid = geo::SampleGrid::with_spacing(roi,
                                                               opt.spacing);
    std::printf("\n--- design %zu TSVs (arrays %zu, banks %zu, logic %zu), "
                "chip %.0f x %.0f um, %zu points -> %s ---\n",
                design.placement.size(),
                design.count(tsvlib::TsvKind::kArray),
                design.count(tsvlib::TsvKind::kBank),
                design.count(tsvlib::TsvKind::kRandom), spec.chip.width(),
                spec.chip.height(), grid.size(), csv_path.c_str());

    // Every run gets a fresh interactive model so the pitch cache starts
    // cold; the probe keeps a strided subsample for cross-run accuracy
    // checks without holding the O(chip) field.
    std::size_t ckpt_every = 8;
    const auto run = [&](bool use_surrogate,
                         const std::string& ckpt_path = std::string()) {
      const auto model = std::make_shared<const ana::InteractiveStressModel>(
          response, single.k_hat());
      if (use_surrogate) model->attach_surrogate(surrogate);
      core::FrameworkOptions fopt;
      fopt.num_threads = threads;
      const core::StressFramework framework(design.placement, table, model,
                                            fopt);
      core::TiledOptions topt;
      topt.max_tile_points = opt.tile_points;
      const core::TiledEvaluator tiled(framework, topt);
      RunResult r;
      std::size_t seen = 0;
      const auto consume = [&](const core::Tile& tile) {
        for (std::size_t i = 0; i < tile.stress.size(); ++i, ++seen) {
          r.max_vm = std::max(r.max_vm,
                              num::von_mises_plane_stress(tile.stress[i]));
          if (seen % 101 == 0) {
            r.probe.push_back(tile.stress[i]);
            r.probe_pts.push_back(tile.points[i]);
          }
        }
      };
      const auto start = std::chrono::steady_clock::now();
      r.stats = ckpt_path.empty()
                    ? tiled.evaluate(grid, consume)
                    : io::evaluate_with_checkpoint(tiled, grid, consume,
                                                   ckpt_path, ckpt_every);
      r.wall_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
      return r;
    };

    // The exact-series row dominates wall time at scale; above the limit it
    // is skipped and the exact reference is instead evaluated only at the
    // strided probe points (same framework, exact configuration).
    constexpr std::size_t kSeriesLimit = 20000;
    const bool ran_series = design.placement.size() <= kSeriesLimit;
    RunResult series;
    if (ran_series) series = run(false);

    // The use counters are process-wide on the shared fit, so reset before
    // the run to report per-design numbers.
    surrogate->reset_use_stats();
    const RunResult surro = run(true);
    const ana::SurrogateUseStats sur_use = surrogate->use_stats();

    // Checkpointed re-run of the surrogate configuration: same field, plus
    // resumable checkpoints (io::evaluate_with_checkpoint). Each checkpoint
    // holds the whole finished prefix of the field, so the cadence sets the
    // total bytes written; ~3 checkpoints per run keeps the wall-time delta
    // against the plain run inside the <= 5% budget.
    const std::string ckpt_path =
        opt.out_dir + "/fullchip_" + std::to_string(count) + ".ckpt";
    // Roughly 3 checkpoints per run whatever the tile count (8 on the 25-tile
    // 10k design), so small designs still exercise the write path.
    ckpt_every = std::max<std::size_t>(1, surro.stats.tiles / 3);
    const RunResult surro_ckpt = run(true, ckpt_path);
    // One more interleaved trial per variant, min wall each: single-run
    // deltas on a shared host are dominated by scheduler noise (the plain
    // wall itself moves a few percent between runs).
    const double plain_wall =
        std::min(surro.wall_seconds, run(true).wall_seconds);
    const double ckpt_wall = std::min(surro_ckpt.wall_seconds,
                                      run(true, ckpt_path).wall_seconds);
    const double ckpt_overhead =
        plain_wall > 0.0 ? ckpt_wall / plain_wall - 1.0 : 0.0;

    // Max probe deviation of the surrogate vs the exact series, relative to
    // the field scale. When the full series row was skipped, the exact
    // reference is still computed — framework.evaluate() on the probe
    // coordinates only.
    std::vector<num::SymTensor2> exact_probe;
    if (ran_series) {
      exact_probe = series.probe;
    } else {
      const auto model = std::make_shared<const ana::InteractiveStressModel>(
          response, single.k_hat());
      core::FrameworkOptions fopt;
      fopt.num_threads = threads;
      const core::StressFramework exact_fw(design.placement, table, model,
                                           fopt);
      exact_probe = exact_fw.evaluate(surro.probe_pts).stress;
    }
    double scale = 0.0;
    double sur_worst = 0.0;
    for (std::size_t i = 0; i < exact_probe.size(); ++i) {
      scale = std::max({scale, std::abs(exact_probe[i].s11),
                        std::abs(exact_probe[i].s22)});
      sur_worst = std::max({sur_worst,
                            std::abs(surro.probe[i].s11 - exact_probe[i].s11),
                            std::abs(surro.probe[i].s22 - exact_probe[i].s22),
                            std::abs(surro.probe[i].s12 -
                                     exact_probe[i].s12)});
    }
    const double sur_field_err = scale > 0.0 ? sur_worst / scale : 0.0;

    io::TablePrinter out({"stage II path", "stageI(s)", "stageII(s)", "AR"});
    const auto add_row = [&](const char* name, const RunResult& r) {
      out.add_row({name, io::TablePrinter::format(r.stats.stage1_seconds, 3),
                   io::TablePrinter::format(r.stats.stage2_seconds, 3),
                   io::TablePrinter::format(
                       r.stats.stage1_seconds > 0.0
                           ? r.stats.stage2_seconds / r.stats.stage1_seconds
                           : 0.0,
                       3)});
    };
    if (ran_series) add_row("series", series);
    add_row("surrogate (+series fb)", surro);
    out.print(std::cout);

    const double sur_speedup =
        ran_series && surro.stats.stage2_seconds > 0.0
            ? series.stats.stage2_seconds / surro.stats.stage2_seconds
            : 0.0;
    std::printf("tiles %zu (%zu x %zu, peak %zu points); pair culling "
                "%zu/%zu evaluated\n",
                surro.stats.tiles, surro.stats.tiles_x, surro.stats.tiles_y,
                surro.stats.peak_tile_points, surro.stats.culled_pairs,
                surro.stats.total_pairs * surro.stats.tiles);
    if (!ran_series)
      std::printf("(series row skipped above %zu TSVs; exact reference "
                  "evaluated at the %zu probe points only)\n",
                  kSeriesLimit, exact_probe.size());
    std::printf("surrogate: %.1fx vs series; pairs %llu surrogate / %llu "
                "fallback; field vs series max dev %.4f%% of scale (probe of "
                "%zu points); max von Mises %.1f MPa; peak RSS %.0f MB\n",
                sur_speedup,
                static_cast<unsigned long long>(sur_use.surrogate_pairs),
                static_cast<unsigned long long>(sur_use.fallback_pairs),
                100.0 * sur_field_err, exact_probe.size(), surro.max_vm,
                peak_rss_mb());
    std::printf("checkpointing (every %zu tiles): %zu checkpoints, %.3f s "
                "writing; wall %.3f s vs %.3f s plain (min of 2 each) -> "
                "overhead %+.2f%%\n",
                ckpt_every, surro_ckpt.stats.checkpoints_written,
                surro_ckpt.stats.checkpoint_seconds, ckpt_wall, plain_wall,
                100.0 * ckpt_overhead);

    bench::JsonRow row("fullchip");
    row.uint("tsvs", design.placement.size())
        .uint("arrays", design.count(tsvlib::TsvKind::kArray))
        .uint("banks", design.count(tsvlib::TsvKind::kBank))
        .uint("logic", design.count(tsvlib::TsvKind::kRandom))
        .num("chip_um", spec.chip.width(), "%.1f")
        .uint("points", grid.size())
        .num("spacing_um", opt.spacing, "%.3g")
        .uint("threads", threads)
        .uint("tiles", surro.stats.tiles)
        .uint("peak_tile_points", surro.stats.peak_tile_points)
        .uint("total_pairs", surro.stats.total_pairs)
        .num("stage1_s", surro.stats.stage1_seconds, "%.4f")
        .num("stage2_series_s",
             ran_series ? series.stats.stage2_seconds : -1.0, "%.4f")
        .num("stage2_surrogate_s", surro.stats.stage2_seconds, "%.4f")
        .uint("surrogate_pairs", sur_use.surrogate_pairs)
        .uint("surrogate_fallbacks", sur_use.fallback_pairs)
        .num("surrogate_cert_bound",
             surrogate->certificate().certified_rel_bound, "%.3g")
        .num("surrogate_field_err_frac", sur_field_err, "%.6f")
        .num("speedup_vs_series", sur_speedup, "%.2f")
        .num("max_vm_mpa", surro.max_vm, "%.2f")
        .uint("checkpoint_every_tiles", ckpt_every)
        .uint("checkpoints_written", surro_ckpt.stats.checkpoints_written)
        .num("checkpoint_write_s", surro_ckpt.stats.checkpoint_seconds, "%.4f")
        .num("surrogate_wall_s", plain_wall, "%.4f")
        .num("surrogate_ckpt_wall_s", ckpt_wall, "%.4f")
        .num("checkpoint_overhead_frac", ckpt_overhead, "%.4f")
        .num("peak_rss_mb", peak_rss_mb(), "%.1f");
    bench::append_jsonl(opt.out_dir + "/fullchip.jsonl", row);
  }
  return 0;
}
