// Variation bench: Monte Carlo sweep cost through the resident incremental
// engine vs the cold full-recompute baseline, on seeded full-chip designs.
//
// For each design size the bench
//   1. builds a VariationEngine (one resident IncrementalEngine over the
//      design, Stage II through a freshly fitted certified surrogate),
//   2. streams N jitter+CTE samples through it (each sample is an edit
//      batch, never a fresh build), collecting the per-point statistics and
//      the pitch regression,
//   3. times both recompute baselines a naive Monte Carlo loop could pay
//      per sample: cold (fresh characterization + engine build, which is
//      the bench's own build_seconds) and warm (in-place rebuild() with all
//      characterization cached),
//   4. reports speedup_cold = cold_build_s / mean_sample_s — the
//      acceptance floor is >= 50x at 1k TSVs (tools/check_kernel_perf.py
//      --variation gates CI on it) — plus speedup_warm for transparency.
//
// Per-sample cost scales with the edit batch: ~2 x jitter_tsvs moves
// (revert the previous sample's subset + jitter the next) at roughly a
// fixed cost per move, on top of an O(points) accumulation pass. The
// default batch jitters 4 TSVs per sample.
//
// One JSON row per design is appended to <out-dir>/variation.jsonl via the
// shared bench::append_jsonl helper.
//
// Options (beyond --fast):
//   --designs=1000         TSV counts to sweep
//   --samples=24           Monte Carlo samples per design
//   --seed=1               sampler seed
//   --jitter-tsvs=4        TSVs jittered per sample
//   --density=0.0025       TSVs per um^2
//   --spacing=2.5          simulation-point grid spacing, um
//   --threads=1            threads for the accumulation pass
//   --out-dir=results      where variation.jsonl goes

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "stats/variation_engine.h"
#include "tsv/fullchip.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(const Clock::time_point& t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::vector<std::size_t> designs = {1000};
  std::size_t samples = 24;
  std::uint64_t seed = 1;
  std::size_t jitter_tsvs = 4;
  double density = 0.25e-2;
  double spacing = 2.5;
  std::size_t threads = 1;
  bool fast = false;
  std::string out_dir = "results";
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
      o.designs = {200};
      o.samples = 8;
      o.spacing = 4.0;
    } else if (arg.rfind("--designs=", 0) == 0) {
      o.designs.clear();
      std::string list = value("--designs=");
      for (std::size_t pos = 0; pos < list.size();) {
        const std::size_t comma = list.find(',', pos);
        const std::size_t end =
            comma == std::string::npos ? list.size() : comma;
        o.designs.push_back(std::stoul(list.substr(pos, end - pos)));
        pos = end + 1;
      }
    } else if (arg.rfind("--samples=", 0) == 0) {
      o.samples = std::stoul(value("--samples="));
    } else if (arg.rfind("--seed=", 0) == 0) {
      o.seed = std::stoull(value("--seed="));
    } else if (arg.rfind("--jitter-tsvs=", 0) == 0) {
      o.jitter_tsvs = std::stoul(value("--jitter-tsvs="));
    } else if (arg.rfind("--density=", 0) == 0) {
      o.density = std::stod(value("--density="));
    } else if (arg.rfind("--spacing=", 0) == 0) {
      o.spacing = std::stod(value("--spacing="));
    } else if (arg.rfind("--threads=", 0) == 0) {
      o.threads = std::stoul(value("--threads="));
    } else if (arg.rfind("--out-dir=", 0) == 0) {
      o.out_dir = value("--out-dir=");
    } else {
      throw std::invalid_argument("unknown bench option: " + arg);
    }
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tsv;
  const Options opt = parse(argc, argv);
  std::filesystem::create_directories(opt.out_dir);

  const tsvlib::TsvStructure structure = tsvlib::TsvStructure::baseline_bcb();

  std::printf("=== Variation workloads: Monte Carlo samples as edit batches "
              "===\n");
  std::printf("samples=%zu jitter_tsvs=%zu seed=%llu spacing=%.3g um "
              "threads=%zu\n",
              opt.samples, opt.jitter_tsvs,
              static_cast<unsigned long long>(opt.seed), opt.spacing,
              opt.threads);

  for (const std::size_t count : opt.designs) {
    const tsvlib::FullChipSpec spec =
        tsvlib::spec_for_count(count, opt.density, 90000 + count);
    const tsvlib::FullChipDesign design =
        tsvlib::make_fullchip(structure, spec);
    const geo::Box roi = design.placement.bounding_box().expanded(25.0);
    const geo::SampleGrid grid =
        geo::SampleGrid::with_spacing(roi, opt.spacing);

    std::printf("\n--- design %zu TSVs, %zu points ---\n",
                design.placement.size(), grid.size());

    stats::VariationSpec vspec;
    vspec.seed = opt.seed;
    vspec.samples = opt.samples;
    vspec.jitter_tsvs = std::min(opt.jitter_tsvs, design.placement.size());
    stats::VariationOptions vopt;
    vopt.fit_surrogate = true;
    vopt.num_threads = opt.threads;

    stats::VariationEngine engine(design.placement, grid, vspec, vopt);
    const std::vector<stats::CornerResult> results = engine.run();
    const stats::CornerResult& res = results.front();

    const double mean_sample_s =
        res.samples > 0
            ? res.sample_seconds / static_cast<double>(res.samples)
            : 0.0;
    std::printf("build (characterization + full evaluation): %.3fs\n",
                res.build_seconds);
    std::printf("samples: %zu in %.3fs -> %.4g ms/sample (%zu point "
                "updates)\n",
                res.samples, res.sample_seconds, 1e3 * mean_sample_s,
                res.point_updates);
    std::printf("peak von Mises: mean %.1f MPa, sigma %.2f, max %.1f\n",
                res.sample_peak.mean(), res.sample_peak.stddev(),
                res.sample_peak.max());
    if (res.pitch_fit.ok)
      std::printf("pitch vs local peak: slope %.3f MPa/um, r %.3f (n=%llu)\n",
                  res.pitch_fit.slope, res.pitch_fit.r,
                  static_cast<unsigned long long>(res.pitch_fit.n));

    // The naive alternatives, one full recompute per sample. Cold is what
    // "not a fresh full build" contrasts with: characterize + build a new
    // engine for the perturbed placement (the bench's own build cost).
    // Warm keeps the characterization and only re-evaluates fields in place.
    const double cold_s = res.build_seconds;
    const auto t_warm0 = Clock::now();
    const double drift_mpa = engine.engine(0).rebuild();
    const double warm_s = seconds_since(t_warm0);
    const double speedup_cold =
        mean_sample_s > 0.0 ? cold_s / mean_sample_s : 0.0;
    const double speedup_warm =
        mean_sample_s > 0.0 ? warm_s / mean_sample_s : 0.0;
    std::printf("full recompute: cold %.3fs (%.0fx per sample), warm %.3fs "
                "(%.0fx, drift %.3g MPa)\n",
                cold_s, speedup_cold, warm_s, speedup_warm, drift_mpa);

    // Mean exceedance probability over the grid at the 100 MPa-class
    // threshold (the last configured one).
    const std::vector<double>& p100 = res.exceedance.back();
    double p100_mean = 0.0;
    for (const double p : p100) p100_mean += p;
    p100_mean /= static_cast<double>(p100.empty() ? 1 : p100.size());

    bench::JsonRow row("variation");
    row.uint("tsvs", design.placement.size())
        .uint("points", grid.size())
        .uint("samples", res.samples)
        .uint("jitter_tsvs", vspec.jitter_tsvs)
        .num("spacing_um", opt.spacing, "%.3g")
        .uint("threads", opt.threads)
        .num("build_s", res.build_seconds, "%.4f")
        .num("mean_sample_s", mean_sample_s, "%.6f")
        .num("sample_seconds", res.sample_seconds, "%.4f")
        .uint("point_updates", res.point_updates)
        .num("cold_recompute_s", cold_s, "%.4f")
        .num("warm_recompute_s", warm_s, "%.4f")
        .num("speedup_cold", speedup_cold, "%.1f")
        .num("speedup_warm", speedup_warm, "%.1f")
        .num("peak_vm_mean_mpa", res.sample_peak.mean(), "%.2f")
        .num("peak_vm_sigma_mpa", res.sample_peak.stddev(), "%.3f")
        .num("exceed_p100_mean", p100_mean, "%.4g")
        .num("pitch_slope_mpa_per_um", res.pitch_fit.slope, "%.4f")
        .num("pitch_r", res.pitch_fit.r, "%.4f")
        .num("koz_mean_radius_um", res.koz.mean_radius, "%.3f")
        .num("koz_worst_radius_um", res.koz.worst_radius, "%.3f");
    bench::append_jsonl(opt.out_dir + "/variation.jsonl", row);
  }
  return 0;
}
