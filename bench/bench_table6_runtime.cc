// Reproduces Table 6 (Appendix A.3): run-time scalability of the proposed
// framework. AR = the additional run time of the proposed framework (PF)
// over linear superposition (LS) alone, (PF wall - LS wall) / LS wall,
// across TSV count, TSV density and simulation point count. Both are timed
// as whole grid evaluations: the PF pass walks each TSV's disc once for
// both stages, so it has no Stage I time of its own to divide by. No FEM
// golden is needed here.
//
// The paper's absolute AR (12% in MATLAB) is implementation-specific; what
// the table demonstrates — and what this bench verifies — are the trends:
// AR is roughly constant in the TSV count (cases 1-3), grows with TSV
// density (cases 1, 4, 5) and is roughly constant in the simulation point
// count (cases 1, 6, 7). See EXPERIMENTS.md.
//
// Each case is run twice: serial (threads=1, the exact baseline path) and
// parallel (threads=N from --threads, default 8; 0 = hardware concurrency).
// Every row reports AR for both Stage II paths: the exact series (the
// paper's method) and the certified surrogate (fitted once per process, its
// fit time printed separately). Trend checks use the serial series rows so
// they stay comparable with the paper; a per-case LS/PF speedup summary
// follows the table.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "analytic/surrogate.h"
#include "common.h"
#include "numeric/parallel.h"
#include "tsv/generators.h"

namespace {

struct Case {
  int id;
  std::size_t tsv_count;
  double density;       // TSVs per um^2
  std::size_t points;   // simulation points
};

/// Wall times of one case's grid evaluations.
struct Timing {
  double ls = 0.0;            // LS only (enable_interactive = false)
  double pf = 0.0;            // PF, Stage II on the exact series
  double pf_surrogate = 0.0;  // PF, Stage II through the certified surrogate
  static double ar(double pf_s, double ls_s) {
    return ls_s > 0.0 ? 100.0 * (pf_s - ls_s) / ls_s : 0.0;
  }
  double ar() const { return ar(pf, ls); }
  double surrogate_ar() const { return ar(pf_surrogate, ls); }
};

template <typename F>
double wall_seconds(F&& run) {
  const auto t0 = std::chrono::steady_clock::now();
  run();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tsv;
  const auto config = bench::BenchConfig::parse(argc, argv);
  const std::size_t par_threads = num::resolve_thread_count(config.threads);
  const tsvlib::TsvStructure structure = tsvlib::TsvStructure::baseline_bcb();
  const mat::ThermalLoad load{};

  std::printf("=== Table 6: run-time scalability (AR = (PF - LS) / LS) "
              "===\n");
  std::printf("host hardware threads: %zu; parallel rows use threads=%zu\n",
              num::hardware_thread_count(), par_threads);

  // Paper cases: (count, density x 1e-2 um^-2, points).
  std::vector<Case> cases = {
      {1, 100, 1.00e-2, 500'000}, {2, 500, 1.00e-2, 500'000},
      {3, 1000, 1.00e-2, 500'000}, {4, 100, 0.69e-2, 500'000},
      {5, 100, 0.25e-2, 500'000}, {6, 100, 1.00e-2, 1'000'000},
      {7, 100, 1.00e-2, 2'000'000}};
  if (config.fast) {
    for (auto& c : cases) c.points /= 10;
  }

  // Characterization is shared (structure-only); use the analytic table so
  // this bench runs without any FEM solve.
  const ana::SingleTsvModel single(structure, load);
  const auto table = std::make_shared<const core::RadialStressTable>(
      core::RadialStressTable::from_analytic(single, 30.0, 4096));
  const auto response = std::make_shared<const ana::InclusionResponse>(
      structure);
  const auto model = std::make_shared<const ana::InteractiveStressModel>(
      response, single.k_hat());
  const auto surrogate_model =
      std::make_shared<const ana::InteractiveStressModel>(response,
                                                          single.k_hat());
  const auto fit_start = std::chrono::steady_clock::now();
  surrogate_model->attach_surrogate(std::make_shared<const ana::PairSurrogate>(
      ana::PairSurrogate::fit(*surrogate_model)));
  std::printf("surrogate fit: %.0f ms (once per process)\n",
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - fit_start)
                  .count());

  const auto run_case = [&](const tsvlib::Placement& placement,
                            const geo::SampleGrid& grid,
                            std::size_t threads) {
    core::FrameworkOptions opt;
    opt.num_threads = threads;
    core::FrameworkOptions ls_opt = opt;
    ls_opt.enable_interactive = false;
    const core::StressFramework ls(placement, table, nullptr, ls_opt);
    const core::StressFramework pf(placement, table, model, opt);
    // Same workload through the certified surrogate.
    const core::StressFramework pf_surrogate(placement, table,
                                             surrogate_model, opt);
    Timing t;
    t.ls = wall_seconds([&] { ls.evaluate(grid); });
    t.pf = wall_seconds([&] { pf.evaluate(grid); });
    t.pf_surrogate = wall_seconds([&] { pf_surrogate.evaluate(grid); });
    return t;
  };

  io::TablePrinter out({"case", "TSVs", "dens(1e-2/um^2)", "points",
                        "threads", "LS(s)", "PF(s)", "AR(%)",
                        "PFsurrogate(s)", "surrogateAR(%)"});
  std::vector<Timing> serial(cases.size());
  std::vector<Timing> parallel(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    const tsvlib::Placement placement = tsvlib::make_jittered_array(
        structure, c.tsv_count, c.density, 10.0, 12345 + c.id);
    // Simulation points cover the array plus a 25 um halo.
    const geo::Box roi = placement.bounding_box().expanded(25.0);
    const double aspect = roi.width() / roi.height();
    const std::size_t ny = static_cast<std::size_t>(
        std::sqrt(static_cast<double>(c.points) / aspect));
    const std::size_t nx = c.points / std::max<std::size_t>(ny, 1);
    const geo::SampleGrid grid(roi, std::max<std::size_t>(nx, 2),
                               std::max<std::size_t>(ny, 2));

    serial[i] = run_case(placement, grid, 1);
    parallel[i] = run_case(placement, grid, par_threads);

    const auto add_row = [&](std::size_t threads, const Timing& t) {
      out.add_row({std::to_string(c.id), std::to_string(c.tsv_count),
                   io::TablePrinter::format(c.density * 100.0, 3),
                   std::to_string(grid.size()), std::to_string(threads),
                   io::TablePrinter::format(t.ls, 3),
                   io::TablePrinter::format(t.pf, 3),
                   io::TablePrinter::format(t.ar(), 3),
                   io::TablePrinter::format(t.pf_surrogate, 3),
                   io::TablePrinter::format(t.surrogate_ar(), 3)});
    };
    add_row(1, serial[i]);
    add_row(par_threads, parallel[i]);
  }
  out.print(std::cout);
  std::printf("\n(The paper reports AR around 12%% for its MATLAB "
              "implementation, whose Stage I interpolation is far slower "
              "relative to Stage II than this C++ Stage I; the absolute AR "
              "is implementation-specific while the trends below are the "
              "paper's claims.)\n");

  std::printf("\nparallel speedup (serial / threads=%zu):\n", par_threads);
  const auto speedup = [](double serial_s, double parallel_s) {
    return parallel_s > 0.0 ? serial_s / parallel_s : 0.0;
  };
  for (std::size_t i = 0; i < cases.size(); ++i)
    std::printf("  case %d: LS %.2fx, PF %.2fx, PF surrogate %.2fx\n",
                cases[i].id, speedup(serial[i].ls, parallel[i].ls),
                speedup(serial[i].pf, parallel[i].pf),
                speedup(serial[i].pf_surrogate, parallel[i].pf_surrogate));

  std::printf("\ntrend checks (paper Appendix A.3, serial rows):\n");
  std::printf("  AR vs TSV count   (1,2,3): %.0f%% %.0f%% %.0f%% — expect "
              "roughly constant\n", serial[0].ar(), serial[1].ar(),
              serial[2].ar());
  std::printf("  AR vs density     (5,4,1): %.0f%% %.0f%% %.0f%% — expect "
              "increasing\n", serial[4].ar(), serial[3].ar(), serial[0].ar());
  std::printf("  AR vs point count (1,6,7): %.0f%% %.0f%% %.0f%% — expect "
              "roughly constant\n", serial[0].ar(), serial[5].ar(),
              serial[6].ar());
  return 0;
}
