// Micro-benchmarks (google-benchmark) for the framework's hot kernels:
// Laurent/potential evaluation, radial table look-ups, spatial-index
// queries, per-point Stage I/II evaluation, and sparse kernels.
//
// Besides the google-benchmark rows, the binary always appends point-kernel
// timings to <out-dir>/kernels.jsonl (--out-dir=PATH, default "."): Stage I
// scalar vs batch, Stage I point-major vs disc-major on one full-chip tile,
// the Stage I table kernel on one victim disc (scalar loop vs the SIMD
// variant dispatched for the host), the Stage II exact series, and the
// certified surrogate (per point at one pitch, and per pair with a fresh
// pitch each pair, which includes the pitch contraction, and per pair-point
// over 9-aggressor runs through the run kernel). tools/check_kernel_perf.py
// guards those rows against tools/kernel_baseline.json in CI. The
// stage2_surrogate batch row's "speedup" is measured against the Stage II
// exact series timed in the same run, not against the surrogate's own
// scalar path.
//
// A fit-order sweep for the surrogate (orders vs certified bound vs
// ns/eval) additionally lands in <out-dir>/surrogate.jsonl; EXPERIMENTS.md
// quotes that table.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "analytic/interaction.h"
#include "analytic/surrogate.h"
#include "common.h"
#include "core/framework.h"
#include "core/stress_table.h"
#include "geometry/grid_index.h"
#include "numeric/cg.h"
#include "numeric/parallel.h"
#include "numeric/sparse_cholesky.h"
#include "tsv/fullchip.h"
#include "tsv/generators.h"

namespace {

using namespace tsv;

const tsvlib::TsvStructure& structure() {
  static const auto s = tsvlib::TsvStructure::baseline_bcb();
  return s;
}

const ana::SingleTsvModel& single_model() {
  static const ana::SingleTsvModel m(structure(), mat::ThermalLoad{});
  return m;
}

std::shared_ptr<const ana::InteractiveStressModel> interactive_model() {
  static const auto model =
      core::characterize(structure(), {}, core::StageTwo::kSeries).model;
  return model;
}

void BM_LaurentEvaluate(benchmark::State& state) {
  num::LaurentSeries f(-16, 16);
  for (int n = -16; n <= 16; ++n)
    f.coeff(n) = num::Complex{1.0 / (1.0 + std::abs(n)), 0.01 * n};
  const num::Complex z{1.3, 0.4};
  for (auto _ : state) benchmark::DoNotOptimize(f.evaluate(z));
}
BENCHMARK(BM_LaurentEvaluate);

void BM_PotentialFieldStress(benchmark::State& state) {
  const ana::RegionField& rf =
      interactive_model()->response().response_to_psi(3);
  const num::Complex z{1.4, 0.3};
  for (auto _ : state) benchmark::DoNotOptimize(rf.substrate.stress(z));
}
BENCHMARK(BM_PotentialFieldStress);

void BM_RadialTableLookup(benchmark::State& state) {
  const core::RadialStressTable table =
      core::RadialStressTable::from_analytic(single_model(), 30.0, 4096);
  const geo::Point c{0, 0};
  double r = 1.0;
  for (auto _ : state) {
    r = r < 24.0 ? r + 0.37 : 1.0;
    benchmark::DoNotOptimize(table.stress_at(c, {r, 0.7 * r}));
  }
}
BENCHMARK(BM_RadialTableLookup);

void BM_InteractivePairEval(benchmark::State& state) {
  const auto model = interactive_model();
  const ana::RegionField& combined = model->combined_for_pitch(10.0);
  const geo::Point v{0, 0}, a{10, 0};
  double y = 0.0;
  for (auto _ : state) {
    y = y < 20.0 ? y + 0.13 : 0.0;
    benchmark::DoNotOptimize(
        model->stress_with_combined(combined, v, a, 10.0, {4.0, y}));
  }
}
BENCHMARK(BM_InteractivePairEval);

void BM_GridIndexQuery(benchmark::State& state) {
  const tsvlib::Placement p = tsvlib::make_jittered_array(
      structure(), 1000, 1.0e-2, 10.0, 7);
  const geo::GridIndex index(p.centers(), p.bounding_box(), 12.5);
  std::vector<std::uint32_t> out;
  double x = 0.0;
  for (auto _ : state) {
    x = x < 300.0 ? x + 1.7 : 0.0;
    index.query_radius({x, 150.0}, 25.0, out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_GridIndexQuery);

void BM_Stage1Point(benchmark::State& state) {
  const tsvlib::Placement p = tsvlib::make_jittered_array(
      structure(), 100, 1.0e-2, 10.0, 7);
  core::FrameworkOptions opt;
  opt.enable_interactive = false;
  const core::StressFramework fw(p, opt);
  double x = 0.0;
  for (auto _ : state) {
    x = x < 90.0 ? x + 0.71 : 0.0;
    benchmark::DoNotOptimize(fw.stress_at({x, 45.0}));
  }
}
BENCHMARK(BM_Stage1Point);

void BM_Stage2Point(benchmark::State& state) {
  const tsvlib::Placement p = tsvlib::make_jittered_array(
      structure(), 100, 1.0e-2, 10.0, 7);
  const core::InteractiveStage stage(p, interactive_model());
  double x = 0.0;
  for (auto _ : state) {
    x = x < 90.0 ? x + 0.71 : 0.0;
    benchmark::DoNotOptimize(stage.stress_at({x, 45.0}));
  }
}
BENCHMARK(BM_Stage2Point);

// --- Scalar-vs-batch point kernels ---------------------------------------
//
// The same workloads the kernels.jsonl rows time below, exposed as
// google-benchmark rows for interactive runs. "Scalar" is the retained
// trig reference path (stress_at per point), "batch" the flat trig-free
// kernel (accumulate over the whole point set).

std::vector<geo::Point> kernel_points(std::size_t n, double radius,
                                      unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> coord(-radius, radius);
  std::vector<geo::Point> pts(n);
  for (geo::Point& p : pts) p = {coord(rng), coord(rng)};
  return pts;
}

/// One victim's reach (a 25 um disc around the origin) on a 2 um point
/// grid: 493 points, the disc the fused pass and the Stage II pair rows
/// evaluate per victim.
std::vector<geo::Point> victim_disc() {
  std::vector<geo::Point> disc;
  for (int i = -13; i <= 13; ++i)
    for (int j = -13; j <= 13; ++j) {
      const geo::Point p{2.0 * i + 0.25, 2.0 * j + 0.25};
      if (p.x * p.x + p.y * p.y <= 25.0 * 25.0) disc.push_back(p);
    }
  return disc;
}

const core::RadialStressTable& stage1_kernel_table() {
  static const core::RadialStressTable table =
      core::RadialStressTable::from_analytic(single_model(), 30.0, 4096);
  return table;
}

void BM_Stage1KernelScalar(benchmark::State& state) {
  const core::RadialStressTable& table = stage1_kernel_table();
  const std::vector<geo::Point> pts = kernel_points(4096, 20.0, 17);
  const geo::Point c{0, 0};
  std::vector<num::SymTensor2> out(pts.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < pts.size(); ++i)
      out[i] += table.stress_at(c, pts[i]);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pts.size()));
}
BENCHMARK(BM_Stage1KernelScalar);

void BM_Stage1KernelBatch(benchmark::State& state) {
  const core::RadialStressTable& table = stage1_kernel_table();
  const std::vector<geo::Point> pts = kernel_points(4096, 20.0, 17);
  const geo::Point c{0, 0};
  std::vector<num::SymTensor2> out(pts.size());
  for (auto _ : state) {
    table.accumulate(c, pts.data(), pts.size(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pts.size()));
}
BENCHMARK(BM_Stage1KernelBatch);

void BM_Stage2SurrogateBatch(benchmark::State& state) {
  static const ana::PairSurrogate surrogate =
      ana::PairSurrogate::fit(*interactive_model());
  const std::vector<geo::Point> pts = kernel_points(4096, 20.0, 19);
  const geo::Point v{0, 0}, a{10, 0};
  std::vector<num::SymTensor2> out(pts.size());
  for (auto _ : state) {
    surrogate.accumulate_run(v, &a, 1, pts.data(), pts.size(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pts.size()));
}
BENCHMARK(BM_Stage2SurrogateBatch);

void BM_SparseMatVec(benchmark::State& state) {
  const std::size_t nx = static_cast<std::size_t>(state.range(0));
  std::vector<num::Triplet> t;
  const auto id = [nx](std::size_t i, std::size_t j) {
    return static_cast<std::uint32_t>(i * nx + j);
  };
  for (std::size_t i = 0; i < nx; ++i)
    for (std::size_t j = 0; j < nx; ++j) {
      t.push_back({id(i, j), id(i, j), 4.0});
      if (i + 1 < nx) {
        t.push_back({id(i, j), id(i + 1, j), -1.0});
        t.push_back({id(i + 1, j), id(i, j), -1.0});
      }
      if (j + 1 < nx) {
        t.push_back({id(i, j), id(i, j + 1), -1.0});
        t.push_back({id(i, j + 1), id(i, j), -1.0});
      }
    }
  const num::SparseMatrix a = num::SparseMatrix::from_triplets(nx * nx, t);
  num::Vector x(a.size(), 1.0), y;
  for (auto _ : state) {
    a.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(a.nonzeros()));
}
BENCHMARK(BM_SparseMatVec)->Arg(64)->Arg(256);

void BM_CombineForPitch(benchmark::State& state) {
  const auto model = interactive_model();
  double d = 8.0;
  for (auto _ : state) {
    // Vary the pitch so the per-pitch cache misses (worst case).
    d += 1e-4;
    benchmark::DoNotOptimize(&model->combined_for_pitch(d));
  }
}
// Iteration-capped: every iteration inserts a new cache entry.
BENCHMARK(BM_CombineForPitch)->Iterations(5000);

// Thread-scaling benches for the parallel engine. Arg = thread count; run
// with --benchmark_filter=Scaling and compare against the Arg(1) row. On a
// single-core host the pool degenerates to inline execution and all rows
// should coincide (the overhead rows then measure dispatch cost).

void BM_ParallelForScaling(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 1 << 16;
  std::vector<double> out(n);
  for (auto _ : state) {
    num::parallel_for(n, threads, [&](std::size_t i) {
      const double x = 1e-3 * static_cast<double>(i);
      out[i] = std::sin(x) * std::exp(-x) + std::sqrt(x + 1.0);
    });
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_ParallelForScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_Stage1BatchScaling(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const tsvlib::Placement p = tsvlib::make_jittered_array(
      structure(), 100, 1.0e-2, 10.0, 7);
  const core::LinearSuperposition stage1(
      p, core::characterize(structure(), {}, core::StageTwo::kOff).table, {},
      threads);
  const geo::SampleGrid grid(p.bounding_box().expanded(25.0), 200, 200);
  const std::vector<geo::Point> pts = grid.points();
  for (auto _ : state) {
    benchmark::DoNotOptimize(stage1.evaluate(pts).data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pts.size()));
}
BENCHMARK(BM_Stage1BatchScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_Stage2BatchScaling(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const tsvlib::Placement p = tsvlib::make_jittered_array(
      structure(), 60, 1.0e-2, 10.0, 7);
  const core::InteractiveStage stage2(p, interactive_model(), {}, threads);
  const geo::SampleGrid grid(p.bounding_box().expanded(10.0), 120, 120);
  const std::vector<geo::Point> pts = grid.points();
  for (auto _ : state) {
    benchmark::DoNotOptimize(stage2.evaluate(pts).data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pts.size()));
}
BENCHMARK(BM_Stage2BatchScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_SparseCholeskyFactorize(benchmark::State& state) {
  const std::size_t nx = static_cast<std::size_t>(state.range(0));
  std::vector<num::Triplet> t;
  const auto id = [nx](std::size_t i, std::size_t j) {
    return static_cast<std::uint32_t>(i * nx + j);
  };
  for (std::size_t i = 0; i < nx; ++i)
    for (std::size_t j = 0; j < nx; ++j) {
      t.push_back({id(i, j), id(i, j), 4.0});
      if (i + 1 < nx) {
        t.push_back({id(i, j), id(i + 1, j), -1.0});
        t.push_back({id(i + 1, j), id(i, j), -1.0});
      }
      if (j + 1 < nx) {
        t.push_back({id(i, j), id(i, j + 1), -1.0});
        t.push_back({id(i, j + 1), id(i, j), -1.0});
      }
    }
  const num::SparseMatrix a = num::SparseMatrix::from_triplets(nx * nx, t);
  for (auto _ : state) {
    const num::SparseCholesky chol(a);
    benchmark::DoNotOptimize(chol.factor_nonzeros());
  }
}
BENCHMARK(BM_SparseCholeskyFactorize)->Arg(32)->Arg(64);

// --- kernels.jsonl emission ----------------------------------------------

/// Best-of-7 wall time per eval (one warmup rep first): robust against
/// scheduler noise without google-benchmark's per-row startup cost.
template <typename F>
double best_ns_per_eval(std::size_t evals, F&& run) {
  using Clock = std::chrono::steady_clock;
  run();
  double best = 1e300;
  for (int rep = 0; rep < 7; ++rep) {
    const auto t0 = Clock::now();
    run();
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    best = std::min(best, ns / static_cast<double>(evals));
  }
  return best;
}

void append_kernel_row(const std::string& path, const char* kernel,
                       const char* mode, std::size_t evals, double ns_per_eval,
                       double speedup) {
  bench::JsonRow row("kernels");
  row.str("kernel", kernel)
      .str("mode", mode)
      .uint("evals", evals)
      .num("ns_per_eval", ns_per_eval, "%.3f")
      .num("evals_per_sec", 1e9 / ns_per_eval, "%.6g");
  if (speedup > 0.0) row.num("speedup", speedup, "%.3f");
  bench::append_jsonl(path, row);
}

std::string orders_to_string(const std::vector<std::size_t>& orders) {
  std::string s;
  for (std::size_t i = 0; i < orders.size(); ++i) {
    if (i > 0) s += "/";
    s += std::to_string(orders[i]);
  }
  return s;
}

/// Fits one surrogate configuration, times its batch kernel on the shared
/// Stage II workload, and appends a sweep row to surrogate.jsonl. The
/// speedup column is against the Stage II exact series timed in the same
/// process, so the ratio is host-independent.
void emit_surrogate_sweep_row(const std::string& path, const char* config,
                              const ana::SurrogateFitOptions& opt,
                              double series_ns) {
  using Clock = std::chrono::steady_clock;
  constexpr std::size_t kReps = 16;
  const auto t0 = Clock::now();
  const ana::PairSurrogate sur =
      ana::PairSurrogate::fit(*interactive_model(), opt);
  const double fit_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  const std::vector<geo::Point> pts = kernel_points(4096, 20.0, 19);
  const geo::Point v{0, 0}, a{10, 0};
  std::vector<num::SymTensor2> out(pts.size());
  const std::size_t evals = kReps * pts.size();
  const double batch_ns = best_ns_per_eval(evals, [&] {
    for (std::size_t rep = 0; rep < kReps; ++rep)
      sur.accumulate_run(v, &a, 1, pts.data(), pts.size(), out.data());
    benchmark::DoNotOptimize(out.data());
  });

  const ana::SurrogateCertificate& cert = sur.certificate();
  bench::JsonRow row("surrogate");
  row.str("config", config)
      .uint("pitch_order", static_cast<std::size_t>(opt.pitch_order))
      .str("radial_orders", orders_to_string(opt.radial_orders))
      .str("angular_orders", orders_to_string(opt.angular_orders))
      .uint("coefficients", sur.coefficient_count())
      .num("fit_ms", fit_ms, "%.1f")
      .num("cert_rel_bound", cert.certified_rel_bound, "%.3g")
      .num("ns_per_eval", batch_ns, "%.3f")
      .num("speedup_vs_series", series_ns / batch_ns, "%.3f");
  bench::append_jsonl(path, row);
}

/// Times the point kernels on identical workloads and appends one row per
/// (kernel, mode): Stage I scalar vs batch, then the two Stage II paths.
void emit_kernel_rows(const std::string& out_dir) {
  std::filesystem::create_directories(out_dir);
  const std::string path = out_dir + "/kernels.jsonl";
  constexpr std::size_t kReps = 16;

  {
    const core::RadialStressTable& table = stage1_kernel_table();
    const std::vector<geo::Point> pts = kernel_points(4096, 20.0, 17);
    const geo::Point c{0, 0};
    std::vector<num::SymTensor2> out(pts.size());
    const std::size_t evals = kReps * pts.size();
    const double scalar_ns = best_ns_per_eval(evals, [&] {
      for (std::size_t rep = 0; rep < kReps; ++rep)
        for (std::size_t i = 0; i < pts.size(); ++i)
          out[i] += table.stress_at(c, pts[i]);
      benchmark::DoNotOptimize(out.data());
    });
    const double batch_ns = best_ns_per_eval(evals, [&] {
      for (std::size_t rep = 0; rep < kReps; ++rep)
        table.accumulate(c, pts.data(), pts.size(), out.data());
      benchmark::DoNotOptimize(out.data());
    });
    append_kernel_row(path, "stage1_point", "scalar", evals, scalar_ns, 0.0);
    append_kernel_row(path, "stage1_point", "batch", evals, batch_ns,
                      scalar_ns / batch_ns);
  }

  // Stage I on one 256 x 256 tile (65 536 points at 2 um) from the middle of
  // the seeded 10k full-chip design, 1 thread: point-major (a TSV query per
  // point, then sum_at) against the disc-major window evaluation (each TSV
  // walks its disc as row spans, then accumulate). Same values bit for bit;
  // the "window" row's "speedup" is point / window from this same run, the
  // ratio the min_window_speedup floor guards.
  {
    const tsvlib::Placement design =
        tsvlib::make_fullchip(structure(),
                              tsvlib::spec_for_count(10000, 0.25e-2, 1))
            .placement;
    const geo::SampleGrid grid = geo::SampleGrid::with_spacing(
        design.bounding_box().expanded(25.0), 2.0);
    constexpr std::size_t kSide = 256;
    const std::size_t ix0 = (grid.nx() - kSide) / 2;
    const std::size_t iy0 = (grid.ny() - kSide) / 2;
    const geo::GridWindow tile(grid, ix0, ix0 + kSide, iy0, iy0 + kSide);
    const std::vector<geo::Point> pts = tile.points();
    const core::LinearSuperposition ls(
        design,
        std::make_shared<const core::RadialStressTable>(stage1_kernel_table()));
    const double point_ns = best_ns_per_eval(pts.size(), [&] {
      benchmark::DoNotOptimize(ls.evaluate(pts).data());
    });
    const double window_ns = best_ns_per_eval(pts.size(), [&] {
      benchmark::DoNotOptimize(ls.evaluate(tile).data());
    });
    append_kernel_row(path, "stage1_window", "point", pts.size(), point_ns,
                      0.0);
    append_kernel_row(path, "stage1_window", "window", pts.size(), window_ns,
                      point_ns / window_ns);
  }

  // Stage I on one gathered victim disc (victim_disc, 493 points), the
  // call the fused Stage I + II pass makes once per TSV, 1 thread. "scalar"
  // is the per-point reference loop, "dispatch" the SIMD variant
  // RadialStressTable::accumulate selects for this host (bitwise the same
  // values). The dispatch row's "speedup" is scalar / dispatch from this
  // same run, the ratio the min_disc_speedup floor guards.
  {
    const core::RadialStressTable& table = stage1_kernel_table();
    const std::vector<geo::Point> disc = victim_disc();
    const geo::Point c{0, 0};
    std::vector<num::SymTensor2> out(disc.size());
    constexpr std::size_t kDiscReps = 64;
    const std::size_t evals = kDiscReps * disc.size();
    const double scalar_ns = best_ns_per_eval(evals, [&] {
      for (std::size_t rep = 0; rep < kDiscReps; ++rep)
        core::detail::radial_accumulate_scalar(table, c, disc.data(),
                                               disc.size(), out.data());
      benchmark::DoNotOptimize(out.data());
    });
    const double dispatch_ns = best_ns_per_eval(evals, [&] {
      for (std::size_t rep = 0; rep < kDiscReps; ++rep)
        table.accumulate(c, disc.data(), disc.size(), out.data());
      benchmark::DoNotOptimize(out.data());
    });
    append_kernel_row(path, "stage1_disc", "scalar", evals, scalar_ns, 0.0);
    append_kernel_row(path, "stage1_disc", "dispatch", evals, dispatch_ns,
                      scalar_ns / dispatch_ns);
  }

  // The exact series through the production entry point with no surrogate
  // (InteractiveStressModel::accumulate_run, a run of one).
  double stage2_series_ns = 0.0;
  {
    const auto model = interactive_model();
    const std::vector<geo::Point> pts = kernel_points(4096, 20.0, 19);
    const geo::Point v{0, 0}, a{10, 0};
    std::vector<num::SymTensor2> out(pts.size());
    constexpr std::size_t kSeriesReps = 2;  // the series is costly per point
    const std::size_t evals = kSeriesReps * pts.size();
    stage2_series_ns = best_ns_per_eval(evals, [&] {
      for (std::size_t rep = 0; rep < kSeriesReps; ++rep)
        model->accumulate_run(nullptr, v, &a, 1, pts.data(), pts.size(),
                              out.data());
      benchmark::DoNotOptimize(out.data());
    });
    append_kernel_row(path, "stage2_series", "scalar", evals,
                      stage2_series_ns, 0.0);
  }

  // Certified surrogate vs the exact series on the identical workload. The
  // batch row's "speedup" is series / surrogate_batch from this same run —
  // the ratio the min_speedup floor in tools/kernel_baseline.json guards.
  {
    const ana::PairSurrogate sur =
        ana::PairSurrogate::fit(*interactive_model());
    const std::vector<geo::Point> pts = kernel_points(4096, 20.0, 19);
    const geo::Point v{0, 0}, a{10, 0};
    std::vector<num::SymTensor2> out(pts.size());
    const std::size_t evals = kReps * pts.size();
    const double scalar_ns = best_ns_per_eval(evals, [&] {
      for (std::size_t rep = 0; rep < kReps; ++rep)
        for (std::size_t i = 0; i < pts.size(); ++i)
          out[i] += sur.stress_at(v, a, pts[i]);
      benchmark::DoNotOptimize(out.data());
    });
    const double batch_ns = best_ns_per_eval(evals, [&] {
      for (std::size_t rep = 0; rep < kReps; ++rep)
        sur.accumulate_run(v, &a, 1, pts.data(), pts.size(), out.data());
      benchmark::DoNotOptimize(out.data());
    });
    append_kernel_row(path, "stage2_surrogate", "scalar", evals, scalar_ns,
                      0.0);
    append_kernel_row(path, "stage2_surrogate", "batch", evals, batch_ns,
                      stage2_series_ns / batch_ns);

    // Pair rows: what one Stage II pair costs on an irregular placement.
    // One victim's reach (victim_disc, 493 points) against a fresh pitch
    // per pair drawn from [8.5, 24.5] um, so the per-thread contraction
    // memo never hits. "pair" is ns per pair-point
    // with the pitch contraction included; "contraction" is ns per pair,
    // timed as the same pairs over an empty point set.
    const std::vector<geo::Point> disc = victim_disc();
    constexpr std::size_t kPairs = 256;
    std::mt19937 rng(23);
    std::uniform_real_distribution<double> pitch(8.5, 24.5);
    std::uniform_real_distribution<double> angle(0.0, 6.283185307179586);
    std::vector<geo::Point> aggressors(kPairs);
    for (geo::Point& agg : aggressors) {
      const double d = pitch(rng), phi = angle(rng);
      agg = {d * std::cos(phi), d * std::sin(phi)};
    }
    std::vector<num::SymTensor2> disc_out(disc.size());
    const double pair_ns =
        best_ns_per_eval(kPairs * disc.size(), [&] {
          for (const geo::Point& agg : aggressors)
            sur.accumulate_run(v, &agg, 1, disc.data(), disc.size(),
                               disc_out.data());
          benchmark::DoNotOptimize(disc_out.data());
        });
    const double contraction_ns = best_ns_per_eval(kPairs, [&] {
      for (const geo::Point& agg : aggressors)
        sur.accumulate_run(v, &agg, 1, disc.data(), 0, disc_out.data());
      benchmark::DoNotOptimize(disc_out.data());
    });
    append_kernel_row(path, "stage2_surrogate", "pair",
                      kPairs * disc.size(), pair_ns, 0.0);
    append_kernel_row(path, "stage2_surrogate", "contraction", kPairs,
                      contraction_ns, 0.0);

    // Run row: what Stage II pays per pair-point when a victim's pairs go
    // through the run kernel together, as InteractiveStage evaluates them.
    // Same disc and pitch range as the pair rows, 9 aggressors per run
    // (about the mean run length of a full-chip design), fresh pitches
    // throughout, the run's fold into one chip-frame series included. Its
    // "speedup" is pair / run from this same run, the ratio the
    // min_run_speedup floor guards.
    constexpr std::size_t kRunLen = 9;
    constexpr std::size_t kRuns = 28;
    std::vector<geo::Point> run_aggressors(kRunLen * kRuns);
    for (geo::Point& agg : run_aggressors) {
      const double d = pitch(rng), phi = angle(rng);
      agg = {d * std::cos(phi), d * std::sin(phi)};
    }
    const double run_ns =
        best_ns_per_eval(run_aggressors.size() * disc.size(), [&] {
          for (std::size_t r = 0; r < kRuns; ++r)
            sur.accumulate_run(v, run_aggressors.data() + r * kRunLen,
                               kRunLen, disc.data(), disc.size(),
                               disc_out.data());
          benchmark::DoNotOptimize(disc_out.data());
        });
    append_kernel_row(path, "stage2_surrogate", "run",
                      run_aggressors.size() * disc.size(), run_ns,
                      pair_ns / run_ns);
  }

  // Fit-order sweep (surrogate.jsonl): the calibrated defaults, a trimmed
  // variant at the same certified bound, and a deliberately coarse config
  // that misses the 1e-6 budget — showing both sides of the accuracy/cost
  // trade the defaults sit on.
  {
    const std::string sweep_path = out_dir + "/surrogate.jsonl";
    emit_surrogate_sweep_row(sweep_path, "default", ana::SurrogateFitOptions{},
                             stage2_series_ns);
    ana::SurrogateFitOptions lean;
    lean.radial_orders = {12, 8, 12, 6, 5};
    lean.angular_orders = {18, 18, 16, 12, 10};
    emit_surrogate_sweep_row(sweep_path, "lean", lean, stage2_series_ns);
    ana::SurrogateFitOptions coarse;
    coarse.pitch_order = 10;
    coarse.radial_orders = {8, 6, 8, 4, 4};
    coarse.angular_orders = {12, 12, 10, 8, 6};
    emit_surrogate_sweep_row(sweep_path, "coarse", coarse,
                             stage2_series_ns);
  }
}

}  // namespace

// BENCHMARK_MAIN plus --out-dir= handling (stripped before google-benchmark
// sees the flags) and the kernels.jsonl rows after the registered rows run.
int main(int argc, char** argv) {
  std::string out_dir = ".";
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out-dir=", 0) == 0)
      out_dir = arg.substr(10);
    else
      args.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(args.size());
  ::benchmark::Initialize(&bench_argc, args.data());
  if (::benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
    return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  emit_kernel_rows(out_dir);
  return 0;
}
