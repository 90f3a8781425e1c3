#include "common.h"

#include <cstdio>
#include <fstream>
#include <iostream>

#include <chrono>
#include <cstring>
#include <stdexcept>

#include "io/atomic_file.h"
#include "tsv/generators.h"

namespace tsv::bench {
namespace {

using Clock = std::chrono::steady_clock;

double parse_value(const std::string& arg, const std::string& prefix) {
  return std::stod(arg.substr(prefix.size()));
}

}  // namespace

BenchConfig BenchConfig::parse(int argc, char** argv) {
  BenchConfig c;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fast") {
      // The mesh stays at 0.25 um: (a) coarser meshes leave staircase holes
      // in the 0.5 um liner ring, and (b) the paper's pitches (d/2 in
      // multiples of 0.25) stay mesh-phase aligned with the characterization
      // map only for h dividing 0.25. Fast mode just coarsens the sampling.
      c.fast = true;
      c.spacing = 1.0;
    } else if (arg.rfind("--element-size=", 0) == 0) {
      c.element_size = parse_value(arg, "--element-size=");
    } else if (arg.rfind("--spacing=", 0) == 0) {
      c.spacing = parse_value(arg, "--spacing=");
    } else if (arg.rfind("--out-dir=", 0) == 0) {
      c.out_dir = arg.substr(std::strlen("--out-dir="));
    } else if (arg.rfind("--threads=", 0) == 0) {
      c.threads = static_cast<std::size_t>(
          std::stoul(arg.substr(std::strlen("--threads="))));
    } else if (arg.rfind("--benchmark", 0) == 0) {
      // Ignore google-benchmark flags when mixed binaries share a runner.
    } else {
      throw std::invalid_argument("unknown bench option: " + arg);
    }
  }
  return c;
}

Characterization characterize(const tsvlib::TsvStructure& structure,
                              const mat::ThermalLoad& load,
                              const BenchConfig& config) {
  const auto t0 = Clock::now();
  fem::FemOptions opt;
  opt.element_size = config.element_size;
  opt.margin = config.margin;
  const tsvlib::Placement one(structure, {{0.0, 0.0}});
  // The table must reach the Stage-I influence radius (25 um); solve a
  // domain that keeps the field accurate out to 30 um.
  const fem::FemSolution sol = fem::solve_thermo_elastic(
      one, load, geo::Box{{-30.0, -30.0}, {30.0, 30.0}}, opt);
  // Map resolution matches the FEM mesh so sampling reproduces the
  // discretized field exactly at mesh-phase-aligned centers.
  Characterization ch{
      std::make_shared<const core::StressMapTable>(
          core::StressMapTable::from_fem(sol.stress, {0.0, 0.0}, 30.0,
                                         config.element_size)),
      core::effective_k_from_fem(sol.stress, {0.0, 0.0}, 5.0, 15.0),
      std::make_shared<const ana::InclusionResponse>(structure),
      nullptr,
      0.0};
  const double r2 = structure.outer_radius() * structure.outer_radius();
  ch.model = std::make_shared<const ana::InteractiveStressModel>(
      ch.response, ch.k_fem / r2);
  ch.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return ch;
}

fem::FemSolution golden_solve(const tsvlib::Placement& placement,
                              const mat::ThermalLoad& load,
                              const geo::Box& roi, const BenchConfig& config) {
  fem::FemOptions opt;
  opt.element_size = config.element_size;
  opt.margin = config.margin;
  return fem::solve_thermo_elastic(placement, load, roi, opt);
}

std::vector<num::SymTensor2> sample_field(const fem::StressField& field,
                                          const std::vector<geo::Point>& pts) {
  std::vector<num::SymTensor2> out(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) out[i] = field.sample(pts[i]);
  return out;
}

std::vector<double> stats_row(const core::ErrorStats& st) {
  return {st.avg_error,          st.avg_error_thr10,
          st.rate_thr10,         st.avg_error_thr50,
          st.rate_thr50,         st.critical_avg_error_thr50,
          st.critical_rate_thr50};
}

std::vector<std::string> table_headers(const std::string& first_column) {
  return {first_column,
          "AvgErr(MPa)",
          "Thr10:Err",
          "Thr10:Rate%",
          "Thr50:Err",
          "Thr50:Rate%",
          "Crit:Err",
          "Crit:Rate%"};
}

JsonRow::JsonRow(const std::string& bench_name) { str("bench", bench_name); }

JsonRow& JsonRow::raw(const std::string& key, const std::string& value) {
  if (!body_.empty()) body_ += ',';
  body_ += '"' + key + "\":" + value;
  return *this;
}

JsonRow& JsonRow::str(const std::string& key, const std::string& value) {
  std::string escaped = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') escaped += '\\';
    escaped += c;
  }
  escaped += '"';
  return raw(key, escaped);
}

JsonRow& JsonRow::num(const std::string& key, double value, const char* fmt) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, value);
  return raw(key, buf);
}

JsonRow& JsonRow::uint(const std::string& key, std::uint64_t value) {
  return raw(key, std::to_string(value));
}

std::string JsonRow::json() const { return "{" + body_ + "}"; }

void append_jsonl(const std::string& path, const JsonRow& row) {
  const std::string line = row.json();
  std::printf("json: %s\n", line.c_str());
  try {
    // Atomic append (write temp + rename): a crash mid-append can corrupt a
    // plain O_APPEND stream's last line; here the previous file survives.
    io::atomic_append_line(path, line);
  } catch (const std::exception& e) {
    // Results already went to stdout; a failed journal append should not
    // kill a long benchmark run.
    std::fprintf(stderr, "warning: %s\n", e.what());
  }
}

std::vector<PairSweepResult> run_pair_sweep(
    const tsvlib::TsvStructure& structure, core::StressMeasure measure,
    const std::vector<double>& pitches, const BenchConfig& config,
    const std::string& title) {
  const mat::ThermalLoad load{};
  std::printf("%s\n", title.c_str());
  std::printf("liner=%s measure=%s mesh=%.3gum grid=%.3gum\n",
              structure.liner.name.c_str(), core::to_string(measure),
              config.element_size, config.spacing);
  const Characterization ch = characterize(structure, load, config);
  std::printf("characterization: K_fem=%.1f MPa*um^2 (%.1fs)\n", ch.k_fem,
              ch.seconds);

  std::vector<PairSweepResult> results;
  io::TablePrinter ls_table(table_headers("d(um)"));
  io::TablePrinter pf_table(table_headers("d(um)"));
  for (const double d : pitches) {
    const tsvlib::Placement pair = tsvlib::make_pair(structure, d);
    // Paper Sec. 5.1: monitored region 60 x 30 um centered on the pair
    // midpoint; critical region r <= 3.3 um; thresholds 10 / 50 MPa.
    const geo::Box roi = geo::Box::centered({0.0, 0.0}, 60.0, 30.0);
    const fem::FemSolution golden = golden_solve(pair, load, roi, config);
    const geo::SampleGrid grid = geo::SampleGrid::with_spacing(
        roi, config.spacing);
    const std::vector<geo::Point> pts = grid.points();
    const std::vector<num::SymTensor2> gold =
        sample_field(golden.stress, pts);

    const core::StressFramework ls(pair, ch.table, nullptr);
    const core::StressFramework pf(pair, ch.table, ch.model,
                                   core::FrameworkOptions{});
    const core::StressResult r_ls = ls.evaluate(pts);
    const core::StressResult r_pf = pf.evaluate(pts);

    PairSweepResult row;
    row.pitch = d;
    row.ls = core::compare_fields(measure, pts, r_ls.stress, gold, pair);
    row.pf = core::compare_fields(measure, pts, r_pf.stress, gold, pair);
    row.stage1_seconds = r_pf.stage1_seconds;
    row.stage2_seconds = r_pf.stage2_seconds;
    results.push_back(row);
    ls_table.add_row(io::TablePrinter::format(d, 3), stats_row(row.ls));
    pf_table.add_row(io::TablePrinter::format(d, 3), stats_row(row.pf));
  }

  std::printf("\nLS (linear superposition [Jung DAC'11]):\n");
  ls_table.print(std::cout);
  std::printf("\nPF (proposed framework, Stage I + II):\n");
  pf_table.print(std::cout);

  double s1 = 0.0, s2 = 0.0;
  for (const auto& r : results) {
    s1 += r.stage1_seconds;
    s2 += r.stage2_seconds;
  }
  std::printf("\nrun time: stage I %.3fs, stage II %.3fs, AR = %.1f%%\n", s1,
              s2, s1 > 0.0 ? 100.0 * s2 / s1 : 0.0);
  return results;
}

}  // namespace tsv::bench
