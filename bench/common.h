#pragma once
// Shared plumbing for the paper-table benches: CLI options, the FEM
// characterization pipeline (Stage-I table + Stage-II K from a single-TSV
// FEM solve — the paper's methodology with COMSOL), golden solves, and the
// paper-style error-table printing.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analytic/interaction.h"
#include "core/framework.h"
#include "core/metrics.h"
#include "core/stress_map_table.h"
#include "core/stress_table.h"
#include "fem/thermo_solver.h"
#include "io/table_printer.h"
#include "tsv/placement.h"

namespace tsv::bench {

struct BenchConfig {
  double element_size = 0.25;  ///< FEM golden/characterization mesh, um
  double spacing = 0.5;        ///< simulation-point grid spacing, um
  double margin = 25.0;        ///< FEM domain margin, um
  bool fast = false;           ///< --fast: coarse preview (0.5 um mesh)
  std::string out_dir = ".";   ///< where CSV artifacts go
  std::size_t threads = 8;     ///< parallel rows/runs (0 = hardware)

  /// Parses --fast, --element-size=X, --spacing=X, --out-dir=PATH,
  /// --threads=N.
  static BenchConfig parse(int argc, char** argv);
};

/// FEM-characterized single-TSV data shared across a sweep. The Stage-I
/// table is the full 2D stress map of the isolated TSV (the original LS
/// method's characterization format), so the model and the golden share the
/// same discretized single-TSV field.
struct Characterization {
  std::shared_ptr<const core::StressMapTable> table;
  double k_fem = 0.0;  ///< effective K, MPa um^2
  std::shared_ptr<const ana::InclusionResponse> response;
  std::shared_ptr<const ana::InteractiveStressModel> model;
  double seconds = 0.0;
};

Characterization characterize(const tsvlib::TsvStructure& structure,
                              const mat::ThermalLoad& load,
                              const BenchConfig& config);

/// Golden FEM solve over `roi` (expanded by the configured margin).
fem::FemSolution golden_solve(const tsvlib::Placement& placement,
                              const mat::ThermalLoad& load,
                              const geo::Box& roi, const BenchConfig& config);

/// Samples a FEM field at the given points.
std::vector<num::SymTensor2> sample_field(const fem::StressField& field,
                                          const std::vector<geo::Point>& pts);

/// One LS or PF row of the paper's error tables.
std::vector<double> stats_row(const core::ErrorStats& st);

/// Column headers matching Tables 1-5.
std::vector<std::string> table_headers(const std::string& first_column);

/// The two-TSV pitch-sweep experiment shared by Tables 1/3/4/5: for each
/// pitch, solve the FEM golden on the 60x30 um monitored region, evaluate
/// LS and PF on the sample grid, and print both error rows. Also reports
/// run-time ratio (Stage II vs Stage I). Returns the printed stats
/// (per pitch: {ls, pf}) for scripting.
struct PairSweepResult {
  double pitch;
  core::ErrorStats ls;
  core::ErrorStats pf;
  double stage1_seconds;
  double stage2_seconds;
};

std::vector<PairSweepResult> run_pair_sweep(
    const tsvlib::TsvStructure& structure, core::StressMeasure measure,
    const std::vector<double>& pitches, const BenchConfig& config,
    const std::string& title);

/// One machine-readable result row, emitted as a single JSON object in key
/// insertion order. Replaces the ad-hoc snprintf JSON in the benches so
/// every bench appends trajectory rows (<out-dir>/*.jsonl) the same way.
///
///   JsonRow row("fullchip");
///   row.uint("tsvs", n).num("stage1_s", s1, "%.4f").str("mode", "series");
///   append_jsonl(out_dir + "/fullchip.jsonl", row);
///
/// num() takes a printf format so rows keep their established field
/// precision (trajectory diffs stay byte-stable across refactors).
class JsonRow {
 public:
  /// Every row starts with {"bench":"<name>"}.
  explicit JsonRow(const std::string& bench_name);

  JsonRow& str(const std::string& key, const std::string& value);
  JsonRow& num(const std::string& key, double value, const char* fmt = "%.6g");
  JsonRow& uint(const std::string& key, std::uint64_t value);
  JsonRow& boolean(const std::string& key, bool value);

  /// The row as a one-line JSON object (no trailing newline).
  std::string json() const;

 private:
  JsonRow& raw(const std::string& key, const std::string& value);
  std::string body_;  ///< comma-joined "key":value pairs
};

/// Appends `row` as one line to `path` (creating the file if needed) and
/// echoes it to stdout as `json: {...}`.
void append_jsonl(const std::string& path, const JsonRow& row);

}  // namespace tsv::bench
