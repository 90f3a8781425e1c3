#pragma once
// Shared plumbing of the end-to-end benchmark (bench_e2e): the run
// configuration, the span recorder behind --trace, latency summaries, the
// accuracy gauge every correctness gate feeds, and the result record each
// workload hands back to main.
//
// The benchmark only calls the library's public entry points; spans are
// recorded here, in the benchmark's own files, around each call into a
// module (tsv, analytic, core, stats, io, server, numeric), never inside it.

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analytic/interaction.h"
#include "core/framework.h"
#include "core/stress_table.h"
#include "numeric/tensor.h"
#include "tsv/fullchip.h"

namespace bench_e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< length of each measured phase
  bool trace = false;     ///< per-layer run instead of the end-to-end run
  bool quick = false;     ///< smoke sizes (small designs, few ops)
  std::string workdir;    ///< scratch for generated inputs; removed at exit
  std::string server_bin;  ///< the tsvstress_server executable
  std::string trace_file;  ///< where the traced run writes its spans
  std::size_t threads = 1;  ///< min(4, hardware threads)
};

/// In-memory span log. Spans are {name, id, parent, start, end}; self time
/// (duration minus the union of the child spans' intervals) is derived when
/// the log is written. Thread-safe: the service clients record concurrently.
class Trace {
 public:
  explicit Trace(std::string workload);

  /// Records a finished span and returns its id (ids start at 1; parent 0
  /// means a root span).
  std::uint64_t record(const std::string& name, std::uint64_t parent,
                       Clock::time_point start, Clock::time_point end);
  /// Opens a span whose end is filled in by close().
  std::uint64_t open(const std::string& name, std::uint64_t parent);
  void close(std::uint64_t id);

  /// Sum of the durations of every span called `name`, seconds.
  double total_seconds(const std::string& name) const;

  /// Writes the spans as a JSON array of {name, workload, id, parent,
  /// start_ns, end_ns, self_ns}.
  void write(const std::string& path) const;

 private:
  struct Record {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
  };
  std::int64_t ns(Clock::time_point t) const;

  std::string workload_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Record> spans_;
};

/// RAII span; a null trace makes it a no-op, so the untraced run shares the
/// code path of the traced one.
class Span {
 public:
  Span(Trace* trace, const std::string& name, std::uint64_t parent = 0)
      : trace_(trace), id_(trace ? trace->open(name, parent) : 0) {}
  ~Span() {
    if (trace_) trace_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  Trace* trace_;
  std::uint64_t id_;
};

/// Whether a measured phase made of repeated units goes on: always when no
/// unit ran yet, otherwise only while one more unit as long as the last
/// keeps the phase within its budget. A unit about as long as the budget
/// then runs once whatever the host speed, instead of once or twice.
inline bool another_unit(double measured_s, double last_unit_s,
                         double budget_s) {
  return measured_s == 0.0 || measured_s + last_unit_s <= budget_s;
}

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 for an empty set.
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);
/// "p99 3.21 ms (n=4500)"-style summary at the highest of p99.9 / p99 / p90
/// / p50 that leaves at least ten samples beyond it.
std::string describe_tail(const std::vector<double>& values_ms);

/// Worst component deviation of delivered fields from the exact series,
/// relative to the largest exact component seen (the field scale).
struct ErrorGauge {
  double worst = 0.0;
  double scale = 0.0;
  void add(const tsv::num::SymTensor2& got, const tsv::num::SymTensor2& exact);
  void add_scalar(double got, double exact);
  double frac() const { return scale > 0.0 ? worst / scale : 0.0; }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;  ///< printed with --trace 0
  std::vector<Metric> per_layer;   ///< printed with --trace 1

  /// Marks the run incorrect and says why on stderr.
  void fail(const std::string& why);
  /// Largest accepted max_err_frac of any workload.
  static constexpr double kMaxErrFrac = 1e-2;
};

/// Peak resident set of this process, MB.
double peak_rss_mb_self();

/// A structure's characterization, the way the library's own pipelines
/// build it: the Stage I radial table from the analytic single-TSV solution
/// and the Stage II inclusion response, with a model that has no surrogate.
struct Characterization {
  std::shared_ptr<const tsv::core::RadialStressTable> table;
  std::shared_ptr<const tsv::ana::InclusionResponse> response;
  double k_hat = 0.0;
  std::shared_ptr<const tsv::ana::InteractiveStressModel> model;
};
Characterization characterize(const tsv::tsvlib::TsvStructure& structure);
/// A fresh model over `ch`'s response with no surrogate: the exact series.
std::shared_ptr<const tsv::ana::InteractiveStressModel> exact_model(
    const Characterization& ch);
/// Fits the certified surrogate on `ch.model` and attaches it.
void fit_surrogate(const Characterization& ch);

/// FrameworkOptions with every option at its default except the threads.
tsv::core::FrameworkOptions framework_options(std::size_t threads);

inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Generates the seeded full-chip design of `count` TSVs (paper Table 6
/// density 0.25e-2, baseline BCB structure) and writes it to
/// `<dir>/<name>.tsv`; returns the path.
std::string write_design(const std::string& dir, const std::string& name,
                         std::size_t count, std::uint64_t seed);

/// Distinct, reproducible sub-seed for input stream `purpose` of a run.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t purpose);

Result run_fullchip(const Config& cfg, Trace* trace);
Result run_variation(const Config& cfg, Trace* trace);
Result run_service(const Config& cfg, Trace* trace);

}  // namespace bench_e2e
