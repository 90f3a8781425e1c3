#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "analytic/mode_solver.h"
#include "analytic/single_tsv.h"
#include "analytic/surrogate.h"
#include "stats/sampler.h"
#include "tsv/placement_io.h"

namespace bench_e2e {

Trace::Trace(std::string workload)
    : workload_(std::move(workload)), origin_(Clock::now()) {}

std::int64_t Trace::ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

std::uint64_t Trace::record(const std::string& name, std::uint64_t parent,
                            Clock::time_point start, Clock::time_point end) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({name, id, parent, ns(start), ns(end)});
  return id;
}

std::uint64_t Trace::open(const std::string& name, std::uint64_t parent) {
  const std::int64_t start = ns(Clock::now());
  std::lock_guard<std::mutex> lk(mu_);
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({name, id, parent, start, -1});
  return id;
}

void Trace::close(std::uint64_t id) {
  const std::int64_t end = ns(Clock::now());
  std::lock_guard<std::mutex> lk(mu_);
  spans_.at(id - 1).end_ns = end;
}

double Trace::total_seconds(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::int64_t total = 0;
  for (const Record& r : spans_)
    if (r.name == name && r.end_ns >= r.start_ns)
      total += r.end_ns - r.start_ns;
  return static_cast<double>(total) * 1e-9;
}

void Trace::write(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  // Children per parent, for the self-time interval union.
  std::vector<std::vector<std::size_t>> children(spans_.size() + 1);
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent != 0 && spans_[i].parent <= spans_.size())
      children[spans_[i].parent].push_back(i);

  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    const std::int64_t end = std::max(r.end_ns, r.start_ns);
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (const std::size_t c : children[r.id]) {
      const std::int64_t a = std::max(spans_[c].start_ns, r.start_ns);
      const std::int64_t b = std::min(spans_[c].end_ns, end);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_a = 0;
    std::int64_t cur_b = -1;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    out << "  {\"name\": \"" << r.name << "\", \"workload\": \"" << workload_
        << "\", \"id\": " << r.id << ", \"parent\": " << r.parent
        << ", \"start_ns\": " << r.start_ns << ", \"end_ns\": " << end
        << ", \"self_ns\": " << (end - r.start_ns - covered) << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

std::string describe_tail(const std::vector<double>& values_ms) {
  double level = 0.5;
  for (const double l : {0.9, 0.99, 0.999})
    if (static_cast<double>(values_ms.size()) * (1.0 - l) >= 10.0) level = l;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "p%g %.4g ms (n=%zu)", 100.0 * level,
                quantile(values_ms, level), values_ms.size());
  return buf;
}

void ErrorGauge::add(const tsv::num::SymTensor2& got,
                     const tsv::num::SymTensor2& exact) {
  scale = std::max({scale, std::abs(exact.s11), std::abs(exact.s22),
                    std::abs(exact.s12)});
  worst = std::max({worst, std::abs(got.s11 - exact.s11),
                    std::abs(got.s22 - exact.s22),
                    std::abs(got.s12 - exact.s12)});
}

void ErrorGauge::add_scalar(double got, double exact) {
  scale = std::max(scale, std::abs(exact));
  worst = std::max(worst, std::abs(got - exact));
}

void Result::fail(const std::string& why) {
  correct = false;
  std::cerr << "bench_e2e: check failed: " << why << "\n";
}

double peak_rss_mb_self() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Characterization characterize(const tsv::tsvlib::TsvStructure& structure) {
  using namespace tsv;
  const ana::SingleTsvModel single(structure, mat::ThermalLoad{});
  Characterization ch;
  ch.table = std::make_shared<const core::RadialStressTable>(
      core::RadialStressTable::from_analytic(single, 30.0, 4096));
  ch.k_hat = single.k_hat();
  ch.response = std::make_shared<const ana::InclusionResponse>(structure);
  ch.model = exact_model(ch);
  return ch;
}

std::shared_ptr<const tsv::ana::InteractiveStressModel> exact_model(
    const Characterization& ch) {
  return std::make_shared<const tsv::ana::InteractiveStressModel>(ch.response,
                                                                  ch.k_hat);
}

void fit_surrogate(const Characterization& ch) {
  using namespace tsv;
  ch.model->attach_surrogate(std::make_shared<const ana::PairSurrogate>(
      ana::PairSurrogate::fit(*ch.model)));
}

tsv::core::FrameworkOptions framework_options(std::size_t threads) {
  tsv::core::FrameworkOptions fopt;
  fopt.num_threads = threads;
  return fopt;
}

std::string write_design(const std::string& dir, const std::string& name,
                         std::size_t count, std::uint64_t seed) {
  using namespace tsv;
  const tsvlib::FullChipDesign design = tsvlib::make_fullchip(
      tsvlib::TsvStructure::baseline_bcb(),
      tsvlib::spec_for_count(count, 0.25e-2, seed));
  const std::string path = dir + "/" + name + ".tsv";
  tsvlib::write_placement_file(path, design.placement);
  return path;
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t purpose) {
  return tsv::stats::rng::draw(seed, 0, purpose, 0);
}

}  // namespace bench_e2e
