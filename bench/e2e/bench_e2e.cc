// bench_e2e: the end-to-end benchmark of tsvstress (see README.md).
//
//   bench_e2e --workload=NAME --server=PATH --workdir=DIR [--seed=1]
//             [--seconds=20] [--trace=FILE] [--quick]
//
// Runs one workload (fullchip_100k, variation_corners, service_mix) in this
// process, checks its outputs against the exact series, prints every metric
// by name with its unit, and ends with one JSON line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics, or with --trace the per-layer metrics
// (and the span log written to FILE). Exits 1 when a check fails.
// bench/e2e/run.py builds the binary and runs each workload in its own
// process.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "harness.h"
#include "numeric/parallel.h"

namespace {

using bench_e2e::Config;
using bench_e2e::Metric;
using bench_e2e::Result;

Config parse(int argc, char** argv) {
  Config c;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) {
      return arg.substr(std::strlen(prefix));
    };
    if (arg.rfind("--workload=", 0) == 0) c.workload = value("--workload=");
    else if (arg.rfind("--seed=", 0) == 0)
      c.seed = std::stoull(value("--seed="));
    else if (arg.rfind("--seconds=", 0) == 0)
      c.seconds = std::stod(value("--seconds="));
    else if (arg.rfind("--trace=", 0) == 0) {
      c.trace = true;
      c.trace_file = value("--trace=");
    } else if (arg == "--quick") c.quick = true;
    else if (arg.rfind("--workdir=", 0) == 0) c.workdir = value("--workdir=");
    else if (arg.rfind("--server=", 0) == 0) c.server_bin = value("--server=");
    else throw std::invalid_argument("unknown option: " + arg);
  }
  if (c.workload.empty() || c.workdir.empty() || c.server_bin.empty())
    throw std::invalid_argument(
        "need --workload=NAME --workdir=DIR --server=PATH");
  if (!(c.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  c.threads = std::min<std::size_t>(4, tsv::num::hardware_thread_count());
  return c;
}

void print_json(const Result& r, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  try {
    cfg = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
  Result result;
  {
    std::unique_ptr<bench_e2e::Trace> trace;
    if (cfg.trace) trace = std::make_unique<bench_e2e::Trace>(cfg.workload);
    try {
      std::filesystem::remove_all(cfg.workdir);
      std::filesystem::create_directories(cfg.workdir);
      std::printf("bench_e2e workload=%s seed=%llu seconds=%g threads=%zu "
                  "trace=%d quick=%d\n",
                  cfg.workload.c_str(),
                  static_cast<unsigned long long>(cfg.seed), cfg.seconds,
                  cfg.threads, cfg.trace ? 1 : 0, cfg.quick ? 1 : 0);
      if (cfg.workload == "fullchip_100k")
        result = bench_e2e::run_fullchip(cfg, trace.get());
      else if (cfg.workload == "variation_corners")
        result = bench_e2e::run_variation(cfg, trace.get());
      else if (cfg.workload == "service_mix")
        result = bench_e2e::run_service(cfg, trace.get());
      else
        throw std::invalid_argument("unknown workload: " + cfg.workload);
      if (trace) trace->write(cfg.trace_file);
    } catch (const std::exception& e) {
      result.fail(std::string("workload aborted: ") + e.what());
      result.attempted = std::max<std::uint64_t>(result.attempted, 1);
      result.failed = result.attempted;
    }
    std::error_code ec;
    std::filesystem::remove_all(cfg.workdir, ec);
  }

  const std::vector<Metric>& metrics =
      cfg.trace ? result.per_layer : result.end_to_end;
  for (const Metric& m : result.end_to_end)
    std::printf("  e2e   %-34s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  for (const Metric& m : result.per_layer)
    std::printf("  layer %-34s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  for (const Metric& m : metrics)
    if (!std::isfinite(m.value))
      result.fail("metric " + m.name + " is not finite");
  if (result.failed > 0) result.fail("operations failed");
  std::vector<Metric> printable = metrics;
  for (Metric& m : printable)
    if (!std::isfinite(m.value)) m.value = 0.0;
  std::fflush(stdout);
  print_json(result, printable);
  return result.correct ? 0 : 1;
}
