// ECO bench: incremental (delta) evaluation vs full recompute on full-chip
// designs, plus the snapshot warm-start path.
//
// One certified Stage II surrogate is fitted up front (it depends on the
// structure only) and attached to every design's model. For each design
// size the bench
//   1. cold-builds an IncrementalEngine (full two-stage evaluation),
//   2. saves / reloads the engine snapshot (io/snapshot), timing both and
//      checking the restored fields are bitwise identical,
//   3. applies K random legal single-TSV moves through apply(), timing each
//      and counting dirty points,
//   4. full-recomputes once (rebuild()) to time the non-incremental baseline
//      and measure the worst drift the incremental fields accumulated.
//
// One JSON row per design is appended to <out-dir>/eco.jsonl via the shared
// bench::append_jsonl helper. The headline numbers are `speedup`
// (full-recompute seconds / mean apply seconds) and `drift_frac`
// (max per-component drift / field scale — the <= 1e-12 acceptance bound).
//
// Options (beyond --fast):
//   --designs=1000,10000   TSV counts to sweep
//   --moves=20             random single-TSV moves per design
//   --seed=7               RNG seed for the move sequence
//   --density=0.0025       TSVs per um^2
//   --spacing=2.0          simulation-point grid spacing, um
//   --threads=1            threads for the cold build / rebuild
//   --out-dir=results      where eco.jsonl and snapshots go

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "analytic/surrogate.h"
#include "common.h"
#include "core/incremental_engine.h"
#include "io/snapshot.h"
#include "numeric/parallel.h"
#include "tsv/fullchip.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(const Clock::time_point& t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::vector<std::size_t> designs = {1000, 10000};
  std::size_t moves = 20;
  std::uint64_t seed = 7;
  double density = 0.25e-2;
  double spacing = 2.0;
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
      o.moves = 5;
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
    } else if (arg.rfind("--moves=", 0) == 0) {
      o.moves = std::stoul(value("--moves="));
    } else if (arg.rfind("--seed=", 0) == 0) {
      o.seed = std::stoull(value("--seed="));
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

double field_scale(const std::vector<tsv::num::SymTensor2>& field) {
  double s = 0.0;
  for (const auto& t : field)
    s = std::max({s, std::abs(t.s11), std::abs(t.s22), std::abs(t.s12)});
  return s;
}

bool bitwise_equal(const std::vector<tsv::num::SymTensor2>& a,
                   const std::vector<tsv::num::SymTensor2>& b) {
  if (a.size() != b.size()) return false;
  return std::memcmp(a.data(), b.data(),
                     a.size() * sizeof(tsv::num::SymTensor2)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tsv;
  const Options opt = parse(argc, argv);
  const std::size_t threads = num::resolve_thread_count(opt.threads);
  std::filesystem::create_directories(opt.out_dir);

  const tsvlib::TsvStructure structure = tsvlib::TsvStructure::baseline_bcb();
  const mat::ThermalLoad load{};
  const ana::SingleTsvModel single(structure, load);
  const auto table = std::make_shared<const core::RadialStressTable>(
      core::RadialStressTable::from_analytic(single, 30.0, 4096));
  const auto response =
      std::make_shared<const ana::InclusionResponse>(structure);

  std::printf("=== ECO workloads: incremental apply vs full recompute ===\n");
  std::printf("threads=%zu spacing=%.3g um moves=%zu seed=%llu\n", threads,
              opt.spacing, opt.moves,
              static_cast<unsigned long long>(opt.seed));

  const auto t_fit0 = Clock::now();
  const auto surrogate = std::make_shared<const ana::PairSurrogate>(
      ana::PairSurrogate::fit(
          ana::InteractiveStressModel(response, single.k_hat())));
  const double fit_s = seconds_since(t_fit0);
  std::printf("surrogate fit: %.3fs (certified rel bound %.3g)\n", fit_s,
              surrogate->certificate().certified_rel_bound);

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

    const auto model = std::make_shared<const ana::InteractiveStressModel>(
        response, single.k_hat());
    model->attach_surrogate(surrogate);
    core::IncrementalOptions eopt;
    eopt.num_threads = threads;

    const auto t_build0 = Clock::now();
    core::IncrementalEngine engine(design.placement, grid, table, model,
                                   eopt);
    const double build_s = seconds_since(t_build0);
    std::printf("cold build (full two-stage evaluation): %.3fs\n", build_s);

    // Snapshot round trip: a warm start skips the build above entirely.
    const std::string snap_path =
        opt.out_dir + "/eco_" + std::to_string(count) + ".snap";
    const auto t_save0 = Clock::now();
    io::save_engine_state(snap_path, engine);
    const double save_s = seconds_since(t_save0);
    const auto snap_bytes = std::filesystem::file_size(snap_path);
    const auto t_load0 = Clock::now();
    const core::IncrementalEngine warmed = io::load_engine_state(snap_path);
    const double load_s = seconds_since(t_load0);
    const bool snap_bitwise =
        bitwise_equal(engine.stage1_field(), warmed.stage1_field()) &&
        bitwise_equal(engine.stage2_field(), warmed.stage2_field());
    std::printf("snapshot: save %.3fs, %.1f MB, load %.3fs, fields %s\n",
                save_s, static_cast<double>(snap_bytes) / (1024.0 * 1024.0),
                load_s, snap_bitwise ? "bitwise identical" : "MISMATCH");

    // K random legal single-TSV moves: displacement uniform in [-8, 8] um,
    // retried (fresh id + displacement) when it would violate min pitch.
    std::mt19937_64 rng(opt.seed);
    std::uniform_real_distribution<double> jump(-8.0, 8.0);
    const std::vector<std::uint32_t> ids = engine.active_ids();
    std::uniform_int_distribution<std::size_t> pick(0, ids.size() - 1);

    double total_apply_s = 0.0;
    std::size_t total_dirty = 0;
    std::size_t applied = 0;
    double worst_apply_s = 0.0;
    for (std::size_t k = 0; k < opt.moves; ++k) {
      for (int attempt = 0; attempt < 100; ++attempt) {
        const std::uint32_t id = ids[pick(rng)];
        const geo::Point c = engine.center(id);
        const geo::Point target{c.x + jump(rng), c.y + jump(rng)};
        try {
          const core::ApplyStats st =
              engine.apply({core::EcoOp::move(id, target)});
          total_apply_s += st.seconds;
          worst_apply_s = std::max(worst_apply_s, st.seconds);
          total_dirty += st.dirty_points;
          ++applied;
          break;
        } catch (const std::invalid_argument&) {
          // Illegal move (overlap) — retry with a fresh id/displacement.
        }
      }
    }
    const double mean_apply_s =
        applied > 0 ? total_apply_s / static_cast<double>(applied) : 0.0;
    const double mean_dirty =
        applied > 0 ? static_cast<double>(total_dirty) /
                          static_cast<double>(applied)
                    : 0.0;

    // Full-recompute baseline + accumulated drift of the incremental path.
    const double scale = field_scale(engine.total_field());
    const auto t_full0 = Clock::now();
    const double drift_mpa = engine.rebuild();
    const double full_s = seconds_since(t_full0);
    const double drift_frac = scale > 0.0 ? drift_mpa / scale : 0.0;
    const double speedup = mean_apply_s > 0.0 ? full_s / mean_apply_s : 0.0;

    std::printf("moves: %zu applied, mean %.4g ms (worst %.4g ms), mean "
                "dirty points %.0f / %zu\n",
                applied, 1e3 * mean_apply_s, 1e3 * worst_apply_s, mean_dirty,
                grid.size());
    std::printf("full recompute: %.3fs -> speedup %.0fx; drift %.3g MPa "
                "(%.3g of field scale %.1f MPa)\n",
                full_s, speedup, drift_mpa, drift_frac, scale);

    bench::JsonRow row("eco");
    row.uint("tsvs", design.placement.size())
        .uint("points", grid.size())
        .num("spacing_um", opt.spacing, "%.3g")
        .uint("threads", threads)
        .num("surrogate_fit_s", fit_s, "%.4f")
        .num("build_s", build_s, "%.4f")
        .num("snapshot_save_s", save_s, "%.4f")
        .uint("snapshot_bytes", snap_bytes)
        .num("snapshot_load_s", load_s, "%.4f")
        .boolean("snapshot_bitwise", snap_bitwise)
        .uint("moves", applied)
        .num("mean_apply_s", mean_apply_s, "%.6f")
        .num("worst_apply_s", worst_apply_s, "%.6f")
        .num("mean_dirty_points", mean_dirty, "%.1f")
        .num("full_recompute_s", full_s, "%.4f")
        .num("speedup", speedup, "%.1f")
        .num("drift_mpa", drift_mpa, "%.3g")
        .num("drift_frac", drift_frac, "%.3g");
    bench::append_jsonl(opt.out_dir + "/eco.jsonl", row);
  }
  return 0;
}
