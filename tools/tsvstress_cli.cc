// tsvstress command-line front end.
//
//   tsvstress_cli evaluate  <placement.tsv> [options]   one-shot field eval
//   tsvstress_cli eco       <placement.tsv> [options]   incremental edits
//   tsvstress_cli variation <placement.tsv> [options]   Monte Carlo sweep
//   tsvstress_cli snapshot save <placement.tsv> [options]
//   tsvstress_cli snapshot info <file.snap>
//   tsvstress_cli client --connect=unix:PATH|HOST:PORT <op> [options]
//                                                        talk to the daemon
//                                                        (tsvstress_server)
//
// Invocations that start with a placement file (no subcommand) are treated
// as an implicit `evaluate`, so pre-subcommand scripts keep working:
//
//   tsvstress_cli design.tsv --spacing=1 --out=field.csv
//
// evaluate options:
//   --spacing=X       grid spacing, um (default 0.5)
//   --margin=X        halo around the placement bounding box, um (default 25)
//   --ls-only         linear superposition only (no interactive stage)
//   --measure=M       sigma_xx | sigma_yy | sigma_xy | von_mises | max_tensile
//                     (default von_mises)
//   --out=FILE        output CSV (default stress.csv)
//   --checkpoint=FILE tiled evaluation with crash resilience: periodically
//                     save completed-tile state to FILE, resume from it if
//                     present (stale/corrupt checkpoints restart clean),
//                     delete it on success
//   --checkpoint-every=N   checkpoint after every N computed tiles (default
//                     16, with --checkpoint)
//   --surrogate       Stage II via the certified Chebyshev surrogate (fits
//                     and certifies one per process, ~40 ms)
//   --surrogate-file=FILE  persist the fitted surrogate: load FILE when it
//                     holds a valid surrogate snapshot (skipping the fit),
//                     fit + save it otherwise. The file must come from the
//                     same TSV structure; the embedded certificate still
//                     gates use per evaluation.
//
// Exit codes (see src/core/error.h): 0 success, 2 invalid input, 3 numeric
// failure (all solver backends failed), 4 on-disk corruption, 5 resource
// limit, 1 anything uncategorized.
//
// eco options (besides --spacing/--margin/--measure/--out/--surrogate):
//   --snapshot=FILE       warm-start from an engine snapshot instead of
//                         building from the placement (placement arg optional)
//   --moves=K             apply K random legal single-TSV moves
//   --seed=S              RNG seed for --moves (default 7)
//   --edits=FILE          apply an edit script as one atomic batch; lines:
//                             add <x_um> <y_um>
//                             move <id> <x_um> <y_um>
//                             remove <id>
//   --verify              full recompute afterwards; report the drift of the
//                         incremental fields
//   --save-snapshot=FILE  save the engine state after the edits
//   --threads=N           threads for the cold build / --verify recompute
//
// variation options (besides --spacing/--margin/--surrogate/--threads/
// --out):
//   --samples=N       Monte Carlo samples per corner (default 128)
//   --seed=S          sampler seed (default 1)
//   --jitter-tsvs=K   TSVs jittered per sample (default 8)
//   --jitter-sigma=X  per-axis placement jitter sigma, um (default 0.5)
//   --cte-sigma=X     relative sigma of the thermal-load scale (default 0.05)
//   --corners=MODE    none | materials ({Cu,CNT} x {BCB,SiO2}) | geometry
//                     (+/- radius and liner corners); default none
// Per corner the sweep streams every sample through a resident incremental
// engine (an edit batch, never a full rebuild) and writes a per-point CSV
// (mean/sigma/quantiles/exceedance); multiple corners write
// <out-stem>.<corner>.csv.
//
// snapshot save: builds the engine (same knobs as eco) and writes the
// engine-state snapshot to --out=FILE (default engine.snap). A later
// `eco --snapshot=FILE` then skips characterization and evaluation —
// including the surrogate fit when the engine had one attached (the
// snapshot embeds it, certificate and all).
// snapshot info: prints the header of any snapshot file (kind, version,
// payload size, checksum) after validating its checksum.
//
// Placement format (see src/tsv/placement_io.h):
//   structure <body_radius_um> <liner_thickness_um> <BCB|SiO2>
//   tsv <x_um> <y_um>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/framework.h"
#include "server/client.h"
#include "core/incremental_engine.h"
#include "core/metrics.h"
#include "core/tiled_evaluator.h"
#include "io/csv.h"
#include "io/snapshot.h"
#include "stats/variation_engine.h"
#include "tsv/placement_io.h"

namespace {

using namespace tsv;

core::StressMeasure parse_measure(const std::string& name) {
  if (name == "sigma_xx") return core::StressMeasure::kSigmaXX;
  if (name == "sigma_yy") return core::StressMeasure::kSigmaYY;
  if (name == "sigma_xy") return core::StressMeasure::kSigmaXY;
  if (name == "von_mises") return core::StressMeasure::kVonMises;
  if (name == "max_tensile") return core::StressMeasure::kMaxTensile;
  throw std::invalid_argument("unknown measure: " + name);
}

/// Flags shared by every subcommand that evaluates a field.
struct CommonOptions {
  std::string placement_path;
  std::string out_path;
  double spacing = 0.5;
  double margin = 25.0;
  bool ls_only = false;
  std::size_t threads = 1;
  core::StressMeasure measure = core::StressMeasure::kVonMises;
  std::string checkpoint_path;        ///< --checkpoint= (empty: disabled)
  std::size_t checkpoint_every = 16;  ///< --checkpoint-every=
  bool surrogate = false;             ///< --surrogate
  std::string surrogate_file;         ///< --surrogate-file= (empty: none)
};

/// variation-specific flags.
struct VariationCliOptions {
  std::size_t samples = 128;
  std::uint64_t seed = 1;
  std::size_t jitter_tsvs = 8;
  double jitter_sigma = 0.5;
  double cte_sigma = 0.05;
  std::string corners = "none";  ///< none | materials | geometry
  bool parallel_corners = false;  ///< sweep corners on the shared pool
};

/// eco-specific flags (also parsed by `snapshot save` where they apply).
struct EcoOptions {
  std::string snapshot_path;       ///< warm start (--snapshot=)
  std::string save_snapshot_path;  ///< --save-snapshot=
  std::string edits_path;          ///< --edits=
  std::size_t moves = 0;           ///< --moves=
  std::uint64_t seed = 7;
  bool verify = false;
};

/// Parses one flag into `c`/`e`; returns false when the flag is unknown.
bool parse_flag(const std::string& arg, CommonOptions& c, EcoOptions& e) {
  const auto value = [&](const char* prefix) {
    return arg.substr(std::strlen(prefix));
  };
  if (arg == "--ls-only") {
    c.ls_only = true;
  } else if (arg == "--verify") {
    e.verify = true;
  } else if (arg.rfind("--spacing=", 0) == 0) {
    c.spacing = std::stod(value("--spacing="));
  } else if (arg.rfind("--margin=", 0) == 0) {
    c.margin = std::stod(value("--margin="));
  } else if (arg.rfind("--measure=", 0) == 0) {
    c.measure = parse_measure(value("--measure="));
  } else if (arg.rfind("--out=", 0) == 0) {
    c.out_path = value("--out=");
  } else if (arg.rfind("--checkpoint=", 0) == 0) {
    c.checkpoint_path = value("--checkpoint=");
  } else if (arg.rfind("--checkpoint-every=", 0) == 0) {
    c.checkpoint_every = std::stoul(value("--checkpoint-every="));
  } else if (arg.rfind("--threads=", 0) == 0) {
    c.threads = std::stoul(value("--threads="));
  } else if (arg.rfind("--snapshot=", 0) == 0) {
    e.snapshot_path = value("--snapshot=");
  } else if (arg.rfind("--save-snapshot=", 0) == 0) {
    e.save_snapshot_path = value("--save-snapshot=");
  } else if (arg.rfind("--edits=", 0) == 0) {
    e.edits_path = value("--edits=");
  } else if (arg.rfind("--moves=", 0) == 0) {
    e.moves = std::stoul(value("--moves="));
  } else if (arg.rfind("--seed=", 0) == 0) {
    e.seed = std::stoull(value("--seed="));
  } else if (arg == "--surrogate") {
    c.surrogate = true;
  } else if (arg.rfind("--surrogate-file=", 0) == 0) {
    c.surrogate_file = value("--surrogate-file=");
  } else {
    return false;
  }
  return true;
}

void parse_args(const std::vector<std::string>& args, CommonOptions& c,
                EcoOptions& e, const std::string& usage) {
  for (const std::string& arg : args) {
    if (arg.rfind("--", 0) == 0) {
      if (!parse_flag(arg, c, e))
        throw std::invalid_argument("unknown option: " + arg + "\n" + usage);
    } else if (c.placement_path.empty()) {
      c.placement_path = arg;
    } else {
      throw std::invalid_argument("unexpected argument: " + arg + "\n" +
                                  usage);
    }
  }
}

/// Applies --surrogate / --surrogate-file to a characterized model: reuse
/// the snapshot when it loads cleanly, otherwise fit (and persist the fit
/// when a file was named). The attached certificate gates use either way.
void setup_surrogate(const ana::InteractiveStressModel& model,
                     const CommonOptions& c) {
  if (!c.surrogate && c.surrogate_file.empty()) return;
  if (!c.surrogate_file.empty()) {
    if (std::optional<ana::PairSurrogate> loaded =
            io::try_load_surrogate(c.surrogate_file)) {
      std::printf("surrogate: reused %s (certified rel bound %.3g)\n",
                  c.surrogate_file.c_str(),
                  loaded->certificate().certified_rel_bound);
      model.attach_surrogate(
          std::make_shared<const ana::PairSurrogate>(std::move(*loaded)));
      return;
    }
  }
  auto fitted = std::make_shared<const ana::PairSurrogate>(
      ana::PairSurrogate::fit(model));
  std::printf("surrogate: fitted (certified rel bound %.3g)\n",
              fitted->certificate().certified_rel_bound);
  if (!c.surrogate_file.empty()) {
    io::save_surrogate(c.surrogate_file, *fitted);
    std::printf("surrogate: saved to %s\n", c.surrogate_file.c_str());
  }
  model.attach_surrogate(std::move(fitted));
}

/// The structure's characterization for evaluate and eco: the exact series
/// (none with --ls-only), then --surrogate / --surrogate-file applied.
core::Characterization characterize(const tsvlib::Placement& placement,
                                    const CommonOptions& c) {
  core::Characterization ch = core::characterize(
      placement.structure(), mat::ThermalLoad{},
      c.ls_only ? core::StageTwo::kOff : core::StageTwo::kSeries);
  if (ch.model != nullptr) setup_surrogate(*ch.model, c);
  return ch;
}

void write_field_csv(const std::string& out_path,
                     const std::vector<geo::Point>& pts,
                     const std::vector<num::SymTensor2>& field,
                     core::StressMeasure measure) {
  std::vector<double> values(pts.size());
  double peak = 0.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    values[i] = core::extract(measure, field[i]);
    peak = std::max(peak, std::abs(values[i]));
  }
  io::write_scalar_field(out_path, pts, values);
  std::printf("wrote %s (%s, peak |value| %.1f MPa)\n", out_path.c_str(),
              core::to_string(measure), peak);
}

// --- evaluate ------------------------------------------------------------

int run_evaluate(const std::vector<std::string>& args) {
  constexpr const char* kUsage =
      "usage: tsvstress_cli evaluate <placement.tsv> [--spacing=X] "
      "[--margin=X] [--ls-only] [--measure=M] [--out=FILE] "
      "[--checkpoint=FILE] [--checkpoint-every=N]";
  CommonOptions c;
  EcoOptions e;
  parse_args(args, c, e, kUsage);
  if (c.placement_path.empty()) throw std::invalid_argument(kUsage);
  if (c.out_path.empty()) c.out_path = "stress.csv";

  const tsvlib::Placement placement =
      tsvlib::read_placement_file(c.placement_path);
  placement.validate_no_overlap();
  std::printf("placement: %zu TSVs (R=%.2f um, liner %s), min pitch %.2f "
              "um\n", placement.size(), placement.structure().body_radius,
              placement.structure().liner.name.c_str(),
              placement.min_pitch());

  core::FrameworkOptions options;
  options.enable_interactive = !c.ls_only;
  options.num_threads = c.threads;

  // The surrogate (loaded or fitted) is attached before the framework
  // wraps the model.
  const core::Characterization ch = characterize(placement, c);
  const core::StressFramework framework(placement, ch.table, ch.model,
                                        options);

  const geo::Box roi = placement.bounding_box().expanded(c.margin);
  const geo::SampleGrid grid = geo::SampleGrid::with_spacing(roi, c.spacing);
  std::printf("grid: %zu x %zu points, spacing %.3g um\n", grid.nx(),
              grid.ny(), c.spacing);

  if (!c.checkpoint_path.empty()) {
    // Tiled evaluation with periodic checkpoints: an interrupted run
    // re-invoked with the same flags resumes at the first unfinished tile.
    const core::TiledEvaluator tiled(framework);
    std::vector<num::SymTensor2> field(grid.size());
    const auto consume = [&](const core::Tile& t) {
      std::size_t k = 0;
      for (std::size_t iy = t.iy0; iy < t.iy0 + t.ny; ++iy)
        for (std::size_t ix = t.ix0; ix < t.ix0 + t.nx; ++ix, ++k)
          field[iy * grid.nx() + ix] = t.stress[k];
    };
    const core::TiledStats stats = io::evaluate_with_checkpoint(
        tiled, grid, consume, c.checkpoint_path, c.checkpoint_every);
    std::printf("tiles: %zu evaluated + %zu resumed, %zu checkpoints "
                "(%.3fs); stage I %.2fs, stage II %.2fs\n",
                stats.tiles - stats.resumed_tiles, stats.resumed_tiles,
                stats.checkpoints_written, stats.checkpoint_seconds,
                stats.stage1_seconds, stats.stage2_seconds);
    write_field_csv(c.out_path, grid.points(), field, c.measure);
    return 0;
  }

  const core::StressResult result = framework.evaluate(grid);
  std::printf("stage I %.2fs, stage II %.2fs\n", result.stage1_seconds,
              result.stage2_seconds);
  write_field_csv(c.out_path, grid.points(), result.stress, c.measure);
  return 0;
}

// --- eco -----------------------------------------------------------------

/// Parses the --edits script: one op per line, `#` comments and blank lines
/// skipped. The whole file is one atomic Delta.
core::Delta read_edit_script(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw InvalidInputError("cannot open edit script: " + path);
  core::Delta delta;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::istringstream ss(line);
    std::string op;
    if (!(ss >> op) || op[0] == '#') continue;
    const auto fail = [&](const std::string& what) {
      throw InvalidInputError(path + ":" + std::to_string(lineno) + ": " +
                              what);
    };
    if (op == "add") {
      geo::Point p;
      if (!(ss >> p.x >> p.y)) fail("expected: add <x_um> <y_um>");
      delta.push_back(core::EcoOp::add(p));
    } else if (op == "move") {
      std::uint32_t id = 0;
      geo::Point p;
      if (!(ss >> id >> p.x >> p.y))
        fail("expected: move <id> <x_um> <y_um>");
      delta.push_back(core::EcoOp::move(id, p));
    } else if (op == "remove") {
      std::uint32_t id = 0;
      if (!(ss >> id)) fail("expected: remove <id>");
      delta.push_back(core::EcoOp::remove(id));
    } else {
      fail("unknown edit op: " + op);
    }
  }
  return delta;
}

/// Builds a cold engine from a placement file (characterizes the structure,
/// evaluates both stages over the placement's expanded bounding box).
core::IncrementalEngine build_engine(const CommonOptions& c) {
  const tsvlib::Placement placement =
      tsvlib::read_placement_file(c.placement_path);
  placement.validate_no_overlap();
  std::printf("placement: %zu TSVs, min pitch %.2f um\n", placement.size(),
              placement.min_pitch());

  const core::Characterization ch = characterize(placement, c);
  core::IncrementalOptions opt;
  opt.enable_interactive = !c.ls_only;
  opt.num_threads = c.threads;

  const geo::Box roi = placement.bounding_box().expanded(c.margin);
  const geo::SampleGrid grid = geo::SampleGrid::with_spacing(roi, c.spacing);
  std::printf("grid: %zu x %zu points, spacing %.3g um\n", grid.nx(),
              grid.ny(), c.spacing);
  return core::IncrementalEngine(placement, grid, ch.table, ch.model, opt);
}

int run_eco(const std::vector<std::string>& args) {
  constexpr const char* kUsage =
      "usage: tsvstress_cli eco <placement.tsv | --snapshot=FILE> "
      "[--moves=K] [--seed=S] [--edits=FILE] [--verify] "
      "[--save-snapshot=FILE] [--out=FILE] [--measure=M] [eval flags]";
  CommonOptions c;
  EcoOptions e;
  parse_args(args, c, e, kUsage);
  if (c.placement_path.empty() && e.snapshot_path.empty())
    throw std::invalid_argument(kUsage);

  core::IncrementalEngine engine =
      e.snapshot_path.empty() ? build_engine(c)
                              : io::load_engine_state(e.snapshot_path);
  if (!e.snapshot_path.empty()) {
    std::printf("warm start from %s: %zu TSVs, %zu points\n",
                e.snapshot_path.c_str(), engine.active_count(),
                engine.grid().size());
    const std::shared_ptr<const ana::InteractiveStressModel> model =
        engine.model();
    if (model != nullptr) {
      if (const auto surrogate = model->surrogate())
        // Embedded in the snapshot — the refit is skipped entirely.
        std::printf("surrogate: reused from snapshot (certified rel bound "
                    "%.3g)\n",
                    surrogate->certificate().certified_rel_bound);
      else
        setup_surrogate(*model, c);
    }
  }

  if (!e.edits_path.empty()) {
    const core::Delta delta = read_edit_script(e.edits_path);
    const core::ApplyStats st = engine.apply(delta);
    std::printf("applied %zu edits in %.4g ms (%zu dirty points, "
                "%zu/%zu pairs removed/added)\n",
                st.ops, 1e3 * st.seconds, st.dirty_points, st.removed_pairs,
                st.added_pairs);
  }

  if (e.moves > 0) {
    std::mt19937_64 rng(e.seed);
    std::uniform_real_distribution<double> jump(-8.0, 8.0);
    const std::vector<std::uint32_t> ids = engine.active_ids();
    if (ids.empty()) throw InvalidInputError("--moves on an empty engine");
    std::uniform_int_distribution<std::size_t> pick(0, ids.size() - 1);
    double total_s = 0.0;
    std::size_t applied = 0;
    for (std::size_t k = 0; k < e.moves; ++k) {
      for (int attempt = 0; attempt < 100; ++attempt) {
        const std::uint32_t id = ids[pick(rng)];
        const geo::Point p = engine.center(id);
        try {
          const core::ApplyStats st = engine.apply(
              {core::EcoOp::move(id, {p.x + jump(rng), p.y + jump(rng)})});
          total_s += st.seconds;
          ++applied;
          break;
        } catch (const std::invalid_argument&) {
          // Overlap — retry with a fresh id/displacement.
        }
      }
    }
    std::printf("applied %zu random moves, mean %.4g ms\n", applied,
                applied > 0 ? 1e3 * total_s / static_cast<double>(applied)
                            : 0.0);
  }

  if (e.verify) {
    const double drift = engine.rebuild();
    std::printf("verify: full recompute drift %.3g MPa\n", drift);
  }
  if (!e.save_snapshot_path.empty()) {
    io::save_engine_state(e.save_snapshot_path, engine);
    std::printf("saved engine snapshot to %s\n",
                e.save_snapshot_path.c_str());
  }
  if (!c.out_path.empty())
    write_field_csv(c.out_path, engine.grid().points(), engine.total_field(),
                    c.measure);
  return 0;
}

// --- variation -----------------------------------------------------------

bool parse_variation_flag(const std::string& arg, VariationCliOptions& v) {
  const auto value = [&](const char* prefix) {
    return arg.substr(std::strlen(prefix));
  };
  if (arg.rfind("--samples=", 0) == 0) {
    v.samples = std::stoul(value("--samples="));
  } else if (arg.rfind("--jitter-tsvs=", 0) == 0) {
    v.jitter_tsvs = std::stoul(value("--jitter-tsvs="));
  } else if (arg.rfind("--jitter-sigma=", 0) == 0) {
    v.jitter_sigma = std::stod(value("--jitter-sigma="));
  } else if (arg.rfind("--cte-sigma=", 0) == 0) {
    v.cte_sigma = std::stod(value("--cte-sigma="));
  } else if (arg.rfind("--corners=", 0) == 0) {
    v.corners = value("--corners=");
  } else if (arg == "--parallel-corners") {
    v.parallel_corners = true;
  } else {
    return false;
  }
  return true;
}

/// Per-point statistics CSV of one corner result:
/// x,y,mean,sigma,q<levels...>,p_gt_<thresholds...>.
void write_variation_csv(const std::string& path,
                         const geo::SampleGrid& grid,
                         const stats::VariationOptions& options,
                         const stats::CornerResult& res) {
  io::CsvWriter csv(path);
  std::vector<std::string> columns{"x", "y", "mean", "sigma"};
  char buf[64];
  for (const double q : options.quantiles) {
    std::snprintf(buf, sizeof(buf), "q%02.0f", 100.0 * q);
    columns.emplace_back(buf);
  }
  for (const double t : options.thresholds) {
    std::snprintf(buf, sizeof(buf), "p_gt_%g", t);
    columns.emplace_back(buf);
  }
  csv.header(columns);
  std::vector<double> row(columns.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const geo::Point p = grid.point(i);
    std::size_t col = 0;
    row[col++] = p.x;
    row[col++] = p.y;
    row[col++] = res.mean[i];
    row[col++] = res.sigma[i];
    for (const auto& q : res.quantile) row[col++] = q[i];
    for (const auto& ex : res.exceedance) row[col++] = ex[i];
    csv.row(row);
  }
}

int run_variation(const std::vector<std::string>& args) {
  constexpr const char* kUsage =
      "usage: tsvstress_cli variation <placement.tsv> [--samples=N] "
      "[--seed=S] [--jitter-tsvs=K] [--jitter-sigma=X] [--cte-sigma=X] "
      "[--corners=none|materials|geometry] [--parallel-corners] "
      "[--surrogate] [--threads=N] [--spacing=X] [--margin=X] [--out=FILE]";
  CommonOptions c;
  EcoOptions e;
  e.seed = 1;  // the sampler's documented default, not eco's move seed
  VariationCliOptions v;
  for (const std::string& arg : args) {
    if (arg.rfind("--", 0) == 0) {
      if (!parse_variation_flag(arg, v) && !parse_flag(arg, c, e))
        throw std::invalid_argument("unknown option: " + arg + "\n" + kUsage);
    } else if (c.placement_path.empty()) {
      c.placement_path = arg;
    } else {
      throw std::invalid_argument("unexpected argument: " + arg + "\n" +
                                  kUsage);
    }
  }
  if (c.placement_path.empty()) throw std::invalid_argument(kUsage);
  if (c.out_path.empty()) c.out_path = "variation.csv";
  v.seed = e.seed;

  const tsvlib::Placement placement =
      tsvlib::read_placement_file(c.placement_path);
  placement.validate_no_overlap();
  std::printf("placement: %zu TSVs, min pitch %.2f um\n", placement.size(),
              placement.min_pitch());

  stats::VariationSpec spec;
  spec.seed = v.seed;
  spec.samples = v.samples;
  spec.jitter_tsvs = std::min(v.jitter_tsvs, placement.size());
  spec.jitter_sigma = v.jitter_sigma;
  spec.cte_sigma = v.cte_sigma;
  if (v.corners == "materials") {
    spec.corners = stats::material_corners(placement.structure());
  } else if (v.corners == "geometry") {
    spec.corners = stats::geometry_corners(placement.structure(), 0.25, 0.1);
  } else if (v.corners != "none") {
    throw std::invalid_argument("unknown --corners mode: " + v.corners +
                                "\n" + kUsage);
  }

  stats::VariationOptions options;
  options.engine.enable_interactive = !c.ls_only;
  options.num_threads = c.threads;
  options.parallel_corners = v.parallel_corners;
  options.fit_surrogate = c.surrogate && !c.ls_only;

  const geo::Box roi = placement.bounding_box().expanded(c.margin);
  const geo::SampleGrid grid = geo::SampleGrid::with_spacing(roi, c.spacing);
  std::printf("grid: %zu x %zu points, spacing %.3g um; %zu samples, "
              "jittering %zu TSVs per sample\n",
              grid.nx(), grid.ny(), c.spacing, spec.samples,
              spec.jitter_tsvs);

  stats::VariationEngine engine(placement, grid, spec, options);
  const std::vector<stats::CornerResult> results = engine.run();

  for (const stats::CornerResult& res : results) {
    const double ms_per_sample =
        res.samples > 0
            ? 1e3 * res.sample_seconds / static_cast<double>(res.samples)
            : 0.0;
    std::printf("corner %s: %zu samples in %.3f s (%.3g ms/sample, "
                "build %.3f s)\n",
                res.name.c_str(), res.samples, res.sample_seconds,
                ms_per_sample, res.build_seconds);
    std::printf("  peak von Mises: mean %.1f MPa, sigma %.2f, max %.1f\n",
                res.sample_peak.mean(), res.sample_peak.stddev(),
                res.sample_peak.max());
    if (res.pitch_fit.ok)
      std::printf("  pitch vs local peak: slope %.3f MPa/um, r %.3f "
                  "(n=%llu)\n",
                  res.pitch_fit.slope, res.pitch_fit.r,
                  static_cast<unsigned long long>(res.pitch_fit.n));
    std::printf("  statistical KOZ (P(vm>%g) >= %g): mean radius %.2f um, "
                "worst %.2f um (tsv %zu), total area %.0f um^2\n",
                options.koz_limit, options.koz_alpha, res.koz.mean_radius,
                res.koz.worst_radius, res.koz.worst_tsv,
                res.koz.total_area);

    std::string out = c.out_path;
    if (results.size() > 1) {
      const std::size_t dot = out.rfind('.');
      const std::string stem = dot == std::string::npos ? out
                                                        : out.substr(0, dot);
      const std::string ext =
          dot == std::string::npos ? ".csv" : out.substr(dot);
      out = stem + "." + res.name + ext;
    }
    write_variation_csv(out, grid, options, res);
    std::printf("  wrote %s\n", out.c_str());
  }
  return 0;
}

// --- snapshot ------------------------------------------------------------

int run_snapshot(const std::vector<std::string>& args) {
  constexpr const char* kUsage =
      "usage: tsvstress_cli snapshot save <placement.tsv> [--out=FILE] "
      "[eval flags]\n"
      "       tsvstress_cli snapshot info <file.snap>";
  if (args.empty()) throw std::invalid_argument(kUsage);
  const std::string verb = args[0];
  const std::vector<std::string> rest(args.begin() + 1, args.end());

  if (verb == "info") {
    if (rest.size() != 1) throw std::invalid_argument(kUsage);
    const io::SnapshotInfo info = io::read_snapshot_info(rest[0]);
    std::printf("%s: kind %s, format version %u, payload %llu bytes, "
                "checksum %016llx (valid)\n",
                rest[0].c_str(), io::to_string(info.kind), info.version,
                static_cast<unsigned long long>(info.payload_bytes),
                static_cast<unsigned long long>(info.checksum));
    return 0;
  }
  if (verb == "save") {
    CommonOptions c;
    EcoOptions e;
    parse_args(rest, c, e, kUsage);
    if (c.placement_path.empty()) throw std::invalid_argument(kUsage);
    if (c.out_path.empty()) c.out_path = "engine.snap";
    const core::IncrementalEngine engine = build_engine(c);
    io::save_engine_state(c.out_path, engine);
    const io::SnapshotInfo info = io::read_snapshot_info(c.out_path);
    std::printf("saved engine snapshot to %s (%llu payload bytes)\n",
                c.out_path.c_str(),
                static_cast<unsigned long long>(info.payload_bytes));
    return 0;
  }
  throw std::invalid_argument("unknown snapshot verb: " + verb + "\n" +
                              kUsage);
}

// --- client --------------------------------------------------------------

server::Client connect_client(const std::string& endpoint) {
  if (endpoint.empty())
    throw std::invalid_argument("--connect=unix:PATH or --connect=HOST:PORT "
                                "is required");
  if (endpoint.rfind("unix:", 0) == 0)
    return server::Client::connect_unix(endpoint.substr(5));
  const auto colon = endpoint.rfind(':');
  if (colon == std::string::npos)
    throw std::invalid_argument("--connect needs unix:PATH or HOST:PORT, got " +
                                endpoint);
  return server::Client::connect_tcp(endpoint.substr(0, colon),
                                     std::stoi(endpoint.substr(colon + 1)));
}

server::RetryingClient retrying_client(const std::string& endpoint,
                                       server::RetryPolicy policy) {
  if (endpoint.rfind("unix:", 0) == 0)
    return server::RetryingClient::unix_endpoint(endpoint.substr(5), policy);
  const auto colon = endpoint.rfind(':');
  if (colon == std::string::npos)
    throw std::invalid_argument("--connect needs unix:PATH or HOST:PORT, got " +
                                endpoint);
  return server::RetryingClient::tcp_endpoint(
      endpoint.substr(0, colon), std::stoi(endpoint.substr(colon + 1)),
      policy);
}

server::JsonValue delta_to_json(const core::Delta& delta) {
  server::JsonValue ops = server::JsonValue::array();
  for (const core::EcoOp& o : delta) {
    server::JsonValue row = server::JsonValue::object();
    switch (o.kind) {
      case core::EcoOp::Kind::kAdd:
        row.set("op", server::JsonValue("add"));
        row.set("x", server::JsonValue(o.center.x));
        row.set("y", server::JsonValue(o.center.y));
        break;
      case core::EcoOp::Kind::kMove:
        row.set("op", server::JsonValue("move"));
        row.set("id", server::JsonValue(o.id));
        row.set("x", server::JsonValue(o.center.x));
        row.set("y", server::JsonValue(o.center.y));
        break;
      case core::EcoOp::Kind::kRemove:
        row.set("op", server::JsonValue("remove"));
        row.set("id", server::JsonValue(o.id));
        break;
    }
    ops.items().push_back(std::move(row));
  }
  return ops;
}

int run_client(const std::vector<std::string>& args) {
  constexpr const char* kUsage =
      "usage: tsvstress_cli client --connect=unix:PATH|HOST:PORT <op> "
      "[options]\n"
      "  ops: ping | open | query | region | koz | eco | stats | evict | "
      "close | shutdown\n"
      "  open:   --session=S --placement=FILE [--spacing=X] [--margin=X]\n"
      "          [--surrogate]\n"
      "  query:  --session=S --at=X,Y [--at=X,Y ...] [--measure=M]\n"
      "  region: --session=S [--box=x0,y0,x1,y1] [--measure=M] [--out=CSV]\n"
      "  koz:    --session=S [--limit=MPa] [--rays=N] [--radial-step=X]\n"
      "          [--max-radius=X] [--measure=M]\n"
      "  eco:    --session=S --edits=FILE [--seq=N]  (same script as eco;\n"
      "          --seq makes the batch idempotent under retry)\n"
      "  evict/close: --session=S [--discard]\n"
      "  any op: --retries=N  retry transport failures with reconnect +\n"
      "          jittered backoff (retry-safe requests only)";
  std::string connect;
  std::string op;
  std::string session;
  std::string placement_file;
  std::string edits_file;
  std::string out_path;
  std::string measure;
  std::string box;
  std::vector<geo::Point> at;
  double spacing = 0.0, margin = -1.0;
  double limit = 0.0, radial_step = 0.0, max_radius = 0.0, rays = 0.0;
  bool surrogate = false, discard = false;
  std::uint64_t seq = 0;
  int retries = 0;
  for (const std::string& arg : args) {
    const auto value = [&](const char* prefix) {
      return arg.substr(std::strlen(prefix));
    };
    if (arg.rfind("--connect=", 0) == 0) connect = value("--connect=");
    else if (arg.rfind("--session=", 0) == 0) session = value("--session=");
    else if (arg.rfind("--placement=", 0) == 0)
      placement_file = value("--placement=");
    else if (arg.rfind("--edits=", 0) == 0) edits_file = value("--edits=");
    else if (arg.rfind("--out=", 0) == 0) out_path = value("--out=");
    else if (arg.rfind("--measure=", 0) == 0) measure = value("--measure=");
    else if (arg.rfind("--box=", 0) == 0) box = value("--box=");
    else if (arg.rfind("--at=", 0) == 0) {
      geo::Point p;
      if (std::sscanf(value("--at=").c_str(), "%lf,%lf", &p.x, &p.y) != 2)
        throw std::invalid_argument("--at needs X,Y");
      at.push_back(p);
    } else if (arg.rfind("--spacing=", 0) == 0)
      spacing = std::stod(value("--spacing="));
    else if (arg.rfind("--margin=", 0) == 0)
      margin = std::stod(value("--margin="));
    else if (arg.rfind("--limit=", 0) == 0) limit = std::stod(value("--limit="));
    else if (arg.rfind("--rays=", 0) == 0) rays = std::stod(value("--rays="));
    else if (arg.rfind("--radial-step=", 0) == 0)
      radial_step = std::stod(value("--radial-step="));
    else if (arg.rfind("--max-radius=", 0) == 0)
      max_radius = std::stod(value("--max-radius="));
    else if (arg.rfind("--seq=", 0) == 0)
      seq = std::stoull(value("--seq="));
    else if (arg.rfind("--retries=", 0) == 0)
      retries = std::stoi(value("--retries="));
    else if (arg == "--surrogate") surrogate = true;
    else if (arg == "--discard") discard = true;
    else if (arg.rfind("--", 0) == 0)
      throw std::invalid_argument("unknown option: " + arg + "\n" + kUsage);
    else if (op.empty()) op = arg;
    else throw std::invalid_argument("unexpected argument: " + arg);
  }
  if (op.empty()) throw std::invalid_argument(kUsage);

  server::JsonValue req = session.empty()
                              ? server::Client::request(op)
                              : server::Client::request(op, session);
  if (op == "open") {
    if (placement_file.empty())
      throw std::invalid_argument("open needs --placement=FILE");
    std::ifstream in(placement_file);
    if (!in)
      throw InvalidInputError("cannot open placement: " + placement_file);
    std::ostringstream text;
    text << in.rdbuf();
    req.set("placement", server::JsonValue(text.str()));
    if (spacing > 0.0) req.set("spacing", server::JsonValue(spacing));
    if (margin >= 0.0) req.set("margin", server::JsonValue(margin));
    if (surrogate) req.set("surrogate", server::JsonValue(true));
  } else if (op == "query") {
    if (at.empty()) throw std::invalid_argument("query needs --at=X,Y");
    server::JsonValue points = server::JsonValue::array();
    for (const geo::Point& p : at) {
      server::JsonValue xy = server::JsonValue::array();
      xy.items().push_back(server::JsonValue(p.x));
      xy.items().push_back(server::JsonValue(p.y));
      points.items().push_back(std::move(xy));
    }
    req.set("points", std::move(points));
    if (!measure.empty()) req.set("measure", server::JsonValue(measure));
  } else if (op == "region") {
    if (!box.empty()) {
      double x0, y0, x1, y1;
      if (std::sscanf(box.c_str(), "%lf,%lf,%lf,%lf", &x0, &y0, &x1, &y1) !=
          4)
        throw std::invalid_argument("--box needs x0,y0,x1,y1");
      req.set("x0", server::JsonValue(x0));
      req.set("y0", server::JsonValue(y0));
      req.set("x1", server::JsonValue(x1));
      req.set("y1", server::JsonValue(y1));
    }
    if (!measure.empty()) req.set("measure", server::JsonValue(measure));
  } else if (op == "koz") {
    if (!measure.empty()) req.set("measure", server::JsonValue(measure));
    if (limit > 0.0) req.set("limit", server::JsonValue(limit));
    if (rays > 0.0) req.set("rays", server::JsonValue(rays));
    if (radial_step > 0.0)
      req.set("radial_step", server::JsonValue(radial_step));
    if (max_radius > 0.0) req.set("max_radius", server::JsonValue(max_radius));
  } else if (op == "eco") {
    if (edits_file.empty()) throw std::invalid_argument("eco needs --edits=");
    req.set("ops", delta_to_json(read_edit_script(edits_file)));
    if (seq > 0) req.set("seq", server::JsonValue(static_cast<double>(seq)));
  } else if (op == "close") {
    if (discard) req.set("discard", server::JsonValue(true));
  }

  server::JsonValue resp;
  if (retries > 0) {
    if (connect.empty())
      throw std::invalid_argument(
          "--connect=unix:PATH or --connect=HOST:PORT is required");
    server::RetryPolicy policy;
    policy.max_attempts = retries + 1;
    server::RetryingClient client = retrying_client(connect, policy);
    resp = client.call(req);
  } else {
    server::Client client = connect_client(connect);
    resp = client.call(req);
  }
  if (op == "query") {
    const auto& xs = resp.at("x").as_array();
    const auto& ys = resp.at("y").as_array();
    const auto& vs = resp.at("value").as_array();
    for (std::size_t i = 0; i < vs.size(); ++i)
      std::printf("%.17g %.17g %.17g\n", xs[i].as_number(), ys[i].as_number(),
                  vs[i].as_number());
  } else if (op == "region" && !out_path.empty()) {
    const auto nx = static_cast<std::size_t>(resp.at("nx").as_number());
    const auto ny = static_cast<std::size_t>(resp.at("ny").as_number());
    const double x0 = resp.at("x0").as_number();
    const double y0 = resp.at("y0").as_number();
    const double dx = resp.at("dx").as_number();
    const double dy = resp.at("dy").as_number();
    const auto& vs = resp.at("value").as_array();
    std::ofstream out(out_path);
    if (!out) throw InvalidInputError("cannot write " + out_path);
    out << "x_um,y_um,value\n";
    char line[96];
    for (std::size_t iy = 0; iy < ny; ++iy)
      for (std::size_t ix = 0; ix < nx; ++ix) {
        std::snprintf(line, sizeof(line), "%.17g,%.17g,%.17g\n",
                      x0 + static_cast<double>(ix) * dx,
                      y0 + static_cast<double>(iy) * dy,
                      vs[iy * nx + ix].as_number());
        out << line;
      }
    std::printf("wrote %zu points to %s\n", nx * ny, out_path.c_str());
  } else {
    std::printf("%s\n", resp.dump().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kUsage =
      "usage: tsvstress_cli <evaluate|eco|variation|snapshot|client> ...\n"
      "       tsvstress_cli <placement.tsv> [options]   (implicit evaluate)";
  try {
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) throw std::invalid_argument(kUsage);
    const std::string& cmd = args[0];
    const std::vector<std::string> rest(args.begin() + 1, args.end());
    if (cmd == "evaluate") return run_evaluate(rest);
    if (cmd == "eco") return run_eco(rest);
    if (cmd == "variation") return run_variation(rest);
    if (cmd == "snapshot") return run_snapshot(rest);
    if (cmd == "client") return run_client(rest);
    // Flat invocation: first argument is the placement file.
    return run_evaluate(args);
  } catch (const tsv::Error& e) {
    std::fprintf(stderr, "error [%s]: %s\n", tsv::to_string(e.category()),
                 e.what());
    return tsv::exit_code(e.category());
  } catch (const std::invalid_argument& e) {
    // Bad flags / call-contract violations are the user's input too.
    std::fprintf(stderr, "error [invalid-input]: %s\n", e.what());
    return tsv::exit_code(tsv::ErrorCategory::kInvalidInput);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
