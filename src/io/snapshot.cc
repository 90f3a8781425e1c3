#include "io/snapshot.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>

#include "analytic/mode_solver.h"
#include "core/error.h"
#include "core/stress_table.h"
#include "io/atomic_file.h"
#include "io/mapped_file.h"
#include "numeric/fault_injection.h"

namespace tsv::io {
namespace {

constexpr char kMagic[8] = {'T', 'S', 'V', 'S', 'N', 'A', 'P', '\0'};

std::uint64_t fnv1a64(const char* bytes, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(bytes[i]);
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fnv1a64(const std::string& bytes) {
  return fnv1a64(bytes.data(), bytes.size());
}

[[noreturn]] void snapshot_error(const std::string& path,
                                 const std::string& what) {
  throw IoCorruptionError("snapshot '" + path + "': " + what);
}

/// Accumulates a payload; integers and doubles are appended as raw native
/// little-endian bytes.
class Writer {
 public:
  void reserve(std::size_t bytes) { buffer_.reserve(bytes); }
  void u8(std::uint8_t v) { raw(&v, sizeof(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void i32(std::int32_t v) { raw(&v, sizeof(v)); }
  void f64(double v) { raw(&v, sizeof(v)); }
  void size(std::size_t v) { u64(static_cast<std::uint64_t>(v)); }

  void str(const std::string& s) {
    size(s.size());
    buffer_.append(s);
  }
  void f64_vec(const std::vector<double>& v) {
    size(v.size());
    for (const double x : v) f64(x);
  }
  void point(const geo::Point& p) {
    f64(p.x);
    f64(p.y);
  }
  void tensor(const num::SymTensor2& t) {
    f64(t.s11);
    f64(t.s22);
    f64(t.s12);
  }
  void tensor_vec(const std::vector<num::SymTensor2>& v) {
    // Bulk append: the on-disk layout (s11, s22, s12 doubles per tensor) is
    // exactly the in-memory layout, and per-element f64 calls dominate the
    // checkpoint write time on full-chip fields.
    static_assert(sizeof(num::SymTensor2) == 3 * sizeof(double));
    size(v.size());
    raw(v.data(), v.size() * sizeof(num::SymTensor2));
  }

  /// The accumulated payload bytes (for embedding a sub-encoding inside
  /// another container, e.g. the eco journal's open record).
  const std::string& payload() const { return buffer_; }

  /// Writes header + payload + checksum to `path` atomically (temp file +
  /// rename), so a crash mid-save can never leave a torn snapshot behind —
  /// either the previous file survives intact or the new one is complete.
  /// `durable=false` skips the fsync (see atomic_write_file). Returns the
  /// payload checksum — the identity the eco journal anchors replay to.
  std::uint64_t commit(const std::string& path, SnapshotKind kind,
                       bool durable = true) const {
    std::string bytes;
    bytes.reserve(sizeof(kMagic) + 2 * sizeof(std::uint32_t) +
                  2 * sizeof(std::uint64_t) + buffer_.size());
    bytes.append(kMagic, sizeof(kMagic));
    const std::uint32_t kind_u = static_cast<std::uint32_t>(kind);
    const std::uint64_t payload = buffer_.size();
    const std::uint64_t checksum = fnv1a64(buffer_);
    const auto append_pod = [&](const auto& v) {
      bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    append_pod(kSnapshotVersion);
    append_pod(kind_u);
    append_pod(payload);
    bytes.append(buffer_);
    append_pod(checksum);
    atomic_write_file(path, bytes, durable);
    return checksum;
  }

 private:
  void raw(const void* p, std::size_t n) {
    if (n != 0) buffer_.append(static_cast<const char*>(p), n);
  }
  std::string buffer_;
};

/// Validated payload cursor: every get_* bounds-checks before reading, so
/// malformed payloads fail with a clear error instead of reading garbage.
/// Non-owning: decodes straight out of the caller's buffer (a MappedFile
/// for snapshot loads, a std::string for embedded payloads), which must
/// outlive the Reader.
class Reader {
 public:
  Reader(const char* payload, std::size_t payload_size, std::string path)
      : payload_(payload),
        payload_size_(payload_size),
        path_(std::move(path)) {}

  Reader(const std::string& payload, std::string path)
      : Reader(payload.data(), payload.size(), std::move(path)) {}

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int32_t i32() { return get<std::int32_t>(); }
  double f64() { return get<double>(); }
  std::size_t size() {
    const std::uint64_t n = u64();
    // An impossible element count (larger than the remaining payload)
    // means a corrupt length field; fail before trying to allocate it.
    if (n > payload_size_ - cursor_)
      snapshot_error(path_, "malformed payload (impossible element count)");
    return static_cast<std::size_t>(n);
  }

  std::string str() {
    const std::size_t n = size();
    need(n);
    std::string s(payload_ + cursor_, n);
    cursor_ += n;
    return s;
  }
  std::vector<double> f64_vec() {
    const std::size_t n = size();
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = f64();
    return v;
  }
  geo::Point point() {
    geo::Point p;
    p.x = f64();
    p.y = f64();
    return p;
  }
  num::SymTensor2 tensor() {
    num::SymTensor2 t;
    t.s11 = f64();
    t.s22 = f64();
    t.s12 = f64();
    return t;
  }
  std::vector<num::SymTensor2> tensor_vec() {
    // Bulk read, mirroring Writer::tensor_vec (same byte layout).
    const std::size_t n = size();
    std::vector<num::SymTensor2> v(n);
    const std::size_t bytes = n * sizeof(num::SymTensor2);
    need(bytes);
    // n == 0 leaves v.data() null, and memcpy's pointer arguments must be
    // valid even for a zero count (UBSan enforces this).
    if (bytes != 0) std::memcpy(v.data(), payload_ + cursor_, bytes);
    cursor_ += bytes;
    return v;
  }

  void expect_end() const {
    if (cursor_ != payload_size_)
      snapshot_error(path_, "malformed payload (trailing bytes)");
  }

 private:
  template <typename T>
  T get() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, payload_ + cursor_, sizeof(T));
    cursor_ += sizeof(T);
    return v;
  }
  void need(std::size_t n) const {
    if (cursor_ + n > payload_size_)
      snapshot_error(path_, "malformed payload (truncated field)");
  }

  const char* payload_ = nullptr;
  std::size_t payload_size_ = 0;
  std::string path_;
  std::size_t cursor_ = 0;
};

/// A validated, still-open snapshot file: `reader` decodes directly out of
/// the mapping, so this object must stay alive until decoding finishes.
struct OpenedSnapshot {
  MappedFile file;
  SnapshotInfo info;
  Reader reader;
};

/// Maps the file and validates magic, version, kind, size, and checksum. The
/// returned reader points into the mapping — no heap copy of the payload.
OpenedSnapshot read_file(const std::string& path) {
  MappedFile file(path);
  const char* bytes = file.data();
  const std::size_t total = file.size();

  constexpr std::size_t kHeader = sizeof(kMagic) + 2 * sizeof(std::uint32_t) +
                                  sizeof(std::uint64_t);
  if (total < kHeader + sizeof(std::uint64_t))
    snapshot_error(path, "truncated file (shorter than the header)");
  if (std::memcmp(bytes, kMagic, sizeof(kMagic)) != 0)
    snapshot_error(path, "not a tsvstress snapshot (bad magic)");

  SnapshotInfo info;
  std::size_t off = sizeof(kMagic);
  const auto read_pod = [&](auto& v) {
    std::memcpy(&v, bytes + off, sizeof(v));
    off += sizeof(v);
  };
  std::uint32_t kind_u = 0;
  read_pod(info.version);
  read_pod(kind_u);
  read_pod(info.payload_bytes);
  info.kind = static_cast<SnapshotKind>(kind_u);

  if (info.version != kSnapshotVersion) {
    std::ostringstream os;
    os << "format version mismatch: file has version " << info.version
       << ", this build reads version " << kSnapshotVersion;
    snapshot_error(path, os.str());
  }
  if (kind_u < static_cast<std::uint32_t>(SnapshotKind::kEngineState) ||
      kind_u > static_cast<std::uint32_t>(SnapshotKind::kSurrogate))
    snapshot_error(path, "unknown object kind " + std::to_string(kind_u));
  if (total != off + info.payload_bytes + sizeof(std::uint64_t))
    snapshot_error(path, "truncated file (payload size does not match)");

  const char* payload = bytes + off;
  const std::size_t payload_bytes =
      static_cast<std::size_t>(info.payload_bytes);
  std::uint64_t stored = 0;
  std::memcpy(&stored, payload + payload_bytes, sizeof(stored));
  info.checksum = stored;
  const std::uint64_t computed = fnv1a64(payload, payload_bytes);
  if (computed != stored) {
    std::ostringstream os;
    os << "checksum mismatch (file is corrupt): stored " << std::hex << stored
       << ", computed " << computed;
    snapshot_error(path, os.str());
  }
  Reader reader(payload, payload_bytes, path);
  return OpenedSnapshot{std::move(file), info, std::move(reader)};
}

OpenedSnapshot open_kind(const std::string& path, SnapshotKind expected) {
  OpenedSnapshot opened = read_file(path);
  if (opened.info.kind != expected) {
    std::ostringstream os;
    os << "kind mismatch: expected " << to_string(expected) << ", file holds "
       << to_string(opened.info.kind);
    snapshot_error(path, os.str());
  }
  return opened;
}

// --- shared sub-encoders -------------------------------------------------

void put_material(Writer& w, const mat::Material& m) {
  w.str(m.name);
  w.f64(m.youngs_modulus);
  w.f64(m.poisson_ratio);
  w.f64(m.cte);
}

mat::Material get_material(Reader& r) {
  mat::Material m;
  m.name = r.str();
  m.youngs_modulus = r.f64();
  m.poisson_ratio = r.f64();
  m.cte = r.f64();
  return m;
}

void put_structure(Writer& w, const tsvlib::TsvStructure& s) {
  w.f64(s.body_radius);
  w.f64(s.liner_thickness);
  w.f64(s.landing_pad);
  put_material(w, s.body);
  put_material(w, s.liner);
  put_material(w, s.substrate);
}

tsvlib::TsvStructure get_structure(Reader& r) {
  tsvlib::TsvStructure s;
  s.body_radius = r.f64();
  s.liner_thickness = r.f64();
  s.landing_pad = r.f64();
  s.body = get_material(r);
  s.liner = get_material(r);
  s.substrate = get_material(r);
  s.validate();
  return s;
}

void put_radial_table(Writer& w, const core::RadialStressTable& t) {
  w.f64(t.max_radius());
  w.f64_vec(t.srr());
  w.f64_vec(t.stt());
}

core::RadialStressTable get_radial_table(Reader& r) {
  const double max_radius = r.f64();
  std::vector<double> srr = r.f64_vec();
  std::vector<double> stt = r.f64_vec();
  return core::RadialStressTable(std::move(srr), std::move(stt), max_radius);
}

void put_surrogate(Writer& w, const ana::PairSurrogate& surrogate) {
  const ana::PairSurrogate::Data d = surrogate.to_data();
  w.f64(d.pitch_min);
  w.f64(d.pitch_max);
  w.f64(d.r_max);
  w.size(d.pitch_order);
  w.size(d.segments.size());
  for (const auto& seg : d.segments) {
    w.u8(seg.inverse_radial ? 1 : 0);
    w.f64(seg.r0);
    w.f64(seg.r1);
    w.size(seg.nr);
    w.size(seg.nx);
    w.f64_vec(seg.coeffs);
  }
  const ana::SurrogateCertificate& c = d.certificate;
  w.f64(c.pitch_min);
  w.f64(c.pitch_max);
  w.f64(c.r_max);
  w.u64(c.coefficient_count);
  w.u64(c.sample_count);
  w.f64(c.field_scale);
  w.f64(c.max_abs_error);
  w.f64(c.certified_rel_bound);
}

ana::PairSurrogate get_surrogate(Reader& r) {
  ana::PairSurrogate::Data d;
  d.pitch_min = r.f64();
  d.pitch_max = r.f64();
  d.r_max = r.f64();
  d.pitch_order = r.size();
  d.segments.resize(r.size());
  for (auto& seg : d.segments) {
    seg.inverse_radial = r.u8() != 0;
    seg.r0 = r.f64();
    seg.r1 = r.f64();
    seg.nr = r.size();
    seg.nx = r.size();
    seg.coeffs = r.f64_vec();
  }
  ana::SurrogateCertificate& c = d.certificate;
  c.pitch_min = r.f64();
  c.pitch_max = r.f64();
  c.r_max = r.f64();
  c.coefficient_count = r.u64();
  c.sample_count = r.u64();
  c.field_scale = r.f64();
  c.max_abs_error = r.f64();
  c.certified_rel_bound = r.f64();
  return ana::PairSurrogate(std::move(d));
}

}  // namespace

const char* to_string(SnapshotKind kind) {
  switch (kind) {
    case SnapshotKind::kEngineState:
      return "engine-state";
    case SnapshotKind::kTiledCheckpoint:
      return "tiled-checkpoint";
    case SnapshotKind::kSurrogate:
      return "surrogate";
  }
  return "unknown";
}

SnapshotInfo read_snapshot_info(const std::string& path) {
  return read_file(path).info;
}

void save_surrogate(const std::string& path,
                    const ana::PairSurrogate& surrogate) {
  Writer w;
  put_surrogate(w, surrogate);
  w.commit(path, SnapshotKind::kSurrogate);
  // Fault harness: the atomic commit rules out torn writes, so model
  // *external* bit rot (disk/filesystem damage after a successful save) by
  // flipping one payload byte. Loads must reject the file via the checksum
  // and degrade to the exact series path, never evaluate damaged
  // coefficients.
  if (fault::should_fire(fault::Site::kSurrogateCorrupt)) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string bytes = std::move(buf).str();
    bytes[bytes.size() / 2] ^= 0x40;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
}

ana::PairSurrogate load_surrogate(const std::string& path) {
  OpenedSnapshot opened = open_kind(path, SnapshotKind::kSurrogate);
  Reader& r = opened.reader;
  ana::PairSurrogate surrogate = get_surrogate(r);
  r.expect_end();
  return surrogate;
}

std::optional<ana::PairSurrogate> try_load_surrogate(const std::string& path) {
  try {
    return load_surrogate(path);
  } catch (const std::exception&) {
    // Missing, truncated, corrupt, wrong kind, or structurally invalid:
    // the exact series path is always available, so a surrogate snapshot is
    // pure opportunism — skip it rather than fail the run.
    return std::nullopt;
  }
}

std::string encode_placement(const tsvlib::Placement& p) {
  Writer w;
  put_structure(w, p.structure());
  w.size(p.size());
  for (const geo::Point& c : p.centers()) w.point(c);
  return w.payload();
}

tsvlib::Placement decode_placement(const std::string& bytes) {
  Reader r(bytes, "<embedded placement>");
  tsvlib::TsvStructure structure = get_structure(r);
  const std::size_t n = r.size();
  std::vector<geo::Point> centers(n);
  for (geo::Point& c : centers) c = r.point();
  r.expect_end();
  return tsvlib::Placement(structure, std::move(centers));
}

std::uint64_t save_engine_state(const std::string& path,
                                const core::IncrementalEngine& engine) {
  const auto* radial =
      dynamic_cast<const core::RadialStressTable*>(&engine.table());
  TSV_REQUIRE(radial != nullptr,
              "engine snapshots require a RadialStressTable Stage-I field");
  const core::IncrementalEngine::State state = engine.state();
  const core::IncrementalOptions& opt = state.options;

  Writer w;
  put_structure(w, state.structure);
  w.point(state.grid_box.lo);
  w.point(state.grid_box.hi);
  w.size(state.grid_nx);
  w.size(state.grid_ny);
  const std::shared_ptr<const ana::InteractiveStressModel> model =
      engine.model();
  w.f64(opt.influence_radius);
  w.f64(opt.pair_pitch_cutoff);
  w.u8(model != nullptr ? 1 : 0);
  w.size(opt.num_threads);

  // Stage-II characterization: k_hat plus the response options, enough to
  // re-derive the InteractiveStressModel exactly.
  w.f64(model != nullptr ? model->k_hat() : 0.0);
  const ana::InclusionResponseOptions ropt =
      model != nullptr ? model->response().options()
                       : ana::InclusionResponseOptions{};
  w.i32(ropt.max_basis_power);
  w.i32(ropt.series_order);
  w.i32(ropt.collocation_points);

  w.size(state.centers.size());
  for (const geo::Point& c : state.centers) w.point(c);
  for (const std::uint8_t a : state.active) w.u8(a);
  w.tensor_vec(state.stage1);
  w.tensor_vec(state.stage2);

  put_radial_table(w, *radial);

  // Optional embedded surrogate: ECO warm starts reuse the
  // fitted-and-certified coefficients instead of refitting per process.
  const std::shared_ptr<const ana::PairSurrogate> surrogate =
      model != nullptr ? model->surrogate() : nullptr;
  w.u8(surrogate != nullptr ? 1 : 0);
  if (surrogate != nullptr) put_surrogate(w, *surrogate);

  return w.commit(path, SnapshotKind::kEngineState);
}

core::IncrementalEngine load_engine_state(const std::string& path) {
  OpenedSnapshot opened = open_kind(path, SnapshotKind::kEngineState);
  Reader& r = opened.reader;
  core::IncrementalEngine::State state;
  state.structure = get_structure(r);
  const geo::Point lo = r.point();
  const geo::Point hi = r.point();
  state.grid_box = geo::Box{lo, hi};
  state.grid_nx = r.size();
  state.grid_ny = r.size();
  core::IncrementalOptions& opt = state.options;
  opt.influence_radius = r.f64();
  opt.pair_pitch_cutoff = r.f64();
  const bool has_model = r.u8() != 0;
  opt.num_threads = r.size();

  const double k_hat = r.f64();
  ana::InclusionResponseOptions ropt;
  ropt.max_basis_power = r.i32();
  ropt.series_order = r.i32();
  ropt.collocation_points = r.i32();

  const std::size_t slots = r.size();
  state.centers.resize(slots);
  for (geo::Point& c : state.centers) c = r.point();
  state.active.resize(slots);
  for (std::uint8_t& a : state.active) a = r.u8();
  state.stage1 = r.tensor_vec();
  state.stage2 = r.tensor_vec();

  auto table =
      std::make_shared<const core::RadialStressTable>(get_radial_table(r));
  std::shared_ptr<const ana::PairSurrogate> surrogate;
  if (r.u8() != 0)
    surrogate = std::make_shared<const ana::PairSurrogate>(get_surrogate(r));
  r.expect_end();

  std::shared_ptr<const ana::InteractiveStressModel> model;
  if (has_model) {
    // Re-characterize the inclusion response (cheap next to re-evaluating
    // the fields, which the restored state skips).
    model = std::make_shared<const ana::InteractiveStressModel>(
        std::make_shared<const ana::InclusionResponse>(state.structure, ropt),
        k_hat);
    // Reattach the embedded surrogate; its persisted certificate still
    // gates use per evaluation (surrogate_for checks the bound and domain).
    if (surrogate != nullptr) model->attach_surrogate(std::move(surrogate));
  }
  try {
    return core::IncrementalEngine::restore(
        std::move(state), std::move(table), std::move(model));
  } catch (const InvalidInputError& e) {
    // A checksum-valid payload whose cutoffs no engine may run with.
    snapshot_error(path, e.what());
  }
}

void save_tiled_checkpoint(const std::string& path,
                           const core::TiledCheckpoint& cp) {
  Writer w;
  w.reserve(3 * sizeof(std::uint64_t) +
            cp.stress.size() * sizeof(num::SymTensor2));
  w.u64(cp.fingerprint);
  w.size(cp.tiles_done);
  w.tensor_vec(cp.stress);
  // Not fsynced: a checkpoint defends against a killed run (the page cache
  // survives that), its reader tolerates a damaged file, and the fsync wait
  // would dominate the checkpoint overhead on full-chip fields.
  w.commit(path, SnapshotKind::kTiledCheckpoint, /*durable=*/false);
  // Fault harness: the atomic commit above makes torn writes from crashes
  // impossible, so simulate *external* damage (disk/filesystem corruption
  // after a successful save) by chopping the finished file in half. Resume
  // must survive this by discarding the checkpoint, not by crashing.
  if (fault::should_fire(fault::Site::kCheckpointTruncate)) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string bytes = std::move(buf).str();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
  }
}

core::TiledCheckpoint load_tiled_checkpoint(const std::string& path) {
  OpenedSnapshot opened = open_kind(path, SnapshotKind::kTiledCheckpoint);
  Reader& r = opened.reader;
  core::TiledCheckpoint cp;
  cp.fingerprint = r.u64();
  cp.tiles_done = r.size();
  cp.stress = r.tensor_vec();
  r.expect_end();
  return cp;
}

std::optional<core::TiledCheckpoint> try_load_tiled_checkpoint(
    const std::string& path) {
  // No file is the normal fresh start, not a fallback worth reporting.
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return std::nullopt;
  try {
    return load_tiled_checkpoint(path);
  } catch (const std::exception& e) {
    // Truncated, corrupt, or wrong kind: resume is impossible, restarting
    // from scratch is always correct.
    std::fprintf(stderr, "warning: checkpoint ignored: %s\n", e.what());
    return std::nullopt;
  }
}

core::TiledStats evaluate_with_checkpoint(const core::TiledEvaluator& evaluator,
                                          const geo::SampleGrid& grid,
                                          const core::TileConsumer& consume,
                                          const std::string& checkpoint_path,
                                          std::size_t every_tiles) {
  std::error_code ec;
  const bool present = std::filesystem::exists(checkpoint_path, ec);
  std::optional<core::TiledCheckpoint> resume =
      try_load_tiled_checkpoint(checkpoint_path);
  // A checkpoint from a different configuration (placement, materials,
  // load, grid, tiling, cutoffs, Stage II path) must not be resumed; treat
  // it like a corrupt one and start clean.
  if (resume && resume->fingerprint != evaluator.fingerprint(grid)) {
    std::fprintf(stderr,
                 "warning: checkpoint ignored: '%s' is from another "
                 "placement, structure, grid or configuration\n",
                 checkpoint_path.c_str());
    resume.reset();
  }

  core::CheckpointConfig config;
  config.every_tiles = every_tiles;
  config.writer = [&checkpoint_path](const core::TiledCheckpoint& cp) {
    try {
      save_tiled_checkpoint(checkpoint_path, cp);
    } catch (const std::exception& e) {
      // Checkpoints are insurance, not output: a failed write (disk full,
      // permissions) must not kill the run it is protecting. The previous
      // checkpoint, if any, is still intact thanks to the atomic save.
      std::fprintf(stderr, "warning: checkpoint write failed: %s\n", e.what());
    }
  };
  config.resume = resume ? &*resume : nullptr;
  core::TiledStats stats = evaluator.evaluate(grid, consume, config);
  stats.checkpoints_ignored = present && !resume ? 1 : 0;
  std::remove(checkpoint_path.c_str());
  return stats;
}

}  // namespace tsv::io
