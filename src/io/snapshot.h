#pragma once
// Versioned, checksummed binary snapshots for the framework's expensive
// state: characterized tables, placements, and the incremental engine.
//
// Cold starts pay for every radial-table characterization, the surrogate
// fit, and the full field evaluation; in an ECO loop or a long-lived
// service those are pure re-derivations of state that never changes. A
// snapshot lets a warm start skip them entirely: save once, load in
// milliseconds.
//
// File layout (all integers and IEEE doubles in native little-endian byte
// order, written raw):
//
//   bytes 0..7   magic "TSVSNAP\0"
//   u32          format version (kSnapshotVersion)
//   u32          object kind (SnapshotKind)
//   u64          payload size in bytes
//   ...          payload
//   u64          FNV-1a 64 checksum of the payload
//
// Readers reject wrong magic, wrong version, wrong kind, truncation, and
// checksum mismatches with distinct std::runtime_error messages. Doubles
// are stored bitwise, so save -> load -> save round-trips byte-identically.
// Reads go through a memory-mapped view (io/mapped_file.h) instead of
// double-buffering the file in the heap.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analytic/interaction.h"
#include "analytic/surrogate.h"
#include "core/incremental_engine.h"
#include "core/stress_table.h"
#include "core/tiled_evaluator.h"
#include "tsv/placement.h"

namespace tsv::io {

// Version 5 is the only format this build reads or writes: an engine-state
// payload holds the placement slots, the Stage I/II cutoffs, the engine's
// one thread count, both accumulated f64 fields, the radial table, and an
// optional embedded surrogate. Files of any other version (v4 stored three
// thread counts) are refused with a version-mismatch error; re-create them
// from the placement.
inline constexpr std::uint32_t kSnapshotVersion = 5;

enum class SnapshotKind : std::uint32_t {
  kRadialTable = 1,
  kPlacement = 3,
  kEngineState = 4,
  kTiledCheckpoint = 5,
  kSurrogate = 6,
};

const char* to_string(SnapshotKind kind);

/// Parsed header of a snapshot file (payload checksum already verified).
struct SnapshotInfo {
  std::uint32_t version = 0;
  SnapshotKind kind = SnapshotKind::kRadialTable;
  std::uint64_t payload_bytes = 0;
  std::uint64_t checksum = 0;
};

/// Reads and validates a snapshot header + checksum without decoding the
/// payload (any kind). Throws std::runtime_error on malformed files.
SnapshotInfo read_snapshot_info(const std::string& path);

// --- Stage-I radial table ------------------------------------------------

void save_radial_table(const std::string& path,
                       const core::RadialStressTable& table);
core::RadialStressTable load_radial_table(const std::string& path);

// --- Stage-II certified surrogate ----------------------------------------

/// Saves a fitted surrogate — coefficients plus its SurrogateCertificate —
/// so warm starts skip the fit *and* the certification (the certificate is
/// the recorded verification, protected by the payload checksum).
void save_surrogate(const std::string& path,
                    const ana::PairSurrogate& surrogate);

/// Loads a surrogate snapshot; bitwise the saved one (coefficients and
/// certificate alike). Throws IoCorruptionError on damage.
ana::PairSurrogate load_surrogate(const std::string& path);

/// Best-effort load: nullopt when the file is missing, truncated, corrupt,
/// or not a surrogate — all cases where the right recovery is to keep the
/// exact series path (and optionally re-fit).
std::optional<ana::PairSurrogate> try_load_surrogate(const std::string& path);

// --- Placements ----------------------------------------------------------

void save_placement(const std::string& path, const tsvlib::Placement& p);
tsvlib::Placement load_placement(const std::string& path);

/// In-memory equivalents of save/load_placement: the same payload bytes
/// (structure + bitwise f64 centers) without the file header. The eco
/// journal's open record embeds these so a session can be rebuilt exactly —
/// placement *text* round-trips at print precision, these round-trip bits.
std::string encode_placement(const tsvlib::Placement& p);
tsvlib::Placement decode_placement(const std::string& bytes);

// --- Incremental engine --------------------------------------------------

/// Saves the full warm state of an engine: placement slots, options, both
/// accumulated fields, the Stage-I radial table, the Stage-II model
/// characterization settings (k_hat + response options), and — when one
/// is attached to the model — the fitted certified surrogate (bitwise,
/// certificate included). Requires the engine's single-TSV field to be a
/// RadialStressTable (throws std::invalid_argument otherwise). Returns the payload checksum, which
/// the eco journal records in its anchor so replay can tell whether a
/// journal suffix is already folded into the on-disk snapshot.
std::uint64_t save_engine_state(const std::string& path,
                                const core::IncrementalEngine& engine);

/// Rebuilds an engine from a snapshot without re-evaluating anything: the
/// radial table is decoded, the interactive model is re-characterized from
/// the stored structure/options (with the embedded surrogate reattached),
/// and the accumulated fields are restored verbatim. Cutoffs the engine's
/// constructor would refuse (not finite and positive, or a Stage I radius
/// beyond the table) are rejected with IoCorruptionError.
core::IncrementalEngine load_engine_state(const std::string& path);

// --- Tiled-run checkpoints -----------------------------------------------

void save_tiled_checkpoint(const std::string& path,
                           const core::TiledCheckpoint& cp);
core::TiledCheckpoint load_tiled_checkpoint(const std::string& path);

/// Best-effort load for resume: returns nullopt (instead of throwing) when
/// the file is missing, truncated, corrupt, or not a checkpoint — all cases
/// where the right recovery is to start the run from scratch. Every case but
/// the missing file prints one `warning: checkpoint ignored: ...` line to
/// stderr.
std::optional<core::TiledCheckpoint> try_load_tiled_checkpoint(
    const std::string& path);

/// Runs `evaluator.evaluate(grid, consume)` with crash resilience: resumes
/// from `checkpoint_path` when a usable checkpoint with a matching
/// fingerprint exists (stale/corrupt ones are ignored), writes a fresh
/// checkpoint every `every_tiles` computed tiles, and removes the file once
/// the run completes. Interrupt-and-rerun therefore streams the exact tiles
/// an uninterrupted run would have.
core::TiledStats evaluate_with_checkpoint(const core::TiledEvaluator& evaluator,
                                          const geo::SampleGrid& grid,
                                          const core::TileConsumer& consume,
                                          const std::string& checkpoint_path,
                                          std::size_t every_tiles = 16);

}  // namespace tsv::io
