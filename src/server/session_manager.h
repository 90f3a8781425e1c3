#pragma once
// SessionManager: the engine-state owner behind the stress-service daemon.
//
// Until now every IncrementalEngine lived in a CLI stack frame and died
// with the process; a persistent service needs a long-lived owner with an
// explicit control plane. SessionManager holds N named sessions, each a
// resident core::IncrementalEngine (one per design/user), and provides:
//
//   * Admission control. Every open/reload is budgeted: a session whose
//     estimated resident footprint exceeds the per-session budget is
//     refused with tsv::ResourceLimitError (kResourceLimit -> wire code 5),
//     and the sum of resident sessions is kept under the global budget by
//     evicting least-recently-used idle sessions first — only when nothing
//     evictable remains is the request refused.
//   * Snapshot-backed eviction. Evicting writes the full engine state
//     through io::save_engine_state (fields, table, embedded surrogate)
//     to <snapshot_dir>/<name>.snap and releases the engine; the next
//     request on that session transparently reloads it, bitwise identical
//     (snapshots round-trip byte-exactly).
//   * Crash recovery. Construction scans the snapshot directory: every
//     valid engine-state snapshot becomes an evicted-but-known session, so
//     a restarted daemon serves yesterday's sessions from their last saved
//     state. Corrupt files are skipped (and reported), never trusted.
//   * Durability (write-ahead eco journal). Every eco batch is appended to
//     <snapshot_dir>/<name>.jrnl (checksummed, fsynced by default) after
//     the engine applied it and before the ack, so a SIGKILL cannot lose
//     an acknowledged edit: recovery replays journal-on-top-of-snapshot
//     (or rebuilds from the journal's open record when no snapshot landed
//     yet) and the restarted session is bitwise identical to one that shut
//     down cleanly. Snapshots truncate the journal down to an anchor
//     carrying the snapshot's payload checksum + the sequence watermark;
//     replay starts after the last anchor matching the on-disk snapshot,
//     which keeps the crash window between "snapshot written" and "journal
//     reset" from double-applying. Client-supplied eco sequence numbers
//     are deduped against the journaled watermark, so a retry after a
//     lost ack is acked as a no-op instead of applied twice. If a journal
//     append fails the batch is made durable the expensive way (immediate
//     snapshot + journal reset); only when both fail does the eco error
//     out — with the watermark advanced, so even then a retry dedupes
//     instead of double-applying, and the duplicate ack is withheld until
//     a fresh snapshot lands (the retry re-attempts durability).
//
// Concurrency contract (mirrors the repo's determinism rules): each session
// has its own work mutex, so all engine use — edits *and* queries — is
// serialized per session while independent sessions proceed concurrently on
// their own connections. Engines are built and applied with num_threads=1
// (a build's field is the same bits at any thread count), so every
// per-session result is bitwise reproducible regardless of how requests
// interleave across sessions (test_server_concurrent locks this).
// The manager mutex only guards the session map, LRU clock, and memory
// accounting; it is never held across an engine evaluation. A session's
// work mutex is always taken before the manager mutex (open() locks its new
// session's before registering it), and eviction locks its victim with
// try_lock, so a session actively serving a request is never evicted out
// from under it and lock order cannot cycle.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/incremental_engine.h"
#include "tsv/placement.h"

namespace tsv::server {

struct SessionLimits {
  std::size_t max_sessions = 16;  ///< resident engines at once
  std::uint64_t session_budget_bytes = 512ull << 20;
  std::uint64_t global_budget_bytes = 2048ull << 20;
};

/// How to build a session's engine from a placement (the eco subset of the
/// CLI's evaluation knobs; everything is forced serial for determinism).
struct SessionSpec {
  double spacing = 0.5;  ///< grid spacing, um
  double margin = 25.0;  ///< halo around the placement bounding box, um
  bool surrogate = false;  ///< fit + attach the certified surrogate
  /// fsync the eco journal on every acked batch (full durability). false
  /// trades power-loss durability for eco latency: process death still
  /// cannot lose an acked batch (the page cache survives it), only a
  /// machine-level crash can. Persisted in the journal header.
  bool journal_fsync = true;
};

/// Monotonic per-session counters, exposed by the stats endpoint.
struct SessionCounters {
  std::uint64_t queries = 0;        ///< point-query requests
  std::uint64_t points = 0;         ///< points served across queries
  std::uint64_t regions = 0;        ///< region-map requests
  std::uint64_t koz_queries = 0;    ///< KOZ contour requests
  std::uint64_t edits = 0;          ///< eco batches applied
  std::uint64_t eco_ops = 0;        ///< individual ops across batches
  std::uint64_t evictions = 0;      ///< times snapshot-evicted
  std::uint64_t reloads = 0;        ///< transparent snapshot reloads
  std::uint64_t journaled = 0;      ///< batches made durable via the journal
  std::uint64_t duplicates = 0;     ///< deduped eco retries (no-op acks)
  std::uint64_t replays = 0;        ///< batches replayed at reload/recovery
  std::uint64_t journal_fallbacks = 0;  ///< durable via snapshot instead
};

struct SessionStats {
  std::string name;
  bool resident = false;
  std::size_t tsvs = 0;         ///< active TSVs (0 when evicted)
  std::size_t grid_points = 0;  ///< 0 when evicted
  std::uint64_t estimated_bytes = 0;
  SessionCounters counters;
  bool has_surrogate = false;
};

struct ManagerStats {
  std::size_t resident_sessions = 0;
  std::size_t evicted_sessions = 0;
  std::uint64_t resident_bytes = 0;
  std::uint64_t session_budget_bytes = 0;
  std::uint64_t global_budget_bytes = 0;
  std::uint64_t admission_refusals = 0;
  std::uint64_t evictions = 0;  ///< global, including forced ones
  std::uint64_t reloads = 0;
  std::uint64_t journal_replays = 0;     ///< eco batches replayed, global
  std::uint64_t journal_torn_tails = 0;  ///< damaged tails cut back
  std::uint64_t journal_fallbacks = 0;   ///< appends degraded to snapshots
  std::uint64_t durability_failures = 0;  ///< both paths failed (eco errored)
  std::vector<SessionStats> sessions;
};

/// Conservative estimate of an engine's resident footprint: the two
/// per-point tensor fields (which dominate at full-chip grids), placement
/// slots, the radial table, and the surrogate coefficients. Used for
/// admission and for the stats endpoint's RSS estimate.
std::uint64_t estimate_engine_bytes(const core::IncrementalEngine& engine);

class SessionManager {
 public:
  /// `snapshot_dir` must exist; it is scanned for engine-state snapshots
  /// (crash recovery — see header comment).
  SessionManager(std::string snapshot_dir, SessionLimits limits);

  const SessionLimits& limits() const { return limits_; }
  const std::string& snapshot_dir() const { return snapshot_dir_; }
  /// Session names recovered from snapshots at construction.
  const std::vector<std::string>& recovered() const { return recovered_; }

  /// Builds a new resident session. Throws InvalidInputError on a duplicate
  /// or invalid name, ResourceLimitError when admission fails.
  void open(const std::string& name, const tsvlib::Placement& placement,
            const SessionSpec& spec);

  class Session;

  /// Outcome of one Guard::apply_eco call.
  struct EcoResult {
    bool duplicate = false;  ///< sequence already applied; nothing done
    /// The journal append failed, so the batch was made durable via an
    /// immediate snapshot instead (slow but safe).
    bool journal_fallback = false;
    core::ApplyStats stats;      ///< zeros when duplicate
    std::size_t pre_slots = 0;   ///< slot count before the batch (add ids)
    /// Whether pre_slots is meaningful, i.e. the caller can derive the
    /// slot ids this batch's adds allocated. Always true for a fresh
    /// apply; true for a duplicate only when it retries the *newest*
    /// applied batch (ids reconstruct from the live slot count — older
    /// batches' ids are unknowable after later applies).
    bool ids_known = true;
  };

  /// Exclusive access to a session's engine for the duration of one
  /// request. Acquiring the guard transparently reloads an evicted session
  /// from its snapshot + journal (counting a reload) and bumps the LRU
  /// clock.
  class Guard {
   public:
    core::IncrementalEngine& engine();
    /// Applies one eco batch with the durability contract: dedupe by
    /// `sequence` (0 = no idempotency token), apply, journal, then return
    /// — callers ack only after this returns, so every acked batch is
    /// recoverable. Throws InvalidInputError (batch invalid, nothing
    /// applied or journaled) or IoCorruptionError (applied in memory but
    /// could not be made durable; the sequence watermark still advanced,
    /// so a retry dedupes instead of double-applying — and the retry
    /// re-attempts durability via a snapshot, erroring again rather than
    /// acking a batch that is still only in memory).
    EcoResult apply_eco(const core::Delta& delta, std::uint64_t sequence);
    /// Counter bumps for the stats endpoint (thread-safe vs stats()).
    void count_query(std::size_t points);
    void count_region();
    void count_koz();
    void count_eco(std::size_t ops);
    ~Guard();
    Guard(Guard&&) noexcept;
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    friend class SessionManager;
    Guard(SessionManager* manager, std::shared_ptr<Session> session,
          std::unique_lock<std::mutex> lock);
    SessionManager* manager_ = nullptr;
    std::shared_ptr<Session> session_;
    std::unique_lock<std::mutex> lock_;
  };

  /// Locks `name` for use, reloading it from its snapshot if evicted.
  /// Throws InvalidInputError for unknown sessions, IoCorruptionError when
  /// the snapshot is damaged, ResourceLimitError when the reload cannot be
  /// admitted.
  Guard use(const std::string& name);

  /// Snapshot-evicts a resident session (no-op when already evicted).
  /// Throws InvalidInputError for unknown sessions.
  void evict(const std::string& name);

  /// Removes a session. Unless `discard`, a resident engine is snapshotted
  /// first so the state survives for a later open of the same directory;
  /// with `discard` the snapshot file is deleted too.
  void close(const std::string& name, bool discard);

  /// Evicts every resident session (daemon shutdown: durable state on disk).
  void evict_all();

  ManagerStats stats() const;

 private:
  struct RestoredState;
  std::shared_ptr<Session> find(const std::string& name) const;
  std::string snapshot_path(const std::string& name) const;
  std::string journal_path(const std::string& name) const;
  /// Rebuilds a session's engine from its on-disk state: snapshot + journal
  /// replay, or journal-only (open record rebuild) when no snapshot landed.
  /// Leaves the files normalized (fresh snapshot + anchored journal) when
  /// anything was replayed or repaired. Caller holds the session's work_mu.
  RestoredState restore_from_disk(const std::string& name);
  /// Under mu_: evicts LRU idle sessions until `needed` more bytes fit
  /// under the global budget and a resident slot is free. Returns false
  /// when that is impossible without touching busy sessions or `keep`.
  bool make_room_locked(std::uint64_t needed, const Session* keep);
  void save_and_release_locked(Session& s);

  std::string snapshot_dir_;
  SessionLimits limits_;
  std::vector<std::string> recovered_;

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<Session>> sessions_;  ///< insertion order
  std::uint64_t resident_bytes_ = 0;
  std::uint64_t lru_clock_ = 0;
  std::uint64_t admission_refusals_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t reloads_ = 0;
  // Durability counters; atomic because apply_eco and restore run under a
  // session's work mutex, not mu_.
  std::atomic<std::uint64_t> journal_replays_{0};
  std::atomic<std::uint64_t> journal_torn_tails_{0};
  std::atomic<std::uint64_t> journal_fallbacks_{0};
  std::atomic<std::uint64_t> durability_failures_{0};
};

}  // namespace tsv::server
