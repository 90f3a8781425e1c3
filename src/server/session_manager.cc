#include "server/session_manager.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "analytic/surrogate.h"
#include "core/error.h"
#include "core/framework.h"
#include "core/stress_table.h"
#include "geometry/sample_grid.h"
#include "io/journal.h"
#include "io/snapshot.h"
#include "numeric/fault_injection.h"

namespace tsv::server {
namespace {

void validate_session_name(const std::string& name) {
  const bool chars_ok =
      !name.empty() && name.size() <= 100 && name[0] != '.' &&
      std::all_of(name.begin(), name.end(), [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
      });
  if (!chars_ok)
    throw InvalidInputError(
        "invalid session name '" + name +
        "' (use [A-Za-z0-9._-], not starting with '.', <= 100 chars)");
}

/// The CLI's cold-build pipeline, forced serial so every session's fields
/// are bitwise reproducible no matter how requests interleave.
std::unique_ptr<core::IncrementalEngine> build_engine(
    const tsvlib::Placement& placement, const geo::SampleGrid& grid,
    const SessionSpec& spec) {
  const core::Characterization ch = core::characterize(
      placement.structure(), mat::ThermalLoad{},
      spec.surrogate ? core::StageTwo::kSurrogate : core::StageTwo::kSeries);
  core::IncrementalOptions opt;
  opt.num_threads = 1;
  return std::make_unique<core::IncrementalEngine>(placement, grid, ch.table,
                                                   ch.model, opt);
}

/// The journal's open record is the session recipe: enough to rerun
/// build_engine bitwise when no snapshot ever landed.
io::JournalOpen journal_open_record(const tsvlib::Placement& placement,
                                    const SessionSpec& spec) {
  io::JournalOpen open;
  open.placement_payload = io::encode_placement(placement);
  open.spacing = spec.spacing;
  open.margin = spec.margin;
  open.surrogate = spec.surrogate;
  return open;
}

SessionSpec spec_from_open_record(const io::JournalOpen& open) {
  SessionSpec spec;
  spec.spacing = open.spacing;
  spec.margin = open.margin;
  spec.surrogate = open.surrogate;
  return spec;
}

/// Sequence watermark of a whole journal: the largest sequence any record
/// has seen, whether or not it will be replayed. Dedupe must honor batches
/// already folded into the snapshot.
std::uint64_t journal_watermark(const io::JournalReplay& replay) {
  std::uint64_t watermark = 0;
  for (const io::JournalRecord& rec : replay.records) {
    if (rec.kind == io::JournalRecord::Kind::kEco)
      watermark = std::max(watermark, rec.eco.sequence);
    else if (rec.kind == io::JournalRecord::Kind::kAnchor)
      watermark = std::max(watermark, rec.anchor.last_sequence);
  }
  return watermark;
}

}  // namespace

std::uint64_t estimate_engine_bytes(const core::IncrementalEngine& engine) {
  std::uint64_t bytes = 0;
  // Two accumulated tensor fields + the dirty-point stamp array.
  bytes += static_cast<std::uint64_t>(engine.grid().size()) *
           (2 * sizeof(num::SymTensor2) + sizeof(std::uint32_t));
  // Placement slots (center + active flag) and id scratch.
  bytes += static_cast<std::uint64_t>(engine.slot_count()) *
           (sizeof(geo::Point) + 2);
  if (const auto* radial =
          dynamic_cast<const core::RadialStressTable*>(&engine.table()))
    bytes += static_cast<std::uint64_t>(radial->srr().size() +
                                        radial->stt().size()) *
             sizeof(double);
  if (const auto model = engine.model())
    if (const auto surrogate = model->surrogate())
      bytes += surrogate->certificate().coefficient_count * sizeof(double);
  return bytes;
}

/// One named session. `work_mu` serializes all engine use (requests);
/// `meta` is a leaf mutex guarding the counters and the cached summary the
/// stats endpoint reads, so stats() never blocks behind a long request.
/// The engine pointer itself transitions (resident <-> evicted) only under
/// the manager mutex while the work mutex is also held.
class SessionManager::Session {
 public:
  explicit Session(std::string session_name) : name(std::move(session_name)) {}

  std::string name;
  std::mutex work_mu;
  std::unique_ptr<core::IncrementalEngine> engine;  ///< null = evicted

  // Durability state, guarded by work_mu (only the request holding the
  // session touches it).
  std::unique_ptr<io::EcoJournal> journal;  ///< null until open/restore
  std::uint64_t last_sequence = 0;  ///< dedupe watermark for eco retries
  /// Highest sequence known to be on disk (journal or snapshot). Trails
  /// last_sequence only after a total durability failure; a retry of a
  /// sequence in the gap must re-attempt durability before being acked.
  std::uint64_t last_durable_sequence = 0;

  // Guarded by SessionManager::mu_.
  std::uint64_t estimated_bytes = 0;  ///< resident footprint (or hint)
  std::uint64_t last_used = 0;        ///< LRU clock stamp

  // Guarded by `meta`.
  std::mutex meta;
  SessionCounters counters;
  std::size_t tsvs = 0;
  std::size_t grid_points = 0;
  bool has_surrogate = false;

  /// Refreshes the cached summary from the resident engine (caller holds
  /// work_mu, so the engine is stable).
  void refresh_summary() {
    if (engine == nullptr) return;
    std::lock_guard<std::mutex> lk(meta);
    tsvs = engine->active_count();
    grid_points = engine->grid().size();
    if (const auto model = engine->model())
      has_surrogate = model->surrogate() != nullptr;
  }
};

SessionManager::Guard::Guard(SessionManager* manager,
                             std::shared_ptr<Session> session,
                             std::unique_lock<std::mutex> lock)
    : manager_(manager),
      session_(std::move(session)),
      lock_(std::move(lock)) {}

SessionManager::Guard::Guard(Guard&&) noexcept = default;

SessionManager::Guard::~Guard() {
  if (session_ != nullptr && lock_.owns_lock()) session_->refresh_summary();
}

core::IncrementalEngine& SessionManager::Guard::engine() {
  return *session_->engine;
}

void SessionManager::Guard::count_query(std::size_t points) {
  std::lock_guard<std::mutex> lk(session_->meta);
  ++session_->counters.queries;
  session_->counters.points += points;
}

void SessionManager::Guard::count_region() {
  std::lock_guard<std::mutex> lk(session_->meta);
  ++session_->counters.regions;
}

void SessionManager::Guard::count_koz() {
  std::lock_guard<std::mutex> lk(session_->meta);
  ++session_->counters.koz_queries;
}

void SessionManager::Guard::count_eco(std::size_t ops) {
  std::lock_guard<std::mutex> lk(session_->meta);
  ++session_->counters.edits;
  session_->counters.eco_ops += ops;
}

SessionManager::EcoResult SessionManager::Guard::apply_eco(
    const core::Delta& delta, std::uint64_t sequence) {
  Session& s = *session_;
  EcoResult res;

  // Idempotency: a sequence at or below the watermark was already applied
  // — the ack just got lost. Ack again without re-applying.
  if (sequence != 0 && sequence <= s.last_sequence) {
    res.duplicate = true;
    if (sequence > s.last_durable_sequence) {
      // The earlier attempt applied this batch in memory but both
      // durability paths failed (the eco errored out). The retry is the
      // chance to close that gap: snapshot now and only ack once the
      // state is on disk — or error out again so the client keeps
      // retrying instead of believing a volatile batch durable.
      try {
        const std::uint64_t checksum = io::save_engine_state(
            manager_->snapshot_path(s.name), *s.engine);
        s.journal->reset_to_anchor({checksum, s.last_sequence});
        s.last_durable_sequence = s.last_sequence;
        manager_->journal_fallbacks_.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lk(s.meta);
        ++s.counters.journal_fallbacks;
      } catch (const std::exception& e) {
        manager_->durability_failures_.fetch_add(1,
                                                 std::memory_order_relaxed);
        throw IoCorruptionError(
            "session '" + s.name + "': retried eco batch (seq " +
            std::to_string(sequence) +
            ") is applied in memory but still cannot be made durable: " +
            e.what());
      }
    }
    // A retry of the *newest* batch can still be told its slot ids: ids
    // allocate sequentially and nothing applied after it, so its adds
    // occupy the last `adds` slots. Older sequences cannot be
    // reconstructed from the live engine.
    std::size_t adds = 0;
    for (const core::EcoOp& op : delta)
      if (op.kind == core::EcoOp::Kind::kAdd) ++adds;
    if (sequence == s.last_sequence && adds <= s.engine->slot_count())
      res.pre_slots = s.engine->slot_count() - adds;
    else
      res.ids_known = false;
    std::lock_guard<std::mutex> lk(s.meta);
    ++s.counters.duplicates;
    return res;
  }

  // Apply first: the engine validates the whole batch before touching any
  // field, so an invalid batch throws here and never reaches the journal
  // (replay must only ever see batches that actually applied).
  res.pre_slots = s.engine->slot_count();
  res.stats = s.engine->apply(delta);

  const std::uint64_t watermark = std::max(s.last_sequence, sequence);
  try {
    io::JournalEco eco;
    eco.sequence = sequence;
    eco.delta = delta;
    s.journal->append(io::JournalRecord::make_eco(std::move(eco)));
    std::lock_guard<std::mutex> lk(s.meta);
    ++s.counters.journaled;
  } catch (const std::exception& append_err) {
    // The engine already holds the batch; losing it now would break the
    // ack contract. Make the *snapshot* the durable copy instead: write it
    // and atomically reset the journal to a matching anchor (an append
    // after a torn write would bury the anchor behind damaged bytes).
    res.journal_fallback = true;
    try {
      const std::uint64_t checksum = io::save_engine_state(
          manager_->snapshot_path(s.name), *s.engine);
      s.journal->reset_to_anchor({checksum, watermark});
      std::fprintf(stderr,
                   "session '%s': journal append failed (%s); "
                   "batch made durable via snapshot fallback\n",
                   s.name.c_str(), append_err.what());
      manager_->journal_fallbacks_.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lk(s.meta);
      ++s.counters.journal_fallbacks;
    } catch (const std::exception& snap_err) {
      // Both durability paths failed. The batch stays applied in memory;
      // advance the watermark anyway so a client retry of this sequence
      // dedupes instead of double-applying on the live engine.
      s.last_sequence = watermark;
      manager_->durability_failures_.fetch_add(1, std::memory_order_relaxed);
      throw IoCorruptionError(
          "session '" + s.name +
          "': eco batch applied in memory but could not be made durable "
          "(journal: " + std::string(append_err.what()) +
          "; snapshot fallback: " + snap_err.what() + ")");
    }
  }

  // Chaos hook: die *after* the batch is durable but before the caller can
  // ack — the window the journal exists to cover. Recovery must replay
  // this batch exactly once (kill-via-fork chaos test).
  if (fault::should_fire(fault::Site::kEcoKillAfterJournal)) ::_exit(137);

  s.last_sequence = watermark;
  s.last_durable_sequence = watermark;
  count_eco(delta.size());
  return res;
}

SessionManager::SessionManager(std::string snapshot_dir, SessionLimits limits)
    : snapshot_dir_(std::move(snapshot_dir)), limits_(limits) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(snapshot_dir_, ec);
  if (ec)
    throw InvalidInputError("cannot create snapshot directory '" +
                            snapshot_dir_ + "': " + ec.message());

  // Crash recovery: every valid engine-state snapshot becomes an evicted
  // session the next request transparently reloads (replaying its journal
  // on top). Anything else in the directory (corrupt files, other snapshot
  // kinds) is skipped loudly.
  std::vector<fs::path> candidates;
  std::vector<fs::path> journal_candidates;
  for (const auto& entry : fs::directory_iterator(snapshot_dir_)) {
    if (entry.path().extension() == ".snap") candidates.push_back(entry.path());
    if (entry.path().extension() == ".jrnl")
      journal_candidates.push_back(entry.path());
  }
  std::sort(candidates.begin(), candidates.end());
  std::sort(journal_candidates.begin(), journal_candidates.end());
  for (const fs::path& path : candidates) {
    const std::string name = path.stem().string();
    try {
      validate_session_name(name);
      const io::SnapshotInfo info = io::read_snapshot_info(path.string());
      if (info.kind != io::SnapshotKind::kEngineState) continue;
      auto session = std::make_shared<Session>(name);
      // The payload is the serialized fields + table — the same state
      // that will be resident — so it doubles as the admission hint.
      session->estimated_bytes = info.payload_bytes;
      sessions_.push_back(std::move(session));
      recovered_.push_back(name);
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "session recovery: skipping %s (%s)\n",
                   path.string().c_str(), e.what());
    }
  }
  // Journal-only sessions: the daemon died before (or during) the first
  // snapshot. The journal's open record is the rebuild recipe; the first
  // use() replays it. Journals whose session already has a snapshot are
  // picked up by that session's reload, not here.
  for (const fs::path& path : journal_candidates) {
    const std::string name = path.stem().string();
    const auto known = [&] {
      for (const auto& s : sessions_)
        if (s->name == name) return true;
      return false;
    };
    if (known()) continue;
    try {
      validate_session_name(name);
      const io::JournalReplay replay = io::EcoJournal::read(path.string());
      const io::JournalRecord* open = nullptr;
      for (const io::JournalRecord& rec : replay.records)
        if (rec.kind == io::JournalRecord::Kind::kOpen) {
          open = &rec;
          break;
        }
      if (open == nullptr)
        throw IoCorruptionError(
            replay.torn_tail && replay.valid_bytes == 0
                ? "unreadable journal: " + replay.torn_reason
                : "journal has no open record and no snapshot exists");
      // Admission hint without building anything: the dominant field term
      // from the recorded placement + grid spec (same formula as open()).
      const tsvlib::Placement placement =
          io::decode_placement(open->open.placement_payload);
      const geo::SampleGrid grid = geo::SampleGrid::with_spacing(
          placement.bounding_box().expanded(open->open.margin),
          open->open.spacing);
      auto session = std::make_shared<Session>(name);
      session->estimated_bytes =
          static_cast<std::uint64_t>(grid.size()) *
              (2 * sizeof(num::SymTensor2) + sizeof(std::uint32_t)) +
          static_cast<std::uint64_t>(placement.size()) *
              (sizeof(geo::Point) + 2);
      sessions_.push_back(std::move(session));
      recovered_.push_back(name);
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "session recovery: skipping %s (%s)\n",
                   path.string().c_str(), e.what());
    }
  }
}

std::shared_ptr<SessionManager::Session> SessionManager::find(
    const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& s : sessions_)
    if (s->name == name) return s;
  throw InvalidInputError("unknown session: " + name);
}

std::string SessionManager::snapshot_path(const std::string& name) const {
  return snapshot_dir_ + "/" + name + ".snap";
}

std::string SessionManager::journal_path(const std::string& name) const {
  return snapshot_dir_ + "/" + name + ".jrnl";
}

void SessionManager::save_and_release_locked(Session& s) {
  const std::uint64_t checksum =
      io::save_engine_state(snapshot_path(s.name), *s.engine);
  // Compact the journal down to an anchor: everything journaled so far is
  // folded into the snapshot we just wrote. Atomic, so a crash here leaves
  // either the old journal (whose records replay resolves against the new
  // snapshot via the anchor-checksum rule: nothing re-applies) or the new
  // one.
  if (s.journal != nullptr)
    s.journal->reset_to_anchor({checksum, s.last_sequence});
  s.last_durable_sequence = s.last_sequence;
  s.engine.reset();
  resident_bytes_ -= std::min(resident_bytes_, s.estimated_bytes);
  {
    std::lock_guard<std::mutex> lk(s.meta);
    ++s.counters.evictions;
  }
  ++evictions_;
}

struct SessionManager::RestoredState {
  std::unique_ptr<core::IncrementalEngine> engine;
  std::unique_ptr<io::EcoJournal> journal;
  std::uint64_t last_sequence = 0;
  std::size_t replayed = 0;
};

SessionManager::RestoredState SessionManager::restore_from_disk(
    const std::string& name) {
  namespace fs = std::filesystem;
  const std::string jpath = journal_path(name);
  const std::string spath = snapshot_path(name);

  io::JournalReplay replay = io::EcoJournal::read(jpath);
  if (replay.torn_tail) {
    // A crash mid-append leaves at most one damaged record at the tail;
    // the valid prefix is authoritative. Cut the file back so future
    // appends extend a clean tail — and say so, loudly.
    std::fprintf(stderr,
                 "session '%s': journal tail damaged (%s); "
                 "cutting back to last valid record\n",
                 name.c_str(), replay.torn_reason.c_str());
    io::EcoJournal::truncate_to_valid(jpath, replay);
    journal_torn_tails_.fetch_add(1, std::memory_order_relaxed);
  }

  RestoredState out;
  out.last_sequence = journal_watermark(replay);
  out.journal =
      std::make_unique<io::EcoJournal>(jpath, replay.fsync_on_append());

  std::uint64_t snap_checksum = 0;
  bool have_snapshot = false;
  if (fs::exists(spath)) {
    const io::SnapshotInfo info = io::read_snapshot_info(spath);
    snap_checksum = info.checksum;
    have_snapshot = true;
    out.engine = std::make_unique<core::IncrementalEngine>(
        io::load_engine_state(spath));
  }

  // Where replay starts. With a snapshot: after the last anchor whose
  // checksum matches it — records before that are already folded in. No
  // matching anchor means the snapshot is *newer* than every journaled
  // record (the crash hit between snapshot write and journal reset):
  // replay nothing, keep the watermark. Without a snapshot: rebuild from
  // the open record and replay everything after it.
  std::size_t start = replay.records.size();
  if (have_snapshot) {
    for (std::size_t i = 0; i < replay.records.size(); ++i) {
      const io::JournalRecord& rec = replay.records[i];
      if (rec.kind == io::JournalRecord::Kind::kAnchor &&
          rec.anchor.snapshot_checksum == snap_checksum)
        start = i + 1;
    }
  } else {
    std::size_t open_idx = replay.records.size();
    for (std::size_t i = 0; i < replay.records.size(); ++i)
      if (replay.records[i].kind == io::JournalRecord::Kind::kOpen) {
        open_idx = i;
        break;
      }
    if (open_idx == replay.records.size())
      throw IoCorruptionError(
          "session '" + name +
          "': no snapshot and the journal has no open record — "
          "nothing to rebuild from");
    const io::JournalOpen& open = replay.records[open_idx].open;
    const tsvlib::Placement placement =
        io::decode_placement(open.placement_payload);
    const SessionSpec spec = spec_from_open_record(open);
    const geo::SampleGrid grid = geo::SampleGrid::with_spacing(
        placement.bounding_box().expanded(spec.margin), spec.spacing);
    out.engine = build_engine(placement, grid, spec);
    start = open_idx + 1;
  }

  for (std::size_t i = start; i < replay.records.size(); ++i) {
    const io::JournalRecord& rec = replay.records[i];
    if (rec.kind != io::JournalRecord::Kind::kEco) continue;
    try {
      out.engine->apply(rec.eco.delta);
    } catch (const std::exception& e) {
      // A journaled batch was valid when it applied; failing now means
      // the snapshot and journal disagree (mixed-up files, manual edits).
      throw IoCorruptionError("session '" + name +
                              "': journal replay failed: " + e.what());
    }
    ++out.replayed;
  }
  if (out.replayed > 0)
    journal_replays_.fetch_add(out.replayed, std::memory_order_relaxed);

  // Re-anchor unless the on-disk state is already the clean evict shape
  // (snapshot + single matching anchor). This matters for correctness, not
  // just tidiness: future appends are only recoverable if the journal's
  // replay-relevant suffix is anchored to the current snapshot.
  const bool clean = have_snapshot && !replay.torn_tail &&
                     replay.records.size() == 1 &&
                     replay.records[0].kind ==
                         io::JournalRecord::Kind::kAnchor &&
                     replay.records[0].anchor.snapshot_checksum ==
                         snap_checksum;
  if (!clean) {
    const std::uint64_t checksum = io::save_engine_state(spath, *out.engine);
    out.journal->reset_to_anchor({checksum, out.last_sequence});
  }
  return out;
}

bool SessionManager::make_room_locked(std::uint64_t needed,
                                      const Session* keep) {
  const auto resident_count = [&] {
    std::size_t n = 0;
    for (const auto& s : sessions_)
      if (s->engine != nullptr) ++n;
    return n;
  };
  while (resident_bytes_ + needed > limits_.global_budget_bytes ||
         (needed > 0 && resident_count() >= limits_.max_sessions)) {
    // LRU victim among idle resident sessions. try_lock keeps the lock
    // order acyclic and guarantees a session mid-request is never evicted.
    Session* victim = nullptr;
    for (const auto& s : sessions_) {
      if (s->engine == nullptr || s.get() == keep) continue;
      if (victim == nullptr || s->last_used < victim->last_used)
        victim = s.get();
    }
    if (victim == nullptr) return false;
    std::unique_lock<std::mutex> vl(victim->work_mu, std::try_to_lock);
    if (!vl.owns_lock()) {
      // Busy victim: pretend it was just used so the scan moves on; if
      // every candidate is busy the loop exits via the nullptr branch.
      victim->last_used = ++lru_clock_;
      continue;
    }
    save_and_release_locked(*victim);
  }
  return true;
}

void SessionManager::open(const std::string& name,
                          const tsvlib::Placement& placement,
                          const SessionSpec& spec) {
  validate_session_name(name);
  placement.validate_no_overlap();
  if (spec.spacing <= 0.0 || spec.margin < 0.0)
    throw InvalidInputError("open: spacing must be > 0 and margin >= 0");

  const geo::Box roi = placement.bounding_box().expanded(spec.margin);
  const geo::SampleGrid grid = geo::SampleGrid::with_spacing(roi, spec.spacing);
  // Pre-build admission on the dominant term (the two tensor fields), so a
  // hopeless request is refused before any characterization runs.
  const std::uint64_t pre_estimate =
      static_cast<std::uint64_t>(grid.size()) *
          (2 * sizeof(num::SymTensor2) + sizeof(std::uint32_t)) +
      static_cast<std::uint64_t>(placement.size()) * (sizeof(geo::Point) + 2);

  // The new session's work lock is taken before the manager lock, the order
  // use(), evict() and close() take them in.
  const auto session = std::make_shared<Session>(name);
  std::unique_lock<std::mutex> work_lock(session->work_mu);
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& s : sessions_)
      if (s->name == name)
        throw InvalidInputError("session already exists: " + name);
    if (pre_estimate > limits_.session_budget_bytes) {
      ++admission_refusals_;
      throw ResourceLimitError(
          "session '" + name + "' needs ~" + std::to_string(pre_estimate) +
          " bytes, over the per-session budget of " +
          std::to_string(limits_.session_budget_bytes));
    }
    if (!make_room_locked(pre_estimate, nullptr)) {
      ++admission_refusals_;
      throw ResourceLimitError(
          "cannot admit session '" + name + "': global budget of " +
          std::to_string(limits_.global_budget_bytes) +
          " bytes exhausted by busy sessions");
    }
    session->estimated_bytes = pre_estimate;
    session->last_used = ++lru_clock_;
    resident_bytes_ += pre_estimate;
    sessions_.push_back(session);
  }

  const auto remove_session = [&] {
    std::lock_guard<std::mutex> lk(mu_);
    resident_bytes_ -= std::min(resident_bytes_, session->estimated_bytes);
    sessions_.erase(std::remove(sessions_.begin(), sessions_.end(), session),
                    sessions_.end());
  };

  try {
    session->engine = build_engine(placement, grid, spec);
    // The journal is the session's durability root from the first ack on:
    // its open record alone can rebuild the engine, so no snapshot is
    // written at open time (eviction writes the first one). If the journal
    // cannot be established the open fails — a session that cannot honor
    // the ack contract must not accept edits.
    auto journal = std::make_unique<io::EcoJournal>(journal_path(name),
                                                    spec.journal_fsync);
    // A close(discard=false) of a previous session with this name leaves
    // its <name>.snap behind, and recovery treats any on-disk snapshot as
    // newer than an anchorless journal — so a stale one would silently
    // resurrect the old session's state if we crash before this session's
    // first snapshot. Remove it *before* the open record lands: a crash in
    // the gap leaves a journal recovery skips loudly (no open record, no
    // snapshot), never silently-wrong state.
    std::remove(snapshot_path(name).c_str());
    journal->reset_to_open(journal_open_record(placement, spec));
    session->journal = std::move(journal);
  } catch (...) {
    std::remove(journal_path(name).c_str());
    remove_session();
    throw;
  }

  const std::uint64_t measured = estimate_engine_bytes(*session->engine);
  std::lock_guard<std::mutex> lk(mu_);
  resident_bytes_ -= std::min(resident_bytes_, session->estimated_bytes);
  resident_bytes_ += measured;
  session->estimated_bytes = measured;
  if (measured > limits_.session_budget_bytes) {
    resident_bytes_ -= std::min(resident_bytes_, measured);
    sessions_.erase(std::remove(sessions_.begin(), sessions_.end(), session),
                    sessions_.end());
    ++admission_refusals_;
    std::remove(journal_path(name).c_str());
    throw ResourceLimitError(
        "session '" + name + "' measured " + std::to_string(measured) +
        " bytes resident, over the per-session budget of " +
        std::to_string(limits_.session_budget_bytes));
  }
  // Post-build tables can push the global total over; evict idle LRU
  // sessions to restore the invariant (the new session itself is kept).
  make_room_locked(0, session.get());
  work_lock.unlock();
  session->refresh_summary();
}

SessionManager::Guard SessionManager::use(const std::string& name) {
  std::shared_ptr<Session> session = find(name);
  std::unique_lock<std::mutex> work_lock(session->work_mu);

  bool need_reload = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    // The session may have been closed while we waited for its lock.
    if (std::find(sessions_.begin(), sessions_.end(), session) ==
        sessions_.end())
      throw InvalidInputError("unknown session: " + name);
    if (session->engine == nullptr) {
      if (session->estimated_bytes > limits_.session_budget_bytes ||
          !make_room_locked(session->estimated_bytes, session.get())) {
        ++admission_refusals_;
        throw ResourceLimitError(
            "cannot reload session '" + name + "' (~" +
            std::to_string(session->estimated_bytes) +
            " bytes) under the configured budgets");
      }
      resident_bytes_ += session->estimated_bytes;
      need_reload = true;
    }
    session->last_used = ++lru_clock_;
  }

  if (need_reload) {
    try {
      RestoredState restored = restore_from_disk(name);
      const std::uint64_t measured = estimate_engine_bytes(*restored.engine);
      std::lock_guard<std::mutex> lk(mu_);
      resident_bytes_ -= std::min(resident_bytes_, session->estimated_bytes);
      resident_bytes_ += measured;
      session->estimated_bytes = measured;
      session->engine = std::move(restored.engine);
      session->journal = std::move(restored.journal);
      session->last_sequence = restored.last_sequence;
      // Everything the restore saw was read from disk, so it is durable by
      // construction.
      session->last_durable_sequence = restored.last_sequence;
      ++reloads_;
      std::lock_guard<std::mutex> meta(session->meta);
      ++session->counters.reloads;
      session->counters.replays += restored.replayed;
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      resident_bytes_ -= std::min(resident_bytes_, session->estimated_bytes);
      throw;
    }
  }
  return Guard(this, session, std::move(work_lock));
}

void SessionManager::evict(const std::string& name) {
  std::shared_ptr<Session> session = find(name);
  std::unique_lock<std::mutex> work_lock(session->work_mu);
  std::lock_guard<std::mutex> lk(mu_);
  if (session->engine != nullptr) save_and_release_locked(*session);
}

void SessionManager::close(const std::string& name, bool discard) {
  std::shared_ptr<Session> session = find(name);
  std::unique_lock<std::mutex> work_lock(session->work_mu);
  std::lock_guard<std::mutex> lk(mu_);
  if (session->engine != nullptr) {
    if (!discard) {
      const std::uint64_t checksum =
          io::save_engine_state(snapshot_path(name), *session->engine);
      if (session->journal != nullptr)
        session->journal->reset_to_anchor({checksum, session->last_sequence});
      session->last_durable_sequence = session->last_sequence;
    }
    session->engine.reset();
    resident_bytes_ -= std::min(resident_bytes_, session->estimated_bytes);
  }
  if (discard) {
    std::remove(snapshot_path(name).c_str());
    std::remove(journal_path(name).c_str());
  }
  sessions_.erase(std::remove(sessions_.begin(), sessions_.end(), session),
                  sessions_.end());
}

void SessionManager::evict_all() {
  // Snapshot order matches registration order; each eviction holds the
  // session's work mutex so in-flight requests drain first.
  std::vector<std::shared_ptr<Session>> all;
  {
    std::lock_guard<std::mutex> lk(mu_);
    all = sessions_;
  }
  for (const auto& session : all) {
    std::unique_lock<std::mutex> work_lock(session->work_mu);
    std::lock_guard<std::mutex> lk(mu_);
    if (session->engine != nullptr) save_and_release_locked(*session);
  }
}

ManagerStats SessionManager::stats() const {
  ManagerStats out;
  std::lock_guard<std::mutex> lk(mu_);
  out.session_budget_bytes = limits_.session_budget_bytes;
  out.global_budget_bytes = limits_.global_budget_bytes;
  out.resident_bytes = resident_bytes_;
  out.admission_refusals = admission_refusals_;
  out.evictions = evictions_;
  out.reloads = reloads_;
  out.journal_replays = journal_replays_.load(std::memory_order_relaxed);
  out.journal_torn_tails =
      journal_torn_tails_.load(std::memory_order_relaxed);
  out.journal_fallbacks = journal_fallbacks_.load(std::memory_order_relaxed);
  out.durability_failures =
      durability_failures_.load(std::memory_order_relaxed);
  for (const auto& s : sessions_) {
    SessionStats st;
    st.name = s->name;
    st.resident = s->engine != nullptr;
    st.estimated_bytes = s->estimated_bytes;
    {
      std::lock_guard<std::mutex> meta(s->meta);
      st.counters = s->counters;
      st.tsvs = s->tsvs;
      st.grid_points = s->grid_points;
      st.has_surrogate = s->has_surrogate;
    }
    if (st.resident)
      ++out.resident_sessions;
    else
      ++out.evicted_sessions;
    out.sessions.push_back(std::move(st));
  }
  return out;
}

}  // namespace tsv::server
