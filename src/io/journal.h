#pragma once
// Per-session write-ahead eco journal: the durability half of the stress
// service.
//
// A session's engine lives in memory; its snapshot is only rewritten on
// eviction. Without a journal every eco batch acknowledged since the last
// snapshot dies with the process. The journal closes that window: each
// batch is appended (checksummed, optionally fsynced) after the engine
// applied it and *before* the ack goes out, so an acknowledged edit is
// always recoverable. The apply-then-journal order is deliberate:
// IncrementalEngine::apply validates a batch before touching any field, so
// an invalid batch throws before reaching the journal and can never pollute
// replay.
//
// File layout (native little-endian, written raw):
//
//   bytes 0..7   magic "TSVJRNL\0"
//   u32          format version (kJournalVersion)
//   u32          flags (bit 0: appends are NOT fsynced)
//   ...          records
//
// Each record:
//
//   u8           kind (1 = open, 2 = eco, 3 = anchor)
//   u32          payload size in bytes
//   ...          payload
//   u64          FNV-1a 64 checksum of kind byte + payload
//
// Record payloads:
//
//   open    — the session's recipe: an embedded binary placement
//             (io::encode_placement — bitwise doubles; placement *text*
//             only round-trips at print precision) plus the engine spec
//             knobs. Recovery can rebuild a session that never reached its
//             first snapshot from this record alone.
//   eco     — client sequence number + the edit batch (kind/id/x/y per
//             op). Replayed on top of the snapshot at recovery.
//   anchor  — written when a snapshot lands: the snapshot's payload
//             checksum + the session's sequence watermark. Replay starts
//             after the last anchor whose checksum matches the on-disk
//             snapshot; records before it are already folded in. An
//             unmatched anchor set means the snapshot is *newer* than the
//             whole journal (a crash hit between snapshot write and
//             journal reset) — replay nothing, keep the watermark.
//
// Append crash model: records are appended tail-first, so a crash leaves
// at most one torn record at the end. read() validates record-by-record
// and stops at the first damaged one, reporting the torn tail and the
// byte offset of the last valid prefix; truncate_to_valid() cuts the file
// back so future appends start from a clean tail.

#include <cstdint>
#include <string>
#include <vector>

#include "core/incremental_engine.h"

namespace tsv::io {

// Version 2 dropped the Stage II lookup-table knobs from the open record.
// Journals of any other version are refused at read time.
inline constexpr std::uint32_t kJournalVersion = 2;

/// Header flag bit 0: this journal's appends skip fsync. Persisted so a
/// reload keeps the session's durability mode without needing the spec.
inline constexpr std::uint32_t kJournalFlagNoFsync = 1u << 0;

/// Session recipe, enough to rebuild the engine bitwise from nothing.
struct JournalOpen {
  std::string placement_payload;  ///< io::encode_placement bytes
  double spacing = 0.5;
  double margin = 25.0;
  bool surrogate = false;
};

/// One acknowledged (or about-to-be-acknowledged) eco batch.
struct JournalEco {
  std::uint64_t sequence = 0;  ///< client idempotency token; 0 = none
  core::Delta delta;
};

/// Snapshot marker: everything before this record is folded into the
/// snapshot whose payload checksum matches `snapshot_checksum`.
struct JournalAnchor {
  std::uint64_t snapshot_checksum = 0;
  std::uint64_t last_sequence = 0;
};

struct JournalRecord {
  enum class Kind : std::uint8_t { kOpen = 1, kEco = 2, kAnchor = 3 };
  Kind kind = Kind::kEco;
  JournalOpen open;      // valid when kind == kOpen
  JournalEco eco;        // valid when kind == kEco
  JournalAnchor anchor;  // valid when kind == kAnchor

  static JournalRecord make_open(JournalOpen o);
  static JournalRecord make_eco(JournalEco e);
  static JournalRecord make_anchor(JournalAnchor a);
};

/// Result of scanning a journal file. A missing file is a clean empty
/// journal (no session has journaled yet); a damaged tail is reported, not
/// thrown — the valid prefix is still authoritative.
struct JournalReplay {
  std::vector<JournalRecord> records;
  bool torn_tail = false;
  std::string torn_reason;        ///< empty unless torn_tail
  std::uint64_t valid_bytes = 0;  ///< file prefix covered by `records`
  std::uint32_t flags = 0;        ///< header flags (durability mode)

  bool fsync_on_append() const { return (flags & kJournalFlagNoFsync) == 0; }
};

/// Append-side handle for one session's journal. Each append opens the
/// file O_APPEND, writes one complete record, optionally fsyncs, and
/// closes — the fd is not held between batches, so evict/reload cycles
/// and the recovery reader never race an open handle.
class EcoJournal {
 public:
  /// `fsync_on_append=false` trades power-loss durability for latency
  /// (process death still cannot lose an acked batch — the page cache
  /// survives it). The flag is persisted in the header of any file this
  /// handle (re)writes.
  EcoJournal(std::string path, bool fsync_on_append = true);

  const std::string& path() const { return path_; }
  bool fsync_on_append() const { return fsync_on_append_; }

  /// Appends one record (writing the file header first when the file is
  /// missing or empty). Throws tsv::IoCorruptionError on any I/O failure;
  /// a failed append may leave a torn record at the tail, which read()
  /// reports and truncate_to_valid() repairs.
  void append(const JournalRecord& record);

  /// Atomically resets the journal to header + a single anchor record —
  /// the normal compaction after a snapshot landed. Everything journaled
  /// so far is folded into that snapshot; only the watermark survives.
  void reset_to_anchor(const JournalAnchor& anchor);

  /// Atomically resets the journal to header + a single open record (a
  /// fresh session that has no snapshot yet).
  void reset_to_open(const JournalOpen& open);

  /// Deletes the journal file (close --discard). Missing file is fine.
  void remove();

  /// Scans `path`, validating record-by-record. Missing file -> empty
  /// replay. Damaged header or record -> torn_tail set, records holding
  /// the valid prefix. Throws only for environmental errors (e.g. the
  /// path exists but cannot be read).
  static JournalReplay read(const std::string& path);

  /// Cuts the file back to `replay.valid_bytes` (down to an empty file
  /// when even the header was damaged — append() rewrites one), so
  /// subsequent appends extend a clean tail instead of burying bytes
  /// after a torn record.
  static void truncate_to_valid(const std::string& path,
                                const JournalReplay& replay);

 private:
  std::string path_;
  bool fsync_on_append_ = true;
};

}  // namespace tsv::io
