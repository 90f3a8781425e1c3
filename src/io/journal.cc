#include "io/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/error.h"
#include "io/atomic_file.h"
#include "numeric/fault_injection.h"

namespace tsv::io {
namespace {

constexpr char kMagic[8] = {'T', 'S', 'V', 'J', 'R', 'N', 'L', '\0'};
constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 2 * sizeof(std::uint32_t);
// A record is one eco batch (or a tiny open/anchor); anything past this is
// a corrupt length field, not a real payload.
constexpr std::uint64_t kMaxRecordBytes = 64ull << 20;

// Same checksum the snapshots use; kept local because the journal checks
// per record (kind byte + payload), not per file.
std::uint64_t fnv1a64(const char* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

[[noreturn]] void journal_error(const std::string& path,
                                const std::string& what) {
  throw IoCorruptionError("journal '" + path + "': " + what);
}

template <typename T>
void put_pod(std::string& out, const T& v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Thrown internally by the payload decoders; read() converts it into a
/// torn-tail report instead of propagating (the valid prefix still counts).
struct ParseError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Bounds-checked cursor over one record payload.
class Cursor {
 public:
  Cursor(const char* data, std::size_t n) : data_(data), n_(n) {}

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  double f64() { return get<double>(); }
  std::string bytes(std::size_t n) {
    need(n);
    std::string s(data_ + off_, n);
    off_ += n;
    return s;
  }
  std::size_t remaining() const { return n_ - off_; }
  void expect_end() const {
    if (off_ != n_) throw ParseError("trailing bytes in record payload");
  }

 private:
  template <typename T>
  T get() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, data_ + off_, sizeof(T));
    off_ += sizeof(T);
    return v;
  }
  void need(std::size_t n) const {
    if (off_ + n > n_) throw ParseError("truncated record payload");
  }
  const char* data_;
  std::size_t n_;
  std::size_t off_ = 0;
};

std::uint8_t op_kind_code(core::EcoOp::Kind k) {
  switch (k) {
    case core::EcoOp::Kind::kAdd:
      return 1;
    case core::EcoOp::Kind::kMove:
      return 2;
    case core::EcoOp::Kind::kRemove:
      return 3;
  }
  throw ParseError("unknown eco op kind");
}

core::EcoOp::Kind op_kind_from_code(std::uint8_t code) {
  switch (code) {
    case 1:
      return core::EcoOp::Kind::kAdd;
    case 2:
      return core::EcoOp::Kind::kMove;
    case 3:
      return core::EcoOp::Kind::kRemove;
  }
  throw ParseError("unknown eco op kind code");
}

std::string encode_payload(const JournalRecord& rec) {
  std::string p;
  switch (rec.kind) {
    case JournalRecord::Kind::kOpen: {
      const JournalOpen& o = rec.open;
      put_pod(p, static_cast<std::uint64_t>(o.placement_payload.size()));
      p.append(o.placement_payload);
      put_pod(p, o.spacing);
      put_pod(p, o.margin);
      put_pod(p, static_cast<std::uint8_t>(o.surrogate ? 1 : 0));
      break;
    }
    case JournalRecord::Kind::kEco: {
      const JournalEco& e = rec.eco;
      put_pod(p, e.sequence);
      put_pod(p, static_cast<std::uint64_t>(e.delta.size()));
      for (const core::EcoOp& op : e.delta) {
        put_pod(p, op_kind_code(op.kind));
        put_pod(p, op.id);
        put_pod(p, op.center.x);
        put_pod(p, op.center.y);
      }
      break;
    }
    case JournalRecord::Kind::kAnchor: {
      put_pod(p, rec.anchor.snapshot_checksum);
      put_pod(p, rec.anchor.last_sequence);
      break;
    }
  }
  return p;
}

JournalRecord decode_payload(JournalRecord::Kind kind, const char* data,
                             std::size_t n) {
  Cursor c(data, n);
  JournalRecord rec;
  rec.kind = kind;
  switch (kind) {
    case JournalRecord::Kind::kOpen: {
      const std::uint64_t len = c.u64();
      if (len > c.remaining()) throw ParseError("impossible placement size");
      rec.open.placement_payload = c.bytes(static_cast<std::size_t>(len));
      rec.open.spacing = c.f64();
      rec.open.margin = c.f64();
      rec.open.surrogate = c.u8() != 0;
      break;
    }
    case JournalRecord::Kind::kEco: {
      rec.eco.sequence = c.u64();
      const std::uint64_t nops = c.u64();
      // 21 bytes per op (u8 + u32 + 2*f64): an op count the payload cannot
      // hold is a corrupt length field.
      if (nops > c.remaining() / 21) throw ParseError("impossible op count");
      rec.eco.delta.reserve(static_cast<std::size_t>(nops));
      for (std::uint64_t i = 0; i < nops; ++i) {
        core::EcoOp op;
        op.kind = op_kind_from_code(c.u8());
        op.id = c.u32();
        op.center.x = c.f64();
        op.center.y = c.f64();
        rec.eco.delta.push_back(op);
      }
      break;
    }
    case JournalRecord::Kind::kAnchor: {
      rec.anchor.snapshot_checksum = c.u64();
      rec.anchor.last_sequence = c.u64();
      break;
    }
  }
  c.expect_end();
  return rec;
}

std::string encode_header(std::uint32_t flags) {
  std::string h;
  h.append(kMagic, sizeof(kMagic));
  put_pod(h, kJournalVersion);
  put_pod(h, flags);
  return h;
}

std::string encode_record(const JournalRecord& rec) {
  const std::string payload = encode_payload(rec);
  std::string bytes;
  bytes.reserve(1 + sizeof(std::uint32_t) + payload.size() +
                sizeof(std::uint64_t));
  const std::uint8_t kind = static_cast<std::uint8_t>(rec.kind);
  put_pod(bytes, kind);
  put_pod(bytes, static_cast<std::uint32_t>(payload.size()));
  bytes.append(payload);
  // Checksum covers the kind byte too, so a flipped kind cannot pair with
  // a stale payload and still verify.
  std::string checked;
  checked.reserve(1 + payload.size());
  checked.push_back(static_cast<char>(kind));
  checked.append(payload);
  put_pod(bytes, fnv1a64(checked.data(), checked.size()));
  return bytes;
}

void write_all_fd(int fd, const char* data, std::size_t n,
                  const std::string& path) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      journal_error(path, std::string("append write failed: ") +
                              std::strerror(err));
    }
    off += static_cast<std::size_t>(w);
  }
}

}  // namespace

JournalRecord JournalRecord::make_open(JournalOpen o) {
  JournalRecord r;
  r.kind = Kind::kOpen;
  r.open = std::move(o);
  return r;
}

JournalRecord JournalRecord::make_eco(JournalEco e) {
  JournalRecord r;
  r.kind = Kind::kEco;
  r.eco = std::move(e);
  return r;
}

JournalRecord JournalRecord::make_anchor(JournalAnchor a) {
  JournalRecord r;
  r.kind = Kind::kAnchor;
  r.anchor = a;
  return r;
}

EcoJournal::EcoJournal(std::string path, bool fsync_on_append)
    : path_(std::move(path)), fsync_on_append_(fsync_on_append) {}

void EcoJournal::append(const JournalRecord& record) {
  if (fault::should_fire(fault::Site::kJournalWriteFail))
    journal_error(path_, "injected append failure (no bytes written)");

  const std::string bytes = encode_record(record);
  const int fd = ::open(path_.c_str(),
                        O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    const int err = errno;
    journal_error(path_, std::string("cannot open for append: ") +
                             std::strerror(err));
  }
  struct FdGuard {
    int fd;
    ~FdGuard() { ::close(fd); }
  } guard{fd};

  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    journal_error(path_, std::string("fstat failed: ") + std::strerror(err));
  }
  if (st.st_size == 0) {
    const std::string header =
        encode_header(fsync_on_append_ ? 0u : kJournalFlagNoFsync);
    write_all_fd(fd, header.data(), header.size(), path_);
  }

  if (fault::should_fire(fault::Site::kJournalTornTail)) {
    // A crash mid-append: half the record reaches the disk, then the
    // process is gone. Recovery must cut this back, loudly.
    write_all_fd(fd, bytes.data(), bytes.size() / 2, path_);
    journal_error(path_, "injected torn append (partial record written)");
  }

  write_all_fd(fd, bytes.data(), bytes.size(), path_);
  if (fsync_on_append_ && ::fsync(fd) != 0) {
    const int err = errno;
    journal_error(path_, std::string("fsync failed: ") + std::strerror(err));
  }
}

void EcoJournal::reset_to_anchor(const JournalAnchor& anchor) {
  std::string bytes =
      encode_header(fsync_on_append_ ? 0u : kJournalFlagNoFsync);
  bytes.append(encode_record(JournalRecord::make_anchor(anchor)));
  atomic_write_file(path_, bytes, /*durable=*/fsync_on_append_);
}

void EcoJournal::reset_to_open(const JournalOpen& open) {
  std::string bytes =
      encode_header(fsync_on_append_ ? 0u : kJournalFlagNoFsync);
  bytes.append(encode_record(JournalRecord::make_open(open)));
  atomic_write_file(path_, bytes, /*durable=*/fsync_on_append_);
}

void EcoJournal::remove() {
  if (::unlink(path_.c_str()) != 0 && errno != ENOENT) {
    const int err = errno;
    journal_error(path_, std::string("cannot remove: ") + std::strerror(err));
  }
}

JournalReplay EcoJournal::read(const std::string& path) {
  JournalReplay replay;

  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) {
    if (errno == ENOENT) return replay;  // never journaled: clean empty
    const int err = errno;
    journal_error(path, std::string("cannot stat: ") + std::strerror(err));
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) journal_error(path, "cannot open for reading");
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = std::move(buf).str();

  const auto torn = [&](std::uint64_t valid, const std::string& why) {
    replay.torn_tail = true;
    replay.torn_reason = why;
    replay.valid_bytes = valid;
    return replay;
  };

  if (bytes.size() < kHeaderBytes)
    return torn(0, "truncated header");
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
    return torn(0, "bad magic (not a tsvstress journal)");
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + sizeof(kMagic), sizeof(version));
  if (version != kJournalVersion) {
    std::ostringstream os;
    os << "unsupported journal version " << version;
    return torn(0, os.str());
  }
  std::memcpy(&replay.flags, bytes.data() + sizeof(kMagic) + sizeof(version),
              sizeof(replay.flags));
  replay.valid_bytes = kHeaderBytes;

  std::size_t off = kHeaderBytes;
  while (off < bytes.size()) {
    constexpr std::size_t kRecHeader = 1 + sizeof(std::uint32_t);
    if (bytes.size() - off < kRecHeader)
      return torn(off, "truncated record header");
    const std::uint8_t kind_code = static_cast<std::uint8_t>(bytes[off]);
    if (kind_code < 1 || kind_code > 3)
      return torn(off, "unknown record kind");
    std::uint32_t payload_len = 0;
    std::memcpy(&payload_len, bytes.data() + off + 1, sizeof(payload_len));
    if (payload_len > kMaxRecordBytes)
      return torn(off, "impossible record size");
    if (bytes.size() - off - kRecHeader <
        payload_len + sizeof(std::uint64_t))
      return torn(off, "truncated record");

    // Verify the checksum over kind byte + payload before decoding.
    std::uint64_t stored = 0;
    std::memcpy(&stored, bytes.data() + off + kRecHeader + payload_len,
                sizeof(stored));
    std::string checked;
    checked.reserve(1 + payload_len);
    checked.push_back(static_cast<char>(kind_code));
    checked.append(bytes, off + kRecHeader, payload_len);
    if (fnv1a64(checked.data(), checked.size()) != stored)
      return torn(off, "record checksum mismatch");

    try {
      replay.records.push_back(decode_payload(
          static_cast<JournalRecord::Kind>(kind_code),
          bytes.data() + off + kRecHeader, payload_len));
    } catch (const ParseError& e) {
      return torn(off, std::string("malformed record: ") + e.what());
    }
    off += kRecHeader + payload_len + sizeof(std::uint64_t);
    replay.valid_bytes = off;
  }
  return replay;
}

void EcoJournal::truncate_to_valid(const std::string& path,
                                   const JournalReplay& replay) {
  if (::truncate(path.c_str(),
                 static_cast<off_t>(replay.valid_bytes)) != 0) {
    if (errno == ENOENT) return;  // nothing to repair
    const int err = errno;
    journal_error(path,
                  std::string("truncate failed: ") + std::strerror(err));
  }
}

}  // namespace tsv::io
