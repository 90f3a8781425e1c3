#pragma once
// Read-only memory-mapped file access for bulk snapshot payloads.
//
// Snapshot loads used to slurp the whole file through an ifstream into a
// std::string and then substr the payload out of it — two transient copies
// of a file that is ~100 MB for a warm 10k-TSV engine. Mapping the file
// instead lets the snapshot Reader decode straight out of the page cache:
// the only copies made are the final destination vectors, and clean pages
// can be dropped by the kernel under memory pressure instead of sitting in
// the heap.
//
// Falls back to a plain read() buffer when mmap is unavailable or fails
// (empty files, exotic filesystems), so callers never need to care which
// path they got: data()/size() behave identically.

#include <cstddef>
#include <string>

namespace tsv::io {

class MappedFile {
 public:
  /// Opens and maps `path`. Throws InvalidInputError when the file cannot
  /// be opened or read (a missing path is the caller's mistake, mirroring
  /// the snapshot layer's contract).
  explicit MappedFile(const std::string& path);
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const char* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  void release() noexcept;

  char* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;  ///< data_ is an mmap, not the read() fallback
};

}  // namespace tsv::io
