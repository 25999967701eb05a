// Whole-file binary read/write with byte accounting.
//
// Partition files are always consumed sequentially and whole (that is the
// paper's point: no random access), so the primitive is deliberately
// "read the whole file" / "write the whole file".
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

namespace knnpc {

/// Cumulative I/O byte/op counters. Cheap to copy; subtract two snapshots
/// to get a delta.
struct IoCounters {
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t read_ops = 0;
  std::uint64_t write_ops = 0;

  IoCounters& operator+=(const IoCounters& other) noexcept {
    bytes_read += other.bytes_read;
    bytes_written += other.bytes_written;
    read_ops += other.read_ops;
    write_ops += other.write_ops;
    return *this;
  }

  friend IoCounters operator-(IoCounters a, const IoCounters& b) noexcept {
    a.bytes_read -= b.bytes_read;
    a.bytes_written -= b.bytes_written;
    a.read_ops -= b.read_ops;
    a.write_ops -= b.write_ops;
    return a;
  }

  friend bool operator==(const IoCounters&, const IoCounters&) = default;
};

/// Writes `bytes` to `path` atomically (tmp file + rename), creating parent
/// directories. Throws std::runtime_error on failure. Updates `counters`.
void write_file(const std::filesystem::path& path,
                std::span<const std::byte> bytes, IoCounters& counters);

/// Reads the whole file. Throws std::runtime_error when missing/unreadable.
std::vector<std::byte> read_file(const std::filesystem::path& path,
                                 IoCounters& counters);

/// File size in bytes; 0 when the file does not exist.
std::uint64_t file_size(const std::filesystem::path& path);

/// A process-unique scratch directory under the system temp dir; removed
/// by the destructor. Used by tests and the engine's default work dir.
class ScratchDir {
 public:
  /// `tag` becomes part of the directory name for debuggability.
  explicit ScratchDir(const std::string& tag);
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  ~ScratchDir();

  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }

 private:
  std::filesystem::path path_;
};

}  // namespace knnpc
