#include "storage/block_file.h"

#include <unistd.h>

#include <atomic>
#include <fstream>
#include <stdexcept>
#include <system_error>

namespace knnpc {
namespace fs = std::filesystem;

void write_file(const fs::path& path, std::span<const std::byte> bytes,
                IoCounters& counters) {
  if (path.has_parent_path()) {
    std::error_code ec;
    fs::create_directories(path.parent_path(), ec);  // ok if it exists
  }
  const fs::path tmp = path.string() + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("write_file: cannot open " + tmp.string());
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();  // flushes the tail: a full disk fails here, not in ~ofstream
  std::error_code ec;
  if (!out) {
    fs::remove(tmp, ec);
    throw std::runtime_error("write_file: short write to " + tmp.string());
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    throw std::runtime_error("write_file: rename failed: " + ec.message());
  }
  counters.bytes_written += bytes.size();
  ++counters.write_ops;
}

std::vector<std::byte> read_file(const fs::path& path, IoCounters& counters) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    throw std::runtime_error("read_file: cannot open " + path.string());
  }
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  if (size > 0) {
    in.read(reinterpret_cast<char*>(bytes.data()), size);
    if (!in) {
      throw std::runtime_error("read_file: short read from " + path.string());
    }
  }
  counters.bytes_read += bytes.size();
  ++counters.read_ops;
  return bytes;
}

std::uint64_t file_size(const fs::path& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

ScratchDir::ScratchDir(const std::string& tag) {
  static std::atomic<std::uint64_t> counter{0};
  const auto id = counter.fetch_add(1, std::memory_order_relaxed);
  path_ = fs::temp_directory_path() /
          ("knnpc-" + tag + "-" + std::to_string(::getpid()) + "-" +
           std::to_string(id));
  fs::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);  // best effort
}

}  // namespace knnpc
