// Bounded-memory record shard writers: phase 2's pair bundles.
//
// H's unique tuples are bucketed by PI pair, one bundle file per pair,
// which phase 4 reads back when the pair's turn comes. Holding every
// bundle in memory until phase 2 ends would defeat the memory budget on
// large graphs, so the writer keeps a small buffer per shard and appends
// the largest buffer to its file whenever the global budget is exceeded —
// peak memory stays at ~`buffer_budget_bytes` regardless of record
// volume. The threaded engine, which stages whole bundles itself, writes
// each with write_record_shard instead.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "storage/io_model.h"
#include "util/serde.h"
#include "util/types.h"

namespace knnpc {

/// Path of shard `s` of the shard set <dir>/<stem>_*: the one naming rule
/// shared by RecordShardWriter and write_record_shard.
inline std::filesystem::path record_shard_path(
    const std::filesystem::path& dir, const std::string& stem,
    std::size_t shard) {
  return dir / (stem + "_" + std::to_string(shard) + ".bin");
}

/// Thread-safety: a RecordShardWriter is single-writer — add()/finish()
/// must come from one thread at a time (the engine calls it from the
/// phase-2 loop; the shard driver gives each shard its own instance). The
/// optional IoAccountant MAY be shared across writers on different
/// threads — its charges are atomic.
///
/// Ownership: the writer owns its buffers and the files under <dir>; it
/// does NOT own the accountant, which must outlive the writer.
template <TrivialRecord T>
class RecordShardWriter {
 public:
  /// Shard `s` lives at <dir>/<stem>_<s>.bin (stale files from a previous
  /// run are removed on construction).
  RecordShardWriter(std::filesystem::path dir, std::string stem,
                    std::size_t num_shards, std::size_t buffer_budget_bytes,
                    IoAccountant* accountant = nullptr)
      : dir_(std::move(dir)), stem_(std::move(stem)), buffers_(num_shards),
        counts_(num_shards, 0),
        budget_records_(std::max<std::size_t>(
            buffer_budget_bytes / sizeof(T), num_shards)),
        accountant_(accountant) {
    std::filesystem::create_directories(dir_);
    for (std::size_t s = 0; s < num_shards; ++s) {
      std::error_code ec;
      std::filesystem::remove(shard_path(s), ec);
    }
  }

  void add(std::size_t shard, const T& record) {
    if (finished_) {
      throw std::logic_error("RecordShardWriter: add after finish");
    }
    buffers_.at(shard).push_back(record);
    ++counts_[shard];
    ++buffered_;
    if (buffered_ > budget_records_) flush_largest();
  }

  /// Flushes all remaining buffers. Must be called before reading shards.
  void finish() {
    if (finished_) return;
    for (std::size_t s = 0; s < buffers_.size(); ++s) flush_shard(s);
    finished_ = true;
  }

  [[nodiscard]] std::size_t num_shards() const noexcept {
    return counts_.size();
  }
  /// Records routed to shard `s` so far (buffered + flushed).
  [[nodiscard]] std::uint64_t shard_records(std::size_t shard) const {
    return counts_.at(shard);
  }
  /// Path of shard `s` (exists only once something was flushed to it).
  [[nodiscard]] std::filesystem::path shard_path(std::size_t shard) const {
    return record_shard_path(dir_, stem_, shard);
  }

 private:
  void flush_largest() {
    std::size_t largest = 0;
    for (std::size_t s = 1; s < buffers_.size(); ++s) {
      if (buffers_[s].size() > buffers_[largest].size()) largest = s;
    }
    flush_shard(largest);
  }

  void flush_shard(std::size_t shard) {
    auto& buffer = buffers_[shard];
    if (buffer.empty()) return;
    std::ofstream out(shard_path(shard), std::ios::binary | std::ios::app);
    if (!out) {
      throw std::runtime_error("RecordShardWriter: cannot open " +
                               shard_path(shard).string());
    }
    const auto bytes = to_bytes(buffer);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.close();  // flush now, so a full disk fails the append
    if (!out) {
      throw std::runtime_error("RecordShardWriter: short append to " +
                               shard_path(shard).string());
    }
    if (accountant_ != nullptr) accountant_->charge_write(bytes.size());
    buffered_ -= buffer.size();
    buffer.clear();
    buffer.shrink_to_fit();
  }

  std::filesystem::path dir_;
  std::string stem_;
  std::vector<std::vector<T>> buffers_;
  std::vector<std::uint64_t> counts_;
  std::size_t budget_records_;
  std::size_t buffered_ = 0;
  bool finished_ = false;
  IoAccountant* accountant_;
};

/// Writes a whole shard in one append-free write, replacing any previous
/// file: the counterpart of read_record_shard for a writer that already
/// holds every record of the shard (the threaded engine's phase 2). An
/// empty `records` removes the file instead, so a reader sees exactly
/// what a RecordShardWriter that never flushed the shard leaves behind.
/// Charges one write of the record bytes. Distinct paths may be written
/// from different threads concurrently.
template <TrivialRecord T>
void write_record_shard(const std::filesystem::path& path,
                        std::span<const T> records,
                        IoAccountant* accountant = nullptr) {
  if (records.empty()) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
    return;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const auto bytes = std::as_bytes(records);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();  // flush now, so a full disk fails the write
  if (!out) {
    throw std::runtime_error("write_record_shard: cannot write " +
                             path.string());
  }
  if (accountant != nullptr) accountant->charge_write(bytes.size());
}

/// Reads back a whole shard. Missing files (never-flushed shards) return
/// an empty vector; truncated trailing records are dropped by from_bytes.
template <TrivialRecord T>
std::vector<T> read_record_shard(const std::filesystem::path& path,
                                 IoAccountant* accountant = nullptr) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return {};
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::vector<std::byte> bytes(size);
  if (size > 0) {
    in.read(reinterpret_cast<char*>(bytes.data()),
            static_cast<std::streamsize>(size));
    if (!in) {
      throw std::runtime_error("read_record_shard: short read from " +
                               path.string());
    }
  }
  if (accountant != nullptr) accountant->charge_read(bytes.size());
  return from_bytes<T>(bytes);
}

/// Phase-2 specialisation: tuple shards keyed by PI pair.
using TupleShardWriter = RecordShardWriter<Tuple>;

}  // namespace knnpc
