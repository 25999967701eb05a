// Bounded-memory record shard writers (phase 2's tuple spill and phase
// 4's score spill).
//
// H's unique tuples are bucketed by PI pair; phase 4's candidate scores
// can be bucketed by owning partition. Holding every bucket in memory
// until its phase ends would defeat the memory budget on large graphs, so
// the writer keeps a small buffer per shard and appends the largest
// buffer to its file whenever the global budget is exceeded — peak memory
// stays at ~`buffer_budget_bytes` regardless of record volume.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "storage/io_model.h"
#include "util/serde.h"
#include "util/types.h"

namespace knnpc {

/// Thread-safety: a RecordShardWriter is single-writer — add()/finish()
/// must come from one thread at a time (the engine calls it from the
/// phase-2 loop; the shard driver gives each producer its own instance via
/// RoutedShardWriter below). The optional IoAccountant MAY be shared
/// across writers on different threads — its charges are atomic.
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
    return dir_ / (stem_ + "_" + std::to_string(shard) + ".bin");
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

/// Stem of producer `p`'s private writer inside a routed spool: spool
/// (p, c) lives at <dir>/<stem>_p<p>_<c>.bin. Exposed so a persistent
/// shard worker (core/shard_driver.h) can reconstruct its producer sink
/// in its own process with the exact on-disk layout RoutedShardWriter
/// uses — the layout is defined here and nowhere else.
inline std::string routed_producer_stem(const std::string& stem,
                                        std::size_t p) {
  return stem + "_p" + std::to_string(p);
}

/// Path of routed spool (p, c) without a RoutedShardWriter instance (the
/// consumer side of the cross-process exchange).
inline std::filesystem::path routed_spool_path(
    const std::filesystem::path& dir, const std::string& stem, std::size_t p,
    std::size_t c) {
  return dir / (routed_producer_stem(stem, p) + "_" + std::to_string(c) +
                ".bin");
}

/// Routed multi-sink spool: the shard driver's cross-shard exchange.
///
/// `producers` writer threads route records to `consumers` logical sinks;
/// spool (p, c) lives at <dir>/<stem>_p<p>_<c>.bin, so there is one file
/// per (producer-shard, consumer-shard) pair and NO shared mutable state
/// between producer threads — producer p appends only through its own
/// RecordShardWriter. Consumer c's record stream is the concatenation of
/// spools (0..P-1, c) in ascending producer order, which makes the read
/// order deterministic (the KNN pipeline additionally doesn't depend on
/// it: the top-K kept set is offer-order-independent).
///
/// Thread-safety: producer(p) hands out an independent single-writer
/// sink; distinct producers may add() concurrently. finish() and the
/// consumer-side reads must happen after every producer thread has been
/// joined (the driver's phase barrier). A shared IoAccountant is safe —
/// charges are atomic.
template <TrivialRecord T>
class RoutedShardWriter {
 public:
  /// Total buffered memory across all producers stays near
  /// `buffer_budget_bytes` (each producer gets an equal slice).
  RoutedShardWriter(const std::filesystem::path& dir, const std::string& stem,
                    std::size_t producers, std::size_t consumers,
                    std::size_t buffer_budget_bytes,
                    IoAccountant* accountant = nullptr)
      : consumers_(consumers) {
    if (producers == 0 || consumers == 0) {
      throw std::invalid_argument(
          "RoutedShardWriter: producers and consumers must be > 0");
    }
    writers_.reserve(producers);
    for (std::size_t p = 0; p < producers; ++p) {
      writers_.emplace_back(dir, routed_producer_stem(stem, p), consumers,
                            std::max<std::size_t>(
                                buffer_budget_bytes / producers, sizeof(T)),
                            accountant);
    }
  }

  [[nodiscard]] std::size_t num_producers() const noexcept {
    return writers_.size();
  }
  [[nodiscard]] std::size_t num_consumers() const noexcept {
    return consumers_;
  }

  /// Producer `p`'s private sink; route records with
  /// `producer(p).add(consumer, record)`. Thread-confined to p's thread.
  [[nodiscard]] RecordShardWriter<T>& producer(std::size_t p) {
    return writers_.at(p);
  }

  /// Flushes every producer. Call once, after producer threads joined.
  void finish() {
    for (auto& w : writers_) w.finish();
  }

  /// Records routed to consumer `c` so far, across all producers.
  [[nodiscard]] std::uint64_t consumer_records(std::size_t c) const {
    std::uint64_t total = 0;
    for (const auto& w : writers_) total += w.shard_records(c);
    return total;
  }

  /// Path of spool (p, c) — lets a consumer stream its input one
  /// producer at a time (read_record_shard per path) instead of
  /// materialising the whole read_consumer() concatenation.
  [[nodiscard]] std::filesystem::path spool_path(std::size_t p,
                                                 std::size_t c) const {
    return writers_.at(p).shard_path(c);
  }

  /// Reads back consumer `c`'s full stream (producers in ascending order).
  /// Requires finish() to have been called.
  [[nodiscard]] std::vector<T> read_consumer(
      std::size_t c, IoAccountant* accountant = nullptr) const {
    std::vector<T> out;
    out.reserve(consumer_records(c));
    for (const auto& w : writers_) {
      const std::vector<T> part = read_record_shard<T>(w.shard_path(c),
                                                       accountant);
      out.insert(out.end(), part.begin(), part.end());
    }
    return out;
  }

 private:
  std::size_t consumers_;
  std::vector<RecordShardWriter<T>> writers_;
};

/// Phase-4 spill record: a scored candidate pair.
struct ScoredTuple {
  VertexId s = kInvalidVertex;
  VertexId d = kInvalidVertex;
  float score = 0.0f;

  friend bool operator==(const ScoredTuple&, const ScoredTuple&) = default;
};

}  // namespace knnpc
