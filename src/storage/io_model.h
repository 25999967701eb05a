// Storage-device cost model (DESIGN.md §4, experiment Ext-C).
//
// The paper's future work compares HDD vs SSD. Real files are still read
// and written; the model additionally *accounts* what each operation would
// cost on a given device (seek latency + transfer time), so device
// comparisons are deterministic and hardware-independent. Nothing sleeps —
// the model only produces numbers.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "storage/block_file.h"

namespace knnpc {

struct IoModel {
  std::string name = "none";
  /// Cost added per operation (the seek / command overhead), microseconds.
  double seek_us = 0.0;
  /// Sequential transfer rate, bytes per microsecond (== MB/s).
  double bytes_per_us = 1e18;  // "free" by default

  /// Modelled cost of transferring `bytes` in one sequential operation.
  [[nodiscard]] double op_cost_us(std::uint64_t bytes) const {
    return seek_us + static_cast<double>(bytes) / bytes_per_us;
  }

  // Calibrated presets (typical 2014-era commodity devices, matching the
  // paper's setting):
  static IoModel none();   // pure counting, zero cost
  static IoModel hdd();    // 7200rpm: ~8ms seek, ~120 MB/s
  static IoModel ssd();    // SATA SSD: ~80us, ~450 MB/s
  static IoModel nvme();   // modern NVMe: ~15us, ~2.5 GB/s

  /// Parses "none" / "hdd" / "ssd" / "nvme"; throws std::invalid_argument.
  static IoModel parse(std::string_view name);
};

/// Accumulates modelled device time next to the raw byte counters.
///
/// Thread-safety: charge_read()/charge_write() are lock-free and safe to
/// call from any number of threads concurrently (PartitionStore::write_all
/// charges one accountant from every pool thread). counters() /
/// modeled_us() take relaxed snapshots: each field is exact, but a
/// snapshot taken *while* charges are in flight may mix fields from
/// different moments — read stats after workers have joined for totals
/// that add up.
class IoAccountant {
 public:
  explicit IoAccountant(IoModel model = IoModel::none())
      : model_(std::move(model)) {}

  /// Charges one sequential read/write of `bytes`.
  void charge_read(std::uint64_t bytes) noexcept {
    bytes_read_.fetch_add(bytes, std::memory_order_relaxed);
    read_ops_.fetch_add(1, std::memory_order_relaxed);
    modeled_us_.fetch_add(model_.op_cost_us(bytes),
                          std::memory_order_relaxed);
  }
  void charge_write(std::uint64_t bytes) noexcept {
    bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
    write_ops_.fetch_add(1, std::memory_order_relaxed);
    modeled_us_.fetch_add(model_.op_cost_us(bytes),
                          std::memory_order_relaxed);
  }

  /// Snapshot of the raw counters (see the class comment for concurrent
  /// -read semantics).
  [[nodiscard]] IoCounters counters() const noexcept {
    return {bytes_read_.load(std::memory_order_relaxed),
            bytes_written_.load(std::memory_order_relaxed),
            read_ops_.load(std::memory_order_relaxed),
            write_ops_.load(std::memory_order_relaxed)};
  }
  /// Total modelled device time, microseconds.
  [[nodiscard]] double modeled_us() const noexcept {
    return modeled_us_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const IoModel& model() const noexcept { return model_; }

  void reset() noexcept {
    bytes_read_.store(0, std::memory_order_relaxed);
    bytes_written_.store(0, std::memory_order_relaxed);
    read_ops_.store(0, std::memory_order_relaxed);
    write_ops_.store(0, std::memory_order_relaxed);
    modeled_us_.store(0.0, std::memory_order_relaxed);
  }

 private:
  IoModel model_;
  std::atomic<std::uint64_t> bytes_read_{0};
  std::atomic<std::uint64_t> bytes_written_{0};
  std::atomic<std::uint64_t> read_ops_{0};
  std::atomic<std::uint64_t> write_ops_{0};
  std::atomic<double> modeled_us_{0.0};
};

}  // namespace knnpc
