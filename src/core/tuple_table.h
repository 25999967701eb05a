// Phase 2: the hash table H of unique candidate tuples.
//
// Duplicates arise from cycles (a->b->a) and from multiple bridge paths
// (a->b->d and a->c->d); H keeps one instance of each (s, d). Open
// addressing over packed 64-bit keys, linear probing, power-of-two
// capacity — roughly 3x faster and 4x smaller than unordered_set for this
// key shape.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/types.h"

namespace knnpc {

class TupleTable {
 public:
  /// `expected` pre-sizes the table for about that many inserts.
  explicit TupleTable(std::size_t expected = 1024);

  /// Inserts tuple (s, d); returns true when it was new.
  bool insert(Tuple t);

  /// True when (s, d) is present.
  [[nodiscard]] bool contains(Tuple t) const;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Total insert() calls, including duplicates — the phase-2 dedup ratio
  /// is size() / attempts().
  [[nodiscard]] std::uint64_t attempts() const noexcept { return attempts_; }

  void clear();

 private:
  static constexpr std::uint64_t kEmpty = ~0ULL;

  void grow();
  [[nodiscard]] std::size_t probe_start(std::uint64_t key) const noexcept;

  std::vector<std::uint64_t> slots_;
  std::size_t size_ = 0;
  std::uint64_t attempts_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace knnpc
