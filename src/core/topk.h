// Phase 4 output side: per-user bounded top-K accumulators.
//
// Each user's accumulator is a size-K min-heap on score; offering a
// candidate is O(1) when it doesn't beat the current worst and O(log K)
// otherwise. Memory is O(n * K) — the light state that stays resident
// while profiles stream through the 2-slot cache (DESIGN.md §5).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/knn_graph.h"
#include "util/types.h"

namespace knnpc {

class ThreadPool;

/// All n heaps live in one n x K array (user s's heap is row s, its first
/// count(s) entries), allocated by the constructing thread, so offers on
/// pool threads allocate nothing. Threads may offer concurrently to
/// disjoint users; no two may offer to one user at once.
class TopKAccumulator {
 public:
  TopKAccumulator(VertexId num_users, std::uint32_t k);

  /// Offers candidate `d` with `score` for user `s`. Callers must not
  /// offer the same (s, d) twice within one iteration (H guarantees
  /// uniqueness); duplicates would occupy two heap slots. Throws
  /// std::out_of_range when s >= num_users().
  void offer(VertexId s, VertexId d, float score);

  [[nodiscard]] VertexId num_users() const noexcept {
    return static_cast<VertexId>(counts_.size());
  }
  [[nodiscard]] std::uint32_t k() const noexcept { return k_; }

  /// Current candidate count for user s (<= k).
  [[nodiscard]] std::size_t count(VertexId s) const { return counts_.at(s); }

  /// Freezes all accumulators into the next KNN graph G(t+1) and resets
  /// this accumulator. A non-null `pool` parallelises the per-user
  /// neighbour-list sorts (each user's list is independent); the result is
  /// identical either way.
  [[nodiscard]] KnnGraph build_graph(ThreadPool* pool = nullptr);

  /// Removes and returns one user's candidates (unsorted heap order).
  /// Used by the score-spilling path, which finalises users one partition
  /// at a time.
  [[nodiscard]] std::vector<Neighbor> take(VertexId s);

 private:
  std::uint32_t k_;
  std::vector<std::uint32_t> counts_;  // per user, <= k
  std::vector<Neighbor> rows_;         // n x k, row s a min-heap on score
};

}  // namespace knnpc
