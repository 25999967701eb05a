// Phase 4 output side: per-user bounded top-K accumulators, and the one
// score loop that feeds them (score_and_offer).
//
// Each user's accumulator is a size-K min-heap on score; offering a
// candidate is O(1) when it doesn't beat the current worst and O(log K)
// otherwise. Memory is O(n * K) — the light state that stays resident
// while profiles stream through the 2-slot cache (DESIGN.md §5).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/knn_graph.h"
#include "profiles/flat_profile.h"
#include "profiles/similarity.h"
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
  /// The shard body copies its users' rows into G(t+1) with it.
  [[nodiscard]] std::vector<Neighbor> take(VertexId s);

 private:
  std::uint32_t k_;
  std::vector<std::uint32_t> counts_;  // per user, <= k
  std::vector<Neighbor> rows_;         // n x k, row s a min-heap on score
};

/// Phase 4 over one pair bundle, the one score loop of the engine and the
/// shard body: scores each run of tuples with equal source s in one
/// score_batch call (one source lookup, one warm source row), profiles
/// looked up in `primary`, then `secondary` (may be null), and offers the
/// run's scores to accumulator row row[s] (row s when `row` is empty) in
/// the same task. With a `pool`, a task given [lo, hi) owns the runs that
/// start in it: it skips a run begun before lo and finishes its last run
/// past hi. Tasks offer to disjoint rows only when every source forms one
/// run, so a bundle scored on a pool must be grouped by source. Each score
/// depends on its tuple alone and the kept set on the offered set alone,
/// so neither the bundle order nor the split changes the result.
void score_and_offer(std::span<const Tuple> tuples,
                     const FlatProfileSet& primary,
                     const FlatProfileSet* secondary,
                     SimilarityMeasure measure, std::span<const VertexId> row,
                     TopKAccumulator& acc, ThreadPool* pool);

}  // namespace knnpc
