#include "core/topk.h"

#include <algorithm>
#include <stdexcept>

#include "profiles/similarity_kernels.h"
#include "util/thread_pool.h"

namespace knnpc {
namespace {

/// Heap comparator placing the *worst* entry at the front: lowest score,
/// and among score ties the largest id (so the kept set is always "top K
/// by (score desc, id asc)" independent of arrival order).
struct WorstFirst {
  bool operator()(const Neighbor& a, const Neighbor& b) const noexcept {
    // std::push_heap puts the comparator's maximum at front; "maximum"
    // here must be the worst entry, so a < b  <=>  a is better than b.
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  }
};

}  // namespace

TopKAccumulator::TopKAccumulator(VertexId num_users, std::uint32_t k)
    : k_(k),
      counts_(num_users, 0),
      rows_(static_cast<std::size_t>(num_users) * k) {}

void TopKAccumulator::offer(VertexId s, VertexId d, float score) {
  // Check s before forming its row pointer.
  std::uint32_t& count = counts_.at(s);
  Neighbor* const heap = rows_.data() + static_cast<std::size_t>(s) * k_;
  if (count < k_) {
    heap[count++] = {d, score};
    std::push_heap(heap, heap + count, WorstFirst{});
    return;
  }
  if (k_ == 0) return;
  const Neighbor& worst = heap[0];
  if (score < worst.score ||
      (score == worst.score && d >= worst.id)) {
    return;  // not better than the current worst
  }
  std::pop_heap(heap, heap + k_, WorstFirst{});
  heap[k_ - 1] = {d, score};
  std::push_heap(heap, heap + k_, WorstFirst{});
}

std::vector<Neighbor> TopKAccumulator::take(VertexId s) {
  std::uint32_t& count = counts_.at(s);
  const Neighbor* const row = rows_.data() + static_cast<std::size_t>(s) * k_;
  std::vector<Neighbor> out(row, row + count);
  count = 0;
  return out;
}

KnnGraph TopKAccumulator::build_graph(ThreadPool* pool) {
  KnnGraph graph(num_users(), k_);
  auto emit = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t v = lo; v < hi; ++v) {
      graph.set_neighbors(static_cast<VertexId>(v),
                          take(static_cast<VertexId>(v)));
    }
  };
  if (pool != nullptr) {
    // Distinct users write distinct graph slots, so chunks are independent.
    pool->parallel_for(0, num_users(), emit, /*min_chunk=*/2048);
  } else {
    emit(0, num_users());
  }
  return graph;
}

void score_and_offer(std::span<const Tuple> tuples,
                     const FlatProfileSet& primary,
                     const FlatProfileSet* secondary,
                     SimilarityMeasure measure, std::span<const VertexId> row,
                     TopKAccumulator& acc, ThreadPool* pool) {
  auto runs = [&](std::size_t lo, std::size_t hi) {
    KernelScratch scratch;
    std::vector<VertexId> cands;
    std::vector<float> scores;
    while (lo < hi) {
      const VertexId s = tuples[lo].s;
      std::size_t end = lo + 1;
      while (end < hi && tuples[end].s == s) ++end;
      cands.clear();
      for (std::size_t t = lo; t < end; ++t) cands.push_back(tuples[t].d);
      scores.resize(cands.size());
      score_batch(primary, secondary, s, cands, measure, scores.data(),
                  scratch);
      const VertexId r = row.empty() ? s : row[s];
      for (std::size_t i = 0; i < cands.size(); ++i) {
        acc.offer(r, cands[i], scores[i]);
      }
      lo = end;
    }
  };
  if (pool == nullptr) {
    runs(0, tuples.size());
    return;
  }
  pool->parallel_for(
      0, tuples.size(),
      [&](std::size_t lo, std::size_t hi) {
        if (lo > 0) {
          const VertexId before = tuples[lo - 1].s;
          while (lo < hi && tuples[lo].s == before) ++lo;
        }
        if (lo == hi) return;
        while (hi < tuples.size() && tuples[hi].s == tuples[hi - 1].s) ++hi;
        runs(lo, hi);
      },
      /*min_chunk=*/256);
}

}  // namespace knnpc
