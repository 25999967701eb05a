// Convergence diagnostics that don't require the full O(n^2) ground truth.
//
// Brute-force recall is exact but quadratic; at the scales the paper
// targets it is unusable. These estimators sample users, compute *their*
// exact neighbour lists only, and report recall with a confidence margin —
// the practical way to monitor a production run's quality.
#pragma once

#include <cstdint>

#include "graph/knn_graph.h"
#include "profiles/profile_store.h"
#include "profiles/similarity.h"

namespace knnpc {

class ThreadPool;

struct SampledRecall {
  double recall = 0.0;
  /// Half-width of the normal-approximation 95% confidence interval.
  double margin95 = 0.0;
  std::size_t sampled_users = 0;
};

/// Exact-per-sampled-user recall@K of `graph` against brute force over the
/// full profile set. Cost: O(samples * n) similarities instead of O(n^2).
/// Deterministic per seed (and per thread count); samples are drawn
/// without replacement. `threads` 0 = auto, clamped by the sample count.
SampledRecall sampled_recall(const KnnGraph& graph,
                             const ProfileStore& profiles,
                             SimilarityMeasure measure, std::size_t samples,
                             std::uint64_t seed = 23,
                             std::uint32_t threads = 1);

/// Same estimator, but runs on an existing pool (nullptr = serial) so the
/// engine can reuse its own workers instead of spawning a pool per
/// iteration. The `threads` overload above delegates here.
SampledRecall sampled_recall(const KnnGraph& graph,
                             const ProfileStore& profiles,
                             SimilarityMeasure measure, std::size_t samples,
                             std::uint64_t seed, ThreadPool* pool);

/// Mean similarity of each user's *worst* kept neighbour — a cheap
/// convergence signal that rises monotonically-ish as the graph improves
/// and needs no ground truth at all.
double mean_kth_score(const KnnGraph& graph);

}  // namespace knnpc
