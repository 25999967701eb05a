// Phase 1's payoff: sequential merge-join of a partition's sorted in-edge
// and out-edge lists to emit neighbours-of-neighbours tuples.
//
// In-edges {(s, v)} and out-edges {(v, d)} are sorted by the bridge v, so
// one linear pass pairs every in-source s with every out-destination d of
// the same bridge: "the vertex v acts as a bridge between s and d".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/engine.h"
#include "graph/digraph.h"
#include "graph/knn_graph.h"
#include "storage/partition_store.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/types.h"

namespace knnpc {

/// Triangular index of the unordered PI pair (a, b), a <= b < m — the
/// slot layout of the per-pair tuple shard files, shared by the engine
/// and the shard driver so both bucket tuples identically.
inline std::size_t pi_pair_slot(PartitionId a, PartitionId b,
                                PartitionId m) {
  if (a > b) std::swap(a, b);
  // Row a starts after a*m - a*(a-1)/2 slots.
  return static_cast<std::size_t>(a) * m -
         static_cast<std::size_t>(a) * (a > 0 ? a - 1 : 0) / 2 + (b - a);
}

/// RNG stream for subsampling partition `p`'s merge-join candidates (the
/// NN-Descent rho knob) in iteration `t`. The stream is derived from
/// (seed, iteration, partition) alone — no cross-partition state — so any
/// executor that processes partition p reproduces the same sampling
/// decisions: the serial engine and every shard-driver worker draw
/// identical streams, which is what makes the KNN output independent of
/// the shard count (see core/shard_driver.h).
inline Rng candidate_sample_rng(std::uint64_t seed, std::uint32_t iteration,
                                PartitionId p) {
  return Rng(mix64(seed + 1) ^
             mix64(0xda942042e4dd58b5ULL * (iteration + 1)) ^
             mix64(0x510e527fade682d1ULL + p));
}

/// RNG stream for user `s`'s random-restart candidates in iteration `t`.
/// Per-user derivation (not one sequential stream over all users) for the
/// same reason as candidate_sample_rng: whichever worker generates user
/// s's restarts draws the same values.
inline Rng random_restart_rng(std::uint64_t seed, std::uint32_t iteration,
                              VertexId s) {
  return Rng(mix64(seed) ^ mix64(0x9e3779b97f4a7c15ULL * (iteration + 1)) ^
             mix64(0x6a09e667f3bcc909ULL + s));
}

/// Calls `emit(Tuple{s, d})` for every bridge pairing; skips s == d
/// (a user is not its own KNN candidate). Inputs MUST be sorted by
/// bridge: in_edges by .dst, out_edges by .src (the partition-store file
/// order). Returns the number of emitted tuples.
template <typename Emit>
std::uint64_t merge_join_tuples(std::span<const Edge> in_edges,
                                std::span<const Edge> out_edges,
                                Emit&& emit) {
  std::uint64_t emitted = 0;
  std::size_t i = 0;
  std::size_t o = 0;
  while (i < in_edges.size() && o < out_edges.size()) {
    const VertexId bridge_in = in_edges[i].dst;
    const VertexId bridge_out = out_edges[o].src;
    if (bridge_in < bridge_out) {
      ++i;
      continue;
    }
    if (bridge_out < bridge_in) {
      ++o;
      continue;
    }
    // Runs with equal bridge: cross product.
    const VertexId bridge = bridge_in;
    std::size_t i_end = i;
    while (i_end < in_edges.size() && in_edges[i_end].dst == bridge) ++i_end;
    std::size_t o_end = o;
    while (o_end < out_edges.size() && out_edges[o_end].src == bridge) {
      ++o_end;
    }
    for (std::size_t x = i; x < i_end; ++x) {
      for (std::size_t y = o; y < o_end; ++y) {
        const VertexId s = in_edges[x].src;
        const VertexId d = out_edges[y].dst;
        if (s == d) continue;
        emit(Tuple{s, d});
        ++emitted;
      }
    }
    i = i_end;
    o = o_end;
  }
  return emitted;
}

/// Phase 2's candidate rules for one partition, loaded edges-only: every
/// neighbour's-neighbour pairing of the sorted merge-join, each kept with
/// probability config.sample_rate (NN-Descent's rho) as drawn from
/// candidate_sample_rng(seed, iteration, part.id), plus every direct edge
/// of G(t) the partition owns ("as well as directed edges from the graph
/// G(t)"), never sampled — the current KNN edges must keep competing or
/// the graph forgets what it already knows. Calls `emit(Tuple)` for each
/// kept candidate in a fixed order and returns how many were generated
/// before sampling (the partition's IterationStats::candidate_tuples).
///
/// The serial engine, the threaded engine and the shard driver's
/// workers' partition walk (sampled or reversed runs) all call this, so
/// every executor that processes partition p draws the same stream and
/// emits the same candidates — the thread- and shard-count determinism
/// contracts rest on it. Adding the reverse of a candidate
/// (EngineConfig::include_reverse) is left to the caller.
template <typename Emit>
std::uint64_t partition_candidates(const EngineConfig& config,
                                   std::uint32_t iteration,
                                   const PartitionData& part, Emit&& emit) {
  const bool sampling = config.sample_rate < 1.0;
  Rng sample_rng = candidate_sample_rng(config.seed, iteration, part.id);
  const std::uint64_t bridged = merge_join_tuples(
      part.in_edges, part.out_edges, [&](Tuple t) {
        if (sampling && !sample_rng.next_bool(config.sample_rate)) return;
        emit(t);
      });
  for (const Edge& e : part.out_edges) emit(Tuple{e.src, e.dst});
  return bridged + part.out_edges.size();
}

/// NN-Descent-style random restarts for user `s` of `n` (see
/// EngineConfig::random_candidates): a trickle of uniform candidates so
/// users remain reachable after profile drift, from s's own stream
/// random_restart_rng(seed, iteration, s) — independent of which executor
/// generates them. Calls `emit` per candidate and returns their count.
template <typename Emit>
std::uint64_t restart_candidates(const EngineConfig& config,
                                 std::uint32_t iteration, VertexId n,
                                 VertexId s, Emit&& emit) {
  if (config.random_candidates == 0 || n <= 1) return 0;
  Rng restart_rng = random_restart_rng(config.seed, iteration, s);
  std::uint64_t generated = 0;
  for (std::uint32_t r = 0; r < config.random_candidates; ++r) {
    const auto d = static_cast<VertexId>(restart_rng.next_below(n));
    if (d == s) continue;
    ++generated;
    emit(Tuple{s, d});
  }
  return generated;
}

// Source-major rule. A process that holds G(t) in memory can walk one
// source user at a time instead of merge-joining partitions:
// source_candidates emits, for one source s, exactly the multiset of
// candidates with source s that partition_candidates over all m
// partitions plus restart_candidates for every user emit, provided
// nothing is sampled (candidate_sample_rng draws one stream per
// partition, in merge-join order, which no per-source walk reproduces)
// and nothing reversed (the reverses of (x, s) are left to the
// partition walk). All of s's candidates come out together, so the
// caller can dedup them with an n-entry stamp array instead of a hash
// table (the shard driver's workers do).

/// The candidates with source s: every two-hop path s -> v -> d (d != s),
/// every direct edge s -> v of G(t), and s's restarts. Calls
/// `emit(Tuple{s, d})` for each and returns their count, s's share of
/// IterationStats::candidate_tuples.
template <typename Emit>
std::uint64_t source_candidates(const EngineConfig& config,
                                std::uint32_t iteration,
                                const KnnGraph& graph, VertexId s,
                                Emit&& emit) {
  std::uint64_t generated = 0;
  for (const Neighbor& v : graph.neighbors(s)) {
    for (const Neighbor& d : graph.neighbors(v.id)) {
      if (d.id == s) continue;
      emit(Tuple{s, d.id});
      ++generated;
    }
    emit(Tuple{s, v.id});
    ++generated;
  }
  return generated + restart_candidates(config, iteration,
                                        graph.num_vertices(), s, emit);
}

/// Upper bound of the phase-2 candidates with source s, for every user s
/// of G(t): edge (s, v) bridges (s, d) for every out-edge (v, d) and is
/// itself a direct candidate, and s draws config.random_candidates
/// restarts. With include_reverse, edge (u, w) also hands w the reverses
/// (w, y) of the paths y -> u -> w and of itself, counted from u's
/// in-degree, and each restart (x, s) hands s its reverse, counted exactly
/// by drawing every user's restarts of `iteration`. Sampled runs emit
/// fewer. CandidateBuckets sizes each source's bucket with its entry, in
/// the threaded engine and on the shard workers' partition walk; no
/// bucket grows.
std::vector<std::uint64_t> candidate_bounds(const EngineConfig& config,
                                            std::uint32_t iteration,
                                            const KnnGraph& graph);

/// Phase 2's per-source candidate buckets, the dedup beside the serial
/// oracle's TupleTable. Each owned source s gets one bucket of bound[s]
/// destinations (candidate_bounds), all in one array allocated by the
/// constructing thread, so filling it allocates nothing. Callers that
/// emit the deduplicated buckets one source after another group every
/// pair bundle by source, one run per source, which phase 4's fused
/// offers rely on (score_and_offer in core/topk.h). The threaded engine's
/// source shards fill and dedup disjoint sources of one instance; a shard
/// worker's partition walk holds one over its own users.
class CandidateBuckets {
 public:
  /// One bucket of bound[s] entries per user s with owns(s); the other
  /// users get none.
  template <typename Owns>
  CandidateBuckets(std::span<const std::uint64_t> bound, Owns&& owns)
      : off_(bound.size() + 1, 0), fill_(bound.size(), 0) {
    for (VertexId s = 0; s < bound.size(); ++s) {
      off_[s + 1] = off_[s] + (owns(s) ? bound[s] : 0);
    }
    dest_ = std::make_unique_for_overwrite<VertexId[]>(off_.back());
  }

  /// Appends t.d to the bucket of t.s, which must be owned and hold
  /// fewer than its bound. Distinct sources may be filled concurrently.
  void add(Tuple t) noexcept { dest_[off_[t.s] + fill_[t.s]++] = t.d; }

  /// Keeps the first copy of each destination in s's bucket, in place
  /// and in arrival order, and returns the kept entries. `seen` is an
  /// n-entry stamp array, zero before its first use: seen[d] == s + 1
  /// once (s, d) is kept, so one array serves every source it dedups.
  std::span<const VertexId> dedup(VertexId s, std::span<VertexId> seen) {
    VertexId* const bucket = dest_.get() + off_[s];
    std::uint32_t kept = 0;
    for (std::uint32_t i = 0; i < fill_[s]; ++i) {
      const VertexId d = bucket[i];
      if (seen[d] == s + 1) continue;
      seen[d] = s + 1;
      bucket[kept++] = d;
    }
    fill_[s] = kept;
    return bucket_of(s);
  }

  /// s's bucket as it stands.
  [[nodiscard]] std::span<const VertexId> bucket_of(VertexId s) const {
    return {dest_.get() + off_[s], fill_[s]};
  }

 private:
  std::vector<std::uint64_t> off_;   // s's room is dest_[off_[s], off_[s+1])
  std::vector<std::uint32_t> fill_;  // s's bucket is its first fill_[s]
  std::unique_ptr<VertexId[]> dest_;
};

/// Reference tuple generator for tests: all (s, d) with d a
/// neighbour's-neighbour of s (s -> v -> d, s != d), via plain adjacency
/// walks on the whole graph. O(sum over v of in(v)*out(v)).
std::uint64_t all_bridge_tuples(const Digraph& graph,
                                const std::function<void(Tuple)>& emit);

}  // namespace knnpc
