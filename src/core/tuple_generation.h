// Phase 1's payoff: sequential merge-join of a partition's sorted in-edge
// and out-edge lists to emit neighbours-of-neighbours tuples.
//
// In-edges {(s, v)} and out-edges {(v, d)} are sorted by the bridge v, so
// one linear pass pairs every in-source s with every out-destination d of
// the same bridge: "the vertex v acts as a bridge between s and d".
#pragma once

#include <cstdint>
#include <functional>
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
/// workers all call this, so every executor that processes partition p
/// draws the same stream and emits the same candidates — the thread- and
/// shard-count determinism contracts rest on it. Adding the reverse of a
/// candidate (EngineConfig::include_reverse) is left to the caller.
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

/// Upper bound of the phase-2 candidates each of `shards` source-user
/// shards keeps, when shard `shard_of(s)` keeps the candidates (s, *):
/// edge (u, w) of G(t) bridges (u, x) for every out-edge (w, x) and is
/// itself a direct candidate; with include_reverse, w also receives
/// (w, y) for every in-edge (y, u), and a restart (s, d) reverses into
/// any shard. A TupleTable sized with its shard's bound never grows. The
/// threaded engine's phase 2 and the shard driver's workers both size
/// their tables from this.
template <typename ShardOf>
std::vector<std::uint64_t> candidate_bounds(const EngineConfig& config,
                                            const KnnGraph& graph,
                                            std::uint32_t shards,
                                            ShardOf&& shard_of) {
  const VertexId n = graph.num_vertices();
  const bool reverse = config.include_reverse;
  std::vector<std::uint64_t> bound(shards, 0);
  std::vector<std::uint32_t> in_degree(n, 0);
  for (VertexId u = 0; u < n; ++u) {
    for (const Neighbor& e : graph.neighbors(u)) ++in_degree[e.id];
  }
  for (VertexId u = 0; u < n; ++u) {
    for (const Neighbor& e : graph.neighbors(u)) {
      bound[shard_of(u)] += graph.neighbors(e.id).size() + 1;
      if (reverse) bound[shard_of(e.id)] += in_degree[u] + 1;
    }
    bound[shard_of(u)] += config.random_candidates;
  }
  if (reverse) {
    for (std::uint64_t& b : bound) {
      b += static_cast<std::uint64_t>(n) * config.random_candidates;
    }
  }
  return bound;
}

/// Reference tuple generator for tests: all (s, d) with d a
/// neighbour's-neighbour of s (s -> v -> d, s != d), via plain adjacency
/// walks on the whole graph. O(sum over v of in(v)*out(v)).
std::uint64_t all_bridge_tuples(const Digraph& graph,
                                const std::function<void(Tuple)>& emit);

}  // namespace knnpc
