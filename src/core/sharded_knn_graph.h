// Merge container for the sharded KNN driver (core/shard_driver.h).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/knn_graph.h"
#include "partition/assignment.h"
#include "util/types.h"

namespace knnpc {

/// Merged-output container for the sharded KNN driver. Each shard worker
/// produces a KnnGraph populated only for the users it owns; this
/// container collects those partial graphs next to the user→shard map and
/// re-assembles the global G(t+1) with merge(). The merge is deterministic
/// by construction: user v's neighbour list is copied verbatim from its
/// owner shard (the ownership map is a partition — exactly one source per
/// user), so the result is independent of shard count and of the order
/// set_shard() was called in.
///
/// Thread-safety: set_shard() calls for DISTINCT shards may come from
/// different threads (each writes its own pre-allocated slot); merge() and
/// shard() must only run after those writers joined.
class ShardedKnnGraph {
 public:
  /// `ownership` maps each user to its shard (num_partitions = S);
  /// `k` is the out-degree bound of the merged graph.
  ShardedKnnGraph(PartitionAssignment ownership, std::uint32_t k);

  [[nodiscard]] std::uint32_t num_shards() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] VertexId num_vertices() const noexcept {
    return ownership_.num_vertices();
  }
  [[nodiscard]] const PartitionAssignment& ownership() const noexcept {
    return ownership_;
  }

  /// Installs shard `s`'s partial graph (vertex count must match; only
  /// entries of users owned by s are read back by merge()).
  void set_shard(std::uint32_t s, KnnGraph graph);

  /// Shard `s`'s partial graph (empty KnnGraph until set_shard).
  [[nodiscard]] const KnnGraph& shard(std::uint32_t s) const {
    return shards_.at(s);
  }

  /// Deterministic re-assembly: each user's list from its owner shard.
  /// Throws std::logic_error when a shard that owns users was never set.
  [[nodiscard]] KnnGraph merge() const;

 private:
  PartitionAssignment ownership_;
  std::uint32_t k_ = 0;
  std::vector<KnnGraph> shards_;
  // One byte per shard, NOT vector<bool>: concurrent set_shard() calls on
  // distinct shards must write distinct memory locations.
  std::vector<std::uint8_t> present_;
};

}  // namespace knnpc
