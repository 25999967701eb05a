#include "core/sharded_knn_graph.h"

#include <stdexcept>
#include <string>
#include <utility>

namespace knnpc {

ShardedKnnGraph::ShardedKnnGraph(PartitionAssignment ownership,
                                 std::uint32_t k)
    : ownership_(std::move(ownership)), k_(k),
      shards_(ownership_.num_partitions()),
      present_(ownership_.num_partitions(), false) {}

void ShardedKnnGraph::set_shard(std::uint32_t s, KnnGraph graph) {
  if (graph.num_vertices() != ownership_.num_vertices()) {
    throw std::invalid_argument("ShardedKnnGraph: vertex count mismatch");
  }
  shards_.at(s) = std::move(graph);
  present_.at(s) = 1;
}

KnnGraph ShardedKnnGraph::merge() const {
  const VertexId n = ownership_.num_vertices();
  KnnGraph merged(n, k_);
  for (VertexId v = 0; v < n; ++v) {
    const PartitionId owner = ownership_.owner(v);
    if (present_.at(owner) == 0) {
      throw std::logic_error(
          "ShardedKnnGraph::merge: shard " + std::to_string(owner) +
          " owns users but was never set");
    }
    const auto list = shards_[owner].neighbors(v);
    merged.set_neighbors(v, std::vector<Neighbor>(list.begin(), list.end()));
  }
  return merged;
}

}  // namespace knnpc
