#include "core/tuple_generation.h"

namespace knnpc {

std::vector<std::uint64_t> candidate_bounds(const EngineConfig& config,
                                            std::uint32_t iteration,
                                            const KnnGraph& graph) {
  const VertexId n = graph.num_vertices();
  const bool reverse = config.include_reverse;
  std::vector<std::uint64_t> bound(n, 0);
  std::vector<std::uint32_t> in_degree;
  if (reverse) {
    in_degree.assign(n, 0);
    for (VertexId u = 0; u < n; ++u) {
      for (const Neighbor& e : graph.neighbors(u)) ++in_degree[e.id];
    }
  }
  for (VertexId u = 0; u < n; ++u) {
    for (const Neighbor& e : graph.neighbors(u)) {
      bound[u] += graph.neighbors(e.id).size() + 1;
      if (reverse) bound[e.id] += in_degree[u] + 1;
    }
    bound[u] += config.random_candidates;
    if (reverse) {
      restart_candidates(config, iteration, n, u,
                         [&bound](Tuple t) { ++bound[t.d]; });
    }
  }
  return bound;
}

std::uint64_t all_bridge_tuples(const Digraph& graph,
                                const std::function<void(Tuple)>& emit) {
  std::uint64_t emitted = 0;
  for (VertexId bridge = 0; bridge < graph.num_vertices(); ++bridge) {
    for (VertexId s : graph.in_neighbors(bridge)) {
      for (VertexId d : graph.out_neighbors(bridge)) {
        if (s == d) continue;
        emit(Tuple{s, d});
        ++emitted;
      }
    }
  }
  return emitted;
}

}  // namespace knnpc
