// Abl-1: partitioner ablation on the paper's phase-1 objective
// min Σ (N_in + N_out). Compares range / hash / degree-range / greedy on
// power-law and clique-structured graphs.
//
// Usage: bench_partitioner [--users=N] [--partitions=N]
#include <cstdio>

#include "graph/generators.h"
#include "partition/cost.h"
#include "partition/partitioner.h"
#include "util/options.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace knnpc;

namespace {

void report(const char* graph_name, const Digraph& graph, PartitionId m) {
  std::printf("\n%s (n=%u, e=%zu, m=%u)\n", graph_name,
              graph.num_vertices(), graph.num_edges(), m);
  std::printf("%-16s | %12s %12s %10s | %8s\n", "partitioner",
              "sum(Nin+Nout)", "external", "edge cut", "time s");
  std::printf("---------------------------------------------------------"
              "-------\n");
  for (const char* name : {"range", "hash", "degree-range", "greedy"}) {
    Timer timer;
    const auto assignment = make_partitioner(name)->assign(graph, m);
    const double assign_s = timer.elapsed_seconds();
    const auto cost = partition_cost(graph, assignment);
    const auto ext = external_partition_cost(graph, assignment);
    std::printf("%-16s | %12zu %12zu %10zu | %8.3f\n", name, cost.total,
                ext.total, edge_cut(graph, assignment), assign_s);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  opts.add_uint("users", "vertices in the random graphs", 4000);
  opts.add_uint("partitions", "partition count m", 16);
  if (!opts.parse(argc, argv)) return 0;
  const auto n = static_cast<VertexId>(opts.get_uint("users"));
  const auto m = static_cast<PartitionId>(opts.get_uint("partitions"));

  std::printf("Abl-1: phase-1 objective across partitioners\n");

  Rng rng(21);
  report("chung-lu power law", Digraph(chung_lu(n, n * 5, 2.3, rng)), m);

  // Clique-of-communities graph: strong locality for greedy to find.
  EdgeList cliques;
  const VertexId community = 50;
  const VertexId communities = n / community;
  cliques.num_vertices = communities * community;
  Rng crng(22);
  for (VertexId c = 0; c < communities; ++c) {
    const VertexId base = c * community;
    for (VertexId i = 0; i < community; ++i) {
      for (VertexId j = 0; j < community; ++j) {
        if (i != j && crng.next_bool(0.3)) {
          cliques.edges.push_back({base + i, base + j});
        }
      }
    }
  }
  report("planted communities", Digraph(cliques), m);

  Rng erng(23);
  report("erdos-renyi (no locality)", Digraph(erdos_renyi(n, n * 5, erng)),
         m);

  std::printf("\nExpected shape: greedy < range < hash on graphs with "
              "locality; all\nstrategies converge on structure-free ER "
              "graphs.\n");
  return 0;
}
