// Heuristic explorer: load any SNAP-format edge list (or generate a
// synthetic graph), treat it as a PI graph, and compare every traversal
// heuristic's load/unload operations at a chosen memory budget —
// an interactive version of the Table-1 experiment for your own graphs.
//
// Usage:
//   heuristic_explorer --file=my_graph.txt --slots=2
//   heuristic_explorer --synthetic=chung-lu --nodes=5000 --edges=40000
#include <cstdio>

#include "graph/digraph.h"
#include "graph/generators.h"
#include "graph/degree_stats.h"
#include "graph/snap_io.h"
#include "pigraph/heuristics.h"
#include "pigraph/simulator.h"
#include "util/options.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace knnpc;

int main(int argc, char** argv) {
  Options opts;
  opts.add_string("file", "SNAP edge-list file (overrides --synthetic)", "");
  opts.add_string("synthetic", "chung-lu | erdos-renyi | barabasi-albert",
                  "chung-lu");
  opts.add_uint("nodes", "synthetic vertex count", 5000);
  opts.add_uint("edges", "synthetic edge count", 40000);
  opts.add_uint("slots", "resident partition slots", 2);
  opts.add_uint("seed", "generator seed", 1);
  if (!opts.parse(argc, argv)) return 0;

  EdgeList list;
  if (!opts.get_string("file").empty()) {
    list = load_snap_file(opts.get_string("file"));
    std::printf("loaded %s: %u vertices, %zu edges\n",
                opts.get_string("file").c_str(), list.num_vertices,
                list.edges.size());
  } else {
    Rng rng(opts.get_uint("seed"));
    const auto n = static_cast<VertexId>(opts.get_uint("nodes"));
    const auto e = static_cast<std::size_t>(opts.get_uint("edges"));
    const std::string& kind = opts.get_string("synthetic");
    if (kind == "chung-lu") {
      list = chung_lu_directed(n, e, 2.3, rng);
    } else if (kind == "erdos-renyi") {
      list = erdos_renyi(n, e, rng);
    } else if (kind == "barabasi-albert") {
      list = barabasi_albert(
          n, static_cast<std::uint32_t>(std::max<std::size_t>(1, e / n)),
          rng);
    } else {
      std::fprintf(stderr, "unknown --synthetic kind: %s\n", kind.c_str());
      return 1;
    }
    std::printf("generated %s: %u vertices, %zu edges\n", kind.c_str(),
                list.num_vertices, list.edges.size());
  }

  const Digraph graph(list);
  const DegreeSummary degrees = summarize_degrees(graph);
  std::printf("degree shape: mean out %.1f, max total %zu, p99 %.0f, "
              "gini %.2f\n",
              degrees.mean_out_degree, degrees.max_total_degree,
              degrees.p99_total_degree, degrees.degree_gini);

  const PiGraph pi = PiGraph::from_digraph(graph);
  const auto slots = static_cast<std::size_t>(opts.get_uint("slots"));
  const LoadUnloadSimulator sim(slots);
  std::printf("\nPI pairs: %zu, memory slots: %zu\n", pi.num_pairs(), slots);
  std::printf("%-16s | %10s %10s %12s | %9s | %s\n", "heuristic", "loads",
              "unloads", "operations", "vs seq", "schedule s");
  std::printf("------------------------------------------------------------"
              "--------------\n");
  std::uint64_t seq_ops = 0;
  for (const auto& name : all_heuristic_names()) {
    Timer timer;
    const Schedule schedule = make_heuristic(name)->schedule(pi);
    const double schedule_s = timer.elapsed_seconds();
    const SimulationResult r = sim.run(pi, schedule);
    if (name == "sequential") seq_ops = r.operations();
    std::printf("%-16s | %10llu %10llu %12llu | %8.2f%% | %.3f\n",
                name.c_str(), static_cast<unsigned long long>(r.loads),
                static_cast<unsigned long long>(r.unloads),
                static_cast<unsigned long long>(r.operations()),
                seq_ops ? 100.0 * static_cast<double>(r.operations()) /
                              static_cast<double>(seq_ops)
                        : 100.0,
                schedule_s);
  }
  return 0;
}
