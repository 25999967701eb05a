// Abl-5: engine design-choice ablations (DESIGN.md §5) — each knob the
// engine exposes, toggled on the same workload:
//   reverse candidates on/off, candidate sampling rate, incremental
//   repartitioning period, random restarts, partitioner, traversal.
// Reports per-iteration time, tuple volume, and final recall vs brute
// force.
//
// Usage: bench_ablation [--users=N] [--k=N]
#include <cstdio>
#include <functional>
#include <string>

#include "core/brute_force.h"
#include "core/engine.h"
#include "core/metrics.h"
#include "profiles/generators.h"
#include "util/options.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace knnpc;

namespace {

struct Variant {
  std::string name;
  std::function<void(EngineConfig&)> tweak;
};

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  opts.add_uint("users", "number of users", 4000);
  opts.add_uint("k", "neighbours per user", 10);
  if (!opts.parse(argc, argv)) return 0;
  const auto n = static_cast<VertexId>(opts.get_uint("users"));
  const auto k = static_cast<std::uint32_t>(opts.get_uint("k"));

  Rng rng(4242);
  ClusteredGenConfig pconfig;
  pconfig.base.num_users = n;
  pconfig.base.num_items = 2000;
  pconfig.num_clusters = 40;
  const auto profiles = clustered_profiles(pconfig, rng);
  const InMemoryProfileStore store{profiles};
  const KnnGraph exact = brute_force_knn(store, k, SimilarityMeasure::Cosine, 8);

  const Variant variants[] = {
      {"baseline", [](EngineConfig&) {}},
      {"+reverse", [](EngineConfig& c) { c.include_reverse = true; }},
      {"rho=0.5", [](EngineConfig& c) { c.sample_rate = 0.5; }},
      {"rho=0.25", [](EngineConfig& c) { c.sample_rate = 0.25; }},
      {"repart every 4", [](EngineConfig& c) { c.repartition_every = 4; }},
      {"no restarts", [](EngineConfig& c) { c.random_candidates = 0; }},
      {"greedy partition",
       [](EngineConfig& c) { c.partitioner = "greedy"; }},
      {"cost-aware trav.",
       [](EngineConfig& c) { c.heuristic = "cost-aware"; }},
  };

  std::printf("Abl-5: engine design-choice ablation (n=%u, k=%u, m=8, "
              "run to change<0.01, max 15 iters)\n", n, k);
  std::printf("%-18s | %5s %9s %12s %10s | %8s\n", "variant", "iters",
              "s/iter", "tuples/iter", "MB/iter", "recall@K");
  std::printf("------------------------------------------------------------"
              "-----------\n");
  for (const Variant& variant : variants) {
    EngineConfig config;
    config.k = k;
    config.num_partitions = 8;
    variant.tweak(config);
    KnnEngine engine(config, profiles);
    Timer timer;
    const RunStats run = engine.run(15, 0.01);
    const double seconds = timer.elapsed_seconds();
    std::uint64_t tuples = 0;
    std::uint64_t bytes = 0;
    for (const auto& it : run.iterations) {
      tuples += it.unique_tuples;
      bytes += it.io.bytes_read + it.io.bytes_written;
    }
    const auto iters = run.iterations.size();
    std::printf("%-18s | %5zu %9.3f %12llu %10.1f | %8.3f\n",
                variant.name.c_str(), iters, seconds / iters,
                static_cast<unsigned long long>(tuples / iters),
                static_cast<double>(bytes) / iters / 1e6,
                recall_at_k(engine.graph(), exact));
  }
  std::printf("\nExpected shape: +reverse converges in fewer iterations at "
              "higher per-iteration\ncost; sampling trades recall for tuple "
              "volume; repartition reuse cuts\nper-iteration cost without "
              "hurting recall; no-restarts matches here (static\nprofiles) "
              "but breaks dynamic-profile recovery (see engine tests).\n");
  return 0;
}
