// Ext-D (paper future work): multi-threaded similarity computation.
// Sweeps phase-4 worker threads and reports the phase-4 time (split into
// parallel scoring and top-K merge) and speedup, plus the engine's
// auto-selected thread count (threads=0).
//
// Usage: bench_threads [--users=N] [--k=N]
#include <cstdio>

#include "core/engine.h"
#include "profiles/generators.h"
#include "util/options.h"
#include "util/rng.h"

using namespace knnpc;

int main(int argc, char** argv) {
  Options opts;
  opts.add_uint("users", "number of users", 20000);
  opts.add_uint("k", "neighbours per user", 10);
  if (!opts.parse(argc, argv)) return 0;
  const auto n = static_cast<VertexId>(opts.get_uint("users"));
  const auto k = static_cast<std::uint32_t>(opts.get_uint("k"));

  std::printf("Ext-D: phase-4 threads sweep (n=%u, k=%u, m=16, one "
              "iteration)\n",
              n, k);
  std::printf("%8s | %10s %10s %10s %10s %10s\n", "threads", "phase4 s",
              "score s", "merge s", "total s", "speedup");
  std::printf("----------------------------------------------------------"
              "--------\n");

  double baseline = 0;
  // threads=0 last: the auto row shows what large runs pick by default.
  for (const std::uint32_t threads : {1u, 2u, 4u, 8u, 16u, 0u}) {
    Rng rng(11);
    ClusteredGenConfig pconfig;
    pconfig.base.num_users = n;
    pconfig.base.num_items = 2000;
    pconfig.base.min_items = 25;   // heavier profiles: more sim work
    pconfig.base.max_items = 50;
    pconfig.num_clusters = 40;
    EngineConfig config;
    config.k = k;
    config.num_partitions = 16;
    config.threads = threads;
    KnnEngine engine(config, clustered_profiles(pconfig, rng));
    const IterationStats s = engine.run_iteration();
    if (threads == 1) baseline = s.timings.knn_s;
    char label[32];
    if (threads == 0) {
      std::snprintf(label, sizeof label, "auto(%u)", s.threads_used);
    } else {
      std::snprintf(label, sizeof label, "%u", threads);
    }
    std::printf("%8s | %10.3f %10.3f %10.3f %10.3f %9.2fx\n", label,
                s.timings.knn_s, s.knn_score_s, s.knn_merge_s,
                s.timings.total(), baseline / s.timings.knn_s);
  }

  std::printf("\nExpected shape: phase-4 time falls with threads until "
              "the per-pair I/O serial\nsections dominate (Amdahl); the "
              "score/merge columns show both halves\nparallelising.\n");
  return 0;
}
