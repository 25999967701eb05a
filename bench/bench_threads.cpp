// Ext-D (paper future work): a multi-threaded pipeline. Sweeps the
// engine's thread count and reports, per count, the time of each phase
// the pool runs — phase 1 (partition writing), phase 2 (candidate
// generation and dedup), phase 4 (decoding, scoring and the top-K merge,
// with scoring and merge also shown alone) — the whole iteration and its
// speedup, plus the engine's auto-selected thread count (threads=0).
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

  std::printf("Ext-D: engine threads sweep (n=%u, k=%u, m=16, one "
              "iteration)\n",
              n, k);
  std::printf("%8s | %9s %9s %9s %9s %9s | %9s %8s\n", "threads",
              "phase1 s", "phase2 s", "phase4 s", "score s", "merge s",
              "iter s", "speedup");
  std::printf("----------------------------------------------------------"
              "--------------------------\n");

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
    if (threads == 1) baseline = s.timings.total();
    char label[32];
    if (threads == 0) {
      std::snprintf(label, sizeof label, "auto(%u)", s.threads_used);
    } else {
      std::snprintf(label, sizeof label, "%u", threads);
    }
    std::printf("%8s | %9.3f %9.3f %9.3f %9.3f %9.3f | %9.3f %7.2fx\n",
                label, s.timings.partition_s, s.timings.hash_s,
                s.timings.knn_s, s.knn_score_s, s.knn_merge_s,
                s.timings.total(), baseline / s.timings.total());
  }

  std::printf("\nExpected shape: phases 1, 2 and 4 all fall with threads "
              "until the serial\nsections left in each (file reads and "
              "writes, table allocation, the\nper-pair bundle reads) "
              "dominate (Amdahl); phase 2 gains least, its\nhash inserts "
              "being bound by memory, and the iteration speedup tops "
              "out\nbelow the thread count.\n");
  return 0;
}
