// Sharded-driver sweep: runs the same pinned workload at several shard
// counts — in thread mode AND persistent-worker mode — reports total and
// per-shard wall time plus the merged phase-4 time, and verifies the
// bit-identical-output contract by checksumming every run (all modes)
// against thread-mode S=1.
//
// Usage: bench_shards [--users=N] [--k=N] [--iters=N] [--agents=N] [--json]
// With --json the table is replaced by one JSON object on stdout (the CI
// perf-tracking job parses it; see tools/bench_to_json.py). Persistent
// mode pays the worker spawn once per run and ships G(t) deltas after
// that, so multi-iteration runs (--iters > 1) show its steady state.
// --agents=N adds a distributed column: the persistent sweep re-run with
// the workers behind N in-process loopback-TCP worker agents, measuring
// the coordinator/sync overhead against local persistent mode and
// re-verifying the checksum contract over real sockets.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/shard_driver.h"
#include "core/worker_agent.h"
#include "graph/knn_graph_io.h"
#include "profiles/generators.h"
#include "storage/block_file.h"
#include "util/options.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace knnpc;

namespace {

std::vector<SparseProfile> pinned_profiles(VertexId n) {
  Rng rng(11);
  ClusteredGenConfig pconfig;
  pconfig.base.num_users = n;
  pconfig.base.num_items = 2000;
  pconfig.base.min_items = 25;
  pconfig.base.max_items = 50;
  pconfig.num_clusters = 40;
  return clustered_profiles(pconfig, rng);
}

/// One in-process loopback worker agent on a background thread, with its
/// own scratch work root — the bench-local stand-in for a remote host.
struct LoopbackAgent {
  ScratchDir scratch;
  WorkerAgent agent;
  std::thread thread;

  explicit LoopbackAgent(const std::string& tag)
      : scratch("bench_shards_" + tag),
        agent([&] {
          WorkerAgentConfig config;
          config.work_root = scratch.path();
          return config;
        }()),
        thread([this] { agent.run(); }) {}

  ~LoopbackAgent() {
    agent.stop();
    thread.join();
  }

  [[nodiscard]] std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(agent.port());
  }
};

}  // namespace

int main(int argc, char** argv) {
  // Persistent-mode rows re-execute this binary as shard workers.
  if (const auto worker_exit = maybe_run_shard_worker(argc, argv)) {
    return *worker_exit;
  }
  Options opts;
  opts.add_uint("users", "number of users", 20000);
  opts.add_uint("k", "neighbours per user", 10);
  opts.add_uint("iters", "iterations per shard count", 1);
  opts.add_uint("agents",
                "also run the persistent sweep behind N loopback-TCP "
                "worker agents (0 = skip the distributed column)",
                0);
  opts.add_flag("json", "emit results as JSON instead of a table");
  if (!opts.parse(argc, argv)) return 0;
  const auto n = static_cast<VertexId>(opts.get_uint("users"));
  const auto k = static_cast<std::uint32_t>(opts.get_uint("k"));
  const auto iters = static_cast<std::uint32_t>(opts.get_uint("iters"));
  const auto agents = static_cast<std::uint32_t>(opts.get_uint("agents"));
  const bool json = opts.get_flag("json");

  if (!json) {
    std::printf("Sharded driver sweep (n=%u, k=%u, m=16, %u iteration%s)\n",
                n, k, iters, iters == 1 ? "" : "s");
    std::printf("%8s | %10s %10s %12s %10s %9s | %10s %9s | %s\n",
                "shards", "wall s", "cpu s", "max shard s", "speedup",
                "identical", "persist s", "pers id", "per-shard wall s");
    std::printf("----------------------------------------------------------"
                "--------------------------------------------\n");
  }

  struct Row {
    std::uint32_t shards = 0;
    std::uint32_t threads_per_shard = 0;
    /// Measured wall time of the whole run (the number sharding must
    /// improve); cpu_s is the sum of per-worker phase timings.
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double phase4_s = 0.0;
    /// Same workload through persistent workers: one spawn for the whole
    /// run, then framed commands with G(t) deltas; the process and IPC
    /// overhead is persistent_wall_s - wall_s.
    double persistent_wall_s = 0.0;
    /// Persistent-mode round-trip accounting. round_trips is the MAX
    /// heavy commands any worker saw in any one iteration — the fused
    /// protocol's contract is exactly 1 on a clean run (the GO barrier
    /// frame is payload-free and uncounted). profile_reads counts
    /// partition-profile loads, which an edges-only persistent fleet
    /// must keep at 0; the byte counters are run totals.
    std::uint32_t persistent_round_trips = 0;
    std::uint64_t persistent_bytes_tx = 0;
    std::uint64_t persistent_bytes_rx = 0;
    std::uint64_t persistent_profile_reads = 0;
    /// --agents only: the persistent sweep again, workers behind
    /// loopback-TCP agents. distributed_wall_s - persistent_wall_s is
    /// the coordinator tax (run-dir sync + spool relay + TCP); the sync
    /// counters total what the content-addressed sync moved vs skipped.
    double distributed_wall_s = 0.0;
    std::uint64_t distributed_sync_files_tx = 0;
    std::uint64_t distributed_sync_bytes_tx = 0;
    std::uint64_t distributed_sync_files_skipped = 0;
    std::uint64_t distributed_sync_bytes_skipped = 0;
    std::vector<double> shard_wall_s;
    std::uint64_t checksum = 0;
    std::uint64_t persistent_checksum = 0;
    std::uint64_t distributed_checksum = 0;
    bool identical = false;
    bool persistent_identical = false;
    bool distributed_identical = true;  // vacuously when --agents=0
  };
  std::vector<Row> rows;
  double baseline = 0.0;
  std::uint64_t reference_checksum = 0;
  for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    EngineConfig config;
    config.k = k;
    config.num_partitions = 16;
    ShardConfig shard_config;
    shard_config.shards = shards;
    Row row;
    row.shards = shards;
    row.shard_wall_s.assign(shards, 0.0);
    {
      ShardedKnnEngine driver(config, shard_config, pinned_profiles(n));
      row.threads_per_shard = driver.threads_per_shard();
      Timer wall;
      for (std::uint32_t i = 0; i < iters; ++i) {
        const ShardedIterationStats s = driver.run_iteration();
        row.cpu_s += s.merged.timings.total();
        row.phase4_s += s.merged.timings.knn_s;
        for (const ShardWorkerStats& w : s.workers) {
          row.shard_wall_s[w.shard] += w.wall_s();
        }
      }
      row.wall_s = wall.elapsed_seconds();
      row.checksum = knn_graph_checksum(driver.graph());
    }
    {
      shard_config.worker_mode = ShardWorkerMode::Persistent;
      ShardedKnnEngine driver(config, shard_config, pinned_profiles(n));
      Timer wall;
      for (std::uint32_t i = 0; i < iters; ++i) {
        const ShardedIterationStats s = driver.run_iteration();
        for (const ShardWorkerStats& w : s.workers) {
          row.persistent_round_trips =
              std::max(row.persistent_round_trips, w.round_trips);
          row.persistent_bytes_tx += w.bytes_tx;
          row.persistent_bytes_rx += w.bytes_rx;
          row.persistent_profile_reads += w.profile_reads;
        }
      }
      row.persistent_wall_s = wall.elapsed_seconds();
      row.persistent_checksum = knn_graph_checksum(driver.graph());
    }
    if (agents > 0) {
      const std::uint32_t fleet = std::min(agents, shards);
      std::vector<std::unique_ptr<LoopbackAgent>> fleet_agents;
      std::vector<std::string> endpoints;
      for (std::uint32_t a = 0; a < fleet; ++a) {
        fleet_agents.push_back(std::make_unique<LoopbackAgent>(
            "s" + std::to_string(shards) + "_a" + std::to_string(a)));
        endpoints.push_back(fleet_agents.back()->endpoint());
      }
      shard_config.worker_mode = ShardWorkerMode::Persistent;
      shard_config.worker_endpoints = endpoints;
      ShardedKnnEngine driver(config, shard_config, pinned_profiles(n));
      Timer wall;
      for (std::uint32_t i = 0; i < iters; ++i) {
        const ShardedIterationStats s = driver.run_iteration();
        for (const ShardWorkerStats& w : s.workers) {
          row.distributed_sync_files_tx += w.sync_files_tx;
          row.distributed_sync_bytes_tx += w.sync_bytes_tx;
          row.distributed_sync_files_skipped += w.sync_files_skipped;
          row.distributed_sync_bytes_skipped += w.sync_bytes_skipped;
        }
      }
      row.distributed_wall_s = wall.elapsed_seconds();
      row.distributed_checksum = knn_graph_checksum(driver.graph());
      shard_config.worker_endpoints.clear();
    }
    if (shards == 1) {
      baseline = row.wall_s;
      reference_checksum = row.checksum;
    }
    row.identical = row.checksum == reference_checksum;
    row.persistent_identical = row.persistent_checksum == reference_checksum;
    if (agents > 0) {
      row.distributed_identical =
          row.distributed_checksum == reference_checksum;
    }
    rows.push_back(row);
    if (!json) {
      double max_wall = 0.0;
      for (double w : row.shard_wall_s) max_wall = std::max(max_wall, w);
      std::printf("%8u | %10.3f %10.3f %12.3f %9.2fx %9s | %10.3f %9s | ",
                  shards, row.wall_s, row.cpu_s, max_wall,
                  baseline / row.wall_s, row.identical ? "yes" : "NO",
                  row.persistent_wall_s,
                  row.persistent_identical ? "yes" : "NO");
      if (agents > 0) {
        std::printf("dist %.3f %s | ", row.distributed_wall_s,
                    row.distributed_identical ? "yes" : "NO");
      }
      for (double w : row.shard_wall_s) std::printf("%.3f ", w);
      std::printf("\n");
    }
  }

  if (json) {
    std::printf("{\"bench\":\"shards\",\"users\":%u,\"k\":%u,\"iters\":%u,"
                "\"results\":[",
                n, k, iters);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      std::printf("%s{\"shards\":%u,\"threads_per_shard\":%u,"
                  "\"wall_s\":%.6f,\"cpu_s\":%.6f,\"phase4_s\":%.6f,"
                  "\"speedup\":%.4f,\"checksum\":\"%016llx\","
                  "\"identical\":%s,"
                  "\"persistent_wall_s\":%.6f,"
                  "\"persistent_checksum\":\"%016llx\","
                  "\"persistent_identical\":%s,"
                  "\"persistent_round_trips\":%u,"
                  "\"persistent_bytes_tx\":%llu,"
                  "\"persistent_bytes_rx\":%llu,"
                  "\"persistent_profile_reads\":%llu,",
                  i == 0 ? "" : ",", row.shards, row.threads_per_shard,
                  row.wall_s, row.cpu_s, row.phase4_s,
                  baseline / row.wall_s,
                  static_cast<unsigned long long>(row.checksum),
                  row.identical ? "true" : "false",
                  row.persistent_wall_s,
                  static_cast<unsigned long long>(row.persistent_checksum),
                  row.persistent_identical ? "true" : "false",
                  row.persistent_round_trips,
                  static_cast<unsigned long long>(row.persistent_bytes_tx),
                  static_cast<unsigned long long>(row.persistent_bytes_rx),
                  static_cast<unsigned long long>(
                      row.persistent_profile_reads));
      if (agents > 0) {
        std::printf("\"distributed_wall_s\":%.6f,"
                    "\"distributed_checksum\":\"%016llx\","
                    "\"distributed_identical\":%s,"
                    "\"distributed_sync_files_tx\":%llu,"
                    "\"distributed_sync_bytes_tx\":%llu,"
                    "\"distributed_sync_files_skipped\":%llu,"
                    "\"distributed_sync_bytes_skipped\":%llu,",
                    row.distributed_wall_s,
                    static_cast<unsigned long long>(row.distributed_checksum),
                    row.distributed_identical ? "true" : "false",
                    static_cast<unsigned long long>(
                        row.distributed_sync_files_tx),
                    static_cast<unsigned long long>(
                        row.distributed_sync_bytes_tx),
                    static_cast<unsigned long long>(
                        row.distributed_sync_files_skipped),
                    static_cast<unsigned long long>(
                        row.distributed_sync_bytes_skipped));
      }
      std::printf("\"per_shard_wall_s\":[");
      for (std::size_t s = 0; s < row.shard_wall_s.size(); ++s) {
        std::printf("%s%.6f", s == 0 ? "" : ",", row.shard_wall_s[s]);
      }
      std::printf("]}");
    }
    std::printf("]}\n");
  } else {
    std::printf(
        "\nExpected shape: every row says identical=yes and pers id=yes\n"
        "(the determinism contract, all execution modes). Wall time falls "
        "with shards\nonce scoring dominates partition I/O; cpu s grows "
        "with S because each shard\npays fixed costs (its own PI pass, "
        "spool read-back, partition loads for its\nschedule) — the gap "
        "between the two columns is the sharding overhead.\npersist s "
        "additionally pays the worker spawn once per run and one framed\n"
        "command round-trip per worker per iteration.\n");
  }
  const bool all_identical =
      std::all_of(rows.begin(), rows.end(), [](const Row& r) {
        return r.identical && r.persistent_identical &&
               r.distributed_identical;
      });
  // The one-round-trip contract: a clean persistent run sends exactly one
  // heavy command per worker per iteration (the GO barrier is payload-
  // free) and, with an edges-only store, never reads a partition profile.
  const bool round_trip_contract =
      std::all_of(rows.begin(), rows.end(), [](const Row& r) {
        return r.persistent_round_trips == 1 &&
               r.persistent_profile_reads == 0;
      });
  if (!round_trip_contract) {
    std::fprintf(stderr,
                 "bench_shards: persistent round-trip contract violated "
                 "(expected 1 heavy command per worker per iteration and "
                 "0 partition-profile reads)\n");
  }
  return (all_identical && round_trip_contract) ? 0 : 1;
}
