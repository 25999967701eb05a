// Workload-zoo differential sweep: every registered scenario
// (src/workloads/workload.h) replayed through all four execution modes —
// serial, thread-pool, sharded thread / persistent workers — plus a grid
// over shards x threads x partitioner x heuristic in thread-mode
// sharding. Checksums gate the determinism contract: the binary exits
// non-zero if any workload's graph diverges across the four modes, or if any grid cell drifts from the serial baseline (placement
// and order are pure I/O concerns — see integration_test's ComboTest).
//
// Usage: bench_workloads [--users=N] [--iters=N] [--workloads=a,b] [--json]
// With --json the table is replaced by one JSON object on stdout (the CI
// workloads-smoke job parses it; see tools/bench_to_json.py).
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/shard_driver.h"
#include "graph/knn_graph_io.h"
#include "util/options.h"
#include "util/timer.h"
#include "workloads/workload.h"

using namespace knnpc;

namespace {

struct RunResult {
  std::uint64_t checksum = 0;
  double wall_s = 0.0;
};

RunResult run_serial(const std::string& name, const WorkloadParams& params,
                     const EngineConfig& config, std::uint32_t iters) {
  Workload workload = make_workload(name, params);
  const auto n = static_cast<VertexId>(workload.profiles.size());
  KnnEngine engine(config, std::move(workload.profiles));
  RunResult result;
  Timer wall;
  for (std::uint32_t i = 0; i < iters; ++i) {
    workload.tick(engine.update_queue(), n);
    engine.run_iteration();
  }
  result.wall_s = wall.elapsed_seconds();
  result.checksum = knn_graph_checksum(engine.graph());
  return result;
}

RunResult run_sharded(const std::string& name, const WorkloadParams& params,
                      const EngineConfig& config, std::uint32_t shards,
                      ShardWorkerMode mode, std::uint32_t iters) {
  Workload workload = make_workload(name, params);
  const auto n = static_cast<VertexId>(workload.profiles.size());
  ShardConfig shard_config;
  shard_config.shards = shards;
  shard_config.worker_mode = mode;
  shard_config.worker_timeout_s = 120.0;
  ShardedKnnEngine engine(config, shard_config,
                          std::move(workload.profiles));
  RunResult result;
  Timer wall;
  for (std::uint32_t i = 0; i < iters; ++i) {
    workload.tick(engine.update_queue(), n);
    engine.run_iteration();
  }
  result.wall_s = wall.elapsed_seconds();
  result.checksum = knn_graph_checksum(engine.graph());
  return result;
}

struct ModeRow {
  const char* mode;
  RunResult run;
  bool identical = false;
};

struct GridCell {
  std::string partitioner;
  std::string heuristic;
  std::uint32_t shards = 0;
  std::uint32_t threads = 0;
  RunResult run;
  bool identical = false;
};

struct WorkloadRow {
  std::string name;
  std::vector<ModeRow> modes;
  bool identical = false;
  std::vector<GridCell> grid;
  bool grid_identical = false;
};

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string token = csv.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!token.empty()) out.push_back(token);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Persistent cells re-execute this binary as shard workers.
  if (const auto worker_exit = maybe_run_shard_worker(argc, argv)) {
    return *worker_exit;
  }
  Options opts;
  opts.add_uint("users", "users per workload", 400);
  opts.add_uint("items", "items per workload", 400);
  opts.add_uint("clusters", "planted clusters (where the scenario has any)",
                4);
  opts.add_uint("k", "neighbours per user", 8);
  opts.add_uint("partitions", "partition count m", 4);
  opts.add_uint("iters", "iterations per run", 3);
  opts.add_uint("seed", "workload seed (P(0) + update script)", 1007);
  opts.add_string("workloads",
                  "comma-separated subset of the zoo; empty = all", "");
  opts.add_flag("no-grid",
                "skip the shards x threads x partitioner x heuristic grid");
  opts.add_flag("json", "emit results as JSON instead of a table");
  if (!opts.parse(argc, argv)) return 0;

  WorkloadParams params;
  params.users = static_cast<VertexId>(opts.get_uint("users"));
  params.items = static_cast<ItemId>(opts.get_uint("items"));
  params.clusters = static_cast<std::uint32_t>(opts.get_uint("clusters"));
  params.seed = opts.get_uint("seed");
  const auto iters = static_cast<std::uint32_t>(opts.get_uint("iters"));
  const bool json = opts.get_flag("json");
  const bool grid = !opts.get_flag("no-grid");

  EngineConfig config;
  config.k = static_cast<std::uint32_t>(opts.get_uint("k"));
  config.num_partitions =
      static_cast<PartitionId>(opts.get_uint("partitions"));

  std::vector<std::string> names = split_csv(opts.get_string("workloads"));
  if (names.empty()) names = workload_names();

  if (!json) {
    std::printf("Workload-zoo differential sweep (n=%u, items=%u, k=%u, "
                "m=%u, %u iters)\n",
                params.users, params.items, config.k, config.num_partitions,
                iters);
    std::printf("%-20s | %9s %9s %9s %9s | %9s | %s\n", "workload",
                "serial s", "thread s", "shard s", "persist s",
                "identical", grid ? "grid" : "");
    std::printf("--------------------------------------------------------"
                "------------------------------\n");
  }

  const std::vector<std::string> grid_partitioners = {"range", "hash",
                                                      "greedy"};
  const std::vector<std::string> grid_heuristics = {"low-high", "high-low"};
  const std::vector<std::uint32_t> grid_shards = {1, 2};
  const std::vector<std::uint32_t> grid_threads = {1, 2};

  std::vector<WorkloadRow> rows;
  for (const std::string& name : names) {
    WorkloadRow row;
    row.name = name;

    // The four execution modes, replaying the identical scenario.
    row.modes.push_back(
        {"serial", run_serial(name, params, config, iters), false});
    {
      EngineConfig threaded = config;
      threaded.threads = 2;
      row.modes.push_back(
          {"threaded", run_serial(name, params, threaded, iters), false});
    }
    row.modes.push_back({"shard-thread",
                         run_sharded(name, params, config, 2,
                                     ShardWorkerMode::Thread, iters),
                         false});
    row.modes.push_back({"shard-persistent",
                         run_sharded(name, params, config, 3,
                                     ShardWorkerMode::Persistent, iters),
                         false});
    const std::uint64_t reference = row.modes.front().run.checksum;
    row.identical = true;
    for (ModeRow& mode : row.modes) {
      mode.identical = mode.run.checksum == reference;
      row.identical = row.identical && mode.identical;
    }

    // The grid: shard-thread mode across every placement/order knob. All
    // cells must land on the serial checksum.
    row.grid_identical = true;
    if (grid) {
      for (const std::string& partitioner : grid_partitioners) {
        for (const std::string& heuristic : grid_heuristics) {
          for (const std::uint32_t shards : grid_shards) {
            for (const std::uint32_t threads : grid_threads) {
              EngineConfig cell_config = config;
              cell_config.partitioner = partitioner;
              cell_config.heuristic = heuristic;
              cell_config.threads = threads;
              GridCell cell;
              cell.partitioner = partitioner;
              cell.heuristic = heuristic;
              cell.shards = shards;
              cell.threads = threads;
              cell.run = run_sharded(name, params, cell_config, shards,
                                     ShardWorkerMode::Thread, iters);
              cell.identical = cell.run.checksum == reference;
              row.grid_identical = row.grid_identical && cell.identical;
              row.grid.push_back(std::move(cell));
            }
          }
        }
      }
    }

    if (!json) {
      std::printf("%-20s | %9.3f %9.3f %9.3f %9.3f | %9s |",
                  row.name.c_str(), row.modes[0].run.wall_s,
                  row.modes[1].run.wall_s, row.modes[2].run.wall_s,
                  row.modes[3].run.wall_s, row.identical ? "yes" : "NO");
      if (grid) {
        std::size_t drifted = 0;
        for (const GridCell& cell : row.grid) {
          if (!cell.identical) ++drifted;
        }
        std::printf(" %zu cells, %zu drifted%s", row.grid.size(), drifted,
                    row.grid_identical ? "" : " (NO)");
      }
      std::printf("\n");
    }
    rows.push_back(std::move(row));
  }

  if (json) {
    std::printf("{\"bench\":\"workloads\",\"users\":%u,\"items\":%u,"
                "\"clusters\":%u,\"k\":%u,\"partitions\":%u,\"iters\":%u,"
                "\"seed\":%llu,\"results\":[",
                params.users, params.items, params.clusters, config.k,
                config.num_partitions, iters,
                static_cast<unsigned long long>(params.seed));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const WorkloadRow& row = rows[i];
      std::printf("%s{\"workload\":\"%s\",\"identical\":%s,\"modes\":[",
                  i == 0 ? "" : ",", row.name.c_str(),
                  row.identical ? "true" : "false");
      for (std::size_t m = 0; m < row.modes.size(); ++m) {
        const ModeRow& mode = row.modes[m];
        std::printf("%s{\"mode\":\"%s\",\"wall_s\":%.6f,"
                    "\"checksum\":\"%016llx\",\"identical\":%s}",
                    m == 0 ? "" : ",", mode.mode, mode.run.wall_s,
                    static_cast<unsigned long long>(mode.run.checksum),
                    mode.identical ? "true" : "false");
      }
      std::printf("],\"grid_identical\":%s,\"grid\":[",
                  row.grid_identical ? "true" : "false");
      for (std::size_t c = 0; c < row.grid.size(); ++c) {
        const GridCell& cell = row.grid[c];
        std::printf("%s{\"partitioner\":\"%s\",\"heuristic\":\"%s\","
                    "\"shards\":%u,\"threads\":%u,\"wall_s\":%.6f,"
                    "\"checksum\":\"%016llx\",\"identical\":%s}",
                    c == 0 ? "" : ",", cell.partitioner.c_str(),
                    cell.heuristic.c_str(), cell.shards, cell.threads,
                    cell.run.wall_s,
                    static_cast<unsigned long long>(cell.run.checksum),
                    cell.identical ? "true" : "false");
      }
      std::printf("]}");
    }
    std::printf("]}\n");
  } else {
    std::printf(
        "\nExpected shape: every workload says identical=yes and 0 grid "
        "cells drifted —\nthe four-mode determinism contract checked "
        "across the whole zoo, and the\nplacement/order-invariance "
        "contract (partitioner, heuristic, S, threads are\npure I/O "
        "concerns) checked per workload. Any NO is a released-determinism"
        "\nbug, not a tolerance issue: the binary exits non-zero.\n");
  }

  const bool all_identical =
      std::all_of(rows.begin(), rows.end(), [](const WorkloadRow& r) {
        return r.identical && r.grid_identical;
      });
  if (!all_identical) {
    std::fprintf(stderr,
                 "bench_workloads: determinism contract violated (some "
                 "workload diverged across modes or grid cells)\n");
  }
  return all_identical ? 0 : 1;
}
