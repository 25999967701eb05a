// Golden-checksum regression corpus: pinned KNN-graph checksums for fixed
// (seed, workload) pairs, asserted against the live engine so any silent
// determinism drift — in the serial pipeline, the thread pool, the
// sharded driver, or persistent / distributed execution — fails tier-1
// instead of shipping a plausible-looking different graph.
//
// The table lives in tests/golden/checksums.tsv (whitespace-separated:
// name users items clusters k partitions seed iters checksum). The
// checksums are toolchain-pinned in the same sense the determinism
// contract is: any build of this repo on the CI platform must reproduce
// them exactly. To regenerate after an *intentional* pipeline change:
//
//   KNNPC_UPDATE_GOLDEN=1 ./golden_test && ./golden_test
//
// This binary carries a custom main(): the persistent and distributed
// rows re-execute it as shard workers.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/churn.h"
#include "core/engine.h"
#include "core/shard_driver.h"
#include "core/worker_agent.h"
#include "graph/knn_graph_io.h"
#include "profiles/generators.h"
#include "storage/block_file.h"
#include "util/rng.h"
#include "workloads/workload.h"

#ifndef KNNPC_GOLDEN_DIR
#error "KNNPC_GOLDEN_DIR must point at tests/golden"
#endif

namespace knnpc {
namespace {

struct GoldenRow {
  std::string name;
  VertexId users = 0;
  ItemId items = 0;
  std::uint32_t clusters = 0;
  std::uint32_t k = 0;
  PartitionId partitions = 0;
  std::uint64_t seed = 0;
  std::uint32_t iters = 0;
  std::uint64_t checksum = 0;
};

std::string golden_path() {
  return std::string(KNNPC_GOLDEN_DIR) + "/checksums.tsv";
}

std::vector<GoldenRow> load_rows() {
  std::ifstream in(golden_path());
  if (!in) {
    ADD_FAILURE() << "golden corpus missing: " << golden_path();
    return {};
  }
  std::vector<GoldenRow> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    GoldenRow row;
    std::string checksum_hex;
    if (!(fields >> row.name >> row.users >> row.items >> row.clusters >>
          row.k >> row.partitions >> row.seed >> row.iters >>
          checksum_hex)) {
      ADD_FAILURE() << "malformed golden row: " << line;
      continue;
    }
    row.checksum = std::stoull(checksum_hex, nullptr, 16);
    rows.push_back(row);
  }
  return rows;
}

/// The workload generator is part of the pinned contract: these knobs
/// must never drift, or every golden value silently changes meaning.
std::vector<SparseProfile> golden_profiles(const GoldenRow& row) {
  Rng rng(21);
  ClusteredGenConfig config;
  config.base.num_users = row.users;
  config.base.num_items = row.items;
  config.base.min_items = 15;
  config.base.max_items = 25;
  config.num_clusters = row.clusters;
  config.in_cluster_prob = 0.9;
  return clustered_profiles(config, rng);
}

/// Per-row config tweaks keyed by name, so the table stays pure data
/// while still covering the spill / sampling / reverse code paths.
EngineConfig golden_config(const GoldenRow& row) {
  EngineConfig config;
  config.k = row.k;
  config.num_partitions = row.partitions;
  config.seed = row.seed;
  if (row.name.find("spill") != std::string::npos) {
    config.spill_scores = true;
  }
  if (row.name.find("reverse") != std::string::npos) {
    config.include_reverse = true;
    config.sample_rate = 0.5;
  }
  return config;
}

/// Rows named "churn-*" run under a scripted multi-iteration profile
/// churn (core/churn.h) whose generator mirrors golden_profiles — the
/// dynamic-profiles regime persistent workers exist for. The driver's
/// knobs here are part of the pinned contract, like the generator's.
bool is_churn_row(const GoldenRow& row) {
  return row.name.find("churn") != std::string::npos;
}

ChurnConfig golden_churn_config(const GoldenRow& row) {
  // "heavy" is the delta-heavy regime: most of P(t) is rewritten every
  // iteration, so the persistent workers' per-iteration KPRD deltas carry
  // near-full row sets instead of the default trickle. Both scenarios are
  // the shared scripted definitions from the workload registry.
  const ChurnScenario scenario = row.name.find("heavy") != std::string::npos
                                     ? ChurnScenario::Heavy
                                     : ChurnScenario::Trickle;
  return scripted_churn(
      scenario, scripted_generator(row.users, row.items, row.clusters), 1007);
}

/// Rows named "wl-<scenario>" replay a workload-zoo scenario
/// (src/workloads/workload.h) end to end: P(0) and the update script both
/// come from make_workload, seeded by the row's seed column.
bool is_wl_row(const GoldenRow& row) {
  return row.name.rfind("wl-", 0) == 0;
}

Workload golden_workload(const GoldenRow& row) {
  WorkloadParams params;
  params.users = row.users;
  params.items = row.items;
  params.clusters = row.clusters;
  params.seed = row.seed;
  return make_workload(row.name.substr(3), params);
}

/// One KnnEngine replay of a row: the final checksum and every
/// iteration's stats.
struct EngineRun {
  std::uint64_t checksum = 0;
  std::vector<IterationStats> iterations;
};

EngineRun run_engine(const GoldenRow& row, std::uint32_t threads) {
  EngineConfig config = golden_config(row);
  config.threads = threads;
  EngineRun run;
  if (is_wl_row(row)) {
    Workload workload = golden_workload(row);
    const auto n = static_cast<VertexId>(workload.profiles.size());
    KnnEngine engine(config, std::move(workload.profiles));
    for (std::uint32_t i = 0; i < row.iters; ++i) {
      workload.tick(engine.update_queue(), n);
      run.iterations.push_back(engine.run_iteration());
    }
    run.checksum = knn_graph_checksum(engine.graph());
    return run;
  }
  KnnEngine engine(config, golden_profiles(row));
  std::optional<ChurnDriver> churn;
  if (is_churn_row(row)) churn.emplace(golden_churn_config(row));
  for (std::uint32_t i = 0; i < row.iters; ++i) {
    if (churn) churn->tick(engine);
    run.iterations.push_back(engine.run_iteration());
  }
  run.checksum = knn_graph_checksum(engine.graph());
  return run;
}

/// The serial engine (threads = 1), the oracle every mode must match.
std::uint64_t run_serial(const GoldenRow& row) {
  return run_engine(row, 1).checksum;
}

/// The same row through a sharded engine in any worker mode. A non-empty
/// `endpoints` list runs the persistent workers behind remote worker
/// agents (the distributed mode).
std::uint64_t run_sharded(const GoldenRow& row, std::uint32_t shards,
                          ShardWorkerMode mode,
                          const std::vector<std::string>& endpoints = {}) {
  ShardConfig shard_config;
  shard_config.shards = shards;
  shard_config.worker_mode = mode;
  shard_config.worker_timeout_s = 120.0;
  shard_config.worker_endpoints = endpoints;
  if (is_wl_row(row)) {
    Workload workload = golden_workload(row);
    const auto n = static_cast<VertexId>(workload.profiles.size());
    ShardedKnnEngine engine(golden_config(row), shard_config,
                            std::move(workload.profiles));
    for (std::uint32_t i = 0; i < row.iters; ++i) {
      workload.tick(engine.update_queue(), n);
      engine.run_iteration();
    }
    return knn_graph_checksum(engine.graph());
  }
  ShardedKnnEngine engine(golden_config(row), shard_config,
                          golden_profiles(row));
  std::optional<ChurnDriver> churn;
  if (is_churn_row(row)) churn.emplace(golden_churn_config(row));
  for (std::uint32_t i = 0; i < row.iters; ++i) {
    if (churn) churn->tick(engine.update_queue(), row.users);
    engine.run_iteration();
  }
  return knn_graph_checksum(engine.graph());
}

/// In-process loopback worker agents, one background thread and work
/// root each, spawning this binary as their workers — stand-ins for
/// remote hosts. Stopped (their workers with them) at scope exit.
class LoopbackAgents {
 public:
  LoopbackAgents(const std::string& name, std::size_t count)
      : scratch_(name) {
    for (std::size_t a = 0; a < count; ++a) {
      WorkerAgentConfig config;
      config.port = 0;
      config.work_root = scratch_.path() / ("agent_" + std::to_string(a));
      agents_.push_back(std::make_unique<WorkerAgent>(config));
      endpoints_.push_back("127.0.0.1:" +
                           std::to_string(agents_.back()->port()));
    }
    for (const auto& agent : agents_) {
      threads_.emplace_back([a = agent.get()] { a->run(); });
    }
  }
  ~LoopbackAgents() {
    for (const auto& agent : agents_) agent->stop();
    for (std::thread& thread : threads_) thread.join();
  }
  LoopbackAgents(const LoopbackAgents&) = delete;
  LoopbackAgents& operator=(const LoopbackAgents&) = delete;

  [[nodiscard]] const std::vector<std::string>& endpoints() const {
    return endpoints_;
  }

 private:
  ScratchDir scratch_;
  std::vector<std::unique_ptr<WorkerAgent>> agents_;
  std::vector<std::thread> threads_;
  std::vector<std::string> endpoints_;
};

std::string hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

TEST(GoldenTest, SerialPipelineMatchesPinnedChecksums) {
  const std::vector<GoldenRow> rows = load_rows();
  ASSERT_FALSE(rows.empty());

  if (std::getenv("KNNPC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::trunc);
    ASSERT_TRUE(out) << "cannot rewrite " << golden_path();
    out << "# Golden KNN-graph checksums (see golden_test.cpp). Columns:\n"
        << "# name users items clusters k partitions seed iters checksum\n"
        << "# Regenerate: KNNPC_UPDATE_GOLDEN=1 ./golden_test\n";
    for (const GoldenRow& row : rows) {
      out << row.name << '\t' << row.users << '\t' << row.items << '\t'
          << row.clusters << '\t' << row.k << '\t' << row.partitions << '\t'
          << row.seed << '\t' << row.iters << '\t' << hex(run_serial(row))
          << '\n';
    }
    GTEST_SKIP() << "golden corpus rewritten at " << golden_path()
                 << "; rerun without KNNPC_UPDATE_GOLDEN to verify";
  }

  for (const GoldenRow& row : rows) {
    const std::uint64_t actual = run_serial(row);
    EXPECT_EQ(hex(actual), hex(row.checksum))
        << "determinism drift on golden workload '" << row.name
        << "' — if intentional, regenerate with KNNPC_UPDATE_GOLDEN=1";
  }
}

TEST(GoldenTest, EveryRowReplaysThroughTheThreadedEngine) {
  // A KnnEngine with a pool runs phases 1, 2 and 4's partition decoding
  // on it. Every row — reverse plus sampling, spill, churn and the zoo —
  // must land on the pinned checksum at 2 threads and at 3, where the
  // source-user shards are uneven and the phase-2 partition batches do not
  // divide m. And it must do exactly the serial engine's work: the same
  // candidates, unique tuples, PI pairs, partition loads and file bytes.
  const std::vector<GoldenRow> rows = load_rows();
  ASSERT_FALSE(rows.empty());
  if (std::getenv("KNNPC_UPDATE_GOLDEN") != nullptr) {
    GTEST_SKIP() << "corpus being regenerated; modes covered on rerun";
  }
  for (const GoldenRow& row : rows) {
    const EngineRun serial = run_engine(row, 1);
    for (const std::uint32_t threads : {2u, 3u}) {
      const EngineRun threaded = run_engine(row, threads);
      EXPECT_EQ(hex(threaded.checksum), hex(row.checksum))
          << "threaded engine drifted on '" << row.name << "' at threads="
          << threads;
      ASSERT_EQ(threaded.iterations.size(), serial.iterations.size());
      for (std::size_t i = 0; i < serial.iterations.size(); ++i) {
        const IterationStats& want = serial.iterations[i];
        const IterationStats& got = threaded.iterations[i];
        const std::string where = row.name + " threads=" +
                                  std::to_string(threads) + " iteration " +
                                  std::to_string(i);
        EXPECT_EQ(got.threads_used, threads) << where;
        EXPECT_EQ(got.candidate_tuples, want.candidate_tuples) << where;
        EXPECT_EQ(got.unique_tuples, want.unique_tuples) << where;
        EXPECT_EQ(got.pi_pairs, want.pi_pairs) << where;
        EXPECT_EQ(got.partition_loads, want.partition_loads) << where;
        EXPECT_EQ(got.partition_unloads, want.partition_unloads) << where;
        EXPECT_EQ(got.io.bytes_read, want.io.bytes_read) << where;
        EXPECT_EQ(got.io.bytes_written, want.io.bytes_written) << where;
      }
    }
  }
}

TEST(GoldenTest, EveryExecutionModeReproducesTheGoldenGraph) {
  const std::vector<GoldenRow> rows = load_rows();
  ASSERT_FALSE(rows.empty());
  if (std::getenv("KNNPC_UPDATE_GOLDEN") != nullptr) {
    GTEST_SKIP() << "corpus being regenerated; modes covered on rerun";
  }
  const GoldenRow& row = rows.front();  // the base workload

  EXPECT_EQ(hex(run_sharded(row, 3, ShardWorkerMode::Thread)),
            hex(row.checksum))
      << "thread-mode sharded execution drifted from the golden graph";
  EXPECT_EQ(hex(run_sharded(row, 3, ShardWorkerMode::Persistent)),
            hex(row.checksum))
      << "persistent-mode sharded execution drifted from the golden graph";
}

TEST(GoldenTest, ChurnWorkloadReplaysThroughEveryMode) {
  // The multi-iteration churn row exercises the regime the persistent
  // workers were built for: every sharded mode must land on the pinned
  // checksum after >= 5 iterations of profile updates, and persistent mode
  // must do so for several shard counts (its delta-sync path differs per
  // S). The distributed column puts each of two shards behind its own
  // loopback agent.
  const std::vector<GoldenRow> rows = load_rows();
  ASSERT_FALSE(rows.empty());
  if (std::getenv("KNNPC_UPDATE_GOLDEN") != nullptr) {
    GTEST_SKIP() << "corpus being regenerated; modes covered on rerun";
  }
  std::vector<const GoldenRow*> churn_rows;
  for (const GoldenRow& row : rows) {
    if (is_churn_row(row)) churn_rows.push_back(&row);
  }
  ASSERT_FALSE(churn_rows.empty()) << "golden corpus lost its churn rows";

  const LoopbackAgents agents("golden_churn_agents", 2);
  for (const GoldenRow* churn_row : churn_rows) {
    const GoldenRow& row = *churn_row;
    ASSERT_GE(row.iters, 5u) << row.name;

    EXPECT_EQ(hex(run_sharded(row, 3, ShardWorkerMode::Thread)),
              hex(row.checksum))
        << "thread-mode sharding drifted on churn workload '" << row.name
        << "'";
    EXPECT_EQ(hex(run_sharded(row, 2, ShardWorkerMode::Persistent,
                              agents.endpoints())),
              hex(row.checksum))
        << "distributed execution drifted on churn workload '" << row.name
        << "'";
    for (const std::uint32_t shards : {1u, 2u, 3u, 5u}) {
      EXPECT_EQ(hex(run_sharded(row, shards, ShardWorkerMode::Persistent)),
                hex(row.checksum))
          << "persistent-mode sharding drifted on churn workload '"
          << row.name << "' at S=" << shards;
    }
  }
}

TEST(GoldenTest, DistributedLoopbackReproducesTheGoldenGraph) {
  // Golden rows run with every persistent worker living behind a
  // loopback-TCP worker agent — remote spawn, plan frame, stdio-over-TCP
  // protocol — must land on the same pinned checksums as the serial
  // engine, including the multi-iteration churn row that exercises the
  // delta sync across remote round trips.
  const std::vector<GoldenRow> rows = load_rows();
  ASSERT_FALSE(rows.empty());
  if (std::getenv("KNNPC_UPDATE_GOLDEN") != nullptr) {
    GTEST_SKIP() << "corpus being regenerated; modes covered on rerun";
  }

  const LoopbackAgents agent("golden_distributed_agent", 1);
  const std::vector<std::string>& endpoints = agent.endpoints();

  const GoldenRow& base = rows.front();
  EXPECT_EQ(hex(run_sharded(base, 3, ShardWorkerMode::Persistent, endpoints)),
            hex(base.checksum))
      << "distributed execution drifted from the golden graph";
  for (const GoldenRow& row : rows) {
    if (!is_churn_row(row)) continue;
    EXPECT_EQ(hex(run_sharded(row, 2, ShardWorkerMode::Persistent,
                              endpoints)),
              hex(row.checksum))
        << "distributed execution drifted on churn workload '" << row.name
        << "'";
    break;  // one churn row keeps the replay inside the suite's budget
  }
}

TEST(GoldenTest, WorkloadZooReplaysThroughEveryMode) {
  // One pinned row per registered zoo scenario (wl-<name>), replayed
  // through every sharded mode — the cross-mode differential harness in
  // regression form. Persistent mode again sweeps shard counts, since its
  // delta-sync path differs per S; the distributed column splits the
  // shards between two loopback agents on every scenario.
  const std::vector<GoldenRow> rows = load_rows();
  ASSERT_FALSE(rows.empty());
  if (std::getenv("KNNPC_UPDATE_GOLDEN") != nullptr) {
    GTEST_SKIP() << "corpus being regenerated; modes covered on rerun";
  }
  std::vector<const GoldenRow*> wl_rows;
  for (const GoldenRow& row : rows) {
    if (is_wl_row(row)) wl_rows.push_back(&row);
  }
  ASSERT_EQ(wl_rows.size(), workload_names().size())
      << "every workload-zoo scenario needs a pinned wl- golden row";

  const LoopbackAgents agents("golden_zoo_agents", 2);
  for (const GoldenRow* wl_row : wl_rows) {
    const GoldenRow& row = *wl_row;
    EXPECT_EQ(hex(run_sharded(row, 3, ShardWorkerMode::Thread)),
              hex(row.checksum))
        << "thread-mode sharding drifted on '" << row.name << "'";
    EXPECT_EQ(hex(run_sharded(row, 2, ShardWorkerMode::Persistent,
                              agents.endpoints())),
              hex(row.checksum))
        << "distributed execution drifted on '" << row.name << "'";
    for (const std::uint32_t shards : {1u, 2u, 3u, 5u}) {
      EXPECT_EQ(hex(run_sharded(row, shards, ShardWorkerMode::Persistent)),
                hex(row.checksum))
          << "persistent-mode sharding drifted on '" << row.name
          << "' at S=" << shards;
    }
  }
}

}  // namespace
}  // namespace knnpc

int main(int argc, char** argv) {
  // Persistent and distributed rows re-execute this binary as workers.
  if (const auto worker_exit = knnpc::maybe_run_shard_worker(argc, argv)) {
    return *worker_exit;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
