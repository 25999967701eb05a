// Distributed shard execution behind loopback worker agents
// (core/worker_agent + core/shard_driver with worker_endpoints set).
//
// The contract under test is the determinism claim: a driver whose
// persistent workers live behind TCP worker agents produces the
// BIT-IDENTICAL graph the serial engine produces — including when a
// remote worker is killed mid-run and the supervision layer respawns and
// resyncs it — while no file crosses an agent link and an agent deletes a
// run's directory once the run ends.
//
// The agents run in-process on background threads and spawn THIS binary
// as their shard workers, so it carries a custom main() dispatching the
// hidden --shard-worker role before gtest sees argv.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <stdexcept>
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

namespace knnpc {
namespace {

// ------------------------------------------------------- agent harness --

/// One in-process agent on a loopback ephemeral port, spawning this test
/// binary as its workers, torn down (workers included) on destruction.
struct AgentHarness {
  ScratchDir scratch;
  WorkerAgent agent;
  std::thread thread;

  static WorkerAgentConfig make_config(const std::filesystem::path& root) {
    WorkerAgentConfig config;
    config.host = "127.0.0.1";
    config.port = 0;  // ephemeral
    config.work_root = root;
    return config;  // worker_exe empty = this binary
  }

  explicit AgentHarness(const std::string& name)
      : scratch(name), agent(make_config(scratch.path())) {
    thread = std::thread([this] { agent.run(); });
  }
  ~AgentHarness() {
    agent.stop();
    thread.join();
  }

  [[nodiscard]] std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(agent.port());
  }
};

std::vector<SparseProfile> clustered(VertexId n, std::uint32_t clusters,
                                     std::uint64_t seed = 21) {
  Rng rng(seed);
  ClusteredGenConfig config;
  config.base.num_users = n;
  config.base.num_items = 400;
  config.base.min_items = 15;
  config.base.max_items = 25;
  config.num_clusters = clusters;
  config.in_cluster_prob = 0.9;
  return clustered_profiles(config, rng);
}

EngineConfig base_config() {
  EngineConfig config;
  config.k = 5;
  config.num_partitions = 4;
  config.seed = 99;
  return config;
}

ShardConfig distributed_config(std::uint32_t shards,
                               const std::vector<std::string>& endpoints,
                               double timeout_s = 120.0) {
  ShardConfig shard_config;
  shard_config.shards = shards;
  shard_config.worker_mode = ShardWorkerMode::Persistent;
  shard_config.worker_timeout_s = timeout_s;
  shard_config.worker_endpoints = endpoints;
  return shard_config;
}

ChurnConfig churn_config(VertexId n, std::uint32_t clusters) {
  return scripted_churn(ChurnScenario::Trickle,
                        scripted_generator(n, 400, clusters), 2024);
}

std::vector<std::uint64_t> serial_churn_checksums(const EngineConfig& config,
                                                  VertexId n,
                                                  std::uint32_t clusters,
                                                  std::uint32_t iters) {
  std::vector<std::uint64_t> out;
  KnnEngine engine(config, clustered(n, clusters));
  ChurnDriver churn(churn_config(n, clusters));
  for (std::uint32_t i = 0; i < iters; ++i) {
    churn.tick(engine);
    engine.run_iteration();
    out.push_back(knn_graph_checksum(engine.graph()));
  }
  return out;
}

/// Runs `serial.size()` churned iterations through a distributed engine,
/// asserting each checksum against the serial reference.
std::vector<ShardedIterationStats> run_distributed_churn(
    ShardedKnnEngine& engine, VertexId n, std::uint32_t clusters,
    const std::vector<std::uint64_t>& serial) {
  ChurnDriver churn(churn_config(n, clusters));
  std::vector<ShardedIterationStats> per_iter;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    churn.tick(engine.update_queue(), n);
    per_iter.push_back(engine.run_iteration());
    EXPECT_EQ(knn_graph_checksum(engine.graph()), serial[i])
        << "distributed mode diverged at iteration " << i;
  }
  return per_iter;
}

class FaultGuard {
 public:
  explicit FaultGuard(const std::string& spec) {
    ::setenv(kShardFaultEnv, spec.c_str(), 1);
  }
  ~FaultGuard() { ::unsetenv(kShardFaultEnv); }
  FaultGuard(const FaultGuard&) = delete;
  FaultGuard& operator=(const FaultGuard&) = delete;
};

// ------------------------------------------------ determinism contract --

class DistributedShardCountTest
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DistributedShardCountTest, LoopbackAgentBitIdenticalToSerial) {
  const EngineConfig config = base_config();
  const std::vector<std::uint64_t> serial =
      serial_churn_checksums(config, 80, 4, 4);

  AgentHarness agent("dist_serial_S" + std::to_string(GetParam()));
  ShardedKnnEngine engine(
      config, distributed_config(GetParam(), {agent.endpoint()}),
      clustered(80, 4));
  EXPECT_EQ(engine.num_shards(), GetParam());
  const std::vector<ShardedIterationStats> per_iter =
      run_distributed_churn(engine, 80, 4, serial);

  // Clean run: one remote spawn per worker and no resyncs.
  const ShardedIterationStats& last = per_iter.back();
  ASSERT_EQ(last.workers.size(), GetParam());
  for (const ShardWorkerStats& w : last.workers) {
    EXPECT_EQ(w.spawn_count, 1u) << "shard " << w.shard;
    EXPECT_EQ(w.resync_count, 0u) << "shard " << w.shard;
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, DistributedShardCountTest,
                         ::testing::Values(1u, 2u, 3u));

/// Names of the directories directly under `dir` (empty when missing).
std::vector<std::string> dir_entries(const std::filesystem::path& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

TEST(DistributedShardTest, TwoAgentsStayBitIdenticalWithNoSharedFiles) {
  // Shards split across two agents with separate work roots (workers
  // share no filesystem in the real deployment — two ScratchDirs model
  // that): the merged graph must still match the serial engine bit for
  // bit, and each agent's run directory holds only its own shard's
  // scratch files.
  const EngineConfig config = base_config();
  const std::vector<std::uint64_t> serial =
      serial_churn_checksums(config, 80, 4, 3);

  AgentHarness left("dist_two_agents_left");
  AgentHarness right("dist_two_agents_right");
  ShardedKnnEngine engine(
      config,
      distributed_config(2, {left.endpoint(), right.endpoint()}),
      clustered(80, 4));
  run_distributed_churn(engine, 80, 4, serial);

  const std::vector<std::string> left_runs = dir_entries(left.scratch.path());
  const std::vector<std::string> right_runs =
      dir_entries(right.scratch.path());
  ASSERT_EQ(left_runs.size(), 1u);
  ASSERT_EQ(right_runs.size(), 1u);
  EXPECT_EQ(dir_entries(left.scratch.path() / left_runs[0]),
            std::vector<std::string>{"worker_0"});
  EXPECT_EQ(dir_entries(right.scratch.path() / right_runs[0]),
            std::vector<std::string>{"worker_1"});
}

TEST(DistributedShardTest, AgentDeletesAFinishedRun) {
  // A run's directory lives only as long as the run: once the engine is
  // destroyed (its control links drop), the agent reaps the workers and
  // deletes the directory, leaving its work root empty.
  AgentHarness agent("dist_finished_run");
  {
    ShardedKnnEngine engine(base_config(),
                            distributed_config(2, {agent.endpoint()}),
                            clustered(80, 4));
    engine.run_iteration();
    engine.run_iteration();
    EXPECT_FALSE(dir_entries(agent.scratch.path()).empty())
        << "a live run has a directory under the agent's work root";
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!dir_entries(agent.scratch.path()).empty() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(dir_entries(agent.scratch.path()).empty())
      << "the agent kept the finished run's directory";
}

// ------------------------------------------------------ fault injection --

/// Parameter: agent count. One agent hosts S=3 and loses shard 1; two
/// agents host S=4 (shards 2 and 3 behind the second) and lose shard 3.
class DistributedFaultTest : public ::testing::TestWithParam<std::uint32_t> {
};

TEST_P(DistributedFaultTest, RemoteWorkerKilledMidRunRespawnsAndResyncs) {
  // Kill one remote worker at the start of phase 4 of iteration 2, after
  // it has served two full iterations: the driver must notice over TCP,
  // kill-confirm through the agent control channel, respawn the worker
  // behind its agent, resync the full snapshot, and land on the serial
  // engine's exact graph every iteration — while the other workers, on
  // either agent, serve their one command undisturbed.
  const std::uint32_t agents = GetParam();
  const std::uint32_t shards = agents == 1 ? 3 : 4;
  const std::uint32_t killed = agents == 1 ? 1 : 3;
  const EngineConfig config = base_config();
  const std::vector<std::uint64_t> serial =
      serial_churn_checksums(config, 80, 4, 5);

  FaultGuard fault("consume:" + std::to_string(killed) + ":kill:0:2");
  std::vector<std::unique_ptr<AgentHarness>> harnesses;
  std::vector<std::string> endpoints;
  for (std::uint32_t a = 0; a < agents; ++a) {
    harnesses.push_back(std::make_unique<AgentHarness>(
        "dist_fault_kill_" + std::to_string(agents) + "_" +
        std::to_string(a)));
    endpoints.push_back(harnesses.back()->endpoint());
  }
  ShardedKnnEngine engine(config, distributed_config(shards, endpoints),
                          clustered(80, 4));
  const std::vector<ShardedIterationStats> per_iter =
      run_distributed_churn(engine, 80, 4, serial);

  ASSERT_EQ(per_iter.size(), 5u);
  const ShardedIterationStats& fault_iter = per_iter[2];
  ASSERT_EQ(fault_iter.workers.size(), shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    const ShardWorkerStats& w = fault_iter.workers[s];
    EXPECT_EQ(w.spawn_count, s == killed ? 2u : 1u) << "shard " << s;
    EXPECT_EQ(w.round_trips, s == killed ? 2u : 1u) << "shard " << s;
  }
  // The respawn replayed its command with the full 80-row snapshot,
  // exactly like local persistent mode.
  EXPECT_EQ(fault_iter.workers[killed].profile_rows_rx, 80u);
  EXPECT_EQ(per_iter.back().workers[killed].resync_count, 1u);
}

INSTANTIATE_TEST_SUITE_P(Agents, DistributedFaultTest,
                         ::testing::Values(1u, 2u));

TEST(DistributedFaultTest, SecondFailureThrowsTheLocalModeDiagnostic) {
  // Supervision parity: a remote worker that dies on every attempt must
  // fail the run with the SAME error shape local persistent mode throws
  // — same message, same shard id — so operators and scripts see one
  // vocabulary regardless of where the workers live.
  const EngineConfig config = base_config();
  const std::vector<std::uint64_t> serial =
      serial_churn_checksums(config, 80, 4, 2);

  FaultGuard fault("produce:1:kill:*:1");
  AgentHarness agent("dist_fault_twice");
  ShardedKnnEngine engine(config, distributed_config(3, {agent.endpoint()}),
                          clustered(80, 4));
  ChurnDriver churn(churn_config(80, 4));
  churn.tick(engine.update_queue(), 80);
  engine.run_iteration();
  EXPECT_EQ(knn_graph_checksum(engine.graph()), serial[0]);

  churn.tick(engine.update_queue(), 80);
  try {
    engine.run_iteration();
    FAIL() << "expected the iteration to fail after one retry";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("iteration failed after one retry"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("shard 1"), std::string::npos) << what;
  }
  // No partial merge, same as local mode.
  EXPECT_EQ(knn_graph_checksum(engine.graph()), serial[0]);
}

TEST(DistributedFaultTest, RecoveredRunKeepsIteratingNormally) {
  const EngineConfig config = base_config();
  const std::vector<std::uint64_t> serial =
      serial_churn_checksums(config, 80, 4, 4);
  AgentHarness agent("dist_fault_recover");
  ShardedKnnEngine engine(config, distributed_config(2, {agent.endpoint()}),
                          clustered(80, 4));
  ChurnDriver churn(churn_config(80, 4));
  {
    FaultGuard fault("consume:0:exit:0:1");
    for (std::uint32_t i = 0; i < 2; ++i) {
      churn.tick(engine.update_queue(), 80);
      engine.run_iteration();
      EXPECT_EQ(knn_graph_checksum(engine.graph()), serial[i]);
    }
  }
  for (std::uint32_t i = 2; i < 4; ++i) {
    churn.tick(engine.update_queue(), 80);
    const ShardedIterationStats stats = engine.run_iteration();
    EXPECT_EQ(knn_graph_checksum(engine.graph()), serial[i]);
    EXPECT_EQ(stats.workers[0].spawn_count, 2u);
  }
}

// ------------------------------------------------------- configuration --

TEST(DistributedConfigTest, EndpointsRequirePersistentMode) {
  ShardConfig shard_config;
  shard_config.shards = 2;
  shard_config.worker_mode = ShardWorkerMode::Thread;
  shard_config.worker_endpoints = {"127.0.0.1:1"};
  EXPECT_THROW(ShardedKnnEngine(base_config(), shard_config, clustered(40, 2)),
               std::invalid_argument);
}

TEST(DistributedConfigTest, UnreachableAgentFailsTypedNotHang) {
  // A dead endpoint must surface as a prompt, typed error from the first
  // iteration — never a silent hang inside the connect.
  std::uint16_t dead_port = 0;
  {
    IpcListener probe("127.0.0.1", 0);
    dead_port = probe.port();
  }
  ShardConfig shard_config = distributed_config(
      2, {"127.0.0.1:" + std::to_string(dead_port)});
  shard_config.agent_timeout_s = 2.0;
  ShardedKnnEngine engine(base_config(), shard_config, clustered(40, 2));
  EXPECT_THROW(engine.run_iteration(), std::exception);
}

}  // namespace
}  // namespace knnpc

int main(int argc, char** argv) {
  // The loopback agents spawn THIS binary as their shard workers; the
  // hidden role must win before gtest parses argv.
  if (const auto worker_exit = knnpc::maybe_run_shard_worker(argc, argv)) {
    return *worker_exit;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
