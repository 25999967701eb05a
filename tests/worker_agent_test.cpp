// Distributed shard execution behind a loopback worker agent
// (core/worker_agent + core/shard_driver with worker_endpoints set), plus
// unit coverage for the content-addressed file-sync formats
// (storage/file_sync.h) the agent protocol rides on.
//
// The contract under test is the tentpole determinism claim: a driver
// whose persistent workers live behind TCP worker agents produces the
// BIT-IDENTICAL graph the serial engine produces — including when a
// remote worker is killed mid-run and the supervision layer respawns and
// resyncs it — while the content-addressed sync re-transfers nothing for
// partitions that did not change.
//
// The agents run in-process on background threads and spawn THIS binary
// as their shard workers, so it carries a custom main() dispatching the
// hidden --shard-worker role before gtest sees argv.
#include <gtest/gtest.h>

#include <cstdlib>
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
#include "storage/file_sync.h"
#include "util/rng.h"
#include "workloads/workload.h"

namespace knnpc {
namespace {

// ----------------------------------------------------- file-sync formats --

TEST(FileSyncTest, ChecksumIsContentAddressedAndStable) {
  ScratchDir scratch("file_sync_checksum");
  IoCounters io;
  write_file(scratch.path() / "a.bin", std::vector<std::byte>(64, std::byte{7}),
             io);
  write_file(scratch.path() / "b.bin", std::vector<std::byte>(64, std::byte{7}),
             io);
  write_file(scratch.path() / "c.bin", std::vector<std::byte>(64, std::byte{8}),
             io);
  const std::uint64_t a = file_checksum(scratch.path() / "a.bin");
  EXPECT_EQ(a, file_checksum(scratch.path() / "a.bin")) << "not deterministic";
  EXPECT_EQ(a, file_checksum(scratch.path() / "b.bin"))
      << "identical content must hash identically regardless of path";
  EXPECT_NE(a, file_checksum(scratch.path() / "c.bin"));
}

TEST(FileSyncTest, ManifestScansSortedAndRoundTripsThroughWire) {
  ScratchDir scratch("file_sync_manifest");
  IoCounters io;
  write_file(scratch.path() / "zz.bin", std::vector<std::byte>(10), io);
  std::filesystem::create_directories(scratch.path() / "sub");
  write_file(scratch.path() / "sub" / "aa.bin", std::vector<std::byte>(20),
             io);

  const std::vector<SyncFileEntry> manifest = scan_sync_root(scratch.path());
  ASSERT_EQ(manifest.size(), 2u);
  // Sorted by relpath — the order both sides rely on for the NEED-reply
  // indices to mean the same entries.
  EXPECT_EQ(manifest[0].relpath, "sub/aa.bin");
  EXPECT_EQ(manifest[0].size, 20u);
  EXPECT_EQ(manifest[1].relpath, "zz.bin");
  EXPECT_EQ(manifest[1].size, 10u);

  const std::vector<std::byte> wire = serialize_manifest(manifest);
  const std::vector<SyncFileEntry> decoded = parse_manifest(wire);
  ASSERT_EQ(decoded.size(), manifest.size());
  for (std::size_t i = 0; i < manifest.size(); ++i) {
    EXPECT_EQ(decoded[i].relpath, manifest[i].relpath);
    EXPECT_EQ(decoded[i].size, manifest[i].size);
    EXPECT_EQ(decoded[i].checksum, manifest[i].checksum);
  }
  // Trailing garbage is a framing bug, not something to ignore.
  std::vector<std::byte> oversized = wire;
  oversized.push_back(std::byte{0});
  EXPECT_THROW((void)parse_manifest(oversized), std::runtime_error);
}

TEST(FileSyncTest, BlobRoundTripsAndUnsafeRelpathsAreRejected) {
  FileBlob blob;
  blob.relpath = "spools/tuples_p0_c1.bin";
  blob.exists = true;
  blob.bytes = {std::byte{1}, std::byte{2}, std::byte{3}};
  const FileBlob decoded = parse_file_blob(serialize_file_blob(blob));
  EXPECT_EQ(decoded.relpath, blob.relpath);
  EXPECT_TRUE(decoded.exists);
  EXPECT_EQ(decoded.bytes, blob.bytes);

  // The agent places files it receives under its run dir by relpath; a
  // malicious or corrupt relpath must never escape it.
  EXPECT_TRUE(is_safe_relpath("plan.bin"));
  EXPECT_TRUE(is_safe_relpath("partitions/p_000.blk"));
  EXPECT_FALSE(is_safe_relpath("/etc/passwd"));
  EXPECT_FALSE(is_safe_relpath("../outside"));
  EXPECT_FALSE(is_safe_relpath("partitions/../../outside"));
  EXPECT_FALSE(is_safe_relpath(""));
}

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

  // Clean run: one remote spawn per worker, no resyncs, and every
  // iteration's sync accounting attributed to the endpoint's lowest
  // shard (0 here — one agent owns every shard).
  const ShardedIterationStats& last = per_iter.back();
  ASSERT_EQ(last.workers.size(), GetParam());
  for (const ShardWorkerStats& w : last.workers) {
    EXPECT_EQ(w.spawn_count, 1u) << "shard " << w.shard;
    EXPECT_EQ(w.resync_count, 0u) << "shard " << w.shard;
  }
  // First iteration ships the whole run dir (plan + every partition).
  EXPECT_GT(per_iter.front().workers[0].sync_files_tx, 0u);
  EXPECT_GT(per_iter.front().workers[0].sync_bytes_tx, 0u);
  // Later iterations still skip the unchanged plan.bin at minimum.
  EXPECT_GT(last.workers[0].sync_files_skipped, 0u);
  for (std::uint32_t s = 1; s < GetParam(); ++s) {
    EXPECT_EQ(last.workers[s].sync_files_tx, 0u) << "shard " << s;
    EXPECT_EQ(last.workers[s].sync_bytes_tx, 0u) << "shard " << s;
    EXPECT_EQ(last.workers[s].sync_files_skipped, 0u) << "shard " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, DistributedShardCountTest,
                         ::testing::Values(1u, 2u, 3u));

TEST(DistributedShardTest, UnchangedPartitionsAreNeverRetransferred) {
  // While the graph still evolves the partitioner legitimately reshapes
  // the partition files, so they re-transfer. The invariant the
  // content-addressed sync must hold: partition writes are deterministic
  // in the graph, so any iteration that follows a zero-change iteration
  // rewrites bit-identical files and must transfer nothing. (Convergence
  // is not sticky — NN-descent sampling can nudge change_rate back off
  // zero later — so the claim is per-iteration, not "forever after".)
  const EngineConfig config = base_config();
  AgentHarness agent("dist_steady_state");
  ShardedKnnEngine engine(config, distributed_config(2, {agent.endpoint()}),
                          clustered(80, 4));

  ShardedIterationStats stats = engine.run_iteration();
  EXPECT_GT(stats.workers[0].sync_bytes_tx, 0u)
      << "the first sync must actually ship the run dir";
  int zero_change_iterations = 0;
  int verified = 0;
  for (int i = 1; i < 30 && verified < 2; ++i) {
    const bool prev_was_zero_change = stats.merged.change_rate == 0.0;
    stats = engine.run_iteration();
    if (!prev_was_zero_change) continue;
    ++zero_change_iterations;
    const ShardWorkerStats& w = stats.workers[0];
    EXPECT_EQ(w.sync_bytes_tx, 0u)
        << "iteration " << i << " followed a zero-change iteration yet "
        << "re-transferred unchanged files";
    EXPECT_EQ(w.sync_files_tx, 0u) << "iteration " << i;
    EXPECT_GT(w.sync_files_skipped, 0u) << "iteration " << i;
    EXPECT_GT(w.sync_bytes_skipped, 0u) << "iteration " << i;
    if (w.sync_bytes_tx == 0 && w.sync_files_tx == 0) ++verified;
  }
  ASSERT_GE(zero_change_iterations, 1)
      << "workload never reached a zero-change iteration within 30";
  EXPECT_GE(verified, 2)
      << "expected at least two zero-transfer steady-state iterations";
}

TEST(DistributedShardTest, TwoAgentsRelaySpoolsAndStayBitIdentical) {
  // Shards split across two agents with separate work roots: the
  // cross-shard spool files must be relayed between the agents' run dirs
  // through the driver (workers share no filesystem in the real
  // deployment — two ScratchDirs model that), and the merged graph must
  // still match the serial engine bit for bit.
  const EngineConfig config = base_config();
  const std::vector<std::uint64_t> serial =
      serial_churn_checksums(config, 80, 4, 3);

  AgentHarness left("dist_two_agents_left");
  AgentHarness right("dist_two_agents_right");
  ShardedKnnEngine engine(
      config,
      distributed_config(2, {left.endpoint(), right.endpoint()}),
      clustered(80, 4));
  const std::vector<ShardedIterationStats> per_iter =
      run_distributed_churn(engine, 80, 4, serial);

  // Both endpoints carry sync accounting now: shard 0 for the left
  // agent, shard 1 (its lowest — and only — shard) for the right.
  const ShardedIterationStats& first = per_iter.front();
  ASSERT_EQ(first.workers.size(), 2u);
  EXPECT_GT(first.workers[0].sync_files_tx, 0u);
  EXPECT_GT(first.workers[1].sync_files_tx, 0u);
}

// ------------------------------------------------------ fault injection --

TEST(DistributedFaultTest, RemoteWorkerKilledMidRunRespawnsAndResyncs) {
  // Kill remote worker 1 in the consume wave of iteration 2, after it
  // has served two full iterations: the driver must notice over TCP,
  // kill-confirm through the agent control channel, respawn the worker
  // behind the agent, resync the full snapshot, and land on the serial
  // engine's exact graph — the tentpole's mid-run fault claim.
  const EngineConfig config = base_config();
  const std::vector<std::uint64_t> serial =
      serial_churn_checksums(config, 80, 4, 5);

  FaultGuard fault("consume:1:kill:0:2");
  AgentHarness agent("dist_fault_kill");
  ShardedKnnEngine engine(config, distributed_config(3, {agent.endpoint()}),
                          clustered(80, 4));
  const std::vector<ShardedIterationStats> per_iter =
      run_distributed_churn(engine, 80, 4, serial);

  const ShardedIterationStats& last = per_iter.back();
  ASSERT_EQ(last.workers.size(), 3u);
  EXPECT_EQ(last.workers[1].spawn_count, 2u);
  EXPECT_EQ(last.workers[1].resync_count, 1u);
  EXPECT_EQ(last.workers[0].spawn_count, 1u);
  EXPECT_EQ(last.workers[2].spawn_count, 1u);
  // The respawn replayed the wave with the full 80-row snapshot, exactly
  // like local persistent mode.
  EXPECT_EQ(per_iter[2].workers[1].profile_rows_rx, 80u);
  EXPECT_EQ(per_iter[2].workers[1].round_trips, 2u);
}

TEST(DistributedFaultTest, SecondFailureThrowsTheLocalModeDiagnostic) {
  // Supervision parity: a remote worker that dies on every attempt must
  // fail the run with the SAME error shape local persistent mode throws
  // — same wave string, same shard id — so operators and scripts see one
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
    FAIL() << "expected the produce wave to fail after one retry";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("produce wave failed after one retry"),
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
