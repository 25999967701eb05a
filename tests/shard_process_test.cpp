// Tests for persistent-mode shard execution (core/shard_driver with
// ShardWorkerMode::Persistent): the determinism contract across execution
// modes — serial engine vs thread-mode vs persistent workers, bit-identical
// for any shard count — plus the fault-injection harness proving the
// supervision contract: a killed, non-zero-exiting or wedged worker is
// respawned with a full-snapshot resync exactly once; a second failure
// fails the run with a per-worker diagnostic; the driver never hangs and
// never merges a failed worker's partial output. A worker that receives a
// hostile RUN_ITERATION refuses it before sizing anything from it, and one
// given a plan with an out-of-range field refuses the plan.
//
// This binary is re-executed by the driver as its own shard workers, so
// it carries a custom main() that dispatches the hidden --shard-worker
// role before gtest sees argv.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/types.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/churn.h"
#include "core/engine.h"
#include "core/shard_driver.h"
#include "graph/knn_graph_delta.h"
#include "graph/knn_graph_io.h"
#include "profiles/generators.h"
#include "profiles/profile_delta.h"
#include "storage/block_file.h"
#include "util/ipc_channel.h"
#include "util/rng.h"
#include "util/serde.h"
#include "util/subprocess.h"
#include "workloads/workload.h"

namespace knnpc {
namespace {

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

ShardConfig persistent_config(std::uint32_t shards,
                              double timeout_s = 120.0) {
  ShardConfig shard_config;
  shard_config.shards = shards;
  shard_config.worker_mode = ShardWorkerMode::Persistent;
  shard_config.worker_timeout_s = timeout_s;
  return shard_config;
}

std::vector<std::uint64_t> serial_checksums(const EngineConfig& config,
                                            VertexId n,
                                            std::uint32_t clusters,
                                            std::uint32_t iters) {
  std::vector<std::uint64_t> out;
  KnnEngine engine(config, clustered(n, clusters));
  for (std::uint32_t i = 0; i < iters; ++i) {
    engine.run_iteration();
    out.push_back(knn_graph_checksum(engine.graph()));
  }
  return out;
}

/// Sets KNNPC_SHARD_FAULT for the worker processes spawned inside the
/// enclosing scope; always clears it on exit so no fault leaks into the
/// next test.
class FaultGuard {
 public:
  explicit FaultGuard(const std::string& spec) {
    ::setenv(kShardFaultEnv, spec.c_str(), 1);
  }
  ~FaultGuard() { ::unsetenv(kShardFaultEnv); }
  FaultGuard(const FaultGuard&) = delete;
  FaultGuard& operator=(const FaultGuard&) = delete;
};

// --------------------------------------------------- persistent workers --
// Most cases run a genuinely multi-iteration, profile-churning workload:
// that is the regime the long-lived workers (and their G(t) delta sync)
// exist for, and it makes iteration-targeted fault injection meaningful
// (kill a worker that has already served iterations, prove the respawn +
// full resync replays the command bit-identically).

/// Churn matching the clustered() workload generator, so drift targets
/// land in real clusters. Same config => same update stream, whichever
/// engine consumes it. The scenario definition is the registry's shared
/// trickle (workloads/workload.h).
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

/// Runs `iters` churned iterations through a persistent-mode sharded
/// engine, asserting each iteration's checksum against the serial
/// reference; returns the final iteration's stats for counter checks.
ShardedIterationStats run_persistent_churn(
    ShardedKnnEngine& engine, VertexId n, std::uint32_t clusters,
    const std::vector<std::uint64_t>& serial,
    std::vector<ShardedIterationStats>* per_iteration = nullptr) {
  ChurnDriver churn(churn_config(n, clusters));
  ShardedIterationStats last;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    churn.tick(engine.update_queue(), n);
    last = engine.run_iteration();
    EXPECT_EQ(knn_graph_checksum(engine.graph()), serial[i])
        << "persistent mode diverged at iteration " << i;
    if (per_iteration != nullptr) per_iteration->push_back(last);
  }
  return last;
}

class PersistentShardCountTest
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PersistentShardCountTest, ChurnWorkloadBitIdenticalToSerial) {
  const EngineConfig config = base_config();
  const std::vector<std::uint64_t> serial =
      serial_churn_checksums(config, 80, 4, 5);

  ShardedKnnEngine engine(config, persistent_config(GetParam()),
                          clustered(80, 4));
  EXPECT_EQ(engine.num_shards(), GetParam());
  const ShardedIterationStats last =
      run_persistent_churn(engine, 80, 4, serial);
  // One spawn per worker for the whole 5-iteration run and no resyncs
  // without faults.
  ASSERT_EQ(last.workers.size(), GetParam());
  for (const ShardWorkerStats& w : last.workers) {
    EXPECT_EQ(w.spawn_count, 1u) << "shard " << w.shard;
    EXPECT_EQ(w.resync_count, 0u) << "shard " << w.shard;
    // The protocol contract: one command per worker per clean
    // iteration and — with the worker-local P(t) copy — zero
    // partition-profile reads, ever.
    EXPECT_EQ(w.round_trips, 1u) << "shard " << w.shard;
    EXPECT_EQ(w.profile_reads, 0u) << "shard " << w.shard;
    EXPECT_GT(w.bytes_tx, 0u) << "shard " << w.shard;
    EXPECT_GT(w.bytes_rx, 0u) << "shard " << w.shard;
  }
}

TEST_P(PersistentShardCountTest, UnsampledReverseCandidatesMatchSerial) {
  EngineConfig config = base_config();
  config.include_reverse = true;
  KnnEngine serial(config, clustered(90, 5));
  ShardedKnnEngine engine(config, persistent_config(GetParam()),
                          clustered(90, 5));
  for (std::uint32_t i = 0; i < 3; ++i) {
    const IterationStats want = serial.run_iteration();
    const ShardedIterationStats got = engine.run_iteration();
    EXPECT_EQ(knn_graph_checksum(engine.graph()),
              knn_graph_checksum(serial.graph()))
        << "S=" << GetParam() << " iteration " << i;
    EXPECT_EQ(got.merged.candidate_tuples, want.candidate_tuples);
    EXPECT_EQ(got.merged.unique_tuples, want.unique_tuples);
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, PersistentShardCountTest,
                         ::testing::Values(1u, 2u, 3u, 5u));

TEST(PersistentShardTest, MergedCountersMatchThreadMode) {
  // One shard body and one profile source in both modes: they differ
  // only in transport, so every merged work and I/O counter repeats. The
  // I/O is the workers' pair bundles alone; neither mode reads or writes
  // a partition file.
  const EngineConfig config = base_config();
  ShardConfig thread_config;
  thread_config.shards = 3;
  ShardedKnnEngine threaded(config, thread_config, clustered(80, 4));
  ShardedKnnEngine persistent(config, persistent_config(3),
                              clustered(80, 4));
  for (std::uint32_t i = 0; i < 2; ++i) {
    const ShardedIterationStats a = threaded.run_iteration();
    const ShardedIterationStats b = persistent.run_iteration();
    EXPECT_EQ(b.merged.candidate_tuples, a.merged.candidate_tuples);
    EXPECT_EQ(b.merged.unique_tuples, a.merged.unique_tuples);
    EXPECT_EQ(b.merged.pi_pairs, a.merged.pi_pairs);
    EXPECT_EQ(b.merged.partition_loads, a.merged.partition_loads);
    EXPECT_EQ(b.merged.partition_unloads, a.merged.partition_unloads);
    EXPECT_EQ(b.merged.io.bytes_read, a.merged.io.bytes_read);
    EXPECT_EQ(b.merged.io.bytes_written, a.merged.io.bytes_written);
    EXPECT_DOUBLE_EQ(b.merged.change_rate, a.merged.change_rate);
    EXPECT_EQ(knn_graph_checksum(persistent.graph()),
              knn_graph_checksum(threaded.graph()));
    for (const ShardedIterationStats* stats : {&a, &b}) {
      for (const ShardWorkerStats& w : stats->workers) {
        EXPECT_EQ(w.profile_reads, 0u) << "shard " << w.shard;
      }
    }
  }
}

TEST(PersistentShardTest, OneShardSchedulesLikeTheSerialEngine) {
  // At S = 1 the shard body owns every user, so its phase-3 PI graph and
  // its phase-4 schedule through `memory_slots` slots must be the serial
  // engine's: the same PI pairs, loads and unloads in every iteration, in
  // both worker modes. One phases-3-4 routine for the engine and the
  // shard body would rest on this equality.
  struct Row {
    const char* name;
    void (*tweak)(EngineConfig&);
  };
  const Row rows[] = {
      {"default", [](EngineConfig&) {}},
      {"sampled and reversed",
       [](EngineConfig& c) {
         c.sample_rate = 0.5;
         c.include_reverse = true;
       }},
      {"m=7 high-low",
       [](EngineConfig& c) {
         c.num_partitions = 7;
         c.heuristic = "high-low";
       }},
  };
  for (const Row& row : rows) {
    EngineConfig config = base_config();
    row.tweak(config);
    KnnEngine serial(config, clustered(80, 4));
    ShardConfig thread_config;
    thread_config.shards = 1;
    ShardedKnnEngine threaded(config, thread_config, clustered(80, 4));
    ShardedKnnEngine persistent(config, persistent_config(1),
                                clustered(80, 4));
    for (std::uint32_t i = 0; i < 3; ++i) {
      const IterationStats s = serial.run_iteration();
      ASSERT_GT(s.pi_pairs, 0u) << row.name;
      for (ShardedKnnEngine* sharded : {&threaded, &persistent}) {
        const IterationStats t = sharded->run_iteration().merged;
        const std::string where =
            std::string(row.name) + ", " +
            (sharded == &threaded ? "thread" : "persistent") +
            " mode, iteration " + std::to_string(i);
        EXPECT_EQ(t.pi_pairs, s.pi_pairs) << where;
        EXPECT_EQ(t.partition_loads, s.partition_loads) << where;
        EXPECT_EQ(t.partition_unloads, s.partition_unloads) << where;
      }
    }
  }
}

TEST(PersistentShardTest, SamplingAndReverseCandidatesBitIdentical) {
  EngineConfig config = base_config();
  config.sample_rate = 0.5;
  config.include_reverse = true;
  const std::vector<std::uint64_t> serial =
      serial_checksums(config, 90, 5, 2);
  ShardedKnnEngine engine(config, persistent_config(3), clustered(90, 5));
  for (std::uint32_t i = 0; i < 2; ++i) {
    engine.run_iteration();
    EXPECT_EQ(knn_graph_checksum(engine.graph()), serial[i])
        << "iteration " << i;
  }
}

TEST(PersistentShardTest, WorkerStatsArriveThroughReplies) {
  const EngineConfig config = base_config();
  ShardedKnnEngine engine(config, persistent_config(3), clustered(80, 4));
  const ShardedIterationStats stats = engine.run_iteration();

  ASSERT_EQ(stats.workers.size(), 3u);
  VertexId users = 0;
  std::uint64_t unique = 0;
  for (const ShardWorkerStats& w : stats.workers) {
    users += w.users;
    unique += w.stats.unique_tuples;
    EXPECT_EQ(w.stats.threads_used, engine.threads_per_shard());
    EXPECT_GT(w.spooled_tuples, 0u);
    EXPECT_GE(w.spooled_tuples, w.stats.unique_tuples);
    EXPECT_GT(w.produce_s, 0.0);
    EXPECT_GT(w.consume_s, 0.0);
    EXPECT_GT(w.stats.io.bytes_read, 0u);
  }
  EXPECT_EQ(users, 80u);
  EXPECT_EQ(unique, stats.merged.unique_tuples);
}

// ------------------------------------- persistent-mode fault injection --

TEST(PersistentFaultTest, ConsumerKilledMidIterationRespawnsAndResyncs) {
  const EngineConfig config = base_config();
  const std::vector<std::uint64_t> serial =
      serial_churn_checksums(config, 80, 4, 5);

  // Kill worker 1 at the start of phase 4 of iteration 2, attempt 0: the
  // worker has served two full iterations, so the respawned process
  // starts from nothing and must be resynced with the full G(t) snapshot
  // before its command replays.
  FaultGuard fault("consume:1:kill:0:2");
  ShardedKnnEngine engine(config, persistent_config(3), clustered(80, 4));
  std::vector<ShardedIterationStats> per_iter;
  const ShardedIterationStats last =
      run_persistent_churn(engine, 80, 4, serial, &per_iter);

  ASSERT_EQ(last.workers.size(), 3u);
  EXPECT_EQ(last.workers[1].spawn_count, 2u);
  EXPECT_EQ(last.workers[1].resync_count, 1u);
  EXPECT_EQ(last.workers[0].spawn_count, 1u);
  EXPECT_EQ(last.workers[2].spawn_count, 1u);

  // The respawned worker's resync shipped the COMPLETE profile store —
  // all 80 rows, not just the churn delta — over a second command (the
  // replay); the survivors stayed at one.
  ASSERT_EQ(per_iter.size(), 5u);
  const ShardedIterationStats& fault_iter = per_iter[2];
  EXPECT_EQ(fault_iter.workers[1].profile_rows_rx, 80u);
  EXPECT_EQ(fault_iter.workers[1].round_trips, 2u);
  EXPECT_EQ(fault_iter.workers[0].round_trips, 1u);
  EXPECT_EQ(fault_iter.workers[2].round_trips, 1u);
  // And back to delta-sized sync on the next clean iteration.
  EXPECT_EQ(per_iter[3].workers[1].round_trips, 1u);
  EXPECT_LT(per_iter[3].workers[1].profile_rows_rx, 80u);
}

TEST(PersistentFaultTest, ProducerExitMidIterationRecovers) {
  EngineConfig config = base_config();
  // Tiny buffers: the dead attempt leaves genuinely partial pair-bundle
  // files the respawned worker must replace, not append to.
  config.shard_buffer_bytes = 64;
  const std::vector<std::uint64_t> serial =
      serial_churn_checksums(config, 80, 4, 4);

  FaultGuard fault("produce:2:exit:0:1");
  ShardedKnnEngine engine(config, persistent_config(3), clustered(80, 4));
  std::vector<ShardedIterationStats> per_iter;
  const ShardedIterationStats last =
      run_persistent_churn(engine, 80, 4, serial, &per_iter);
  EXPECT_EQ(last.workers[2].spawn_count, 2u);
  EXPECT_EQ(last.workers[2].resync_count, 1u);
  // The respawn replays the full command: a second round trip carrying
  // the complete 80-row profile snapshot.
  EXPECT_EQ(per_iter[1].workers[2].round_trips, 2u);
  EXPECT_EQ(per_iter[1].workers[2].profile_rows_rx, 80u);
}

TEST(PersistentFaultTest, WedgedWorkerHitsCommandDeadlineAndRecovers) {
  const EngineConfig config = base_config();
  const std::vector<std::uint64_t> serial =
      serial_churn_checksums(config, 60, 3, 3);

  FaultGuard fault("consume:0:wedge:0:1");
  ShardedKnnEngine engine(config,
                          persistent_config(2, /*timeout_s=*/2.0),
                          clustered(60, 3));
  const ShardedIterationStats last =
      run_persistent_churn(engine, 60, 3, serial);  // must not hang
  EXPECT_EQ(last.workers[0].spawn_count, 2u);
}

TEST(PersistentFaultTest, SecondFailureThrowsDiagnosticAndLeavesGraph) {
  const EngineConfig config = base_config();
  const std::vector<std::uint64_t> serial =
      serial_churn_checksums(config, 80, 4, 2);

  // Every attempt of iteration 1 dies after generation: the respawned
  // worker is killed again, which must fail the iteration with the
  // two-attempt history and leave G(t) exactly as iteration 0 built it.
  FaultGuard fault("produce:1:kill:*:1");
  ShardedKnnEngine engine(config, persistent_config(3), clustered(80, 4));
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
    EXPECT_NE(what.find("attempt 0"), std::string::npos) << what;
    EXPECT_NE(what.find("attempt 1"), std::string::npos) << what;
  }
  EXPECT_EQ(knn_graph_checksum(engine.graph()), serial[0]);
}

TEST(PersistentFaultTest, RunContinuesNormallyAfterRecovery) {
  const EngineConfig config = base_config();
  const std::vector<std::uint64_t> serial =
      serial_churn_checksums(config, 80, 4, 4);
  ShardedKnnEngine engine(config, persistent_config(3), clustered(80, 4));
  ChurnDriver churn(churn_config(80, 4));
  {
    FaultGuard fault("consume:2:exit:0:1");
    for (std::uint32_t i = 0; i < 2; ++i) {
      churn.tick(engine.update_queue(), 80);
      engine.run_iteration();
      EXPECT_EQ(knn_graph_checksum(engine.graph()), serial[i]);
    }
  }
  // Fault cleared: the respawned worker keeps serving delta-synced
  // iterations like nothing happened.
  for (std::uint32_t i = 2; i < 4; ++i) {
    churn.tick(engine.update_queue(), 80);
    const ShardedIterationStats stats = engine.run_iteration();
    EXPECT_EQ(knn_graph_checksum(engine.graph()), serial[i]);
    EXPECT_EQ(stats.workers[2].spawn_count, 2u);
  }
}

TEST(PersistentFaultTest, ConsumerExitingOnBothAttemptsFailsWithDiagnostic) {
  const EngineConfig config = base_config();
  FaultGuard fault("consume:1:exit");  // every attempt
  ShardedKnnEngine engine(config, persistent_config(3), clustered(80, 4));
  const std::uint64_t before = knn_graph_checksum(engine.graph());
  try {
    engine.run_iteration();
    FAIL() << "expected the iteration to fail after one retry";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("iteration failed after one retry"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("shard 1"), std::string::npos) << what;
    EXPECT_NE(what.find("exited with code 3"), std::string::npos) << what;
  }
  EXPECT_EQ(knn_graph_checksum(engine.graph()), before);
}

TEST(PersistentFaultTest, WedgedOnBothAttemptsTimesOutAndFails) {
  const EngineConfig config = base_config();
  FaultGuard fault("produce:0:wedge");  // every attempt
  ShardedKnnEngine engine(config, persistent_config(2, /*timeout_s=*/2.0),
                          clustered(60, 3));
  const std::uint64_t before = knn_graph_checksum(engine.graph());
  try {
    engine.run_iteration();  // two bounded attempts, then throw
    FAIL() << "expected the wedged worker to fail the run";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("timed out"), std::string::npos) << what;
    EXPECT_NE(what.find("shard 0"), std::string::npos) << what;
  }
  EXPECT_EQ(knn_graph_checksum(engine.graph()), before);
}

/// The pid of this process's child whose argv carries `arg` exactly, or
/// -1 — how a test reaches one persistent worker from outside the driver.
pid_t find_child_with_arg(const std::string& arg) {
  namespace fs = std::filesystem;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator("/proc", ec)) {
    const std::string name = entry.path().filename().string();
    if (name.find_first_not_of("0123456789") != std::string::npos) continue;
    std::ifstream stat(entry.path() / "stat");
    std::string line;
    if (!std::getline(stat, line)) continue;
    // "pid (comm) state ppid ...": comm may hold spaces, so parse after
    // the last ')'.
    const std::size_t close = line.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream fields(line.substr(close + 1));
    char state = 0;
    pid_t ppid = 0;
    if (!(fields >> state >> ppid) || ppid != ::getpid()) continue;
    std::ifstream cmdline(entry.path() / "cmdline", std::ios::binary);
    std::string token;
    while (std::getline(cmdline, token, '\0')) {
      if (token == arg) return static_cast<pid_t>(std::stol(name));
    }
  }
  return -1;
}

/// Kernel-side state letter of `pid` ('Z' = exited, awaiting reap).
char process_state(pid_t pid) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(stat, line)) return '?';
  const std::size_t close = line.rfind(')');
  return close == std::string::npos || close + 2 >= line.size()
             ? '?'
             : line[close + 2];
}

TEST(PersistentFaultTest, SendToDeadWorkerReportsHowItDied) {
  // A worker that died between iterations surfaces as a failed command
  // send (EPIPE). The diagnostic must come from the reaped corpse, not
  // the unpolled handle ("still running").
  const EngineConfig config = base_config();
  ShardedKnnEngine engine(config, persistent_config(3), clustered(80, 4));
  engine.run_iteration();
  const std::uint64_t before = knn_graph_checksum(engine.graph());

  const pid_t worker = find_child_with_arg("--shard=1");
  ASSERT_GT(worker, 0) << "no live worker child carries --shard=1";
  ASSERT_EQ(::kill(worker, SIGKILL), 0);
  // Wait until the kernel has closed its pipes (zombie, not yet reaped).
  for (int i = 0; i < 5000 && process_state(worker) != 'Z'; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(process_state(worker), 'Z');

  FaultGuard fault("produce:1:kill:1:1");  // the respawn dies too
  try {
    engine.run_iteration();
    FAIL() << "expected the iteration to fail after one retry";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("iteration failed after one retry"),
              std::string::npos)
        << what;
    const std::size_t first = what.find("attempt 0: command send failed");
    const std::size_t second = what.find("attempt 1:");
    ASSERT_NE(first, std::string::npos) << what;
    ASSERT_NE(second, std::string::npos) << what;
    const std::string attempt0 = what.substr(first, second - first);
    EXPECT_NE(attempt0.find("killed by signal 9"), std::string::npos)
        << what;
    EXPECT_EQ(what.find("still running"), std::string::npos) << what;
  }
  EXPECT_EQ(knn_graph_checksum(engine.graph()), before);
}

// -------------------------------------------- hostile RUN_ITERATION --
// A worker sizes its ownership maps, G(t) and P(t) from RUN_ITERATION
// fields: bytes that in distributed mode arrive over TCP through an
// agent. Each case spawns this binary as one worker over a pipe pair,
// sends a valid plan, reads READY and sends one hostile command built
// with the driver's own encoders. The worker must refuse it before
// sizing anything from it, exit 13 and name the field on stderr.

/// Points this process's fd 2 at `path` until destroyed, so a child
/// spawned meanwhile inherits the file as its stderr.
class StderrToFile {
 public:
  explicit StderrToFile(const std::filesystem::path& path)
      : saved_(::dup(STDERR_FILENO)) {
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ::dup2(fd, STDERR_FILENO);
    ::close(fd);
  }
  ~StderrToFile() {
    ::dup2(saved_, STDERR_FILENO);
    ::close(saved_);
  }
  StderrToFile(const StderrToFile&) = delete;
  StderrToFile& operator=(const StderrToFile&) = delete;

 private:
  int saved_;
};

struct WorkerVerdict {
  SubprocessStatus status;
  std::string stderr_text;
};

/// Runs worker 0 of `plan` against one RUN_ITERATION `command` and
/// returns how it ended. A worker that accepts the command replies and
/// then meets EOF, so it exits 0 instead of hanging the test; one that
/// refuses the plan is sent no command.
WorkerVerdict run_worker_on(const WorkerPlan& plan,
                            const std::vector<std::byte>& command) {
  const ScratchDir dir("hostile_run_iteration");
  const std::filesystem::path log = dir.path() / "worker_stderr.txt";
  Subprocess worker;
  IpcChannel channel;
  {
    const StderrToFile redirect(log);
    IpcChannelPair pair = make_ipc_channel_pair();
    worker = Subprocess(
        std::vector<std::string>{current_executable().string(),
                                 "--shard-worker", "--shard=0",
                                 "--work-dir=" + dir.path().string()},
        pair.child_read_fd, pair.child_write_fd);
    channel = std::move(pair.parent);
  }
  channel.send(shard_frame::kPlan, plan_to_bytes(plan), 30.0);
  // A worker that refuses the plan exits before READY and never gets the
  // command.
  try {
    if (channel.recv(30.0).type == shard_frame::kReady) {
      channel.send(shard_frame::kRunIteration, command, 30.0);
    }
  } catch (const IpcError&) {
  }
  channel.close_write();
  for (int i = 0; i < 30000 && !worker.poll().finished(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (!worker.status().finished()) {
    worker.kill_now();
    worker.wait();
  }
  std::ifstream in(log);
  std::stringstream text;
  text << in.rdbuf();
  return {worker.status(), text.str()};
}

TEST(HostileRunIterationTest, WorkerChecksEverySizeBeforeAllocating) {
  const VertexId n = 20;
  WorkerPlan plan;
  plan.config = base_config();
  plan.shards = 2;
  std::vector<PartitionId> partition_owner(n);
  std::vector<PartitionId> shard_owner(n);
  for (VertexId v = 0; v < n; ++v) {
    partition_owner[v] = v % plan.config.num_partitions;
    shard_owner[v] = v % plan.shards;
  }
  const std::vector<std::byte> graph_n = knn_graph_delta_to_bytes(
      full_knn_graph_delta(KnnGraph(n, plan.config.k)));
  const std::vector<std::byte> profiles_n = profile_delta_to_bytes(
      full_profile_delta(InMemoryProfileStore(clustered(n, 2))));
  auto command = [&](std::span<const std::byte> graph_delta,
                     std::span<const std::byte> profile_delta) {
    RunIterationCommand c;
    c.partition_owner = &partition_owner;
    c.shard_owner = &shard_owner;
    c.graph_full = true;
    c.graph_new_version = 0;
    c.graph_delta = graph_delta;
    c.profile_full = true;
    c.profile_new_version = 0;
    c.profile_delta = profile_delta;
    return run_iteration_to_bytes(c);
  };

  // The well-formed command is answered; the worker then meets EOF.
  const WorkerVerdict valid =
      run_worker_on(plan, command(graph_n, profiles_n));
  EXPECT_TRUE(valid.status.success())
      << valid.status.describe() << "\n" << valid.stderr_text;

  struct Case {
    const char* name;
    std::vector<std::byte> bytes;
    const char* field;
  };
  std::vector<Case> cases;
  {
    // A map count of 2^26 followed by 8 bytes of maps: one user's two
    // entries, with the count patched after the u32 iteration, u32
    // attempt and u8 maps flag.
    const std::vector<PartitionId> one_user = {0};
    RunIterationCommand c;
    c.partition_owner = &one_user;
    c.shard_owner = &one_user;
    std::vector<std::byte> bytes = run_iteration_to_bytes(c);
    const std::size_t at = 2 * sizeof(std::uint32_t) + sizeof(std::uint8_t);
    std::uint32_t count = 0;
    std::size_t offset = at;
    ASSERT_TRUE(read_record(std::span<const std::byte>(bytes), offset, count));
    ASSERT_EQ(count, 1u) << "RUN_ITERATION layout changed";
    bytes.resize(offset + 2 * sizeof(PartitionId));
    const std::uint32_t hostile = std::uint32_t{1} << 26;
    std::memcpy(bytes.data() + at, &hostile, sizeof(hostile));
    cases.push_back({"map count 2^26", std::move(bytes),
                     "ownership map count"});
  }
  cases.push_back({"full G(t) of n + 1 vertices",
                   command(knn_graph_delta_to_bytes(full_knn_graph_delta(
                               KnnGraph(n + 1, plan.config.k))),
                           profiles_n),
                   "G(t) vertex count"});
  cases.push_back({"full G(t) with the plan's k + 1",
                   command(knn_graph_delta_to_bytes(full_knn_graph_delta(
                               KnnGraph(n, plan.config.k + 1))),
                           profiles_n),
                   "G(t) k"});
  cases.push_back(
      {"full P(t) of n + 1 users",
       command(graph_n, profile_delta_to_bytes(full_profile_delta(
                            InMemoryProfileStore(clustered(n + 1, 2))))),
       "P(t) user count"});

  for (const Case& c : cases) {
    const WorkerVerdict verdict = run_worker_on(plan, c.bytes);
    EXPECT_EQ(verdict.status.state, SubprocessStatus::State::Exited)
        << c.name << ": " << verdict.status.describe();
    EXPECT_EQ(verdict.status.exit_code, 13)
        << c.name << ": " << verdict.status.describe();
    EXPECT_NE(verdict.stderr_text.find(c.field), std::string::npos)
        << c.name << ": " << verdict.stderr_text;
  }
}

// ------------------------------------------------------ hostile PLAN --
// The plan's fields configure the whole shard body. A measure past the
// enum scored every pair 0, and a single memory slot, which both engine
// constructors reject, was taken as given: either way the worker built a
// wrong graph and reported nothing. It must refuse such a plan, exit 13
// and name the field on stderr.

TEST(HostilePlanTest, WorkerRefusesOutOfRangeFields) {
  const VertexId n = 20;
  WorkerPlan valid;
  valid.config = base_config();
  valid.shards = 2;
  std::vector<PartitionId> partition_owner(n);
  std::vector<PartitionId> shard_owner(n);
  for (VertexId v = 0; v < n; ++v) {
    partition_owner[v] = v % valid.config.num_partitions;
    shard_owner[v] = v % valid.shards;
  }
  const std::vector<std::byte> graph_delta = knn_graph_delta_to_bytes(
      full_knn_graph_delta(KnnGraph(n, valid.config.k)));
  const std::vector<std::byte> profile_delta = profile_delta_to_bytes(
      full_profile_delta(InMemoryProfileStore(clustered(n, 2))));
  RunIterationCommand c;
  c.partition_owner = &partition_owner;
  c.shard_owner = &shard_owner;
  c.graph_full = true;
  c.graph_new_version = 0;
  c.graph_delta = graph_delta;
  c.profile_full = true;
  c.profile_new_version = 0;
  c.profile_delta = profile_delta;
  const std::vector<std::byte> command = run_iteration_to_bytes(c);

  struct Case {
    const char* name;
    WorkerPlan plan;
    const char* field;
  };
  Case measure{"measure 8", valid, "measure"};
  measure.plan.config.measure = static_cast<SimilarityMeasure>(8);
  Case slots{"memory_slots 1", valid, "memory_slots"};
  slots.plan.config.memory_slots = 1;

  for (const Case& bad : {measure, slots}) {
    const WorkerVerdict verdict = run_worker_on(bad.plan, command);
    EXPECT_EQ(verdict.status.state, SubprocessStatus::State::Exited)
        << bad.name << ": " << verdict.status.describe();
    EXPECT_EQ(verdict.status.exit_code, 13)
        << bad.name << ": " << verdict.status.describe();
    EXPECT_NE(verdict.stderr_text.find("PLAN frame: " +
                                       std::string(bad.field)),
              std::string::npos)
        << bad.name << ": " << verdict.stderr_text;
  }
}

// ------------------------------------------------ KSHR result codec --

TEST(ShardResultIoTest, RoundTripsThroughBytes) {
  ShardResult result;
  result.shard = 2;
  result.num_vertices = 10;
  result.k = 3;
  result.changed = 17;
  result.entries.emplace_back(
      1, std::vector<Neighbor>{{4, 0.75f}, {9, 0.5f}});
  result.entries.emplace_back(7, std::vector<Neighbor>{});

  const ShardResult loaded =
      shard_result_from_bytes(shard_result_to_bytes(result), "round trip");
  EXPECT_EQ(loaded.shard, 2u);
  EXPECT_EQ(loaded.num_vertices, 10u);
  EXPECT_EQ(loaded.k, 3u);
  EXPECT_EQ(loaded.changed, 17u);
  ASSERT_EQ(loaded.entries.size(), 2u);
  EXPECT_EQ(loaded.entries[0].first, 1u);
  ASSERT_EQ(loaded.entries[0].second.size(), 2u);
  EXPECT_EQ(loaded.entries[0].second[0].id, 4u);
  EXPECT_FLOAT_EQ(loaded.entries[0].second[0].score, 0.75f);
  EXPECT_TRUE(loaded.entries[1].second.empty());
}

TEST(ShardResultIoTest, RejectsCorruptBytes) {
  EXPECT_THROW((void)shard_result_from_bytes({}, "empty"),
               std::runtime_error);
  const std::vector<std::byte> garbage(8, std::byte{0x5a});
  EXPECT_THROW((void)shard_result_from_bytes(garbage, "garbage"),
               std::runtime_error);

  // A valid header truncated mid-entry must be rejected too.
  ShardResult result;
  result.shard = 0;
  result.num_vertices = 4;
  result.k = 2;
  result.entries.emplace_back(1, std::vector<Neighbor>{{2, 1.0f}});
  std::vector<std::byte> bytes = shard_result_to_bytes(result);
  bytes.resize(bytes.size() - 3);
  EXPECT_THROW((void)shard_result_from_bytes(bytes, "truncated"),
               std::runtime_error);
}

}  // namespace
}  // namespace knnpc

int main(int argc, char** argv) {
  // The driver under test re-executes THIS binary as its shard workers;
  // the hidden role must win before gtest parses argv.
  if (const auto worker_exit = knnpc::maybe_run_shard_worker(argc, argv)) {
    return *worker_exit;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
