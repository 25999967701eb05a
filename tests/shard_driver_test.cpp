// Tests for core/shard_driver: the shard-count determinism contract (the
// merged graph is bit-identical to the serial engine's for any S) and the
// merged-output container.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/engine.h"
#include "core/shard_driver.h"
#include "core/sharded_knn_graph.h"
#include "graph/knn_graph_io.h"
#include "profiles/generators.h"
#include "util/rng.h"

namespace knnpc {
namespace {

std::vector<SparseProfile> clustered(VertexId n, std::uint32_t clusters,
                                     std::uint64_t seed = 7) {
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

/// Runs the serial engine for `iters` iterations and returns per-iteration
/// (checksum, stats).
struct SerialRun {
  std::vector<std::uint64_t> checksums;
  std::vector<IterationStats> stats;
};

SerialRun run_serial(const EngineConfig& config, VertexId n,
                     std::uint32_t clusters, std::uint32_t iters,
                     std::uint64_t profile_seed = 21) {
  SerialRun out;
  KnnEngine engine(config, clustered(n, clusters, profile_seed));
  for (std::uint32_t i = 0; i < iters; ++i) {
    out.stats.push_back(engine.run_iteration());
    out.checksums.push_back(knn_graph_checksum(engine.graph()));
  }
  return out;
}

// ------------------------------------------------ determinism contract --

class ShardCountTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ShardCountTest, GraphBitIdenticalToSerialAcrossIterations) {
  const EngineConfig config = base_config();
  const SerialRun serial = run_serial(config, 80, 4, 2);

  ShardConfig shard_config;
  shard_config.shards = GetParam();
  ShardedKnnEngine sharded(config, shard_config, clustered(80, 4, 21));
  EXPECT_EQ(sharded.num_shards(), GetParam());
  for (std::uint32_t i = 0; i < 2; ++i) {
    const ShardedIterationStats stats = sharded.run_iteration();
    EXPECT_EQ(knn_graph_checksum(sharded.graph()), serial.checksums[i])
        << "S=" << GetParam() << " iteration " << i;
    // The summed counters that are shard-count invariants.
    EXPECT_EQ(stats.merged.candidate_tuples,
              serial.stats[i].candidate_tuples);
    EXPECT_EQ(stats.merged.unique_tuples, serial.stats[i].unique_tuples);
    EXPECT_DOUBLE_EQ(stats.merged.change_rate, serial.stats[i].change_rate);
  }
}

TEST_P(ShardCountTest, SpillScoresPathBitIdentical) {
  EngineConfig config = base_config();
  config.spill_scores = true;
  const SerialRun serial = run_serial(config, 80, 4, 2);

  ShardConfig shard_config;
  shard_config.shards = GetParam();
  ShardedKnnEngine sharded(config, shard_config, clustered(80, 4, 21));
  for (std::uint32_t i = 0; i < 2; ++i) {
    sharded.run_iteration();
    EXPECT_EQ(knn_graph_checksum(sharded.graph()), serial.checksums[i])
        << "S=" << GetParam() << " iteration " << i;
  }
}

TEST_P(ShardCountTest, ReverseCandidatesSampledOrNotBitIdentical) {
  // With include_reverse the workers walk every partition, sampled or
  // not; at rho = 1 every user's restarts reverse into their targets'
  // shards unsampled.
  for (const double sample_rate : {0.5, 1.0}) {
    EngineConfig config = base_config();
    config.sample_rate = sample_rate;
    config.include_reverse = true;
    const SerialRun serial = run_serial(config, 90, 5, 2);

    ShardConfig shard_config;
    shard_config.shards = GetParam();
    ShardedKnnEngine sharded(config, shard_config, clustered(90, 5, 21));
    for (std::uint32_t i = 0; i < 2; ++i) {
      const ShardedIterationStats stats = sharded.run_iteration();
      EXPECT_EQ(knn_graph_checksum(sharded.graph()), serial.checksums[i])
          << "S=" << GetParam() << " rho=" << sample_rate << " iteration "
          << i;
      EXPECT_EQ(stats.merged.candidate_tuples,
                serial.stats[i].candidate_tuples);
      EXPECT_EQ(stats.merged.unique_tuples, serial.stats[i].unique_tuples);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardCountTest,
                         ::testing::Values(1u, 2u, 3u, 5u));

TEST(ShardDriverTest, ShardSplitStrategyDoesNotChangeOutput) {
  const EngineConfig config = base_config();
  const SerialRun serial = run_serial(config, 80, 4, 1);

  for (const char* strategy : {"range", "hash", "pair-affinity"}) {
    ShardConfig shard_config;
    shard_config.shards = 3;
    shard_config.shard_partitioner = strategy;
    ShardedKnnEngine sharded(config, shard_config, clustered(80, 4, 21));
    sharded.run_iteration();
    EXPECT_EQ(knn_graph_checksum(sharded.graph()), serial.checksums[0])
        << strategy;
  }
}

TEST(ShardDriverTest, ProfileUpdatesMatchSerialAcrossShards) {
  const EngineConfig config = base_config();
  auto queue_updates = [](UpdateQueue& queue) {
    for (VertexId v = 0; v < 10; ++v) {
      ProfileUpdate update;
      update.kind = ProfileUpdate::Kind::SetItem;
      update.user = v;
      update.item = 3;
      update.value = 4.5f;
      queue.push(update);
    }
  };

  KnnEngine serial(config, clustered(80, 4, 21));
  serial.run_iteration();
  queue_updates(serial.update_queue());
  serial.run_iteration();
  serial.run_iteration();

  ShardConfig shard_config;
  shard_config.shards = 3;
  ShardedKnnEngine sharded(config, shard_config, clustered(80, 4, 21));
  sharded.run_iteration();
  queue_updates(sharded.update_queue());
  const auto with_updates = sharded.run_iteration();
  EXPECT_EQ(with_updates.merged.profile_updates_applied, 10u);
  sharded.run_iteration();

  EXPECT_EQ(knn_graph_checksum(sharded.graph()),
            knn_graph_checksum(serial.graph()));
}

TEST(ShardDriverTest, SetInitialGraphIsRespected) {
  const EngineConfig config = base_config();
  Rng rng(5);
  const KnnGraph start = random_knn_graph(80, config.k, rng);

  KnnEngine serial(config, clustered(80, 4, 21));
  serial.set_initial_graph(start);
  serial.run_iteration();

  ShardConfig shard_config;
  shard_config.shards = 2;
  ShardedKnnEngine sharded(config, shard_config, clustered(80, 4, 21));
  sharded.set_initial_graph(start);
  sharded.run_iteration();

  EXPECT_EQ(knn_graph_checksum(sharded.graph()),
            knn_graph_checksum(serial.graph()));
}

// ------------------------------------------------------- worker stats --

TEST(ShardDriverTest, WorkerStatsPartitionTheWork) {
  const EngineConfig config = base_config();
  ShardConfig shard_config;
  shard_config.shards = 3;
  ShardedKnnEngine sharded(config, shard_config, clustered(80, 4, 21));
  const ShardedIterationStats stats = sharded.run_iteration();

  ASSERT_EQ(stats.workers.size(), 3u);
  VertexId users = 0;
  std::uint64_t candidates = 0;
  std::uint64_t unique = 0;
  for (const ShardWorkerStats& w : stats.workers) {
    users += w.users;
    candidates += w.stats.candidate_tuples;
    unique += w.stats.unique_tuples;
    EXPECT_EQ(w.stats.threads_used, sharded.threads_per_shard());
    EXPECT_GT(w.spooled_tuples, 0u);
    EXPECT_GE(w.spooled_tuples, w.stats.unique_tuples);
  }
  EXPECT_EQ(users, 80u);
  EXPECT_EQ(candidates, stats.merged.candidate_tuples);
  EXPECT_EQ(unique, stats.merged.unique_tuples);
  EXPECT_EQ(stats.merged.threads_used,
            3u * sharded.threads_per_shard());
}

TEST(ShardDriverTest, RunConvergesLikeSerial) {
  const EngineConfig config = base_config();
  ShardConfig shard_config;
  shard_config.shards = 2;
  ShardedKnnEngine sharded(config, shard_config, clustered(80, 4, 21));
  const RunStats run = sharded.run(10, 0.01);
  EXPECT_FALSE(run.iterations.empty());
  EXPECT_TRUE(run.converged);
}

TEST(ShardDriverTest, InvalidConfigsThrow) {
  EngineConfig config = base_config();
  config.num_partitions = 0;
  EXPECT_THROW(ShardedKnnEngine(config, ShardConfig{}, clustered(20, 2)),
               std::invalid_argument);
  config = base_config();
  config.memory_slots = 1;
  EXPECT_THROW(ShardedKnnEngine(config, ShardConfig{}, clustered(20, 2)),
               std::invalid_argument);
}

TEST(ShardDriverTest, WorkerModeNamesRoundTripAndRejectUnknown) {
  for (const ShardWorkerMode mode :
       {ShardWorkerMode::Thread, ShardWorkerMode::Persistent}) {
    EXPECT_EQ(parse_worker_mode(worker_mode_name(mode)), mode);
  }
  // The per-wave process mode is gone; its name must not parse.
  EXPECT_THROW((void)parse_worker_mode("process"), std::invalid_argument);
  EXPECT_THROW((void)parse_worker_mode(""), std::invalid_argument);
}

// ------------------------------------------------- resolve_shard_count --

TEST(ResolveShardCountTest, ExplicitTakenVerbatimClampedToUsers) {
  EXPECT_EQ(resolve_shard_count(4, 1000, 10), 4u);
  EXPECT_EQ(resolve_shard_count(16, 8, 10), 8u);  // never more than users
  EXPECT_EQ(resolve_shard_count(3, 0, 10), 1u);
}

TEST(ResolveShardCountTest, AutoStaysSerialForSmallRuns) {
  EXPECT_EQ(resolve_shard_count(0, 100, 10), 1u);
}

TEST(ResolveShardCountTest, AutoIsBoundedByCap) {
  EXPECT_LE(resolve_shard_count(0, 10'000'000, 10), kMaxAutoShards);
  EXPECT_GE(resolve_shard_count(0, 10'000'000, 10), 1u);
}

// ----------------------------------------------------- ShardedKnnGraph --

PartitionAssignment round_robin(VertexId n, PartitionId shards) {
  std::vector<PartitionId> owner(n);
  for (VertexId v = 0; v < n; ++v) owner[v] = v % shards;
  return PartitionAssignment(std::move(owner), shards);
}

TEST(ShardedKnnGraphTest, MergePicksEachUsersOwnerShard) {
  const VertexId n = 6;
  ShardedKnnGraph output(round_robin(n, 2), 2);
  KnnGraph even(n, 2);
  KnnGraph odd(n, 2);
  for (VertexId v = 0; v < n; ++v) {
    // Owner shard writes the real list; the other shard leaves v empty.
    auto& target = (v % 2 == 0) ? even : odd;
    target.set_neighbors(v, {{(v + 1) % n, 0.5f}});
  }
  output.set_shard(0, std::move(even));
  output.set_shard(1, std::move(odd));
  const KnnGraph merged = output.merge();
  for (VertexId v = 0; v < n; ++v) {
    ASSERT_EQ(merged.neighbors(v).size(), 1u) << v;
    EXPECT_EQ(merged.neighbors(v)[0].id, (v + 1) % n);
  }
}

TEST(ShardedKnnGraphTest, MergeThrowsWhenOwnerShardMissing) {
  ShardedKnnGraph output(round_robin(4, 2), 2);
  output.set_shard(0, KnnGraph(4, 2));
  EXPECT_THROW((void)output.merge(), std::logic_error);
}

TEST(ShardedKnnGraphTest, VertexCountMismatchThrows) {
  ShardedKnnGraph output(round_robin(4, 2), 2);
  EXPECT_THROW(output.set_shard(0, KnnGraph(5, 2)), std::invalid_argument);
}

// ------------------------------------------------------------ checksum --

TEST(KnnGraphChecksumTest, EqualGraphsEqualChecksumsAndDifferingDiffer) {
  Rng rng_a(3);
  Rng rng_b(3);
  const KnnGraph a = random_knn_graph(50, 4, rng_a);
  const KnnGraph b = random_knn_graph(50, 4, rng_b);
  EXPECT_EQ(knn_graph_checksum(a), knn_graph_checksum(b));

  KnnGraph c = b;
  c.set_neighbors(0, {{7, 0.25f}});
  EXPECT_NE(knn_graph_checksum(a), knn_graph_checksum(c));
}

}  // namespace
}  // namespace knnpc
