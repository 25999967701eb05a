// Tests for core/shard_driver: the shard-count determinism contract (the
// merged graph is bit-identical to the serial engine's for any S) and the
// merged-output container.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/shard_driver.h"
#include "core/sharded_knn_graph.h"
#include "core/tuple_generation.h"
#include "graph/knn_graph_io.h"
#include "profiles/generators.h"
#include "storage/block_file.h"
#include "storage/shard_writer.h"
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

TEST(ShardDriverTest, ThreadModeWritesNoPartitionFile) {
  // Thread-mode shard bodies score from the driver's own P(t), so the
  // work directory holds the workers' pair bundles and nothing else: no
  // partition store, no partition file.
  namespace fs = std::filesystem;
  const SerialRun serial = run_serial(base_config(), 80, 4, 2);
  const ScratchDir dir("shard_thread_no_partitions");
  EngineConfig config = base_config();
  config.work_dir = dir.path().string();
  ShardConfig shard_config;
  shard_config.shards = 3;
  ShardedKnnEngine sharded(config, shard_config, clustered(80, 4, 21));
  for (std::uint32_t i = 0; i < 2; ++i) {
    sharded.run_iteration();
    EXPECT_EQ(knn_graph_checksum(sharded.graph()), serial.checksums[i])
        << "iteration " << i;
  }
  EXPECT_TRUE(fs::is_directory(dir.path() / "worker_0"));
  EXPECT_FALSE(fs::exists(dir.path() / "partitions"));
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(dir.path())) {
    EXPECT_NE(entry.path().filename().string().rfind("part_", 0), 0u)
        << entry.path();
  }
}

// Phase 2's three candidate rows: the source walk, and the partition
// walk that sampled or reversed runs take.
struct CandidateRow {
  const char* name;
  double sample_rate;
  bool include_reverse;
};

TEST(ShardDriverTest, WorkerBundlesAreGroupedBySource) {
  // Both walks emit each worker's sources one after another, so each
  // source forms one run in every bundle a worker writes (phase 4 offers
  // from its scoring tasks on that basis), and the workers' bundles of a
  // slot together hold the serial engine's bundle.
  namespace fs = std::filesystem;
  const CandidateRow rows[] = {
      {"default", 1.0, false}, {"sampled", 0.5, false}, {"reverse", 1.0, true}};
  const ScratchDir scratch("shard_grouped_bundles");
  const PartitionId m = base_config().num_partitions;
  const std::size_t num_slots = pi_pair_slot(m - 1, m - 1, m) + 1;
  for (const CandidateRow& row : rows) {
    EngineConfig config = base_config();
    config.sample_rate = row.sample_rate;
    config.include_reverse = row.include_reverse;
    config.threads = 1;
    config.work_dir = (scratch.path() / (std::string(row.name) + "-serial"))
                          .string();
    KnnEngine serial(config, clustered(120, 4, 21));
    serial.run_iteration();
    std::vector<std::vector<Tuple>> expected;
    for (std::size_t slot = 0; slot < num_slots; ++slot) {
      expected.push_back(read_record_shard<Tuple>(
          record_shard_path(config.work_dir, "tuples", slot)));
      std::sort(expected.back().begin(), expected.back().end());
    }
    for (const std::uint32_t shards : {2u, 3u}) {
      config.work_dir = (scratch.path() / (std::string(row.name) + "-S" +
                                           std::to_string(shards)))
                            .string();
      ShardConfig shard_config;
      shard_config.shards = shards;
      ShardedKnnEngine sharded(config, shard_config, clustered(120, 4, 21));
      sharded.run_iteration();
      for (std::size_t slot = 0; slot < num_slots; ++slot) {
        const std::string where = std::string(row.name) + " S=" +
                                  std::to_string(shards) + " slot " +
                                  std::to_string(slot);
        std::vector<Tuple> merged;
        for (std::uint32_t w = 0; w < shards; ++w) {
          const std::vector<Tuple> bundle = read_record_shard<Tuple>(
              record_shard_path(fs::path(config.work_dir) /
                                    ("worker_" + std::to_string(w)),
                                "tuples", slot));
          std::set<VertexId> finished;
          for (std::size_t i = 1; i <= bundle.size(); ++i) {
            if (i < bundle.size() && bundle[i].s == bundle[i - 1].s) continue;
            EXPECT_TRUE(finished.insert(bundle[i - 1].s).second)
                << where << " worker " << w << ": source " << bundle[i - 1].s
                << " forms two runs";
          }
          merged.insert(merged.end(), bundle.begin(), bundle.end());
        }
        std::sort(merged.begin(), merged.end());
        EXPECT_EQ(merged, expected[slot]) << where;
      }
    }
  }
}

TEST(ShardDriverTest, ShardBodiesOnAPoolMatchSerial) {
  // Each shard body gets a pool of 2 or 3 threads, so phase 4's scoring
  // tasks offer concurrently to the shard's own rows, on the source walk
  // and on the partition walk alike.
  const CandidateRow rows[] = {{"default", 1.0, false},
                               {"sampled", 0.5, false},
                               {"reversed", 1.0, true},
                               {"sampled and reversed", 0.5, true}};
  for (const CandidateRow& row : rows) {
    EngineConfig config = base_config();
    config.sample_rate = row.sample_rate;
    config.include_reverse = row.include_reverse;
    config.threads = 1;
    const SerialRun serial = run_serial(config, 90, 5, 2);
    for (const std::uint32_t shards : {2u, 3u}) {
      for (const std::uint32_t per_shard : {2u, 3u}) {
        config.threads = per_shard * shards;
        ShardConfig shard_config;
        shard_config.shards = shards;
        ShardedKnnEngine sharded(config, shard_config, clustered(90, 5, 21));
        ASSERT_EQ(sharded.threads_per_shard(), per_shard);
        for (std::uint32_t i = 0; i < 2; ++i) {
          const std::string where =
              std::string(row.name) + " S=" + std::to_string(shards) +
              " threads=" + std::to_string(config.threads) + " iteration " +
              std::to_string(i);
          const ShardedIterationStats stats = sharded.run_iteration();
          EXPECT_EQ(knn_graph_checksum(sharded.graph()), serial.checksums[i])
              << where;
          EXPECT_EQ(stats.merged.candidate_tuples,
                    serial.stats[i].candidate_tuples)
              << where;
          EXPECT_EQ(stats.merged.unique_tuples, serial.stats[i].unique_tuples)
              << where;
        }
      }
    }
  }
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
