// Tests for core/engine: the five-phase pipeline, its statistics, its
// convergence behaviour, and phase-5 update semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "core/brute_force.h"
#include "core/engine.h"
#include "core/metrics.h"
#include "core/tuple_generation.h"
#include "profiles/generators.h"
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

EngineConfig small_config() {
  EngineConfig config;
  config.k = 5;
  config.num_partitions = 4;
  return config;
}

TEST(EngineTest, IterationProducesBoundedOutdegreeGraph) {
  KnnEngine engine(small_config(), clustered(120, 6));
  engine.run_iteration();
  const KnnGraph& g = engine.graph();
  EXPECT_EQ(g.num_vertices(), 120u);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_LE(g.neighbors(v).size(), 5u);
    for (const Neighbor& n : g.neighbors(v)) {
      EXPECT_NE(n.id, v);
      EXPECT_LT(n.id, 120u);
    }
  }
}

TEST(EngineTest, StatsAreInternallyConsistent) {
  KnnEngine engine(small_config(), clustered(100, 5));
  const IterationStats stats = engine.run_iteration();
  EXPECT_EQ(stats.iteration, 0u);
  EXPECT_GT(stats.candidate_tuples, 0u);
  EXPECT_GT(stats.unique_tuples, 0u);
  EXPECT_LE(stats.unique_tuples, stats.candidate_tuples);
  EXPECT_GT(stats.pi_pairs, 0u);
  EXPECT_LE(stats.pi_pairs, 4u * 5u / 2u);  // m*(m+1)/2 with m=4
  EXPECT_GT(stats.partition_loads, 0u);
  EXPECT_EQ(stats.partition_loads, stats.partition_unloads);
  EXPECT_GT(stats.io.bytes_written, 0u);
  EXPECT_GT(stats.io.bytes_read, 0u);
  EXPECT_GT(stats.timings.total(), 0.0);
}

TEST(EngineTest, ConvergesOnClusteredProfiles) {
  EngineConfig config = small_config();
  config.k = 8;
  KnnEngine engine(config, clustered(160, 8));
  const RunStats run = engine.run(15, 0.01);
  EXPECT_TRUE(run.converged);
  // Change rate must fall monotonically-ish to below the threshold.
  EXPECT_LT(run.iterations.back().change_rate, 0.01);
  EXPECT_GT(run.iterations.front().change_rate,
            run.iterations.back().change_rate);
}

TEST(EngineTest, ConvergedGraphHasHighRecall) {
  EngineConfig config = small_config();
  config.k = 8;
  auto profiles = clustered(150, 6);
  InMemoryProfileStore reference_store{profiles};
  KnnEngine engine(config, std::move(profiles));
  engine.run(15, 0.005);
  const KnnGraph exact =
      brute_force_knn(reference_store, config.k, config.measure, 8);
  EXPECT_GT(recall_at_k(engine.graph(), exact), 0.85);
}

TEST(EngineTest, ChangeRateDecreasesAcrossIterations) {
  KnnEngine engine(small_config(), clustered(100, 5));
  const double first = engine.run_iteration().change_rate;
  engine.run_iteration();
  engine.run_iteration();
  const double later = engine.run_iteration().change_rate;
  EXPECT_LT(later, first);
}

TEST(EngineTest, DeterministicForFixedSeed) {
  auto make = [] {
    EngineConfig config;
    config.k = 5;
    config.num_partitions = 4;
    config.seed = 99;
    return KnnEngine(config, clustered(80, 4, /*seed=*/21));
  };
  auto a = make();
  auto b = make();
  a.run_iteration();
  b.run_iteration();
  for (VertexId v = 0; v < 80; ++v) {
    const auto na = a.graph().neighbors(v);
    const auto nb = b.graph().neighbors(v);
    ASSERT_EQ(na.size(), nb.size());
    for (std::size_t i = 0; i < na.size(); ++i) {
      EXPECT_EQ(na[i].id, nb[i].id);
    }
  }
}

// Every heuristic must drive the engine to the same similarity results —
// traversal order affects only I/O, never the KNN output.
class EngineHeuristicTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EngineHeuristicTest, OutputIndependentOfTraversalOrder) {
  EngineConfig config = small_config();
  config.seed = 5;
  KnnEngine reference(config, clustered(90, 3, 33));
  reference.run_iteration();

  EngineConfig variant = config;
  variant.heuristic = GetParam();
  KnnEngine engine(variant, clustered(90, 3, 33));
  engine.run_iteration();

  for (VertexId v = 0; v < 90; ++v) {
    const auto na = reference.graph().neighbors(v);
    const auto nb = engine.graph().neighbors(v);
    ASSERT_EQ(na.size(), nb.size()) << GetParam() << " v=" << v;
    for (std::size_t i = 0; i < na.size(); ++i) {
      EXPECT_EQ(na[i].id, nb[i].id) << GetParam() << " v=" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllHeuristics, EngineHeuristicTest,
    ::testing::Values("sequential", "high-low", "low-high", "random",
                      "greedy-resident", "dynamic-degree", "cost-aware"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(EngineTest, MultiThreadedMatchesSingleThreaded) {
  EngineConfig config = small_config();
  KnnEngine serial(config, clustered(100, 5, 44));
  config.threads = 8;
  KnnEngine parallel(config, clustered(100, 5, 44));
  serial.run_iteration();
  parallel.run_iteration();
  for (VertexId v = 0; v < 100; ++v) {
    const auto na = serial.graph().neighbors(v);
    const auto nb = parallel.graph().neighbors(v);
    ASSERT_EQ(na.size(), nb.size());
    for (std::size_t i = 0; i < na.size(); ++i) {
      EXPECT_EQ(na[i].id, nb[i].id);
    }
  }
}

// threads=0 (auto) and any explicit thread count must produce the same
// graph, neighbour for neighbour and score for score, as threads=1.
TEST(EngineTest, AutoAndExplicitThreadsMatchSingleThreadedBitForBit) {
  // num_partitions=2 keeps the tuple bundles big enough to cross the
  // engine's parallel-merge threshold, so threads=8 really exercises the
  // sharded merge path.
  constexpr VertexId kUsers = 300;
  auto run_with = [](std::uint32_t threads) {
    EngineConfig config;
    config.k = 5;
    config.num_partitions = 2;
    config.seed = 7;
    config.threads = threads;
    KnnEngine engine(config, clustered(kUsers, 6, 88));
    engine.run_iteration();
    engine.run_iteration();
    std::vector<std::vector<Neighbor>> lists;
    for (VertexId v = 0; v < kUsers; ++v) {
      const auto span = engine.graph().neighbors(v);
      lists.emplace_back(span.begin(), span.end());
    }
    return lists;
  };
  const auto serial = run_with(1);
  const auto auto_mode = run_with(0);
  const auto eight = run_with(8);
  for (VertexId v = 0; v < kUsers; ++v) {
    ASSERT_EQ(serial[v].size(), auto_mode[v].size()) << "v=" << v;
    ASSERT_EQ(serial[v].size(), eight[v].size()) << "v=" << v;
    for (std::size_t i = 0; i < serial[v].size(); ++i) {
      EXPECT_EQ(serial[v][i].id, auto_mode[v][i].id) << "v=" << v;
      EXPECT_EQ(serial[v][i].score, auto_mode[v][i].score) << "v=" << v;
      EXPECT_EQ(serial[v][i].id, eight[v][i].id) << "v=" << v;
      EXPECT_EQ(serial[v][i].score, eight[v][i].score) << "v=" << v;
    }
  }
}

// The threaded engine's phase 2 leaves each pair bundle grouped by
// source: every source forms one contiguous run, which phase 4's fused
// offers rely on (tasks split at run boundaries offer to disjoint users).
// Each bundle also holds exactly the serial engine's tuples, on the
// default, a sampled and a reversed row.
TEST(EngineTest, ThreadedBundlesAreGroupedBySource) {
  struct Row {
    const char* name;
    double sample_rate;
    bool include_reverse;
  };
  const Row rows[] = {
      {"default", 1.0, false}, {"sampled", 0.5, false}, {"reverse", 1.0, true}};
  const std::vector<SparseProfile> profiles = clustered(300, 6, 91);
  const ScratchDir scratch("grouped-bundles");
  const EngineConfig base = small_config();
  const PartitionId m = base.num_partitions;
  const std::size_t num_slots = pi_pair_slot(m - 1, m - 1, m) + 1;
  // One iteration; returns every slot's bundle as phase 2 wrote it.
  auto bundles_of = [&](const Row& row, std::uint32_t threads) {
    EngineConfig config = base;
    config.sample_rate = row.sample_rate;
    config.include_reverse = row.include_reverse;
    config.threads = threads;
    config.work_dir = (scratch.path() / (std::string(row.name) + "-" +
                                         std::to_string(threads)))
                          .string();
    KnnEngine engine(config, profiles);
    engine.run_iteration();
    std::vector<std::vector<Tuple>> bundles;
    for (std::size_t slot = 0; slot < num_slots; ++slot) {
      bundles.push_back(read_record_shard<Tuple>(
          record_shard_path(config.work_dir, "tuples", slot)));
    }
    return bundles;
  };
  for (const Row& row : rows) {
    std::vector<std::vector<Tuple>> serial = bundles_of(row, 1);
    std::size_t total = 0;
    for (auto& bundle : serial) {
      total += bundle.size();
      std::sort(bundle.begin(), bundle.end());
    }
    ASSERT_GT(total, 0u) << row.name;
    for (std::uint32_t threads : {2u, 3u}) {
      const auto threaded = bundles_of(row, threads);
      for (std::size_t slot = 0; slot < num_slots; ++slot) {
        const std::vector<Tuple>& bundle = threaded[slot];
        std::set<VertexId> finished;
        for (std::size_t i = 1; i <= bundle.size(); ++i) {
          if (i < bundle.size() && bundle[i].s == bundle[i - 1].s) continue;
          ASSERT_TRUE(finished.insert(bundle[i - 1].s).second)
              << row.name << " threads=" << threads << " slot=" << slot
              << ": source " << bundle[i - 1].s << " forms two runs";
        }
        std::vector<Tuple> sorted = bundle;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(sorted, serial[slot])
            << row.name << " threads=" << threads << " slot=" << slot;
      }
    }
  }
}

TEST(EngineTest, ThreadsUsedStatReflectsResolution) {
  EngineConfig config = small_config();
  config.threads = 8;
  KnnEngine explicit_engine(config, clustered(60, 3));
  EXPECT_EQ(explicit_engine.run_iteration().threads_used, 8u);
  // Auto mode on a tiny workload stays serial.
  config.threads = 0;
  KnnEngine auto_engine(config, clustered(60, 3));
  EXPECT_EQ(auto_engine.run_iteration().threads_used, 1u);
}

TEST(EngineTest, ProfileUpdatesAreLazyUntilPhase5) {
  EngineConfig config = small_config();
  KnnEngine engine(config, clustered(60, 3));
  ProfileUpdate update;
  update.kind = ProfileUpdate::Kind::SetItem;
  update.user = 0;
  update.item = 399;
  update.value = 5.0f;
  engine.update_queue().push(update);
  // Queued but not applied yet.
  EXPECT_FLOAT_EQ(engine.profiles().get(0).weight(399), 0.0f);
  const IterationStats stats = engine.run_iteration();
  EXPECT_EQ(stats.profile_updates_applied, 1u);
  EXPECT_FLOAT_EQ(engine.profiles().get(0).weight(399), 5.0f);
}

TEST(EngineTest, UpdatedProfilesChangeNextIterationScores) {
  // Make user 0's profile identical to user 1's via a Replace update; after
  // the following iteration, each should list the other as top neighbour.
  EngineConfig config = small_config();
  config.k = 3;
  auto profiles = clustered(50, 5, 77);
  const SparseProfile target = profiles[1];
  KnnEngine engine(config, std::move(profiles));
  engine.run_iteration();

  ProfileUpdate update;
  update.kind = ProfileUpdate::Kind::Replace;
  update.user = 0;
  update.profile = target;
  engine.update_queue().push(std::move(update));
  engine.run_iteration();  // applies in phase 5
  engine.run(12, 0.0);     // re-converge with the new profile (random
                           // restarts must re-discover cluster 1)

  const auto list = engine.graph().neighbors(0);
  ASSERT_FALSE(list.empty());
  EXPECT_EQ(list[0].id, 1u);
  EXPECT_NEAR(list[0].score, 1.0f, 1e-5);
}

TEST(EngineTest, SetInitialGraphIsRespected) {
  EngineConfig config = small_config();
  auto profiles = clustered(40, 2);
  KnnEngine engine(config, std::move(profiles));
  KnnGraph init(40, config.k);
  init.set_neighbors(0, {{1, 0.0f}});
  engine.set_initial_graph(init);
  // One iteration expands candidates from this seed graph without crashing.
  const IterationStats stats = engine.run_iteration();
  EXPECT_GT(stats.unique_tuples, 0u);
  KnnGraph wrong(5, config.k);
  EXPECT_THROW(engine.set_initial_graph(wrong), std::invalid_argument);
}

TEST(EngineTest, RecordPartitionCostWhenRequested) {
  EngineConfig config = small_config();
  config.record_partition_cost = true;
  KnnEngine engine(config, clustered(60, 3));
  const IterationStats stats = engine.run_iteration();
  ASSERT_TRUE(stats.partition_cost_total.has_value());
  EXPECT_GT(*stats.partition_cost_total, 0u);
  EngineConfig off = small_config();
  KnnEngine engine2(off, clustered(60, 3));
  EXPECT_FALSE(engine2.run_iteration().partition_cost_total.has_value());
}

TEST(EngineTest, MoreMemorySlotsReduceOrEqualLoads) {
  EngineConfig config = small_config();
  config.num_partitions = 8;
  KnnEngine tight(config, clustered(120, 6, 55));
  const auto tight_stats = tight.run_iteration();
  config.memory_slots = 8;
  KnnEngine roomy(config, clustered(120, 6, 55));
  const auto roomy_stats = roomy.run_iteration();
  EXPECT_LE(roomy_stats.partition_loads, tight_stats.partition_loads);
}

TEST(EngineTest, InvalidConfigsThrow) {
  EngineConfig config = small_config();
  config.num_partitions = 0;
  EXPECT_THROW(KnnEngine(config, clustered(10, 2)), std::invalid_argument);
  config = small_config();
  config.memory_slots = 1;
  EXPECT_THROW(KnnEngine(config, clustered(10, 2)), std::invalid_argument);
}

TEST(EngineTest, SinglePartitionDegeneratesGracefully) {
  EngineConfig config = small_config();
  config.num_partitions = 1;
  KnnEngine engine(config, clustered(50, 5));
  const IterationStats stats = engine.run_iteration();
  EXPECT_EQ(stats.pi_pairs, 1u);  // just the self-pair
  EXPECT_GT(stats.unique_tuples, 0u);
}

TEST(EngineTest, HddModelCostsMoreThanSsd) {
  EngineConfig config = small_config();
  config.io_model = IoModel::hdd();
  KnnEngine hdd(config, clustered(80, 4, 66));
  config.io_model = IoModel::ssd();
  KnnEngine ssd(config, clustered(80, 4, 66));
  const auto hdd_stats = hdd.run_iteration();
  const auto ssd_stats = ssd.run_iteration();
  EXPECT_GT(hdd_stats.modeled_io_us, ssd_stats.modeled_io_us);
}

}  // namespace
}  // namespace knnpc
