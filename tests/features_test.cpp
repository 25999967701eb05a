// Tests for the second wave of features: graph-seeded initialisation,
// memory-budget partition sizing, profile compaction, and the engine
// under every similarity measure.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/engine.h"
#include "core/metrics.h"
#include "graph/generators.h"
#include "graph/knn_graph.h"
#include "profiles/compact.h"
#include "profiles/generators.h"
#include "util/rng.h"

namespace knnpc {
namespace {

// ------------------------------------------------- graph-seeded warm start

TEST(KnnGraphFromEdgesTest, KeepsExistingNeighborsAndTopsUp) {
  EdgeList list;
  list.num_vertices = 10;
  list.edges = {{0, 1}, {0, 2}, {0, 0}, {0, 1}};  // dup + self loop
  Rng rng(7);
  const KnnGraph g = knn_graph_from_edges(list, 4, rng);
  const auto n0 = g.neighbors(0);
  ASSERT_EQ(n0.size(), 4u);  // 2 real + 2 random top-ups
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(0, 0));
  // Vertex 5 has no out-edges: fully random, still k distinct non-self.
  const auto n5 = g.neighbors(5);
  ASSERT_EQ(n5.size(), 4u);
  std::set<VertexId> seen;
  for (const Neighbor& nb : n5) {
    EXPECT_NE(nb.id, 5u);
    EXPECT_TRUE(seen.insert(nb.id).second);
  }
}

TEST(KnnGraphFromEdgesTest, TruncatesHighOutDegreeToK) {
  const EdgeList s = star(20);  // vertex 0 has 19 out-edges
  Rng rng(9);
  const KnnGraph g = knn_graph_from_edges(s, 5, rng);
  EXPECT_EQ(g.neighbors(0).size(), 5u);
}

TEST(KnnGraphFromEdgesTest, RejectsOutOfRangeEndpoints) {
  EdgeList bad;
  bad.num_vertices = 2;
  bad.edges = {{0, 7}};
  Rng rng(11);
  EXPECT_THROW(knn_graph_from_edges(bad, 2, rng), std::invalid_argument);
}

TEST(KnnGraphFromEdgesTest, WarmStartConvergesFasterThanRandom) {
  Rng rng(13);
  ClusteredGenConfig gen;
  gen.base.num_users = 150;
  gen.base.num_items = 400;
  gen.num_clusters = 6;
  auto profiles = clustered_profiles(gen, rng);

  EngineConfig config;
  config.k = 6;
  config.num_partitions = 4;

  // Cold start.
  KnnEngine cold(config, profiles);
  const RunStats cold_run = cold.run(20, 0.01);

  // Warm start: seed from the cold engine's *converged* graph.
  KnnEngine warm(config, profiles);
  warm.set_initial_graph(cold.graph());
  const RunStats warm_run = warm.run(20, 0.01);
  EXPECT_LT(warm_run.iterations.size(), cold_run.iterations.size());
  EXPECT_LT(warm_run.iterations.front().change_rate,
            cold_run.iterations.front().change_rate);
}

// ------------------------------------------------ partition-count sizing

TEST(PartitionSizingTest, ScalesWithDataOverBudget) {
  // 100 MB of data, 10 MB budget, 2 slots -> at least 20 partitions.
  const PartitionId m =
      suggest_partition_count(100u << 20, 10u << 20, 2, 1000000);
  EXPECT_GE(m, 20u);
  EXPECT_LE(m, 24u);  // not wildly over
}

TEST(PartitionSizingTest, ClampsToUserCountAndOne) {
  EXPECT_EQ(suggest_partition_count(1u << 30, 1u << 10, 2, 5), 5u);
  EXPECT_GE(suggest_partition_count(10, 1u << 30, 2, 100), 1u);
  EXPECT_THROW(suggest_partition_count(1, 0, 2, 10), std::invalid_argument);
}

TEST(PartitionSizingTest, EstimateTracksProfileVolume) {
  std::vector<SparseProfile> small(10, SparseProfile({{1, 1.0f}}));
  std::vector<SparseProfile> big(
      10, SparseProfile({{1, 1.0f}, {2, 1.0f}, {3, 1.0f}, {4, 1.0f}}));
  EXPECT_LT(estimate_data_bytes(small, 5), estimate_data_bytes(big, 5));
  EXPECT_LT(estimate_data_bytes(small, 5), estimate_data_bytes(small, 50));
}

TEST(PartitionSizingTest, SuggestedCountKeepsResidentPairUnderBudget) {
  Rng rng(17);
  ProfileGenConfig gen;
  gen.num_users = 2000;
  gen.num_items = 500;
  const auto profiles = uniform_profiles(gen, rng);
  const std::uint64_t total = estimate_data_bytes(profiles, 10);
  const std::uint64_t budget = total / 5;  // force m > 2
  const PartitionId m =
      suggest_partition_count(total, budget, 2, gen.num_users);
  // Two partitions of total/m must fit in the budget.
  EXPECT_LE(2 * (total / m), budget);
}

// ------------------------------------------------------------- compaction

TEST(CompactionTest, DropsRareItemsAndRenumbersDensely) {
  std::vector<SparseProfile> profiles;
  profiles.emplace_back(
      std::vector<ProfileEntry>{{10, 1.0f}, {20, 1.0f}, {99, 1.0f}});
  profiles.emplace_back(std::vector<ProfileEntry>{{10, 2.0f}, {20, 2.0f}});
  profiles.emplace_back(std::vector<ProfileEntry>{{10, 3.0f}});
  CompactionConfig config;
  config.min_item_support = 2;  // 99 appears once -> dropped
  const CompactionResult result = compact_profiles(profiles, config);
  EXPECT_EQ(result.dropped_items, 1u);
  EXPECT_EQ(result.kept_items, (std::vector<ItemId>{10, 20}));
  ASSERT_EQ(result.profiles.size(), 3u);
  // Item 10 -> 0, item 20 -> 1.
  EXPECT_FLOAT_EQ(result.profiles[0].weight(0), 1.0f);
  EXPECT_FLOAT_EQ(result.profiles[0].weight(1), 1.0f);
  EXPECT_FLOAT_EQ(result.profiles[0].weight(2), 0.0f);  // 99 gone
  EXPECT_FLOAT_EQ(result.profiles[2].weight(0), 3.0f);
}

TEST(CompactionTest, DropsUndersizedUsers) {
  std::vector<SparseProfile> profiles;
  profiles.emplace_back(std::vector<ProfileEntry>{{1, 1.0f}, {2, 1.0f}});
  profiles.emplace_back(std::vector<ProfileEntry>{{1, 1.0f}, {9, 1.0f}});
  profiles.emplace_back(std::vector<ProfileEntry>{{9, 1.0f}});
  CompactionConfig config;
  config.min_item_support = 2;   // item 2 (1 user) and... 1:2 users, 9:2
  config.min_profile_size = 2;
  const CompactionResult result = compact_profiles(profiles, config);
  // Items 1 and 9 survive; item 2 dropped. User 0 keeps {1} (size 1 <
  // 2) -> dropped; user 1 keeps {1, 9} -> kept; user 2 keeps {9} -> drop.
  EXPECT_EQ(result.dropped_users, 2u);
  ASSERT_EQ(result.kept_users.size(), 1u);
  EXPECT_EQ(result.kept_users[0], 1u);
}

TEST(CompactionTest, NoopWhenEverythingSupported) {
  Rng rng(19);
  ProfileGenConfig gen;
  gen.num_users = 50;
  gen.num_items = 20;  // dense: every item has many users
  gen.min_items = 10;
  gen.max_items = 15;
  const auto profiles = uniform_profiles(gen, rng);
  const CompactionResult result =
      compact_profiles(profiles, CompactionConfig{});
  EXPECT_EQ(result.dropped_users, 0u);
  EXPECT_EQ(result.profiles.size(), 50u);
}

TEST(CompactionTest, EmptyInput) {
  const CompactionResult result = compact_profiles({}, CompactionConfig{});
  EXPECT_TRUE(result.profiles.empty());
  EXPECT_EQ(result.dropped_items, 0u);
}

TEST(CompactionTest, SinglePassLeavesUndersupportedSurvivors) {
  // The documented single-pass semantics: item support is counted over
  // the *original* users, so dropping user 2 (below min_profile_size)
  // may leave item 9 with just one supporter among the kept users —
  // and that is not a bug under cascade=false.
  std::vector<SparseProfile> profiles;
  profiles.emplace_back(std::vector<ProfileEntry>{{1, 1.0f}, {2, 1.0f}});
  profiles.emplace_back(std::vector<ProfileEntry>{{1, 1.0f}, {9, 1.0f}});
  profiles.emplace_back(std::vector<ProfileEntry>{{9, 1.0f}});
  CompactionConfig config;
  config.min_item_support = 2;
  config.min_profile_size = 2;
  const CompactionResult result = compact_profiles(profiles, config);
  EXPECT_EQ(result.kept_items, (std::vector<ItemId>{1, 9}));
  EXPECT_EQ(result.kept_users, (std::vector<VertexId>{1}));
}

TEST(CompactionTest, CascadeIteratesToFixpoint) {
  // Same input under cascade=true: dropping users 0 and 2 leaves items 1
  // and 9 with one supporter each -> they fall, which empties user 1 ->
  // everything cascades away. The exact counters must still add up.
  std::vector<SparseProfile> profiles;
  profiles.emplace_back(std::vector<ProfileEntry>{{1, 1.0f}, {2, 1.0f}});
  profiles.emplace_back(std::vector<ProfileEntry>{{1, 1.0f}, {9, 1.0f}});
  profiles.emplace_back(std::vector<ProfileEntry>{{9, 1.0f}});
  CompactionConfig config;
  config.min_item_support = 2;
  config.min_profile_size = 2;
  config.cascade = true;
  const CompactionResult result = compact_profiles(profiles, config);
  EXPECT_TRUE(result.kept_users.empty());
  EXPECT_TRUE(result.kept_items.empty());
  EXPECT_EQ(result.dropped_users, 3u);
  EXPECT_EQ(result.dropped_items, 3u);  // items 1, 2, 9
}

TEST(CompactionTest, CascadeStopsAtAStableCore) {
  // A 3-user clique over items {1, 2} is a genuine 2-core; a pendant
  // user + pendant item hang off it and must cascade away without
  // taking the core along.
  std::vector<SparseProfile> profiles;
  profiles.emplace_back(std::vector<ProfileEntry>{{1, 1.0f}, {2, 1.0f}});
  profiles.emplace_back(std::vector<ProfileEntry>{{1, 1.0f}, {2, 1.0f}});
  profiles.emplace_back(std::vector<ProfileEntry>{{1, 1.0f}, {2, 1.0f}});
  profiles.emplace_back(std::vector<ProfileEntry>{{2, 1.0f}, {7, 1.0f}});
  CompactionConfig config;
  config.min_item_support = 2;
  config.min_profile_size = 2;
  config.cascade = true;
  const CompactionResult result = compact_profiles(profiles, config);
  EXPECT_EQ(result.kept_users, (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(result.kept_items, (std::vector<ItemId>{1, 2}));
  EXPECT_EQ(result.dropped_users, 1u);
  EXPECT_EQ(result.dropped_items, 1u);  // item 7
}

TEST(CompactionTest, CountersAreExactUnderBothSemantics) {
  // Property: dropped + kept always equals the input totals, and under
  // cascade=true every kept item/user satisfies its threshold against
  // the kept set (the fixpoint condition).
  Rng rng(23);
  for (int trial = 0; trial < 10; ++trial) {
    ProfileGenConfig gen;
    gen.num_users = 60;
    gen.num_items = 120;  // sparse: plenty of rare items
    gen.min_items = 1;
    gen.max_items = 6;
    const auto profiles = uniform_profiles(gen, rng);
    std::set<ItemId> distinct;
    for (const auto& p : profiles) {
      for (const auto& e : p.entries()) distinct.insert(e.item);
    }
    for (const bool cascade : {false, true}) {
      CompactionConfig config;
      config.min_item_support = 2;
      config.min_profile_size = 2;
      config.cascade = cascade;
      const CompactionResult result = compact_profiles(profiles, config);
      EXPECT_EQ(result.dropped_items + result.kept_items.size(),
                distinct.size());
      EXPECT_EQ(result.dropped_users + result.kept_users.size(),
                profiles.size());
      EXPECT_EQ(result.profiles.size(), result.kept_users.size());
      if (!cascade) continue;
      // Fixpoint: recount support/sizes over the surviving set.
      std::map<ItemId, std::uint32_t> support;
      for (const auto& p : result.profiles) {
        EXPECT_GE(p.size(), config.min_profile_size);
        for (const auto& e : p.entries()) ++support[e.item];
      }
      for (const auto& [item, count] : support) {
        EXPECT_GE(count, config.min_item_support) << "item " << item;
      }
    }
  }
}

// -------------------------------------------- engine across all measures

class EngineMeasureTest
    : public ::testing::TestWithParam<SimilarityMeasure> {};

TEST_P(EngineMeasureTest, ConvergesUnderEveryMeasure) {
  Rng rng(23);
  ClusteredGenConfig gen;
  gen.base.num_users = 100;
  gen.base.num_items = 300;
  gen.num_clusters = 5;
  EngineConfig config;
  config.k = 5;
  config.num_partitions = 4;
  config.measure = GetParam();
  KnnEngine engine(config, clustered_profiles(gen, rng));
  const RunStats run = engine.run(20, 0.02);
  // Whatever the measure, the pipeline must settle and produce full
  // neighbour lists.
  EXPECT_LT(run.iterations.back().change_rate,
            run.iterations.front().change_rate);
  std::size_t full = 0;
  for (VertexId v = 0; v < 100; ++v) {
    full += engine.graph().neighbors(v).size() == 5u;
  }
  EXPECT_GT(full, 90u);
}

INSTANTIATE_TEST_SUITE_P(
    AllMeasures, EngineMeasureTest,
    ::testing::Values(SimilarityMeasure::Cosine, SimilarityMeasure::Jaccard,
                      SimilarityMeasure::Dice, SimilarityMeasure::Overlap,
                      SimilarityMeasure::InverseEuclid,
                      SimilarityMeasure::Pearson,
                      SimilarityMeasure::AdjustedCosine),
    [](const ::testing::TestParamInfo<SimilarityMeasure>& info) {
      std::string name = similarity_name(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace knnpc
