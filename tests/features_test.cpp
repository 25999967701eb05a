// Tests for the second wave of features: graph-seeded initialisation,
// memory-budget partition sizing, and the engine under every similarity
// measure.
#include <gtest/gtest.h>

#include <set>

#include "core/engine.h"
#include "core/metrics.h"
#include "graph/generators.h"
#include "graph/knn_graph.h"
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
