// Tests for core/convergence and profiles/ratings_io.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>

#include "core/brute_force.h"
#include "core/convergence.h"
#include "core/engine.h"
#include "core/metrics.h"
#include "profiles/generators.h"
#include "profiles/ratings_io.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace knnpc {
namespace {

// ------------------------------------------------------------ convergence

TEST(ConvergenceTest, SampledRecallMatchesExactOnFullSample) {
  Rng rng(29);
  ClusteredGenConfig pconfig;
  pconfig.base.num_users = 80;
  pconfig.base.num_items = 300;
  pconfig.num_clusters = 4;
  const InMemoryProfileStore store{clustered_profiles(pconfig, rng)};
  const KnnGraph exact =
      brute_force_knn(store, 5, SimilarityMeasure::Cosine, 4);
  // Sampling every user must reproduce the exact recall (= 1 here).
  const auto sampled =
      sampled_recall(exact, store, SimilarityMeasure::Cosine, 80);
  EXPECT_EQ(sampled.sampled_users, 80u);
  EXPECT_DOUBLE_EQ(sampled.recall, 1.0);
  EXPECT_DOUBLE_EQ(sampled.margin95, 0.0);
}

TEST(ConvergenceTest, SampledRecallTracksFullRecall) {
  Rng rng(31);
  ClusteredGenConfig pconfig;
  pconfig.base.num_users = 150;
  pconfig.base.num_items = 400;
  pconfig.num_clusters = 6;
  const auto profiles = clustered_profiles(pconfig, rng);
  const InMemoryProfileStore store{profiles};
  EngineConfig config;
  config.k = 6;
  config.num_partitions = 4;
  KnnEngine engine(config, profiles);
  engine.run(8, 0.01);
  const KnnGraph exact =
      brute_force_knn(store, config.k, config.measure, 8);
  const double full = recall_at_k(engine.graph(), exact);
  const auto sampled = sampled_recall(engine.graph(), store,
                                      config.measure, 60, 23, 4);
  EXPECT_NEAR(sampled.recall, full, std::max(0.1, 3 * sampled.margin95));
}

TEST(ConvergenceTest, SampledRecallDeterministicPerSeed) {
  Rng rng(37);
  ClusteredGenConfig pconfig;
  pconfig.base.num_users = 60;
  pconfig.base.num_items = 200;
  pconfig.num_clusters = 3;
  const InMemoryProfileStore store{clustered_profiles(pconfig, rng)};
  const KnnGraph approx =
      brute_force_knn(store, 4, SimilarityMeasure::Cosine, 4);
  const auto a =
      sampled_recall(approx, store, SimilarityMeasure::Cosine, 20, 5);
  const auto b =
      sampled_recall(approx, store, SimilarityMeasure::Cosine, 20, 5);
  EXPECT_DOUBLE_EQ(a.recall, b.recall);
}

TEST(ConvergenceTest, SampledRecallOnAPoolEqualsSerialBitForBit) {
  // The engine hands its pool to the estimator every iteration; the pool
  // may only split the work, never change the estimate.
  Rng rng(43);
  ClusteredGenConfig pconfig;
  pconfig.base.num_users = 200;
  pconfig.base.num_items = 400;
  pconfig.num_clusters = 6;
  const auto profiles = clustered_profiles(pconfig, rng);
  const InMemoryProfileStore store{profiles};
  EngineConfig config;
  config.k = 6;
  config.num_partitions = 4;
  config.threads = 1;
  KnnEngine engine(config, profiles);
  ASSERT_TRUE(engine.run(20, 0.01).converged);
  const SampledRecall serial = sampled_recall(
      engine.graph(), store, config.measure, 64, 23, nullptr);
  for (const std::size_t workers : {1u, 2u, 4u}) {
    ThreadPool pool(workers);
    const SampledRecall pooled = sampled_recall(
        engine.graph(), store, config.measure, 64, 23, &pool);
    EXPECT_EQ(pooled.sampled_users, serial.sampled_users) << workers;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(pooled.recall),
              std::bit_cast<std::uint64_t>(serial.recall))
        << workers << " workers";
    EXPECT_EQ(std::bit_cast<std::uint64_t>(pooled.margin95),
              std::bit_cast<std::uint64_t>(serial.margin95))
        << workers << " workers";
  }
}

TEST(ConvergenceTest, MeanKthScoreRisesAsGraphImproves) {
  Rng rng(41);
  ClusteredGenConfig pconfig;
  pconfig.base.num_users = 120;
  pconfig.base.num_items = 400;
  pconfig.num_clusters = 6;
  EngineConfig config;
  config.k = 6;
  config.num_partitions = 4;
  KnnEngine engine(config, clustered_profiles(pconfig, rng));
  engine.run_iteration();
  const double early = mean_kth_score(engine.graph());
  engine.run(8, 0.005);
  const double late = mean_kth_score(engine.graph());
  EXPECT_GT(late, early);
}

TEST(ConvergenceTest, EdgeCases) {
  InMemoryProfileStore empty;
  EXPECT_EQ(sampled_recall(KnnGraph(0, 3), empty,
                           SimilarityMeasure::Cosine, 5)
                .sampled_users,
            0u);
  EXPECT_DOUBLE_EQ(mean_kth_score(KnnGraph(4, 3)), 0.0);
}

// -------------------------------------------------------------- ratings io

TEST(RatingsIoTest, ParsesCommaTabAndSpace) {
  std::stringstream in(
      "# header\n"
      "1,10,4.5\n"
      "1\t20\t3\n"
      "2 10 5\n");
  const RatingsData data = load_ratings(in);
  EXPECT_EQ(data.num_ratings, 3u);
  ASSERT_EQ(data.profiles.size(), 2u);
  EXPECT_FLOAT_EQ(data.profiles[0].weight(0), 4.5f);  // item 10 -> id 0
  EXPECT_FLOAT_EQ(data.profiles[0].weight(1), 3.0f);  // item 20 -> id 1
  EXPECT_FLOAT_EQ(data.profiles[1].weight(0), 5.0f);
  EXPECT_EQ(data.user_ids, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(data.item_ids, (std::vector<std::uint64_t>{10, 20}));
}

TEST(RatingsIoTest, LastRatingWinsOnDuplicates) {
  std::stringstream in("7,8,1\n7,8,5\n");
  const RatingsData data = load_ratings(in);
  EXPECT_FLOAT_EQ(data.profiles[0].weight(0), 5.0f);
}

TEST(RatingsIoTest, MalformedLineThrows) {
  std::stringstream in("1,2,3\nbroken line\n");
  EXPECT_THROW(load_ratings(in), std::runtime_error);
}

TEST(RatingsIoTest, SaveLoadRoundTrip) {
  Rng rng(43);
  SyntheticRatingsConfig config;
  config.num_users = 50;
  config.num_items = 100;
  const RatingsData original = synthetic_ratings(config, rng);
  std::stringstream buffer;
  save_ratings(buffer, original);
  const RatingsData loaded = load_ratings(buffer);
  ASSERT_EQ(loaded.profiles.size(), original.profiles.size());
  for (VertexId u = 0; u < 50; ++u) {
    // Item ids may be remapped by appearance order; compare via raw ids.
    for (const ProfileEntry& e : original.profiles[u].entries()) {
      const std::uint64_t raw_item = original.item_ids[e.item];
      // Find remapped id in loaded data.
      const auto it = std::find(loaded.item_ids.begin(),
                                loaded.item_ids.end(), raw_item);
      ASSERT_NE(it, loaded.item_ids.end());
      const auto remapped =
          static_cast<ItemId>(it - loaded.item_ids.begin());
      EXPECT_FLOAT_EQ(loaded.profiles[u].weight(remapped), e.weight);
    }
  }
}

TEST(RatingsIoTest, SyntheticRatingsShape) {
  Rng rng(47);
  SyntheticRatingsConfig config;
  config.num_users = 200;
  config.num_items = 300;
  config.min_ratings = 5;
  config.max_ratings = 15;
  const RatingsData data = synthetic_ratings(config, rng);
  ASSERT_EQ(data.profiles.size(), 200u);
  for (const auto& p : data.profiles) {
    EXPECT_GE(p.size(), 5u);
    EXPECT_LE(p.size(), 15u);
    for (const auto& e : p.entries()) {
      EXPECT_GE(e.weight, 1.0f);
      EXPECT_LE(e.weight, 5.0f);
    }
  }
  EXPECT_THROW(
      synthetic_ratings({.num_users = 1, .num_items = 0}, rng),
      std::invalid_argument);
}

TEST(RatingsIoTest, RatingsFeedTheEngine) {
  Rng rng(53);
  SyntheticRatingsConfig config;
  config.num_users = 150;
  config.num_items = 200;
  RatingsData data = synthetic_ratings(config, rng);
  EngineConfig engine_config;
  engine_config.k = 5;
  engine_config.num_partitions = 4;
  KnnEngine engine(engine_config, std::move(data.profiles));
  const RunStats run = engine.run(8, 0.02);
  EXPECT_GE(run.iterations.size(), 1u);
  std::size_t with_neighbors = 0;
  for (VertexId v = 0; v < 150; ++v) {
    with_neighbors += !engine.graph().neighbors(v).empty();
  }
  EXPECT_GT(with_neighbors, 140u);
}

}  // namespace
}  // namespace knnpc
