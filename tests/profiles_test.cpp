// Tests for profiles/: sparse profiles, stores, generators, update queue.
#include <gtest/gtest.h>

#include <cmath>

#include "profiles/generators.h"
#include "profiles/profile.h"
#include "profiles/profile_store.h"
#include "profiles/update_queue.h"
#include "util/rng.h"

namespace knnpc {
namespace {

// -------------------------------------------------------- sparse profile --

TEST(SparseProfileTest, ConstructorSortsAndMergesDuplicates) {
  SparseProfile p({{5, 1.0f}, {2, 2.0f}, {5, 3.0f}, {9, 0.5f}});
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p.entries()[0].item, 2u);
  EXPECT_EQ(p.entries()[1].item, 5u);
  EXPECT_FLOAT_EQ(p.entries()[1].weight, 4.0f);  // 1 + 3 merged
  EXPECT_EQ(p.entries()[2].item, 9u);
}

TEST(SparseProfileTest, ConstructorDropsZeroWeights) {
  SparseProfile p({{1, 1.0f}, {2, 0.0f}, {3, 2.0f}, {3, -2.0f}});
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p.entries()[0].item, 1u);
}

TEST(SparseProfileTest, WeightLookup) {
  SparseProfile p({{10, 1.5f}, {20, 2.5f}});
  EXPECT_FLOAT_EQ(p.weight(10), 1.5f);
  EXPECT_FLOAT_EQ(p.weight(20), 2.5f);
  EXPECT_FLOAT_EQ(p.weight(15), 0.0f);
}

TEST(SparseProfileTest, SetInsertsUpdatesErases) {
  SparseProfile p;
  p.set(7, 1.0f);
  EXPECT_FLOAT_EQ(p.weight(7), 1.0f);
  p.set(7, 2.0f);
  EXPECT_FLOAT_EQ(p.weight(7), 2.0f);
  p.set(3, 0.5f);  // insert before
  EXPECT_EQ(p.entries()[0].item, 3u);
  p.set(7, 0.0f);  // erase
  EXPECT_EQ(p.size(), 1u);
}

TEST(SparseProfileTest, AddAccumulatesAndErasesAtZero) {
  SparseProfile p;
  p.add(1, 2.0f);
  p.add(1, 3.0f);
  EXPECT_FLOAT_EQ(p.weight(1), 5.0f);
  p.add(1, -5.0f);
  EXPECT_TRUE(p.empty());
}

TEST(SparseProfileTest, NormIsL2AndTracksMutation) {
  SparseProfile p({{1, 3.0f}, {2, 4.0f}});
  EXPECT_DOUBLE_EQ(p.norm(), 5.0);
  p.set(2, 0.0f);
  EXPECT_DOUBLE_EQ(p.norm(), 3.0);
}

// norm() is precomputed by every mutation (so concurrent readers never
// write); it must stay bit-equal to an in-order double sum of the live
// entries — the value the scoring kernels were pinned against.
TEST(SparseProfileTest, NormMatchesInOrderRecomputationAfterEveryMutation) {
  auto recomputed = [](const SparseProfile& p) {
    double sq = 0.0;
    for (const ProfileEntry& e : p.entries()) {
      sq += static_cast<double>(e.weight) * e.weight;
    }
    return std::sqrt(sq);
  };
  SparseProfile p({{7, 0.1f}, {3, 1.7f}, {11, 2.3f}, {3, 0.2f}});
  EXPECT_EQ(p.norm(), recomputed(p)) << "construct";
  p.set(5, 0.3f);
  EXPECT_EQ(p.norm(), recomputed(p)) << "set (insert)";
  p.set(7, 1.9f);
  EXPECT_EQ(p.norm(), recomputed(p)) << "set (update)";
  p.add(11, 0.7f);
  EXPECT_EQ(p.norm(), recomputed(p)) << "add";
  p.set(3, 0.0f);
  EXPECT_EQ(p.norm(), recomputed(p)) << "erase";
  const SparseProfile copy = p;
  EXPECT_EQ(copy.norm(), recomputed(copy)) << "copy";
  EXPECT_EQ(copy.norm(), p.norm());
  p.add(5, -0.3f);
  EXPECT_EQ(p.norm(), recomputed(p)) << "add to zero";
  EXPECT_EQ(SparseProfile().norm(), 0.0);
}

TEST(SparseProfileTest, EqualityComparesEntries) {
  SparseProfile a({{1, 1.0f}});
  SparseProfile b({{1, 1.0f}});
  SparseProfile c({{1, 2.0f}});
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

// ----------------------------------------------------------------- store --

TEST(ProfileStoreTest, InMemoryRoundTrip) {
  InMemoryProfileStore store;
  store.push_back(SparseProfile({{1, 1.0f}}));
  store.push_back(SparseProfile({{2, 2.0f}}));
  EXPECT_EQ(store.num_users(), 2u);
  EXPECT_FLOAT_EQ(store.get(1).weight(2), 2.0f);
  store.mutable_get(0).set(9, 9.0f);
  EXPECT_FLOAT_EQ(store.get(0).weight(9), 9.0f);
}

TEST(ProfileStoreTest, OutOfRangeThrows) {
  InMemoryProfileStore store;
  EXPECT_THROW((void)store.get(0), std::out_of_range);
}

TEST(ProfilePackingTest, PackUnpackRoundTrip) {
  std::vector<SparseProfile> profiles;
  profiles.emplace_back(
      std::vector<ProfileEntry>{{1, 0.5f}, {100, 2.0f}});
  profiles.emplace_back(std::vector<ProfileEntry>{});  // empty profile
  profiles.emplace_back(std::vector<ProfileEntry>{{7, -1.5f}});
  const auto bytes = pack_profiles(profiles);
  const auto back = unpack_profiles(bytes);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0], profiles[0]);
  EXPECT_EQ(back[1], profiles[1]);
  EXPECT_EQ(back[2], profiles[2]);
}

TEST(ProfilePackingTest, TruncatedBytesThrow) {
  std::vector<SparseProfile> profiles;
  profiles.emplace_back(std::vector<ProfileEntry>{{1, 0.5f}});
  auto bytes = pack_profiles(profiles);
  bytes.resize(bytes.size() - 2);
  EXPECT_THROW(unpack_profiles(bytes), std::runtime_error);
}

TEST(ProfilePackingTest, EmptyVectorRoundTrips) {
  const auto bytes = pack_profiles({});
  EXPECT_TRUE(unpack_profiles(bytes).empty());
}

// ------------------------------------------------------------ generators --

TEST(ProfileGeneratorsTest, UniformRespectsItemBounds) {
  Rng rng(41);
  ProfileGenConfig config;
  config.num_users = 100;
  config.num_items = 500;
  config.min_items = 5;
  config.max_items = 12;
  const auto profiles = uniform_profiles(config, rng);
  ASSERT_EQ(profiles.size(), 100u);
  for (const auto& p : profiles) {
    EXPECT_GE(p.size(), 5u);
    EXPECT_LE(p.size(), 12u);
    for (const auto& e : p.entries()) {
      EXPECT_LT(e.item, 500u);
      EXPECT_GT(e.weight, 0.0f);
    }
  }
}

TEST(ProfileGeneratorsTest, UniformDeterministicPerSeed) {
  ProfileGenConfig config;
  config.num_users = 20;
  Rng a(5);
  Rng b(5);
  const auto pa = uniform_profiles(config, a);
  const auto pb = uniform_profiles(config, b);
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
}

TEST(ProfileGeneratorsTest, ClusteredProfilesConcentrateInBlock) {
  Rng rng(43);
  ClusteredGenConfig config;
  config.base.num_users = 200;
  config.base.num_items = 1000;
  config.base.min_items = 20;
  config.base.max_items = 20;
  config.num_clusters = 10;
  config.in_cluster_prob = 1.0;  // all items from own block
  const auto profiles = clustered_profiles(config, rng);
  const ItemId block = 1000 / 10;
  for (VertexId u = 0; u < 200; ++u) {
    const ItemId lo = (u % 10) * block;
    for (const auto& e : profiles[u].entries()) {
      EXPECT_GE(e.item, lo);
      EXPECT_LT(e.item, lo + block);
    }
  }
}

TEST(ProfileGeneratorsTest, PlantedClustersRoundRobin) {
  const auto labels = planted_clusters(10, 3);
  EXPECT_EQ(labels[0], 0u);
  EXPECT_EQ(labels[1], 1u);
  EXPECT_EQ(labels[2], 2u);
  EXPECT_EQ(labels[3], 0u);
}

TEST(ProfileGeneratorsTest, ZipfConcentratesOnPopularItems) {
  Rng rng(47);
  ProfileGenConfig config;
  config.num_users = 300;
  config.num_items = 1000;
  config.min_items = 10;
  config.max_items = 10;
  const auto profiles = zipf_profiles(config, 1.2, rng);
  // Count how often the top-10 items appear vs items 500-509.
  std::size_t head = 0;
  std::size_t tail = 0;
  for (const auto& p : profiles) {
    for (const auto& e : p.entries()) {
      if (e.item < 10) ++head;
      if (e.item >= 500 && e.item < 510) ++tail;
    }
  }
  EXPECT_GT(head, 5 * (tail + 1));
}

TEST(ProfileGeneratorsTest, InvalidConfigsThrow) {
  Rng rng(1);
  ProfileGenConfig bad;
  bad.num_users = 10;
  bad.num_items = 0;
  EXPECT_THROW(uniform_profiles(bad, rng), std::invalid_argument);
  ProfileGenConfig swapped;
  swapped.num_users = 1;
  swapped.min_items = 10;
  swapped.max_items = 5;
  EXPECT_THROW(uniform_profiles(swapped, rng), std::invalid_argument);
  ClusteredGenConfig zero;
  zero.base.num_users = 10;
  zero.num_clusters = 0;
  EXPECT_THROW(clustered_profiles(zero, rng), std::invalid_argument);
}

// ---------------------------------------------------------- update queue --

TEST(UpdateQueueTest, AppliesInFifoOrder) {
  InMemoryProfileStore store;
  store.push_back(SparseProfile{});
  UpdateQueue queue;
  ProfileUpdate first;
  first.kind = ProfileUpdate::Kind::SetItem;
  first.user = 0;
  first.item = 1;
  first.value = 1.0f;
  queue.push(first);
  ProfileUpdate second = first;
  second.value = 9.0f;  // later update to same item wins
  queue.push(second);
  EXPECT_EQ(queue.apply_to(store), 2u);
  EXPECT_FLOAT_EQ(store.get(0).weight(1), 9.0f);
  EXPECT_TRUE(queue.empty());
}

TEST(UpdateQueueTest, ReplaceSwapsWholeProfile) {
  InMemoryProfileStore store;
  store.push_back(SparseProfile({{1, 1.0f}}));
  UpdateQueue queue;
  ProfileUpdate update;
  update.kind = ProfileUpdate::Kind::Replace;
  update.user = 0;
  update.profile = SparseProfile({{5, 5.0f}});
  queue.push(std::move(update));
  queue.apply_to(store);
  EXPECT_FLOAT_EQ(store.get(0).weight(1), 0.0f);
  EXPECT_FLOAT_EQ(store.get(0).weight(5), 5.0f);
}

TEST(UpdateQueueTest, AddDeltaAccumulates) {
  InMemoryProfileStore store;
  store.push_back(SparseProfile({{2, 1.0f}}));
  UpdateQueue queue;
  ProfileUpdate update;
  update.kind = ProfileUpdate::Kind::AddDelta;
  update.user = 0;
  update.item = 2;
  update.value = 0.5f;
  queue.push(update);
  queue.push(update);
  queue.apply_to(store);
  EXPECT_FLOAT_EQ(store.get(0).weight(2), 2.0f);
}

TEST(UpdateQueueTest, OutOfRangeUserThrowsAndKeepsTail) {
  InMemoryProfileStore store;
  store.push_back(SparseProfile{});
  UpdateQueue queue;
  ProfileUpdate good;
  good.kind = ProfileUpdate::Kind::SetItem;
  good.user = 0;
  good.item = 1;
  good.value = 1.0f;
  ProfileUpdate bad = good;
  bad.user = 42;
  queue.push(good);
  queue.push(bad);
  EXPECT_THROW(queue.apply_to(store), std::out_of_range);
  // The good update was applied; the bad one is retained at the head.
  EXPECT_FLOAT_EQ(store.get(0).weight(1), 1.0f);
  EXPECT_EQ(queue.size(), 1u);
}

TEST(UpdateQueueTest, ClearDropsEverything) {
  UpdateQueue queue;
  queue.push(ProfileUpdate{});
  queue.clear();
  EXPECT_TRUE(queue.empty());
}

}  // namespace
}  // namespace knnpc
