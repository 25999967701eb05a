// Workload-zoo tests: registry contracts, per-scenario shape assertions
// (the zoo's value is that each scenario actually has its advertised
// shape), byte-level determinism of workload instantiation, and a
// thread-mode cross-mode differential with a placement/order grid.
// Persistent/distributed replays of the zoo live in golden_test (which
// carries the worker-dispatch main); this suite links plain gtest_main.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "core/engine.h"
#include "core/shard_driver.h"
#include "graph/knn_graph_io.h"
#include "profiles/update_queue.h"
#include "workloads/workload.h"

namespace knnpc {
namespace {

WorkloadParams small_params() {
  WorkloadParams p;
  p.users = 200;
  p.items = 240;
  p.clusters = 4;
  p.seed = 77;
  return p;
}

// ------------------------------------------------------------- registry --

TEST(WorkloadRegistry, ZooHoldsTheAdvertisedScenarios) {
  const std::vector<std::string> names = workload_names();
  const std::set<std::string> got(names.begin(), names.end());
  const std::set<std::string> expected = {
      "steady-trickle", "zipf-tail",        "flash-crowd",
      "cold-start",     "adversarial-pair", "movielens-synthetic"};
  EXPECT_EQ(got, expected);
  EXPECT_EQ(names.size(), workload_zoo().size());
  for (const WorkloadSpec& spec : workload_zoo()) {
    EXPECT_FALSE(spec.summary.empty()) << spec.name;
    ASSERT_NE(spec.make, nullptr) << spec.name;
  }
}

TEST(WorkloadRegistry, UnknownNameThrowsWithTheKnownList) {
  try {
    make_workload("no-such-workload", small_params());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("steady-trickle"),
              std::string::npos)
        << "the error should list the known workloads: " << e.what();
  }
}

TEST(WorkloadRegistry, BadParamsRejected) {
  WorkloadParams tiny;
  tiny.users = 2;
  EXPECT_THROW(make_workload("steady-trickle", tiny),
               std::invalid_argument);
}

TEST(WorkloadRegistry, EveryWorkloadProducesUsableProfiles) {
  const WorkloadParams p = small_params();
  for (const std::string& name : workload_names()) {
    Workload w = make_workload(name, p);
    EXPECT_EQ(w.name, name);
    ASSERT_EQ(w.profiles.size(), p.users) << name;
    for (VertexId u = 0; u < p.users; ++u) {
      // Cosine needs a norm: no scenario may hand the engine an empty
      // profile, including cold-start's stubs.
      EXPECT_FALSE(w.profiles[u].entries().empty())
          << name << " user " << u;
      for (const ProfileEntry& e : w.profiles[u].entries()) {
        EXPECT_LT(e.item, p.items) << name << " user " << u;
      }
    }
  }
}

// ---------------------------------------------------------- determinism --

bool same_profile(const SparseProfile& a, const SparseProfile& b) {
  const auto ea = a.entries();
  const auto eb = b.entries();
  if (ea.size() != eb.size()) return false;
  for (std::size_t i = 0; i < ea.size(); ++i) {
    if (ea[i].item != eb[i].item || ea[i].weight != eb[i].weight) {
      return false;
    }
  }
  return true;
}

TEST(WorkloadDeterminism, SameParamsSameProfilesAndSameUpdateStream) {
  const WorkloadParams p = small_params();
  for (const std::string& name : workload_names()) {
    Workload a = make_workload(name, p);
    Workload b = make_workload(name, p);
    ASSERT_EQ(a.profiles.size(), b.profiles.size()) << name;
    for (std::size_t u = 0; u < a.profiles.size(); ++u) {
      ASSERT_TRUE(same_profile(a.profiles[u], b.profiles[u]))
          << name << " user " << u;
    }
    UpdateQueue qa;
    UpdateQueue qb;
    for (int iter = 0; iter < 4; ++iter) {
      ASSERT_EQ(a.tick(qa, p.users), b.tick(qb, p.users))
          << name << " iteration " << iter;
    }
    ASSERT_EQ(qa.size(), qb.size()) << name;
    for (std::size_t i = 0; i < qa.updates().size(); ++i) {
      const ProfileUpdate& ua = qa.updates()[i];
      const ProfileUpdate& ub = qb.updates()[i];
      ASSERT_EQ(ua.kind, ub.kind) << name << " update " << i;
      ASSERT_EQ(ua.user, ub.user) << name << " update " << i;
      ASSERT_EQ(ua.item, ub.item) << name << " update " << i;
      ASSERT_EQ(ua.value, ub.value) << name << " update " << i;
      ASSERT_TRUE(same_profile(ua.profile, ub.profile))
          << name << " update " << i;
    }
  }
}

TEST(WorkloadDeterminism, SeedChangesTheScenarioInstance) {
  WorkloadParams other = small_params();
  other.seed = small_params().seed + 1;
  const Workload a = make_workload("steady-trickle", small_params());
  const Workload b = make_workload("steady-trickle", other);
  bool any_differs = false;
  for (std::size_t u = 0; u < a.profiles.size(); ++u) {
    if (!same_profile(a.profiles[u], b.profiles[u])) {
      any_differs = true;
      break;
    }
  }
  EXPECT_TRUE(any_differs) << "seed must reach the profile generator";
}

// -------------------------------------------------------- scenario shape --

TEST(WorkloadShape, FlashCrowdRewritesHalfTheProfileOfOnePercent) {
  const WorkloadParams p = small_params();
  Workload w = make_workload("flash-crowd", p);

  // Track our own shadow of P(t) by applying the stream, so the 50%-kept
  // claim is checked against the real pre-flash state.
  std::vector<SparseProfile> shadow = w.profiles;

  // Iteration 0: trickle only — no Replace updates.
  UpdateQueue q0;
  w.tick(q0, p.users);
  for (const ProfileUpdate& u : q0.updates()) {
    ASSERT_EQ(u.kind, ProfileUpdate::Kind::SetItem);
    shadow[u.user].set(u.item, u.value);
  }

  // Iteration 1: the flash — exactly 1% of users (>= 1), each a Replace
  // keeping half of its previous entries.
  UpdateQueue q1;
  w.tick(q1, p.users);
  const VertexId crowd = std::max<VertexId>(p.users / 100, 1);
  std::size_t replaces = 0;
  for (const ProfileUpdate& u : q1.updates()) {
    ASSERT_EQ(u.kind, ProfileUpdate::Kind::Replace);
    ++replaces;
    const auto old = shadow[u.user].entries();
    // The upper half (by item order) of the old profile survives the
    // rewrite verbatim as items of the new profile.
    std::set<ItemId> now;
    for (const ProfileEntry& e : u.profile.entries()) now.insert(e.item);
    for (std::size_t i = old.size() / 2; i < old.size(); ++i) {
      EXPECT_TRUE(now.count(old[i].item))
          << "user " << u.user << " lost kept item " << old[i].item;
    }
    // And it IS a ~50% rewrite, not a full replacement: the new profile
    // is at least half the old size and not identical to the old one.
    EXPECT_GE(u.profile.entries().size(), old.size() - old.size() / 2);
    EXPECT_FALSE(same_profile(u.profile, shadow[u.user]));
  }
  EXPECT_EQ(replaces, crowd);

  // Iteration 2: back to the trickle.
  UpdateQueue q2;
  w.tick(q2, p.users);
  for (const ProfileUpdate& u : q2.updates()) {
    EXPECT_EQ(u.kind, ProfileUpdate::Kind::SetItem);
  }
}

TEST(WorkloadShape, ColdStartOnboardsTheStubTailInWaves) {
  const WorkloadParams p = small_params();
  Workload w = make_workload("cold-start", p);
  const VertexId cold = std::max<VertexId>(p.users / 5, 1);
  const VertexId first_cold = p.users - cold;

  // The tail starts as stubs, the head as full profiles.
  for (VertexId u = first_cold; u < p.users; ++u) {
    EXPECT_LE(w.profiles[u].entries().size(), 2u) << "user " << u;
  }
  std::size_t full_head = 0;
  for (VertexId u = 0; u < first_cold; ++u) {
    if (w.profiles[u].entries().size() > 2) ++full_head;
  }
  EXPECT_GT(full_head, first_cold * 9 / 10)
      << "head users should carry full clustered profiles";

  // Each wave onboards cold/4 users, all in the cold tail, with full
  // profiles; over 4+ ticks every cold user is onboarded at least once.
  std::set<VertexId> onboarded;
  const VertexId wave = std::max<VertexId>(cold / 4, 1);
  for (int iter = 0; iter < 4; ++iter) {
    UpdateQueue q;
    w.tick(q, p.users);
    ASSERT_EQ(q.size(), wave) << "iteration " << iter;
    for (const ProfileUpdate& u : q.updates()) {
      ASSERT_EQ(u.kind, ProfileUpdate::Kind::Replace);
      ASSERT_GE(u.user, first_cold);
      ASSERT_LT(u.user, p.users);
      EXPECT_GT(u.profile.entries().size(), 2u)
          << "onboarding must install a full profile";
      onboarded.insert(u.user);
    }
  }
  EXPECT_EQ(onboarded.size(), cold)
      << "4 waves of cold/4 must cover the whole cold tail";
}

TEST(WorkloadShape, AdversarialPairConcentratesMassInOnePartitionPair) {
  const WorkloadParams p = small_params();
  Workload w = make_workload("adversarial-pair", p);
  const VertexId pole = std::max<VertexId>(p.users / 8, 1);
  const ItemId hot =
      std::max<ItemId>(std::min<ItemId>(p.items / 16, p.items), 8);

  // Pole users (the extreme user ranges a range partitioner maps to the
  // first and last partition) rate ONLY the hot block; middle users never
  // touch it. All cross-partition similarity mass therefore lives on the
  // single (first, last) partition pair.
  for (VertexId u = 0; u < p.users; ++u) {
    const bool is_pole = u < pole || u >= p.users - pole;
    for (const ProfileEntry& e : w.profiles[u].entries()) {
      if (is_pole) {
        EXPECT_LT(e.item, hot) << "pole user " << u;
      } else {
        EXPECT_GE(e.item, hot) << "middle user " << u;
      }
    }
  }

  // The update stream keeps reinforcing the poles.
  UpdateQueue q;
  w.tick(q, p.users);
  ASSERT_FALSE(q.empty());
  for (const ProfileUpdate& u : q.updates()) {
    EXPECT_EQ(u.kind, ProfileUpdate::Kind::SetItem);
    EXPECT_TRUE(u.user < pole || u.user >= p.users - pole)
        << "adversarial updates must land on pole users, got " << u.user;
    EXPECT_LT(u.item, hot);
  }
}

TEST(WorkloadShape, ZipfTailIsHeavyTailed) {
  const WorkloadParams p = small_params();
  const Workload w = make_workload("zipf-tail", p);
  std::vector<std::size_t> freq(p.items, 0);
  std::size_t total = 0;
  for (const SparseProfile& profile : w.profiles) {
    for (const ProfileEntry& e : profile.entries()) {
      ++freq[e.item];
      ++total;
    }
  }
  ASSERT_GT(total, 0u);
  std::size_t head = 0;  // first decile of the item space
  for (ItemId i = 0; i < p.items / 10; ++i) head += freq[i];
  std::size_t tail = 0;  // the entire last half
  for (ItemId i = p.items / 2; i < p.items; ++i) tail += freq[i];
  EXPECT_GT(head, tail)
      << "the first decile must out-mass the whole last half "
      << "(head=" << head << ", tail=" << tail << ", total=" << total << ")";
}

TEST(WorkloadShape, SteadyTrickleMatchesTheSharedChurnScript) {
  // steady-trickle is ChurnDriver behind the registry: the same stream
  // must fall out of scripted_churn directly — the dedup contract that
  // golden_test / shard_process_test / bench_churn rely on.
  const WorkloadParams p = small_params();
  Workload w = make_workload("steady-trickle", p);
  ChurnDriver driver(scripted_churn(
      ChurnScenario::Proportional,
      scripted_generator(p.users, p.items, p.clusters), p.seed));
  UpdateQueue from_zoo;
  UpdateQueue from_driver;
  for (int iter = 0; iter < 3; ++iter) {
    w.tick(from_zoo, p.users);
    driver.tick(from_driver, p.users);
  }
  ASSERT_EQ(from_zoo.size(), from_driver.size());
  for (std::size_t i = 0; i < from_zoo.updates().size(); ++i) {
    const ProfileUpdate& a = from_zoo.updates()[i];
    const ProfileUpdate& b = from_driver.updates()[i];
    ASSERT_EQ(a.kind, b.kind) << "update " << i;
    ASSERT_EQ(a.user, b.user) << "update " << i;
    ASSERT_EQ(a.item, b.item) << "update " << i;
    ASSERT_EQ(a.value, b.value) << "update " << i;
    ASSERT_TRUE(same_profile(a.profile, b.profile)) << "update " << i;
  }
}

TEST(WorkloadShape, ScriptedGeneratorKnobsArePinned) {
  // Golden checksums depend on these values; this test is the tripwire
  // that a "harmless" knob change regenerates the corpus knowingly.
  const ClusteredGenConfig gen = scripted_generator(120, 400, 6);
  EXPECT_EQ(gen.base.num_users, 120u);
  EXPECT_EQ(gen.base.num_items, 400u);
  EXPECT_EQ(gen.base.min_items, 15u);
  EXPECT_EQ(gen.base.max_items, 25u);
  EXPECT_EQ(gen.num_clusters, 6u);
  EXPECT_DOUBLE_EQ(gen.in_cluster_prob, 0.9);

  const ChurnConfig trickle = scripted_churn(
      ChurnScenario::Trickle, gen, 1007);
  EXPECT_EQ(trickle.rating_updates_per_iteration, 50u);
  EXPECT_EQ(trickle.drifting_users_per_iteration, 2u);
  EXPECT_EQ(trickle.reset_users_per_iteration, 1u);
  const ChurnConfig heavy = scripted_churn(
      ChurnScenario::Heavy, gen, 1007);
  EXPECT_EQ(heavy.rating_updates_per_iteration, 120u);
  EXPECT_EQ(heavy.drifting_users_per_iteration, 15u);
  EXPECT_EQ(heavy.reset_users_per_iteration, 10u);
}

// -------------------------------------------------- cross-mode (thread) --

std::uint64_t replay_serial(const std::string& name,
                            const WorkloadParams& p,
                            const EngineConfig& config,
                            std::uint32_t iters) {
  Workload w = make_workload(name, p);
  KnnEngine engine(config, std::move(w.profiles));
  for (std::uint32_t i = 0; i < iters; ++i) {
    w.tick(engine.update_queue(), p.users);
    engine.run_iteration();
  }
  return knn_graph_checksum(engine.graph());
}

std::uint64_t replay_sharded(const std::string& name,
                             const WorkloadParams& p,
                             const EngineConfig& config,
                             std::uint32_t shards, std::uint32_t iters) {
  Workload w = make_workload(name, p);
  ShardConfig shard_config;
  shard_config.shards = shards;
  ShardedKnnEngine engine(config, shard_config, std::move(w.profiles));
  for (std::uint32_t i = 0; i < iters; ++i) {
    w.tick(engine.update_queue(), p.users);
    engine.run_iteration();
  }
  return knn_graph_checksum(engine.graph());
}

TEST(WorkloadDifferential, ThreadModesAgreeOnEveryScenario) {
  // The in-process slice of the five-mode differential: serial vs
  // thread-pool vs thread-mode sharding, every zoo scenario, plus a grid
  // over partitioner x heuristic x shards x threads in thread-mode
  // sharding (placement and order are pure I/O concerns, so every cell
  // lands on the serial checksum). The persistent slice runs in
  // golden_test (worker-dispatch main).
  WorkloadParams p;
  p.users = 96;
  p.items = 150;
  p.clusters = 3;
  p.seed = 2026;
  EngineConfig config;
  config.k = 4;
  config.num_partitions = 3;
  const std::uint32_t iters = 2;

  for (const std::string& name : workload_names()) {
    const std::uint64_t serial = replay_serial(name, p, config, iters);
    EngineConfig threaded = config;
    threaded.threads = 2;
    EXPECT_EQ(replay_serial(name, p, threaded, iters), serial)
        << name << ": thread pool diverged from serial";
    EXPECT_EQ(replay_sharded(name, p, config, 2, iters), serial)
        << name << ": thread-mode sharding diverged from serial";
    for (const char* partitioner : {"range", "hash", "greedy"}) {
      for (const char* heuristic : {"low-high", "high-low"}) {
        for (const std::uint32_t shards : {1u, 2u}) {
          for (const std::uint32_t threads : {1u, 2u}) {
            EngineConfig cell = config;
            cell.partitioner = partitioner;
            cell.heuristic = heuristic;
            cell.threads = threads;
            EXPECT_EQ(replay_sharded(name, p, cell, shards, iters), serial)
                << name << ": grid cell " << partitioner << "/" << heuristic
                << " S=" << shards << " threads=" << threads
                << " diverged from serial";
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace knnpc
