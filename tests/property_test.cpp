// Property-style invariant tests: parameterized sweeps over graph shapes,
// partition counts, slot counts and K values, asserting the structural
// invariants the paper's pipeline relies on.
#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <set>

#include "core/engine.h"
#include "core/tuple_generation.h"
#include "core/tuple_table.h"
#include "graph/generators.h"
#include "partition/cost.h"
#include "partition/partitioner.h"
#include "partition/range_partitioner.h"
#include "pigraph/heuristics.h"
#include "pigraph/simulator.h"
#include "profiles/generators.h"
#include "storage/partition_store.h"
#include "util/rng.h"

namespace knnpc {
namespace {

// ---------- Property: partition files always reconstruct the graph -------

class PartitionRoundTripTest
    : public ::testing::TestWithParam<std::tuple<std::string, PartitionId>> {
};

TEST_P(PartitionRoundTripTest, EdgesSurvivePartitioningExactly) {
  const auto& [partitioner_name, m] = GetParam();
  Rng rng(301);
  EdgeList graph = chung_lu_directed(150, 900, 2.3, rng);
  const Digraph digraph(graph);
  const auto assignment = make_partitioner(partitioner_name)->assign(digraph, m);

  ProfileGenConfig pconfig;
  pconfig.num_users = 150;
  InMemoryProfileStore profiles(uniform_profiles(pconfig, rng));

  ScratchDir dir("prop-roundtrip");
  PartitionStore store(dir.path());
  store.write_all(graph, assignment, profiles);

  // Union of all partitions' out-edges == the original edge set.
  std::multiset<std::uint64_t> reassembled;
  std::size_t in_total = 0;
  for (PartitionId p = 0; p < m; ++p) {
    const PartitionData data = store.load(p);
    for (const Edge& e : data.out_edges) {
      reassembled.insert(tuple_key({e.src, e.dst}));
    }
    in_total += data.in_edges.size();
  }
  std::multiset<std::uint64_t> original;
  for (const Edge& e : graph.edges) {
    original.insert(tuple_key({e.src, e.dst}));
  }
  EXPECT_EQ(reassembled, original);
  EXPECT_EQ(in_total, graph.edges.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionRoundTripTest,
    ::testing::Combine(::testing::Values("range", "hash", "greedy"),
                       ::testing::Values(PartitionId{2}, PartitionId{5},
                                         PartitionId{11})));

// ---------- Property: tuple generation is partition-invariant ------------

class TupleInvarianceTest : public ::testing::TestWithParam<PartitionId> {};

TEST_P(TupleInvarianceTest, UniqueTuplesIndependentOfPartitionCount) {
  // The set of unique (s, d) tuples in H must depend only on G(t), never
  // on how the graph was partitioned.
  const PartitionId m = GetParam();
  Rng rng(302);
  EdgeList graph = erdos_renyi(100, 600, rng);
  const Digraph digraph(graph);

  // Reference from the whole graph.
  std::set<std::uint64_t> expected;
  all_bridge_tuples(digraph, [&](Tuple t) { expected.insert(tuple_key(t)); });

  // Via partitioned merge-join.
  const auto assignment = RangePartitioner{}.assign(digraph, m);
  ProfileGenConfig pconfig;
  pconfig.num_users = 100;
  InMemoryProfileStore profiles(uniform_profiles(pconfig, rng));
  ScratchDir dir("prop-tuples");
  PartitionStore store(dir.path());
  store.write_all(graph, assignment, profiles);
  TupleTable table;
  std::set<std::uint64_t> got;
  for (PartitionId p = 0; p < m; ++p) {
    const PartitionData data = store.load_edges(p);
    merge_join_tuples(data.in_edges, data.out_edges, [&](Tuple t) {
      if (table.insert(t)) got.insert(tuple_key(t));
    });
  }
  EXPECT_EQ(table.size(), got.size());
  EXPECT_EQ(got, expected);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TupleInvarianceTest,
                         ::testing::Values(1, 2, 3, 7, 16));

// ---------- Property: simulator counting identities ----------------------

class SimulatorIdentityTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {
};

TEST_P(SimulatorIdentityTest, LoadsEqualUnloadsWithFinalFlush) {
  const auto& [heuristic_name, slots] = GetParam();
  Rng rng(303);
  const PiGraph pi = PiGraph::from_digraph(
      Digraph(chung_lu_directed(80, 500, 2.3, rng)));
  const auto result =
      LoadUnloadSimulator(slots).run(pi, *make_heuristic(heuristic_name));
  // Everything loaded is eventually unloaded (flush), so the counts match.
  EXPECT_EQ(result.loads, result.unloads);
  // At least one load per partition with any pair, at most 2 per pair.
  EXPECT_LE(result.loads, 2 * pi.num_pairs());
}

TEST_P(SimulatorIdentityTest, OperationsLowerBound) {
  const auto& [heuristic_name, slots] = GetParam();
  Rng rng(304);
  const PiGraph pi = PiGraph::from_digraph(
      Digraph(chung_lu_directed(60, 300, 2.3, rng)));
  const auto result =
      LoadUnloadSimulator(slots).run(pi, *make_heuristic(heuristic_name));
  // Every partition that appears in some pair must be loaded at least once.
  std::set<PartitionId> touched;
  for (const PiPair& p : pi.pairs()) {
    touched.insert(p.a);
    touched.insert(p.b);
  }
  EXPECT_GE(result.loads, touched.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimulatorIdentityTest,
    ::testing::Combine(::testing::Values("sequential", "high-low", "low-high",
                                         "random", "greedy-resident",
                                         "dynamic-degree", "cost-aware"),
                       ::testing::Values(std::size_t{2}, std::size_t{4})),
    [](const ::testing::TestParamInfo<
        std::tuple<std::string, std::size_t>>& info) {
      std::string name = std::get<0>(info.param) + "_slots" +
                         std::to_string(std::get<1>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------- Property: engine invariants across K and m sweeps ------------

class EngineSweepTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, PartitionId>> {
};

TEST_P(EngineSweepTest, GraphInvariantsHoldEveryIteration) {
  const auto& [k, m] = GetParam();
  Rng rng(305);
  ClusteredGenConfig pconfig;
  pconfig.base.num_users = 90;
  pconfig.base.num_items = 300;
  pconfig.num_clusters = 3;
  EngineConfig config;
  config.k = k;
  config.num_partitions = m;
  KnnEngine engine(config, clustered_profiles(pconfig, rng));
  for (int iter = 0; iter < 3; ++iter) {
    engine.run_iteration();
    const KnnGraph& g = engine.graph();
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const auto list = g.neighbors(v);
      EXPECT_LE(list.size(), k);
      std::set<VertexId> ids;
      float prev = std::numeric_limits<float>::infinity();
      for (const Neighbor& n : list) {
        EXPECT_NE(n.id, v);                 // no self edges
        EXPECT_TRUE(ids.insert(n.id).second);  // no duplicates
        EXPECT_LE(n.score, prev);           // sorted by descending score
        prev = n.score;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineSweepTest,
    ::testing::Combine(::testing::Values(1u, 3u, 8u),
                       ::testing::Values(PartitionId{1}, PartitionId{4},
                                         PartitionId{9})));

// ---------- Property: objective monotonicity under merge -----------------

TEST(ObjectiveTest, CoarserPartitioningNeverIncreasesTotalUniqueEndpoints) {
  // Merging all partitions into one gives total <= any finer partitioning
  // (unique endpoint sets union; sum of set sizes >= size of union-side
  // sets per partition). Spot-check m=1 vs m=4 on random graphs.
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    Rng rng(seed);
    const Digraph g(erdos_renyi(80, 500, rng));
    const auto fine = RangePartitioner{}.assign(g, 4);
    const auto coarse = RangePartitioner{}.assign(g, 1);
    EXPECT_LE(partition_cost(g, coarse).total,
              partition_cost(g, fine).total);
  }
}

// ---------- Property: tuple table agrees with std::set reference ---------

TEST(TupleTableFuzzTest, MatchesReferenceSetOnRandomStreams) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed * 7 + 1);
    TupleTable table;
    std::set<std::uint64_t> reference;
    for (int i = 0; i < 20000; ++i) {
      const Tuple t{static_cast<VertexId>(rng.next_below(200)),
                    static_cast<VertexId>(rng.next_below(200))};
      const bool inserted_ref = reference.insert(tuple_key(t)).second;
      EXPECT_EQ(table.insert(t), inserted_ref);
    }
    EXPECT_EQ(table.size(), reference.size());
  }
}

}  // namespace
}  // namespace knnpc
