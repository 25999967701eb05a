// Tests for partition/: assignment, the paper's objective, all
// partitioners, and the pair-affinity shard split.
#include <gtest/gtest.h>

#include "graph/generators.h"
#include "partition/assignment.h"
#include "partition/cost.h"
#include "partition/greedy_partitioner.h"
#include "partition/hash_partitioner.h"
#include "partition/pair_affinity.h"
#include "partition/partitioner.h"
#include "partition/range_partitioner.h"
#include "util/rng.h"

namespace knnpc {
namespace {

// ------------------------------------------------------------ assignment --

TEST(AssignmentTest, StartsUnassigned) {
  PartitionAssignment a(5, 2);
  EXPECT_FALSE(a.fully_assigned());
  EXPECT_EQ(a.owner(0), kInvalidPartition);
  a.assign(0, 1);
  EXPECT_EQ(a.owner(0), 1u);
}

TEST(AssignmentTest, RejectsOutOfRange) {
  PartitionAssignment a(5, 2);
  EXPECT_THROW(a.assign(0, 2), std::invalid_argument);
  EXPECT_THROW(a.assign(99, 0), std::out_of_range);
  EXPECT_THROW(PartitionAssignment(5, 0), std::invalid_argument);
  EXPECT_THROW(PartitionAssignment({0, 1, 5}, 2), std::invalid_argument);
}

TEST(AssignmentTest, MembersAndSizes) {
  PartitionAssignment a({0, 1, 0, 1, 0}, 2);
  EXPECT_EQ(a.members(0), (std::vector<VertexId>{0, 2, 4}));
  EXPECT_EQ(a.members(1), (std::vector<VertexId>{1, 3}));
  EXPECT_EQ(a.sizes(), (std::vector<std::size_t>{3, 2}));
}

TEST(AssignmentTest, ImbalanceOfPerfectSplit) {
  PartitionAssignment a({0, 0, 1, 1}, 2);
  EXPECT_DOUBLE_EQ(a.imbalance(), 1.0);
  PartitionAssignment skewed({0, 0, 0, 1}, 2);
  EXPECT_DOUBLE_EQ(skewed.imbalance(), 1.5);
}

// ------------------------------------------------------------- objective --

TEST(CostTest, HandComputedExample) {
  // 0 -> 1, 1 -> 2, 2 -> 0 on partitions {0,1}|{2}.
  EdgeList list;
  list.num_vertices = 3;
  list.edges = {{0, 1}, {1, 2}, {2, 0}};
  const Digraph g(list);
  PartitionAssignment a({0, 0, 1}, 2);
  const PartitionCost cost = partition_cost(g, a);
  // P0 in-sources: in(0)={2}, in(1)={0} -> {2, 0} = 2 unique.
  // P0 out-dests: out(0)={1}, out(1)={2} -> {1, 2} = 2 unique.
  // P1 in-sources: in(2)={1} -> 1. P1 out-dests: out(2)={0} -> 1.
  EXPECT_EQ(cost.unique_in_sources[0], 2u);
  EXPECT_EQ(cost.unique_out_destinations[0], 2u);
  EXPECT_EQ(cost.unique_in_sources[1], 1u);
  EXPECT_EQ(cost.unique_out_destinations[1], 1u);
  EXPECT_EQ(cost.total, 6u);
}

TEST(CostTest, ExternalVariantExcludesInternalEndpoints) {
  EdgeList list;
  list.num_vertices = 3;
  list.edges = {{0, 1}, {1, 2}, {2, 0}};
  const Digraph g(list);
  PartitionAssignment a({0, 0, 1}, 2);
  const PartitionCost ext = external_partition_cost(g, a);
  // P0: in-source 2 (external), out-dest 2 (external); the 0<->1 edge is
  // internal and excluded. P1: in-source 1, out-dest 0, both external.
  EXPECT_EQ(ext.total, 4u);
  EXPECT_LE(ext.total, partition_cost(g, a).total);
}

TEST(CostTest, SinglePartitionExternalCostIsZero) {
  Rng rng(61);
  const Digraph g(erdos_renyi(30, 100, rng));
  PartitionAssignment a(std::vector<PartitionId>(30, 0), 1);
  EXPECT_EQ(external_partition_cost(g, a).total, 0u);
  EXPECT_EQ(edge_cut(g, a), 0u);
}

TEST(CostTest, EdgeCutCountsCrossingEdges) {
  EdgeList list;
  list.num_vertices = 4;
  list.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  const Digraph g(list);
  PartitionAssignment a({0, 0, 1, 1}, 2);
  EXPECT_EQ(edge_cut(g, a), 2u);  // 1->2 and 3->0 cross
}

// ----------------------------------------------------------- partitioners --

class PartitionerContractTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(PartitionerContractTest, FullyAssignedAndBalanced) {
  Rng rng(67);
  const Digraph g(chung_lu(400, 1600, 2.3, rng));
  const auto partitioner = make_partitioner(GetParam());
  for (PartitionId m : {2u, 5u, 8u}) {
    const PartitionAssignment a = partitioner->assign(g, m);
    EXPECT_TRUE(a.fully_assigned()) << GetParam() << " m=" << m;
    EXPECT_EQ(a.num_partitions(), m);
    EXPECT_LE(a.imbalance(), 1.0 + 1e-9) << GetParam() << " m=" << m;
  }
}

TEST_P(PartitionerContractTest, DeterministicAcrossCalls) {
  Rng rng(71);
  const Digraph g(erdos_renyi(100, 500, rng));
  const auto partitioner = make_partitioner(GetParam());
  const auto a = partitioner->assign(g, 4);
  const auto b = partitioner->assign(g, 4);
  for (VertexId v = 0; v < 100; ++v) EXPECT_EQ(a.owner(v), b.owner(v));
}

TEST_P(PartitionerContractTest, SinglePartitionTrivial) {
  Rng rng(73);
  const Digraph g(erdos_renyi(20, 50, rng));
  const auto a = make_partitioner(GetParam())->assign(g, 1);
  for (VertexId v = 0; v < 20; ++v) EXPECT_EQ(a.owner(v), 0u);
}

TEST_P(PartitionerContractTest, MorePartitionsThanVerticesIsFine) {
  Rng rng(79);
  const Digraph g(erdos_renyi(5, 10, rng));
  const auto a = make_partitioner(GetParam())->assign(g, 8);
  EXPECT_TRUE(a.fully_assigned());
}

INSTANTIATE_TEST_SUITE_P(AllPartitioners, PartitionerContractTest,
                         ::testing::Values("range", "hash", "greedy"));

TEST(PartitionerFactoryTest, UnknownNameThrows) {
  EXPECT_THROW(make_partitioner("metis"), std::invalid_argument);
}

TEST(RangePartitionerTest, ContiguousChunks) {
  Rng rng(83);
  const Digraph g(erdos_renyi(10, 20, rng));
  const auto a = RangePartitioner{}.assign(g, 2);
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(a.owner(v), 0u);
  for (VertexId v = 5; v < 10; ++v) EXPECT_EQ(a.owner(v), 1u);
}

TEST(GreedyPartitionerTest, BeatsHashOnClusteredGraph) {
  // A graph of 8 dense cliques: a locality-aware partitioner should place
  // cliques together, beating the locality-destroying hash baseline.
  EdgeList list;
  list.num_vertices = 160;
  for (VertexId c = 0; c < 8; ++c) {
    const VertexId base = c * 20;
    for (VertexId i = 0; i < 20; ++i) {
      for (VertexId j = 0; j < 20; ++j) {
        if (i != j) list.edges.push_back({base + i, base + j});
      }
    }
  }
  const Digraph g(list);
  const auto greedy = GreedyPartitioner{}.assign(g, 8);
  const auto hashed = HashPartitioner{}.assign(g, 8);
  EXPECT_LT(partition_cost(g, greedy).total,
            partition_cost(g, hashed).total);
}

TEST(DegreeRangePartitionerTest, SatisfiesPartitionerContract) {
  Rng rng(9);
  const Digraph g(chung_lu(300, 1500, 2.3, rng));
  const auto partitioner = make_partitioner("degree-range");
  const auto assignment = partitioner->assign(g, 6);
  EXPECT_TRUE(assignment.fully_assigned());
  EXPECT_LE(assignment.imbalance(), 1.0 + 1e-9);
}

TEST(DegreeRangePartitionerTest, HubsShareTheFirstPartition) {
  const Digraph g(star(40));
  const auto assignment = make_partitioner("degree-range")->assign(g, 4);
  // The hub (vertex 0) has the highest degree: partition 0.
  EXPECT_EQ(assignment.owner(0), 0u);
}

TEST(DegreeRangePartitionerTest, GroupsEqualDegreeContiguously) {
  Rng rng(13);
  const Digraph g(chung_lu(400, 2400, 2.1, rng));
  const auto degree_range = make_partitioner("degree-range")->assign(g, 8);
  const auto hash = make_partitioner("hash")->assign(g, 8);
  // Degree grouping should beat hash on the paper's objective (hubs'
  // neighbourhoods overlap heavily).
  EXPECT_LT(partition_cost(g, degree_range).total,
            partition_cost(g, hash).total);
}

// ---------------------------------------------------- pair-affinity split --

TEST(PairAffinityTest, ShardFollowsPartitionGroup) {
  // 12 users over 4 partitions of unequal size; 2 shards must cover
  // contiguous partition ranges, and every user lands on its partition's
  // group.
  PartitionAssignment parts(
      {0, 0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 3}, 4);
  const PartitionAssignment split = pair_affinity_shard_split(parts, 2);
  EXPECT_EQ(split.num_partitions(), 2u);
  EXPECT_TRUE(split.fully_assigned());
  // Each partition maps to exactly one shard...
  std::vector<PartitionId> group(4, kInvalidPartition);
  for (VertexId u = 0; u < 12; ++u) {
    const PartitionId p = parts.owner(u);
    if (group[p] == kInvalidPartition) group[p] = split.owner(u);
    EXPECT_EQ(split.owner(u), group[p]) << "user " << u;
  }
  // ...and the partition -> group map is contiguous and non-decreasing.
  for (PartitionId p = 1; p < 4; ++p) {
    EXPECT_GE(group[p], group[p - 1]);
    EXPECT_LE(group[p], group[p - 1] + 1);
  }
  // Balanced by user count: 5|2|2|3 groups as 5 vs 7 or 7 vs 5 — neither
  // shard may hold everything.
  const auto sizes = split.sizes();
  EXPECT_GT(sizes[0], 0u);
  EXPECT_GT(sizes[1], 0u);
}

TEST(PairAffinityTest, BalancesUserCountsNotPartitionCounts) {
  // One huge partition plus many tiny ones: the huge one must get its own
  // group rather than being bundled by partition count.
  std::vector<PartitionId> owners(100, 0);
  for (VertexId u = 80; u < 100; ++u) {
    owners[u] = static_cast<PartitionId>(1 + (u - 80) / 5);
  }
  PartitionAssignment parts(owners, 5);  // sizes: 80,5,5,5,5
  const PartitionAssignment split = pair_affinity_shard_split(parts, 2);
  const auto sizes = split.sizes();
  EXPECT_EQ(sizes[0], 80u);
  EXPECT_EQ(sizes[1], 20u);
}

TEST(PairAffinityTest, MoreShardsThanPartitionsIsIdentity) {
  PartitionAssignment parts({0, 1, 2, 0, 1, 2}, 3);
  const PartitionAssignment split = pair_affinity_shard_split(parts, 5);
  EXPECT_EQ(split.num_partitions(), 5u);
  for (VertexId u = 0; u < 6; ++u) {
    EXPECT_EQ(split.owner(u), parts.owner(u));
  }
}

TEST(PairAffinityTest, RejectsInvalidInputs) {
  PartitionAssignment parts({0, 1, 0, 1}, 2);
  EXPECT_THROW((void)pair_affinity_shard_split(parts, 0),
               std::invalid_argument);
  PartitionAssignment incomplete(4, 2);
  incomplete.assign(0, 0);
  EXPECT_THROW((void)pair_affinity_shard_split(incomplete, 2),
               std::invalid_argument);
}

}  // namespace
}  // namespace knnpc
