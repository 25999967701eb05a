// Tests for core/tuple_table and core/tuple_generation: dedup semantics
// (phase 2), the sorted merge-join (phase 1's payoff), the source-major
// walk that must emit the partition walk's candidates source by source,
// and the per-source candidate bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/tuple_generation.h"
#include "core/tuple_table.h"
#include "graph/generators.h"
#include "graph/knn_graph.h"
#include "partition/assignment.h"
#include "storage/partition_store.h"
#include "util/rng.h"

namespace knnpc {
namespace {

// ------------------------------------------------------------ tuple table --

TEST(TupleTableTest, InsertReportsNovelty) {
  TupleTable table;
  EXPECT_TRUE(table.insert({1, 2}));
  EXPECT_FALSE(table.insert({1, 2}));
  EXPECT_TRUE(table.insert({2, 1}));  // ordered pair: distinct
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.attempts(), 3u);
}

TEST(TupleTableTest, ContainsAfterInsert) {
  TupleTable table;
  table.insert({5, 9});
  EXPECT_TRUE(table.contains({5, 9}));
  EXPECT_FALSE(table.contains({9, 5}));
}

TEST(TupleTableTest, GrowsPastInitialCapacity) {
  TupleTable table(4);
  for (VertexId i = 0; i < 10000; ++i) {
    EXPECT_TRUE(table.insert({i, i + 1}));
  }
  EXPECT_EQ(table.size(), 10000u);
  for (VertexId i = 0; i < 10000; ++i) {
    EXPECT_TRUE(table.contains({i, i + 1}));
  }
}

TEST(TupleTableTest, InsertReportsNoveltyLikeASet) {
  TupleTable table(8);  // small, so the inserts grow it and collide
  std::set<std::uint64_t> expected;
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    const Tuple t{static_cast<VertexId>(rng.next_below(100)),
                  static_cast<VertexId>(rng.next_below(100))};
    EXPECT_EQ(table.insert(t), expected.insert(tuple_key(t)).second);
  }
  EXPECT_EQ(table.size(), expected.size());
}

TEST(TupleTableTest, ClearResets) {
  TupleTable table;
  table.insert({1, 2});
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.attempts(), 0u);
  EXPECT_FALSE(table.contains({1, 2}));
  EXPECT_TRUE(table.insert({1, 2}));
}

TEST(TupleTableTest, DedupRatioExample) {
  // The paper's motivating duplicates: cycles and multi-bridge paths.
  TupleTable table;
  // a->b->d and a->c->d both emit (a, d).
  table.insert({0, 3});
  table.insert({0, 3});
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.attempts(), 2u);
}

// ------------------------------------------------------------- merge join --

std::vector<Edge> sorted_by_dst(std::vector<Edge> edges) {
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.dst != b.dst ? a.dst < b.dst : a.src < b.src;
  });
  return edges;
}

TEST(MergeJoinTest, EmitsCrossProductPerBridge) {
  // Bridge 5: in {1,2} -> 5, out 5 -> {7,8}. Expect 4 tuples.
  const auto in_edges = sorted_by_dst({{1, 5}, {2, 5}});
  const std::vector<Edge> out_edges{{5, 7}, {5, 8}};
  std::set<std::uint64_t> got;
  const auto count = merge_join_tuples(
      in_edges, out_edges, [&](Tuple t) { got.insert(tuple_key(t)); });
  EXPECT_EQ(count, 4u);
  EXPECT_TRUE(got.contains(tuple_key({1, 7})));
  EXPECT_TRUE(got.contains(tuple_key({1, 8})));
  EXPECT_TRUE(got.contains(tuple_key({2, 7})));
  EXPECT_TRUE(got.contains(tuple_key({2, 8})));
}

TEST(MergeJoinTest, SkipsSelfTuples) {
  // 1 -> 5 -> 1 would produce (1, 1): must be skipped.
  const std::vector<Edge> in_edges{{1, 5}};
  const std::vector<Edge> out_edges{{5, 1}};
  std::size_t emitted = 0;
  merge_join_tuples(in_edges, out_edges, [&](Tuple) { ++emitted; });
  EXPECT_EQ(emitted, 0u);
}

TEST(MergeJoinTest, DisjointBridgesEmitNothing) {
  const std::vector<Edge> in_edges{{1, 2}};
  const std::vector<Edge> out_edges{{3, 4}};
  std::size_t emitted = 0;
  merge_join_tuples(in_edges, out_edges, [&](Tuple) { ++emitted; });
  EXPECT_EQ(emitted, 0u);
}

TEST(MergeJoinTest, EmptyInputs) {
  std::size_t emitted = 0;
  merge_join_tuples({}, {}, [&](Tuple) { ++emitted; });
  merge_join_tuples(std::vector<Edge>{{1, 2}}, {}, [&](Tuple) { ++emitted; });
  EXPECT_EQ(emitted, 0u);
}

TEST(MergeJoinTest, MatchesReferenceGeneratorOnRandomGraph) {
  Rng rng(19);
  const EdgeList list = erdos_renyi(60, 300, rng);
  const Digraph graph(list);

  // Reference: adjacency walk over the whole graph.
  std::multiset<std::uint64_t> expected;
  all_bridge_tuples(graph,
                    [&](Tuple t) { expected.insert(tuple_key(t)); });

  // Merge join over the whole graph treated as one partition: in-edges
  // sorted by dst, out-edges sorted by src.
  const auto in_edges = sorted_by_dst(list.edges);
  std::vector<Edge> out_edges = list.edges;
  std::sort(out_edges.begin(), out_edges.end());
  std::multiset<std::uint64_t> got;
  merge_join_tuples(in_edges, out_edges,
                    [&](Tuple t) { got.insert(tuple_key(t)); });
  EXPECT_EQ(got, expected);
}

TEST(MergeJoinTest, ReferenceGeneratorCountsRingCorrectly) {
  // Directed ring 0->1->2->...->0 with k=1: every vertex has exactly one
  // 2-hop successor, so n tuples.
  const Digraph g(ring_lattice(10, 1));
  std::size_t emitted = 0;
  all_bridge_tuples(g, [&](Tuple) { ++emitted; });
  EXPECT_EQ(emitted, 10u);
}

// ------------------------------------------------------ source-major walk --

/// Random lists of `k` distinct neighbours that never point at vertex 0
/// (a vertex with no in-edges), plus a mutual pair 1 <-> 2 and four
/// bridges from 1 to 9 (through 2, 5, 6 and 7). Needs n >= 10, k == 4.
KnnGraph walk_test_graph(VertexId n, std::uint64_t seed) {
  const std::uint32_t k = 4;
  Rng rng(seed);
  KnnGraph graph(n, k);
  for (VertexId u = 0; u < n; ++u) {
    std::vector<Neighbor> list;
    while (list.size() < k) {
      const auto v = static_cast<VertexId>(1 + rng.next_below(n - 1));
      const bool taken = std::any_of(list.begin(), list.end(),
                                     [&](const Neighbor& e) {
                                       return e.id == v;
                                     });
      if (v == u || taken) continue;
      list.push_back({v, static_cast<float>(list.size())});
    }
    graph.set_neighbors(u, std::move(list));
  }
  graph.set_neighbors(1, {{2, 0.9f}, {5, 0.8f}, {6, 0.7f}, {7, 0.6f}});
  graph.set_neighbors(2, {{1, 0.9f}, {3, 0.5f}, {4, 0.4f}, {9, 0.3f}});
  for (const VertexId v : {5u, 6u, 7u}) {
    graph.set_neighbors(v, {{9, 0.5f}, {3, 0.4f}, {4, 0.3f}, {8, 0.2f}});
  }
  return graph;
}

/// Each source's candidate destinations, sorted (a multiset per source),
/// and the candidates generated.
struct CandidatesBySource {
  std::vector<std::vector<VertexId>> of;
  std::uint64_t generated = 0;
};

void sort_lists(CandidatesBySource& out) {
  for (std::vector<VertexId>& list : out.of) {
    std::sort(list.begin(), list.end());
  }
}

/// The partition path: every derived partition through
/// partition_candidates plus every user's restarts, each candidate filed
/// under its source.
CandidatesBySource partition_walk(const EngineConfig& config,
                                  std::uint32_t iteration,
                                  const KnnGraph& graph,
                                  const PartitionAssignment& assignment) {
  const VertexId n = graph.num_vertices();
  const ReverseAdjacency reverse = build_reverse_adjacency(graph);
  CandidatesBySource out;
  out.of.resize(n);
  auto keep = [&](Tuple t) { out.of[t.s].push_back(t.d); };
  for (PartitionId p = 0; p < assignment.num_partitions(); ++p) {
    out.generated += partition_candidates(
        config, iteration,
        derive_partition_edges(graph, reverse, assignment, p), keep);
  }
  for (VertexId s = 0; s < n; ++s) {
    out.generated += restart_candidates(config, iteration, n, s, keep);
  }
  sort_lists(out);
  return out;
}

/// The source-major walk over every source.
CandidatesBySource source_walk(const EngineConfig& config,
                               std::uint32_t iteration,
                               const KnnGraph& graph) {
  const VertexId n = graph.num_vertices();
  CandidatesBySource out;
  out.of.resize(n);
  for (VertexId s = 0; s < n; ++s) {
    auto keep = [&](Tuple t) {
      EXPECT_EQ(t.s, s);
      out.of[s].push_back(t.d);
    };
    out.generated += source_candidates(config, iteration, graph, s, keep);
  }
  sort_lists(out);
  return out;
}

PartitionAssignment spread(VertexId n, PartitionId m) {
  std::vector<PartitionId> owner(n);
  for (VertexId v = 0; v < n; ++v) owner[v] = (v * 7 + v / 3) % m;
  return PartitionAssignment(std::move(owner), m);
}

TEST(SourceWalkTest, EmitsThePartitionWalksCandidatesPerSource) {
  KnnGraph pair(2, 1);
  pair.set_neighbors(0, {{1, 0.5f}});
  pair.set_neighbors(1, {{0, 0.5f}});
  const KnnGraph graph = walk_test_graph(40, 31);
  ASSERT_TRUE(build_reverse_adjacency(graph).in_neighbors(0).empty());

  for (const KnnGraph* g : {&graph, static_cast<const KnnGraph*>(&pair)}) {
    const PartitionAssignment assignment = spread(g->num_vertices(), 4);
    for (const std::uint32_t restarts : {0u, 2u}) {
      EngineConfig config;
      config.seed = 5;
      config.random_candidates = restarts;
      const std::string where = "n=" + std::to_string(g->num_vertices()) +
                                " restarts=" + std::to_string(restarts);
      const CandidatesBySource want =
          partition_walk(config, 3, *g, assignment);
      const CandidatesBySource got = source_walk(config, 3, *g);
      EXPECT_EQ(got.generated, want.generated) << where;
      ASSERT_EQ(got.of.size(), want.of.size()) << where;
      for (VertexId s = 0; s < g->num_vertices(); ++s) {
        EXPECT_EQ(got.of[s], want.of[s]) << where << " source " << s;
      }
      if (g == &graph) {
        // The mutual pair emits no self-candidate; the four bridges emit
        // (1, 9) four times.
        const std::vector<VertexId>& one = got.of[1];
        EXPECT_EQ(std::count(one.begin(), one.end(), 1u), 0) << where;
        EXPECT_GE(std::count(one.begin(), one.end(), 9u), 4) << where;
      }
    }
  }
}

// candidate_bounds sizes the threaded engine's per-source buckets, which
// must never overflow: every source's candidates, reverses included, fit
// within its bound, sampled or not.
TEST(CandidateBoundsTest, CoverEverySourcesCandidates) {
  constexpr VertexId kUsers = 40;
  const KnnGraph graph = walk_test_graph(kUsers, 31);
  const PartitionAssignment assignment = spread(kUsers, 4);
  const ReverseAdjacency reverse = build_reverse_adjacency(graph);
  for (const bool include_reverse : {false, true}) {
    for (const double rate : {1.0, 0.5}) {
      EngineConfig config;
      config.seed = 5;
      config.include_reverse = include_reverse;
      config.sample_rate = rate;
      std::vector<std::uint64_t> count(kUsers, 0);
      auto keep = [&](Tuple t) {
        ++count[t.s];
        if (include_reverse) ++count[t.d];
      };
      for (PartitionId p = 0; p < assignment.num_partitions(); ++p) {
        partition_candidates(
            config, 3, derive_partition_edges(graph, reverse, assignment, p),
            keep);
      }
      for (VertexId s = 0; s < kUsers; ++s) {
        restart_candidates(config, 3, kUsers, s, keep);
      }
      const std::vector<std::uint64_t> bound =
          candidate_bounds(config, 3, graph);
      ASSERT_EQ(bound.size(), kUsers);
      for (VertexId s = 0; s < kUsers; ++s) {
        EXPECT_LE(count[s], bound[s])
            << "reverse=" << include_reverse << " rate=" << rate
            << " source " << s;
      }
    }
  }
}

}  // namespace
}  // namespace knnpc
