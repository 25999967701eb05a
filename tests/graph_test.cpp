// Tests for graph/: edge lists, CSR digraph, KNN graph, KNN-graph deltas,
// SNAP I/O, degree stats.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "graph/degree_stats.h"
#include "graph/digraph.h"
#include "graph/edge_list.h"
#include "graph/generators.h"
#include "graph/knn_graph.h"
#include "graph/knn_graph_delta.h"
#include "graph/knn_graph_io.h"
#include "graph/snap_io.h"
#include "util/rng.h"
#include "util/serde.h"

namespace knnpc {
namespace {

EdgeList small_list() {
  EdgeList list;
  list.num_vertices = 4;
  list.edges = {{0, 1}, {1, 2}, {2, 0}, {0, 2}, {3, 0}};
  return list;
}

// ------------------------------------------------------------ edge list --

TEST(EdgeListTest, SortAndDedupRemovesDuplicates) {
  EdgeList list;
  list.num_vertices = 3;
  list.edges = {{1, 2}, {0, 1}, {1, 2}, {0, 1}, {2, 0}};
  sort_and_dedup(list);
  EXPECT_EQ(list.edges.size(), 3u);
  EXPECT_TRUE(is_sorted_unique(list));
}

TEST(EdgeListTest, RemoveSelfLoops) {
  EdgeList list;
  list.num_vertices = 3;
  list.edges = {{0, 0}, {0, 1}, {1, 1}, {2, 1}};
  remove_self_loops(list);
  EXPECT_EQ(list.edges.size(), 2u);
}

TEST(EdgeListTest, FitNumVertices) {
  EdgeList list;
  list.edges = {{0, 9}, {4, 2}};
  fit_num_vertices(list);
  EXPECT_EQ(list.num_vertices, 10u);
  EdgeList empty;
  fit_num_vertices(empty);
  EXPECT_EQ(empty.num_vertices, 0u);
}

TEST(EdgeListTest, EndpointsInRange) {
  EdgeList list = small_list();
  EXPECT_TRUE(endpoints_in_range(list));
  list.num_vertices = 2;
  EXPECT_FALSE(endpoints_in_range(list));
}

TEST(EdgeListTest, ReversedFlipsEveryEdge) {
  const EdgeList rev = reversed(small_list());
  EXPECT_EQ(rev.edges[0], (Edge{1, 0}));
  EXPECT_EQ(rev.edges.size(), small_list().edges.size());
}

TEST(EdgeListTest, SymmetrizedContainsBothDirections) {
  EdgeList list;
  list.num_vertices = 3;
  list.edges = {{0, 1}, {1, 2}};
  const EdgeList sym = symmetrized(list);
  EXPECT_EQ(sym.edges.size(), 4u);
  EXPECT_TRUE(is_sorted_unique(sym));
}

TEST(EdgeListTest, SymmetrizedIsIdempotentOnSymmetricInput) {
  EdgeList list;
  list.num_vertices = 3;
  list.edges = {{0, 1}, {1, 0}};
  EXPECT_EQ(symmetrized(list).edges.size(), 2u);
}

// -------------------------------------------------------------- digraph --

TEST(DigraphTest, BuildsCorrectAdjacency) {
  const Digraph g(small_list());
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 5u);
  const auto out0 = g.out_neighbors(0);
  ASSERT_EQ(out0.size(), 2u);
  EXPECT_EQ(out0[0], 1u);
  EXPECT_EQ(out0[1], 2u);
  const auto in0 = g.in_neighbors(0);
  ASSERT_EQ(in0.size(), 2u);
  EXPECT_EQ(in0[0], 2u);
  EXPECT_EQ(in0[1], 3u);
}

TEST(DigraphTest, DegreesMatchAdjacency) {
  const Digraph g(small_list());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(g.out_degree(v), g.out_neighbors(v).size());
    EXPECT_EQ(g.in_degree(v), g.in_neighbors(v).size());
    EXPECT_EQ(g.degree(v), g.out_degree(v) + g.in_degree(v));
  }
}

TEST(DigraphTest, RejectsOutOfRangeEndpoints) {
  EdgeList bad;
  bad.num_vertices = 2;
  bad.edges = {{0, 5}};
  EXPECT_THROW(Digraph{bad}, std::invalid_argument);
}

TEST(DigraphTest, ToEdgeListRoundTrips) {
  EdgeList original = small_list();
  sort_and_dedup(original);
  const Digraph g(original);
  EdgeList back = g.to_edge_list();
  sort_and_dedup(back);
  EXPECT_EQ(back.edges, original.edges);
}

TEST(DigraphTest, EmptyGraph) {
  const Digraph g{EdgeList{}};
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(DigraphTest, VertexWithNoEdges) {
  EdgeList list;
  list.num_vertices = 5;
  list.edges = {{0, 1}};
  const Digraph g(list);
  EXPECT_TRUE(g.out_neighbors(4).empty());
  EXPECT_TRUE(g.in_neighbors(4).empty());
}

// ------------------------------------------------------------ knn graph --

TEST(KnnGraphTest, SetNeighborsSortsAndTruncates) {
  KnnGraph g(3, 2);
  g.set_neighbors(0, {{1, 0.5f}, {2, 0.9f}, {1, 0.1f}});
  const auto list = g.neighbors(0);
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].id, 2u);
  EXPECT_FLOAT_EQ(list[0].score, 0.9f);
  EXPECT_EQ(list[1].id, 1u);
}

TEST(KnnGraphTest, HasEdge) {
  KnnGraph g(3, 2);
  g.set_neighbors(0, {{1, 0.5f}});
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(1, 0));
}

TEST(KnnGraphTest, NumEdgesCountsAll) {
  KnnGraph g(3, 2);
  g.set_neighbors(0, {{1, 0.1f}, {2, 0.2f}});
  g.set_neighbors(1, {{0, 0.3f}});
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(KnnGraphTest, ChangeRateZeroForIdenticalGraphs) {
  KnnGraph g(4, 2);
  g.set_neighbors(0, {{1, 0.5f}, {2, 0.25f}});
  EXPECT_DOUBLE_EQ(KnnGraph::change_rate(g, g), 0.0);
}

TEST(KnnGraphTest, ChangeRateCountsSymmetricDifference) {
  KnnGraph a(2, 2);
  KnnGraph b(2, 2);
  a.set_neighbors(0, {{1, 0.5f}});
  b.set_neighbors(0, {{1, 0.9f}});  // same edge, different score: no change
  EXPECT_DOUBLE_EQ(KnnGraph::change_rate(a, b), 0.0);
  KnnGraph c(2, 2);
  c.set_neighbors(1, {{0, 0.5f}});  // 1 removed + 1 added over n*k = 4
  EXPECT_DOUBLE_EQ(KnnGraph::change_rate(a, c), 0.5);
}

TEST(KnnGraphTest, ChangeRateRejectsMismatchedSizes) {
  KnnGraph a(2, 1);
  KnnGraph b(3, 1);
  EXPECT_THROW(KnnGraph::change_rate(a, b), std::invalid_argument);
}

TEST(KnnGraphTest, RandomGraphHasKDistinctNonSelfNeighbors) {
  Rng rng(23);
  const KnnGraph g = random_knn_graph(50, 5, rng);
  for (VertexId v = 0; v < 50; ++v) {
    const auto list = g.neighbors(v);
    ASSERT_EQ(list.size(), 5u);
    std::set<VertexId> ids;
    for (const Neighbor& n : list) {
      EXPECT_NE(n.id, v);
      ids.insert(n.id);
    }
    EXPECT_EQ(ids.size(), 5u);
  }
}

TEST(KnnGraphTest, RandomGraphClampsKForTinyGraphs) {
  Rng rng(29);
  const KnnGraph g = random_knn_graph(3, 10, rng);
  for (VertexId v = 0; v < 3; ++v) {
    EXPECT_EQ(g.neighbors(v).size(), 2u);  // n-1
  }
}

TEST(KnnGraphTest, ToEdgeListMatchesNeighbors) {
  KnnGraph g(3, 2);
  g.set_neighbors(0, {{1, 0.5f}, {2, 0.4f}});
  g.set_neighbors(2, {{0, 0.3f}});
  const EdgeList list = g.to_edge_list();
  EXPECT_EQ(list.num_vertices, 3u);
  EXPECT_EQ(list.edges.size(), 3u);
}

// -------------------------------------------------------------- snap io --

TEST(SnapIoTest, RoundTripThroughStream) {
  EdgeList original = small_list();
  sort_and_dedup(original);
  std::stringstream buffer;
  save_snap(buffer, original);
  const EdgeList loaded = load_snap(buffer);
  EXPECT_EQ(loaded.edges.size(), original.edges.size());
  EXPECT_EQ(loaded.num_vertices, original.num_vertices);
}

TEST(SnapIoTest, SkipsCommentsAndBlankLines) {
  std::stringstream in("# header\n\n0\t1\n% other comment\n1\t2\n");
  const EdgeList list = load_snap(in);
  EXPECT_EQ(list.edges.size(), 2u);
  EXPECT_EQ(list.num_vertices, 3u);
}

TEST(SnapIoTest, CompactsSparseVertexIds) {
  std::stringstream in("1000000\t5000000\n5000000\t1000000\n");
  const EdgeList list = load_snap(in);
  EXPECT_EQ(list.num_vertices, 2u);
  EXPECT_EQ(list.edges[0], (Edge{0, 1}));
  EXPECT_EQ(list.edges[1], (Edge{1, 0}));
}

TEST(SnapIoTest, MalformedLineThrows) {
  std::stringstream in("0\t1\nnot numbers\n");
  EXPECT_THROW(load_snap(in), std::runtime_error);
}

TEST(SnapIoTest, MissingFileThrows) {
  EXPECT_THROW(load_snap_file("/nonexistent/path/graph.txt"),
               std::runtime_error);
}

// ---------------------------------------------------------- degree stats --

TEST(DegreeStatsTest, SummaryOnStar) {
  const Digraph g(star(11));
  const DegreeSummary s = summarize_degrees(g);
  EXPECT_EQ(s.num_vertices, 11u);
  EXPECT_EQ(s.num_edges, 20u);
  EXPECT_EQ(s.max_total_degree, 20u);  // hub: 10 out + 10 in
  EXPECT_GT(s.degree_gini, 0.4);       // extremely skewed
}

// -------------------------------------------------------- KNN-graph delta --

/// Random row churn: replaces `changes` random rows of `graph` with fresh
/// random neighbour lists (the shape of what one engine iteration does).
void churn_rows(KnnGraph& graph, std::uint32_t changes, Rng& rng) {
  const VertexId n = graph.num_vertices();
  for (std::uint32_t c = 0; c < changes; ++c) {
    const auto v = static_cast<VertexId>(rng.next_below(n));
    std::vector<Neighbor> list;
    for (std::uint32_t j = 0; j < graph.k(); ++j) {
      auto d = static_cast<VertexId>(rng.next_below(n));
      if (d == v) continue;
      list.push_back({d, static_cast<float>(rng.next_double())});
    }
    graph.set_neighbors(v, std::move(list));
  }
}

TEST(KnnGraphDeltaTest, ApplyOfDeltaReproducesTheTargetOnChurnedGraphs) {
  Rng rng(404);
  for (int round = 0; round < 10; ++round) {
    const VertexId n = 40 + static_cast<VertexId>(rng.next_below(80));
    const std::uint32_t k = 3 + static_cast<std::uint32_t>(rng.next_below(5));
    const KnnGraph a = random_knn_graph(n, k, rng);
    KnnGraph b = a;
    churn_rows(b, 1 + static_cast<std::uint32_t>(rng.next_below(n)), rng);

    const KnnGraphDelta delta = knn_graph_delta(a, b);
    KnnGraph patched = a;
    apply_knn_graph_delta(patched, delta);
    EXPECT_EQ(knn_graph_checksum(patched), knn_graph_checksum(b))
        << "round " << round << " (n=" << n << ", k=" << k << ")";
    // And through the wire format.
    const KnnGraphDelta decoded =
        knn_graph_delta_from_bytes(knn_graph_delta_to_bytes(delta));
    KnnGraph rewired = a;
    apply_knn_graph_delta(rewired, decoded);
    EXPECT_EQ(knn_graph_checksum(rewired), knn_graph_checksum(b));
  }
}

TEST(KnnGraphDeltaTest, EmptyDeltaFastPath) {
  Rng rng(405);
  const KnnGraph a = random_knn_graph(50, 4, rng);
  const KnnGraphDelta delta = knn_graph_delta(a, a);
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(delta.rows.size(), 0u);

  KnnGraph patched = a;
  apply_knn_graph_delta(patched, delta);
  EXPECT_EQ(knn_graph_checksum(patched), knn_graph_checksum(a));

  // An empty delta's wire form is just the fixed header + checksum.
  const auto bytes = knn_graph_delta_to_bytes(delta);
  EXPECT_EQ(bytes.size(), 20u + 8u);
  EXPECT_TRUE(knn_graph_delta_from_bytes(bytes).empty());
}

TEST(KnnGraphDeltaTest, FullDeltaResyncsFromAnyBase) {
  Rng rng(406);
  const KnnGraph target = random_knn_graph(60, 5, rng);
  const KnnGraphDelta full = full_knn_graph_delta(target);
  EXPECT_EQ(full.rows.size(), 60u);

  KnnGraph from_empty(60, 5);
  apply_knn_graph_delta(from_empty, full);
  EXPECT_EQ(knn_graph_checksum(from_empty), knn_graph_checksum(target));

  KnnGraph from_other = random_knn_graph(60, 5, rng);
  apply_knn_graph_delta(from_other, full);
  EXPECT_EQ(knn_graph_checksum(from_other), knn_graph_checksum(target));
}

TEST(KnnGraphDeltaTest, SerializationIsChecksumStable) {
  Rng rng(407);
  const KnnGraph a = random_knn_graph(70, 4, rng);
  KnnGraph b = a;
  churn_rows(b, 20, rng);
  const KnnGraphDelta delta = knn_graph_delta(a, b);

  const auto once = knn_graph_delta_to_bytes(delta);
  const auto twice = knn_graph_delta_to_bytes(delta);
  EXPECT_EQ(once, twice);

  const KnnGraphDelta decoded = knn_graph_delta_from_bytes(once);
  EXPECT_EQ(knn_graph_delta_to_bytes(decoded), once);
  EXPECT_EQ(knn_graph_delta_checksum(decoded),
            knn_graph_delta_checksum(delta));
}

TEST(KnnGraphDeltaTest, RejectsCorruptBytes) {
  Rng rng(408);
  const KnnGraph a = random_knn_graph(30, 3, rng);
  KnnGraph b = a;
  churn_rows(b, 10, rng);
  auto bytes = knn_graph_delta_to_bytes(knn_graph_delta(a, b));

  EXPECT_THROW((void)knn_graph_delta_from_bytes({}), std::runtime_error);

  auto truncated = bytes;
  truncated.resize(truncated.size() - 5);
  EXPECT_THROW((void)knn_graph_delta_from_bytes(truncated),
               std::runtime_error);

  auto bad_magic = bytes;
  bad_magic[0] = std::byte{'X'};
  EXPECT_THROW((void)knn_graph_delta_from_bytes(bad_magic),
               std::runtime_error);

  // A flipped payload byte must trip the trailing checksum.
  auto flipped = bytes;
  flipped[bytes.size() / 2] ^= std::byte{0x01};
  EXPECT_THROW((void)knn_graph_delta_from_bytes(flipped),
               std::runtime_error);
}

TEST(KnnGraphDeltaTest, CorruptCountsCannotDriveHugeAllocations) {
  // A hand-forged header claiming k ~= 2^32 and a row with a neighbour
  // count just under it passes the count<=k check; the parser must still
  // reject it from the byte budget BEFORE reserving — a typed error, not
  // a 34 GB allocation.
  std::vector<std::byte> evil;
  // Sized up front: growing from empty through append_record's resize
  // makes GCC 12 at -O3 report a false -Warray-bounds on the inlined
  // value-initialisation. The bytes written are the same either way.
  evil.reserve(40);
  for (const char c : {'K', 'D', 'L', 'T'}) append_record(evil, c);
  append_record(evil, std::uint32_t{1});           // version
  append_record(evil, std::uint32_t{10});          // n
  append_record(evil, std::uint32_t{0xfffffff0});  // k (corrupt)
  append_record(evil, std::uint32_t{1});           // rows
  append_record(evil, std::uint32_t{0});           // row vertex
  append_record(evil, std::uint32_t{0xffffffe0});  // neighbour count
  append_record(evil, std::uint64_t{0});           // bogus checksum
  try {
    (void)knn_graph_delta_from_bytes(evil);
    FAIL() << "forged delta parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("count exceeds input size"),
              std::string::npos)
        << e.what();
  }
}

TEST(KnnGraphDeltaTest, RejectsShapeMismatches) {
  Rng rng(409);
  const KnnGraph a = random_knn_graph(20, 3, rng);
  const KnnGraph wrong_n = random_knn_graph(21, 3, rng);
  const KnnGraph wrong_k = random_knn_graph(20, 4, rng);
  EXPECT_THROW((void)knn_graph_delta(a, wrong_n), std::invalid_argument);
  EXPECT_THROW((void)knn_graph_delta(a, wrong_k), std::invalid_argument);

  KnnGraph target = wrong_n;
  EXPECT_THROW(apply_knn_graph_delta(target, full_knn_graph_delta(a)),
               std::invalid_argument);
}

TEST(DegreeStatsTest, RegularGraphHasZeroGini) {
  const Digraph g(ring_lattice(20, 3));
  const DegreeSummary s = summarize_degrees(g);
  EXPECT_NEAR(s.degree_gini, 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.mean_out_degree, 3.0);
}

TEST(DegreeStatsTest, HistogramSumsToVertexCount) {
  Rng rng(31);
  const Digraph g(erdos_renyi(100, 400, rng));
  const auto hist = degree_histogram(g);
  std::size_t total = 0;
  for (std::size_t c : hist) total += c;
  EXPECT_EQ(total, 100u);
}

TEST(DegreeStatsTest, EmptyGraphSummary) {
  const Digraph g{EdgeList{}};
  const DegreeSummary s = summarize_degrees(g);
  EXPECT_EQ(s.num_vertices, 0u);
  EXPECT_EQ(s.num_edges, 0u);
}

}  // namespace
}  // namespace knnpc
