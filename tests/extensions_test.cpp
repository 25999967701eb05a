// Tests for the extension features: KNN-graph serialisation and
// checkpointing, the cost-aware heuristic, and the engine's
// reverse-candidate / sampling / incremental-repartitioning options.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/brute_force.h"
#include "core/engine.h"
#include "core/metrics.h"
#include "graph/generators.h"
#include "graph/knn_graph_io.h"
#include "partition/partitioner.h"
#include "pigraph/heuristics.h"
#include "pigraph/simulator.h"
#include "profiles/generators.h"
#include "storage/partition_store.h"
#include "util/rng.h"

namespace knnpc {
namespace {
namespace fs = std::filesystem;

std::vector<SparseProfile> clustered(VertexId n, std::uint32_t clusters,
                                     std::uint64_t seed = 7) {
  Rng rng(seed);
  ClusteredGenConfig config;
  config.base.num_users = n;
  config.base.num_items = 400;
  config.num_clusters = clusters;
  return clustered_profiles(config, rng);
}

// ---------------------------------------------------------- knn graph io --

TEST(KnnGraphIoTest, RoundTripsThroughFile) {
  KnnGraph graph(5, 3);
  graph.set_neighbors(0, {{1, 0.9f}, {2, 0.5f}});
  graph.set_neighbors(4, {{0, 0.1f}});
  ScratchDir dir("knng");
  const fs::path path = dir.path() / "graph.knng";
  save_knn_graph_file(path, graph);
  const KnnGraph loaded = load_knn_graph_file(path);
  EXPECT_EQ(loaded.num_vertices(), 5u);
  EXPECT_EQ(loaded.k(), 3u);
  for (VertexId v = 0; v < 5; ++v) {
    const auto a = graph.neighbors(v);
    const auto b = loaded.neighbors(v);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]);
    }
  }
}

TEST(KnnGraphIoTest, BadMagicThrows) {
  std::stringstream stream("NOTAGRAPH");
  EXPECT_THROW(load_knn_graph(stream), std::runtime_error);
}

TEST(KnnGraphIoTest, TruncationThrows) {
  KnnGraph graph(3, 2);
  graph.set_neighbors(0, {{1, 0.9f}});
  std::stringstream stream;
  save_knn_graph(stream, graph);
  std::string bytes = stream.str();
  bytes.resize(bytes.size() / 2);
  std::stringstream truncated(bytes);
  EXPECT_THROW(load_knn_graph(truncated), std::runtime_error);
}

TEST(KnnGraphIoTest, OutOfRangeNeighborRejected) {
  // Hand-craft a file whose neighbour id exceeds n.
  KnnGraph graph(3, 2);
  graph.set_neighbors(0, {{2, 0.9f}});
  std::stringstream stream;
  save_knn_graph(stream, graph);
  std::string bytes = stream.str();
  // The neighbour id (=2) sits 4 bytes after the per-vertex count that
  // follows the 16-byte header; bump it out of range.
  const std::size_t id_offset = 4 + 4 + 4 + 4 + 4;
  bytes[id_offset] = 9;
  std::stringstream corrupt(bytes);
  EXPECT_THROW(load_knn_graph(corrupt), std::runtime_error);
}

// ----------------------------------------------------- cost-aware heuristic

TEST(CostAwareHeuristicTest, ProducesValidSchedules) {
  Rng rng(73);
  const PiGraph pi = PiGraph::from_digraph(
      Digraph(chung_lu_directed(80, 500, 2.3, rng)));
  const CostAwareHeuristic heuristic;
  EXPECT_TRUE(is_valid_schedule(pi, heuristic.schedule(pi)));
}

TEST(CostAwareHeuristicTest, BeatsRandomOnOperations) {
  Rng rng(79);
  const PiGraph pi = PiGraph::from_digraph(
      Digraph(chung_lu_directed(120, 900, 2.3, rng)));
  const LoadUnloadSimulator sim(2);
  const auto cost_aware = sim.run(pi, CostAwareHeuristic{});
  const auto random = sim.run(pi, RandomHeuristic{});
  EXPECT_LT(cost_aware.operations(), random.operations());
}

TEST(CostAwareHeuristicTest, PrefersHeavyTupleBundlesWhenCold) {
  // Two disconnected pairs; the one with more tuples should be first
  // (equal byte sizes, so work density decides).
  PiGraph pi(4);
  pi.add_edge(0, 1, 5);
  pi.add_edge(2, 3, 500);
  pi.finalize();
  const Schedule s = CostAwareHeuristic{}.schedule(pi);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(pi.pair(s[0]).tuples, 500u);
}

TEST(CostAwareHeuristicTest, AvoidsExpensivePartitionsUntilWorthIt) {
  // Pair {0,1} has few tuples but partition 2 is huge: with byte weights,
  // the cheap pair wins even though the heavy pair has more tuples.
  PiGraph pi(3);
  pi.add_edge(0, 1, 10);
  pi.add_edge(0, 2, 12);
  pi.finalize();
  const std::vector<std::uint64_t> bytes{1 << 10, 1 << 10, 200 << 20};
  const Schedule s =
      CostAwareHeuristic{bytes, IoModel::hdd(), 0.2}.schedule(pi);
  EXPECT_EQ(pi.pair(s[0]).b, 1u);  // the small pair first
}

TEST(CostAwareHeuristicTest, FactoryKnowsIt) {
  EXPECT_EQ(make_heuristic("cost-aware")->name(), "cost-aware");
}

// --------------------------------------------------- engine: new options --

TEST(EngineExtensionsTest, ReverseCandidatesImproveFirstIterationCoverage) {
  EngineConfig forward;
  forward.k = 5;
  forward.num_partitions = 4;
  forward.random_candidates = 0;
  EngineConfig both = forward;
  both.include_reverse = true;
  KnnEngine forward_engine(forward, clustered(100, 5, 81));
  KnnEngine both_engine(both, clustered(100, 5, 81));
  const auto f = forward_engine.run_iteration();
  const auto b = both_engine.run_iteration();
  EXPECT_GT(b.unique_tuples, f.unique_tuples);
}

TEST(EngineExtensionsTest, ReverseCandidatesStillConverge) {
  EngineConfig config;
  config.k = 8;
  config.num_partitions = 4;
  config.include_reverse = true;
  auto profiles = clustered(150, 6, 82);
  InMemoryProfileStore reference{profiles};
  KnnEngine engine(config, std::move(profiles));
  engine.run(15, 0.005);
  const KnnGraph exact =
      brute_force_knn(reference, config.k, config.measure, 8);
  EXPECT_GT(recall_at_k(engine.graph(), exact), 0.85);
}

TEST(EngineExtensionsTest, SamplingReducesTupleVolume) {
  EngineConfig full;
  full.k = 5;
  full.num_partitions = 4;
  full.random_candidates = 0;
  EngineConfig sampled = full;
  sampled.sample_rate = 0.3;
  KnnEngine full_engine(full, clustered(100, 5, 83));
  KnnEngine sampled_engine(sampled, clustered(100, 5, 83));
  const auto f = full_engine.run_iteration();
  const auto s = sampled_engine.run_iteration();
  EXPECT_LT(s.unique_tuples, f.unique_tuples);
  // The direct edges of G(t) are never sampled away, so at least n*k
  // candidates remain.
  EXPECT_GE(s.unique_tuples, 100u * 5u / 2u);
}

TEST(EngineExtensionsTest, SampledRunStillConverges) {
  EngineConfig config;
  config.k = 8;
  config.num_partitions = 4;
  config.sample_rate = 0.5;
  auto profiles = clustered(150, 6, 84);
  InMemoryProfileStore reference{profiles};
  KnnEngine engine(config, std::move(profiles));
  engine.run(20, 0.005);
  const KnnGraph exact =
      brute_force_knn(reference, config.k, config.measure, 8);
  EXPECT_GT(recall_at_k(engine.graph(), exact), 0.8);
}

TEST(EngineExtensionsTest, IncrementalRepartitioningMatchesQuality) {
  EngineConfig always;
  always.k = 6;
  always.num_partitions = 6;
  always.partitioner = "greedy";
  EngineConfig lazy = always;
  lazy.repartition_every = 4;
  auto profiles = clustered(120, 6, 85);
  InMemoryProfileStore reference{profiles};
  KnnEngine always_engine(always, profiles);
  KnnEngine lazy_engine(lazy, profiles);
  always_engine.run(10, 0.005);
  lazy_engine.run(10, 0.005);
  const KnnGraph exact =
      brute_force_knn(reference, always.k, always.measure, 8);
  const double recall_always = recall_at_k(always_engine.graph(), exact);
  const double recall_lazy = recall_at_k(lazy_engine.graph(), exact);
  EXPECT_GT(recall_lazy, recall_always - 0.05);
}

TEST(EngineExtensionsTest, CheckpointFileIsWrittenAndLoadable) {
  ScratchDir dir("ckpt");
  EngineConfig config;
  config.k = 5;
  config.num_partitions = 4;
  config.checkpoint = true;
  config.work_dir = (dir.path() / "engine").string();
  KnnEngine engine(config, clustered(60, 3, 86));
  engine.run_iteration();
  const fs::path ckpt = fs::path(config.work_dir) / "checkpoint_latest.knng";
  ASSERT_TRUE(fs::exists(ckpt));
  const KnnGraph loaded = load_knn_graph_file(ckpt);
  EXPECT_EQ(loaded.num_vertices(), 60u);
  // Resume: a new engine seeded with the checkpoint continues cleanly.
  EngineConfig resumed_config = config;
  resumed_config.checkpoint = false;
  KnnEngine resumed(resumed_config, clustered(60, 3, 86));
  resumed.set_initial_graph(loaded);
  const IterationStats s = resumed.run_iteration();
  EXPECT_GT(s.unique_tuples, 0u);
}

// ------------------------------------------------------ failure injection --

TEST(FailureInjectionTest, MissingPartitionFileThrows) {
  ScratchDir dir("missing");
  PartitionStore store(dir.path());
  EXPECT_THROW((void)store.load(0), std::runtime_error);
}

TEST(FailureInjectionTest, CorruptProfileFileDetected) {
  Rng rng(91);
  const EdgeList graph = erdos_renyi(20, 60, rng);
  const auto assignment =
      make_partitioner("range")->assign(Digraph(graph), 2);
  ProfileGenConfig pconfig;
  pconfig.num_users = 20;
  InMemoryProfileStore profiles(uniform_profiles(pconfig, rng));
  ScratchDir dir("corrupt");
  PartitionStore store(dir.path());
  store.write_all(graph, assignment, profiles);
  // Truncate partition 0's profile file.
  const fs::path prof = dir.path() / "part_0.prof";
  const auto size = fs::file_size(prof);
  fs::resize_file(prof, size / 2);
  EXPECT_THROW((void)store.load(0), std::runtime_error);
}

TEST(FailureInjectionTest, TruncatedEdgeFileDropsPartialRecordOnly) {
  Rng rng(93);
  const EdgeList graph = erdos_renyi(20, 60, rng);
  const auto assignment =
      make_partitioner("range")->assign(Digraph(graph), 2);
  ProfileGenConfig pconfig;
  pconfig.num_users = 20;
  InMemoryProfileStore profiles(uniform_profiles(pconfig, rng));
  ScratchDir dir("trunc-edge");
  PartitionStore store(dir.path());
  store.write_all(graph, assignment, profiles);
  const fs::path out_file = dir.path() / "part_0.out";
  const auto size = fs::file_size(out_file);
  fs::resize_file(out_file, size - 3);  // partial trailing record
  const PartitionData data = store.load_edges(0);
  // from_bytes drops the partial record; the remaining records parse.
  EXPECT_EQ(data.out_edges.size(), size / sizeof(Edge) - 1);
}

}  // namespace
}  // namespace knnpc
