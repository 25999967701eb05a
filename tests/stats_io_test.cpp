// Tests for core/stats_io (JSON export), the per-iteration recall-tracking
// option, and the Table-1 shape reproduction guard.
#include <gtest/gtest.h>

#include <sstream>

#include "core/datasets.h"
#include "core/engine.h"
#include "core/stats_io.h"
#include "graph/digraph.h"
#include "pigraph/heuristics.h"
#include "pigraph/simulator.h"
#include "profiles/generators.h"
#include "util/rng.h"

namespace knnpc {
namespace {

// ---------------------------------------------------------------- json --

TEST(StatsIoTest, IterationJsonContainsEveryField) {
  IterationStats stats;
  stats.iteration = 3;
  stats.unique_tuples = 77;
  stats.io.bytes_read = 1000;
  stats.change_rate = 0.25;
  stats.partition_cost_total = 42;
  stats.sampled_recall = 0.875;
  std::ostringstream out;
  write_iteration_json(out, stats);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"iteration\":3"), std::string::npos);
  EXPECT_NE(json.find("\"unique_tuples\":77"), std::string::npos);
  EXPECT_NE(json.find("\"bytes_read\":1000"), std::string::npos);
  EXPECT_NE(json.find("\"change_rate\":0.25"), std::string::npos);
  EXPECT_NE(json.find("\"partition_cost_total\":42"), std::string::npos);
  EXPECT_NE(json.find("\"sampled_recall\":0.875"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(StatsIoTest, OptionalFieldsOmittedWhenAbsent) {
  IterationStats stats;
  std::ostringstream out;
  write_iteration_json(out, stats);
  EXPECT_EQ(out.str().find("partition_cost_total"), std::string::npos);
  EXPECT_EQ(out.str().find("sampled_recall"), std::string::npos);
}

TEST(StatsIoTest, RunJsonWrapsIterations) {
  RunStats run;
  run.converged = true;
  run.total_seconds = 1.5;
  run.iterations.resize(2);
  run.iterations[0].iteration = 0;
  run.iterations[1].iteration = 1;
  const std::string json = run_to_json(run);
  EXPECT_NE(json.find("\"converged\":true"), std::string::npos);
  EXPECT_NE(json.find("\"total_seconds\":1.5"), std::string::npos);
  // Two iteration objects, comma-separated inside an array.
  EXPECT_NE(json.find("\"iterations\":["), std::string::npos);
  EXPECT_NE(json.find("\"iteration\":0"), std::string::npos);
  EXPECT_NE(json.find("\"iteration\":1"), std::string::npos);
}

TEST(StatsIoTest, ShardWorkersJsonCarriesSupervisionCounters) {
  // knnpc_run --shard-stats-json writes this export for scripts to parse,
  // so the field names and nesting are a contract, not a convenience.
  std::vector<ShardedIterationStats> iterations(2);
  iterations[0].merged.iteration = 0;
  iterations[0].workers.resize(2);
  iterations[0].workers[0].shard = 0;
  iterations[0].workers[0].spawn_count = 1;
  iterations[1].merged.iteration = 1;
  iterations[1].workers.resize(2);
  iterations[1].workers[0].shard = 0;
  iterations[1].workers[0].resync_count = 1;
  std::ostringstream out;
  write_shard_workers_json(out, iterations);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"iterations\":["), std::string::npos);
  EXPECT_NE(json.find("\"iteration\":0"), std::string::npos);
  EXPECT_NE(json.find("\"iteration\":1"), std::string::npos);
  EXPECT_NE(json.find("\"workers\":["), std::string::npos);
  EXPECT_NE(json.find("\"spawn_count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"resync_count\":1"), std::string::npos);
}

TEST(StatsIoTest, RealRunSerialises) {
  Rng rng(3);
  ClusteredGenConfig gen;
  gen.base.num_users = 60;
  gen.base.num_items = 200;
  gen.num_clusters = 3;
  EngineConfig config;
  config.k = 4;
  config.num_partitions = 3;
  KnnEngine engine(config, clustered_profiles(gen, rng));
  const RunStats run = engine.run(3, 0.0);
  const std::string json = run_to_json(run);
  EXPECT_GT(json.size(), 200u);
  // Every iteration serialised.
  std::size_t count = 0;
  for (std::size_t pos = json.find("\"iteration\":");
       pos != std::string::npos;
       pos = json.find("\"iteration\":", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, run.iterations.size());
}

// ------------------------------------------------------- recall tracking --

TEST(RecallTrackingTest, PopulatedWhenConfiguredAndRises) {
  Rng rng(5);
  ClusteredGenConfig gen;
  gen.base.num_users = 120;
  gen.base.num_items = 300;
  gen.num_clusters = 6;
  EngineConfig config;
  config.k = 6;
  config.num_partitions = 4;
  config.recall_samples = 30;
  KnnEngine engine(config, clustered_profiles(gen, rng));
  const RunStats run = engine.run(8, 0.005);
  ASSERT_GE(run.iterations.size(), 2u);
  for (const auto& it : run.iterations) {
    ASSERT_TRUE(it.sampled_recall.has_value());
    EXPECT_GE(*it.sampled_recall, 0.0);
    EXPECT_LE(*it.sampled_recall, 1.0);
  }
  EXPECT_GT(*run.iterations.back().sampled_recall,
            *run.iterations.front().sampled_recall);
  EXPECT_GT(*run.iterations.back().sampled_recall, 0.8);
}

TEST(RecallTrackingTest, AbsentByDefault) {
  Rng rng(7);
  ClusteredGenConfig gen;
  gen.base.num_users = 40;
  gen.base.num_items = 100;
  gen.num_clusters = 2;
  EngineConfig config;
  config.k = 3;
  config.num_partitions = 2;
  KnnEngine engine(config, clustered_profiles(gen, rng));
  EXPECT_FALSE(engine.run_iteration().sampled_recall.has_value());
}

// ------------------------------------------ Table-1 reproduction guards --

// The headline claim must hold for every dataset stand-in and across
// seeds: Sequential needs the most operations, the degree heuristics
// fewer, in the paper's order. Guarded on the two smallest rows so the
// test stays fast.
class Table1ShapeTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Table1ShapeTest, DegreeHeuristicsBeatSequentialAcrossSeeds) {
  const LoadUnloadSimulator sim(2);
  for (const char* name : {"gen-rel", "gnutella"}) {
    const Table1Dataset& row = table1_dataset(name);
    const EdgeList graph = generate_table1_graph(row, GetParam());
    const PiGraph pi = PiGraph::from_digraph(Digraph(graph));
    const auto seq = sim.run(pi, SequentialHeuristic{}).operations();
    const auto hl = sim.run(pi, DegreeHeuristic{true}).operations();
    const auto lh = sim.run(pi, DegreeHeuristic{false}).operations();
    EXPECT_LT(hl, seq) << name << " seed=" << GetParam();
    EXPECT_LT(lh, seq) << name << " seed=" << GetParam();
    EXPECT_LE(lh, hl) << name << " seed=" << GetParam();
    // Savings in the paper's single-digit-to-15% band.
    EXPECT_GT(static_cast<double>(lh) / static_cast<double>(seq), 0.80)
        << name;
    EXPECT_LT(static_cast<double>(lh) / static_cast<double>(seq), 0.99)
        << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Table1ShapeTest,
                         ::testing::Values(2014, 2015, 2016));

}  // namespace
}  // namespace knnpc
