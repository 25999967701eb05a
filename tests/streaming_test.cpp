// Tests for the out-of-core streaming substrates: the record shard
// writers (phase 2's pair bundles, phase 4's score spill) and the
// engine's score-spilling mode.
#include <gtest/gtest.h>

#include "core/engine.h"
#include "profiles/generators.h"
#include "storage/shard_writer.h"
#include "util/rng.h"

namespace knnpc {
namespace {

// ----------------------------------------------------------- shard writer

TEST(ShardWriterTest, RoutesRecordsToShards) {
  ScratchDir dir("shards");
  TupleShardWriter writer(dir.path(), "tuples", 4, 1 << 20);
  writer.add(0, {1, 2});
  writer.add(0, {3, 4});
  writer.add(3, {5, 6});
  writer.finish();
  EXPECT_EQ(writer.shard_records(0), 2u);
  EXPECT_EQ(writer.shard_records(1), 0u);
  EXPECT_EQ(writer.shard_records(3), 1u);
  const auto shard0 = read_record_shard<Tuple>(writer.shard_path(0));
  ASSERT_EQ(shard0.size(), 2u);
  EXPECT_EQ(shard0[0], (Tuple{1, 2}));
  EXPECT_EQ(shard0[1], (Tuple{3, 4}));
  // Never-written shard: empty, not an error.
  EXPECT_TRUE(read_record_shard<Tuple>(writer.shard_path(1)).empty());
}

TEST(ShardWriterTest, TinyBudgetForcesIncrementalFlushes) {
  ScratchDir dir("shards-flush");
  IoAccountant accountant;
  // Budget of ~8 tuples across 2 shards.
  TupleShardWriter writer(dir.path(), "tuples", 2, 8 * sizeof(Tuple),
                          &accountant);
  for (VertexId i = 0; i < 1000; ++i) {
    writer.add(i % 2, {i, i + 1});
  }
  // Flushes must have happened *during* the adds, not only at finish().
  EXPECT_GT(accountant.counters().write_ops, 1u);
  writer.finish();
  const auto shard0 = read_record_shard<Tuple>(writer.shard_path(0));
  const auto shard1 = read_record_shard<Tuple>(writer.shard_path(1));
  EXPECT_EQ(shard0.size(), 500u);
  EXPECT_EQ(shard1.size(), 500u);
  // Append order preserved per shard.
  for (std::size_t i = 1; i < shard0.size(); ++i) {
    EXPECT_LT(shard0[i - 1].s, shard0[i].s);
  }
}

TEST(ShardWriterTest, RemovesStaleFilesOnConstruction) {
  ScratchDir dir("shards-stale");
  {
    TupleShardWriter writer(dir.path(), "tuples", 2, 1 << 20);
    writer.add(0, {1, 2});
    writer.finish();
  }
  TupleShardWriter fresh(dir.path(), "tuples", 2, 1 << 20);
  fresh.finish();
  EXPECT_TRUE(read_record_shard<Tuple>(fresh.shard_path(0)).empty());
}

TEST(ShardWriterTest, AddAfterFinishThrows) {
  ScratchDir dir("shards-finish");
  TupleShardWriter writer(dir.path(), "tuples", 1, 1 << 20);
  writer.finish();
  EXPECT_THROW(writer.add(0, {1, 2}), std::logic_error);
}

TEST(ShardWriterTest, ScoredTupleShards) {
  ScratchDir dir("shards-scored");
  RecordShardWriter<ScoredTuple> writer(dir.path(), "scores", 2, 1 << 20);
  writer.add(1, {7, 9, 0.5f});
  writer.finish();
  const auto back = read_record_shard<ScoredTuple>(writer.shard_path(1));
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0], (ScoredTuple{7, 9, 0.5f}));
}

// ------------------------------------------------- engine score spilling

TEST(ScoreSpillTest, SpillingMatchesInMemoryTopK) {
  Rng rng(17);
  ClusteredGenConfig pconfig;
  pconfig.base.num_users = 100;
  pconfig.base.num_items = 300;
  pconfig.num_clusters = 5;
  const auto profiles = clustered_profiles(pconfig, rng);

  EngineConfig in_memory;
  in_memory.k = 5;
  in_memory.num_partitions = 4;
  EngineConfig spilled = in_memory;
  spilled.spill_scores = true;
  spilled.shard_buffer_bytes = 1 << 12;  // force frequent flushes

  KnnEngine a(in_memory, profiles);
  KnnEngine b(spilled, profiles);
  for (int iter = 0; iter < 3; ++iter) {
    a.run_iteration();
    b.run_iteration();
    for (VertexId v = 0; v < 100; ++v) {
      const auto na = a.graph().neighbors(v);
      const auto nb = b.graph().neighbors(v);
      ASSERT_EQ(na.size(), nb.size()) << "iter=" << iter << " v=" << v;
      for (std::size_t i = 0; i < na.size(); ++i) {
        EXPECT_EQ(na[i].id, nb[i].id) << "iter=" << iter << " v=" << v;
      }
    }
  }
}

TEST(ScoreSpillTest, SpillingCostsExtraIo) {
  Rng rng(19);
  ClusteredGenConfig pconfig;
  pconfig.base.num_users = 80;
  pconfig.base.num_items = 200;
  pconfig.num_clusters = 4;
  const auto profiles = clustered_profiles(pconfig, rng);
  EngineConfig base;
  base.k = 5;
  base.num_partitions = 4;
  EngineConfig spill = base;
  spill.spill_scores = true;
  KnnEngine a(base, profiles);
  KnnEngine b(spill, profiles);
  const auto sa = a.run_iteration();
  const auto sb = b.run_iteration();
  EXPECT_GT(sb.io.bytes_written, sa.io.bytes_written);
  EXPECT_GT(sb.io.bytes_read, sa.io.bytes_read);
}

}  // namespace
}  // namespace knnpc
