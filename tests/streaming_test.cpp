// Tests for the out-of-core streaming substrate: the record shard
// writers behind phase 2's pair bundles.
#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "storage/block_file.h"
#include "storage/shard_writer.h"

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

// /dev/full fails every write with ENOSPC, like a full disk. A small
// bundle sits in the stream's buffer until the stream is flushed, so a
// writer that checks its stream before that flush reports success, and
// read_record_shard later drops the missing records without an error.
bool has_dev_full() { return std::filesystem::exists("/dev/full"); }

TEST(ShardWriterTest, FullDiskFailsTheFlush) {
  if (!has_dev_full()) GTEST_SKIP() << "/dev/full is absent";
  ScratchDir dir("shards-full-disk");
  IoAccountant accountant;
  TupleShardWriter writer(dir.path(), "tuples", 2, 1 << 20, &accountant);
  // The constructor deletes stale shard files, so link after it.
  std::filesystem::create_symlink("/dev/full", writer.shard_path(0));
  writer.add(0, {1, 2});
  EXPECT_THROW(writer.finish(), std::runtime_error);
  EXPECT_EQ(accountant.counters().bytes_written, 0u);
}

TEST(ShardWriterTest, FullDiskFailsWriteRecordShard) {
  if (!has_dev_full()) GTEST_SKIP() << "/dev/full is absent";
  ScratchDir dir("shard-full-disk");
  const std::filesystem::path path =
      record_shard_path(dir.path(), "tuples", 0);
  std::filesystem::create_symlink("/dev/full", path);
  IoAccountant accountant;
  const std::vector<Tuple> records = {{1, 2}, {3, 4}};
  EXPECT_THROW(write_record_shard<Tuple>(path, records, &accountant),
               std::runtime_error);
  EXPECT_EQ(accountant.counters().bytes_written, 0u);
}

TEST(ShardWriterTest, AddAfterFinishThrows) {
  ScratchDir dir("shards-finish");
  TupleShardWriter writer(dir.path(), "tuples", 1, 1 << 20);
  writer.finish();
  EXPECT_THROW(writer.add(0, {1, 2}), std::logic_error);
}

}  // namespace
}  // namespace knnpc
