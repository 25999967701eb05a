// Tests for storage/: block files, I/O models, partition store and cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "graph/knn_graph.h"
#include "partition/hash_partitioner.h"
#include "partition/range_partitioner.h"
#include "profiles/generators.h"
#include "storage/block_file.h"
#include "storage/io_model.h"
#include "storage/partition_store.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace knnpc {
namespace {
namespace fs = std::filesystem;

// ------------------------------------------------------------ block file --

TEST(BlockFileTest, WriteReadRoundTripAndCounters) {
  ScratchDir dir("blockfile");
  IoCounters counters;
  std::vector<std::byte> payload(1000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i & 0xff);
  }
  const fs::path path = dir.path() / "sub" / "data.bin";
  write_file(path, payload, counters);
  EXPECT_EQ(counters.bytes_written, 1000u);
  EXPECT_EQ(counters.write_ops, 1u);
  const auto back = read_file(path, counters);
  EXPECT_EQ(back, payload);
  EXPECT_EQ(counters.bytes_read, 1000u);
  EXPECT_EQ(counters.read_ops, 1u);
}

TEST(BlockFileTest, WriteIsAtomicReplace) {
  ScratchDir dir("atomic");
  IoCounters counters;
  const fs::path path = dir.path() / "data.bin";
  write_file(path, std::vector<std::byte>(10), counters);
  write_file(path, std::vector<std::byte>(20), counters);
  EXPECT_EQ(knnpc::file_size(path), 20u);
  EXPECT_FALSE(fs::exists(path.string() + ".tmp"));
}

TEST(BlockFileTest, ReadMissingFileThrows) {
  IoCounters counters;
  EXPECT_THROW(read_file("/nonexistent/nope.bin", counters),
               std::runtime_error);
}

TEST(BlockFileTest, EmptyPayloadRoundTrips) {
  ScratchDir dir("empty");
  IoCounters counters;
  const fs::path path = dir.path() / "empty.bin";
  write_file(path, {}, counters);
  EXPECT_TRUE(read_file(path, counters).empty());
}

TEST(BlockFileTest, FileSizeOfMissingIsZero) {
  EXPECT_EQ(knnpc::file_size("/nonexistent/nope.bin"), 0u);
}

TEST(BlockFileTest, ScratchDirIsRemovedOnDestruction) {
  fs::path kept;
  {
    ScratchDir dir("transient");
    kept = dir.path();
    EXPECT_TRUE(fs::exists(kept));
  }
  EXPECT_FALSE(fs::exists(kept));
}

TEST(IoCountersTest, ArithmeticWorks) {
  IoCounters a{100, 50, 2, 1};
  IoCounters b{40, 20, 1, 1};
  a += b;
  EXPECT_EQ(a.bytes_read, 140u);
  const IoCounters d = a - b;
  EXPECT_EQ(d.bytes_read, 100u);
  EXPECT_EQ(d.write_ops, 1u);
}

// -------------------------------------------------------------- io model --

TEST(IoModelTest, PresetsAreOrderedBySpeed) {
  const auto hdd = IoModel::hdd();
  const auto ssd = IoModel::ssd();
  const auto nvme = IoModel::nvme();
  const std::uint64_t mb = 1 << 20;
  EXPECT_GT(hdd.op_cost_us(mb), ssd.op_cost_us(mb));
  EXPECT_GT(ssd.op_cost_us(mb), nvme.op_cost_us(mb));
}

TEST(IoModelTest, SeekDominatesSmallTransfersOnHdd) {
  const auto hdd = IoModel::hdd();
  // A 4 KiB op on HDD is nearly all seek.
  EXPECT_NEAR(hdd.op_cost_us(4096), hdd.seek_us, hdd.seek_us * 0.05);
}

TEST(IoModelTest, ParseRoundTrip) {
  EXPECT_EQ(IoModel::parse("hdd").name, "hdd");
  EXPECT_EQ(IoModel::parse("nvme").name, "nvme");
  EXPECT_THROW(IoModel::parse("floppy"), std::invalid_argument);
}

TEST(IoAccountantTest, AccumulatesBytesAndModeledTime) {
  IoAccountant acc(IoModel::ssd());
  acc.charge_read(1 << 20);
  acc.charge_write(1 << 20);
  EXPECT_EQ(acc.counters().bytes_read, 1u << 20);
  EXPECT_EQ(acc.counters().bytes_written, 1u << 20);
  EXPECT_EQ(acc.counters().read_ops, 1u);
  EXPECT_GT(acc.modeled_us(), 0.0);
  acc.reset();
  EXPECT_EQ(acc.counters().read_ops, 0u);
  EXPECT_EQ(acc.modeled_us(), 0.0);
}

// -------------------------------------------------------- partition store --

struct StoreFixture {
  ScratchDir dir{"pstore"};
  EdgeList graph;
  PartitionAssignment assignment;
  InMemoryProfileStore profiles;

  explicit StoreFixture(VertexId n = 40, std::size_t edges = 200,
                        PartitionId m = 4) {
    Rng rng(55);
    graph = erdos_renyi(n, edges, rng);
    const Digraph dg(graph);
    assignment = RangePartitioner{}.assign(dg, m);
    ProfileGenConfig config;
    config.num_users = n;
    config.num_items = 100;
    for (auto& p : uniform_profiles(config, rng)) {
      profiles.push_back(std::move(p));
    }
  }
};

TEST(PartitionStoreTest, WriteLoadRoundTrip) {
  StoreFixture fx;
  PartitionStore store(fx.dir.path());
  store.write_all(fx.graph, fx.assignment, fx.profiles);
  EXPECT_EQ(store.num_partitions(), 4u);

  std::size_t total_vertices = 0;
  std::size_t total_in = 0;
  std::size_t total_out = 0;
  for (PartitionId p = 0; p < 4; ++p) {
    const PartitionData data = store.load(p);
    EXPECT_EQ(data.id, p);
    total_vertices += data.vertices.size();
    total_in += data.in_edges.size();
    total_out += data.out_edges.size();
    // Every member's profile must round-trip.
    for (std::size_t i = 0; i < data.vertices.size(); ++i) {
      EXPECT_EQ(data.profiles[i], fx.profiles.get(data.vertices[i]));
      EXPECT_EQ(*data.profile_of(data.vertices[i]), data.profiles[i]);
    }
  }
  EXPECT_EQ(total_vertices, 40u);
  // Each edge appears exactly once as an in-edge and once as an out-edge.
  EXPECT_EQ(total_in, fx.graph.edges.size());
  EXPECT_EQ(total_out, fx.graph.edges.size());
}

TEST(PartitionStoreTest, EdgeFilesAreSortedByBridge) {
  StoreFixture fx;
  PartitionStore store(fx.dir.path());
  store.write_all(fx.graph, fx.assignment, fx.profiles);
  for (PartitionId p = 0; p < 4; ++p) {
    const PartitionData data = store.load(p);
    for (std::size_t i = 1; i < data.in_edges.size(); ++i) {
      EXPECT_LE(data.in_edges[i - 1].dst, data.in_edges[i].dst);
    }
    for (std::size_t i = 1; i < data.out_edges.size(); ++i) {
      EXPECT_LE(data.out_edges[i - 1].src, data.out_edges[i].src);
    }
    // Bridges belong to this partition.
    for (const Edge& e : data.in_edges) {
      EXPECT_EQ(fx.assignment.owner(e.dst), p);
    }
    for (const Edge& e : data.out_edges) {
      EXPECT_EQ(fx.assignment.owner(e.src), p);
    }
  }
}

TEST(PartitionStoreTest, LoadEdgesOmitsProfiles) {
  StoreFixture fx;
  PartitionStore store(fx.dir.path());
  store.write_all(fx.graph, fx.assignment, fx.profiles);
  const PartitionData data = store.load_edges(0);
  EXPECT_FALSE(data.vertices.empty());
  EXPECT_TRUE(data.profiles.empty());
}

TEST(PartitionStoreTest, ProfileOfMissingVertexIsNull) {
  StoreFixture fx;
  PartitionStore store(fx.dir.path());
  store.write_all(fx.graph, fx.assignment, fx.profiles);
  const PartitionData p0 = store.load(0);
  // Vertex 39 lives in partition 3 under range partitioning.
  EXPECT_EQ(p0.profile_of(39), nullptr);
}

TEST(PartitionStoreTest, IoAccountantTracksTraffic) {
  StoreFixture fx;
  PartitionStore store(fx.dir.path(), IoModel::hdd());
  store.write_all(fx.graph, fx.assignment, fx.profiles);
  const auto written = store.io().counters().bytes_written;
  EXPECT_GT(written, 0u);
  (void)store.load(0);
  EXPECT_GT(store.io().counters().bytes_read, 0u);
  EXPECT_GT(store.io().modeled_us(), 0.0);
}

TEST(PartitionStoreTest, MismatchedInputsThrow) {
  StoreFixture fx;
  PartitionStore store(fx.dir.path());
  EdgeList wrong = fx.graph;
  wrong.num_vertices = 7;
  EXPECT_THROW(store.write_all(wrong, fx.assignment, fx.profiles),
               std::invalid_argument);
}

TEST(PartitionStoreTest, PooledWriteAllWritesTheSameFiles) {
  // Hash placement gives every partition a non-contiguous member set, and
  // 3 workers for 4 partitions leave the chunks uneven.
  StoreFixture fx;
  const PartitionAssignment hashed =
      HashPartitioner{}.assign(Digraph(fx.graph), 4);
  const ScratchDir pooled_dir("pstore_pooled");
  PartitionStore serial(fx.dir.path());
  PartitionStore pooled(pooled_dir.path());
  ThreadPool pool(3);
  serial.write_all(fx.graph, hashed, fx.profiles);
  pooled.write_all(fx.graph, hashed, fx.profiles, &pool);
  EXPECT_EQ(serial.io().counters(), pooled.io().counters());
  std::size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(fx.dir.path())) {
    IoCounters raw;
    EXPECT_EQ(read_file(entry.path(), raw),
              read_file(pooled_dir.path() / entry.path().filename(), raw))
        << entry.path().filename();
    ++files;
  }
  EXPECT_EQ(files, 16u);  // .in .out .prof .vtx per partition
}

TEST(PartitionStoreTest, DerivedPartitionsEqualTheStoredEdges) {
  // A shard worker on a sampled or reversed run derives its partitions
  // from the G(t) it holds instead of reading them: every partition must
  // equal what load_edges() returns after write_all(), order included
  // (phase 2's merge-join and sampling stream depend on it). Scored
  // neighbour lists are not in id order, so the out-edge runs need their
  // sort.
  Rng rng(77);
  const VertexId n = 60;
  const PartitionId m = 4;
  KnnGraph graph(n, 5);
  for (VertexId v = 0; v < n; ++v) {
    std::vector<Neighbor> list;
    while (list.size() < 5) {
      const auto d = static_cast<VertexId>(rng.next_below(n));
      const bool taken = std::any_of(
          list.begin(), list.end(),
          [d](const Neighbor& nb) { return nb.id == d; });
      if (d != v && !taken) {
        list.push_back({d, static_cast<float>(rng.next_below(1000))});
      }
    }
    graph.set_neighbors(v, std::move(list));
  }
  const EdgeList edges = graph.to_edge_list();
  const Digraph dg(edges);
  std::vector<PartitionId> skewed(n);
  for (VertexId v = 0; v < n; ++v) skewed[v] = v % (m - 1);
  const std::vector<std::pair<std::string, PartitionAssignment>> placements =
      {{"range", RangePartitioner{}.assign(dg, m)},
       {"hash", HashPartitioner{}.assign(dg, m)},
       {"one empty partition", PartitionAssignment(std::move(skewed), m)}};
  const ReverseAdjacency reverse = build_reverse_adjacency(graph);
  const InMemoryProfileStore profiles{std::vector<SparseProfile>(n)};
  for (const auto& [name, assignment] : placements) {
    const ScratchDir dir("pstore_derive");
    PartitionStore store(dir.path());
    store.write_all(edges, assignment, profiles);
    for (PartitionId p = 0; p < m; ++p) {
      const PartitionData stored = store.load_edges(p);
      const PartitionData derived =
          derive_partition_edges(graph, reverse, assignment, p);
      const std::string where = name + ", partition " + std::to_string(p);
      EXPECT_EQ(derived.id, p) << where;
      EXPECT_EQ(derived.vertices, stored.vertices) << where;
      EXPECT_EQ(derived.in_edges, stored.in_edges) << where;
      EXPECT_EQ(derived.out_edges, stored.out_edges) << where;
    }
  }
}

TEST(PartitionStoreTest, LoadFlatDecodesTheProfilesLoadReads) {
  StoreFixture fx;
  PartitionStore store(fx.dir.path());
  store.write_all(fx.graph, fx.assignment, fx.profiles);
  ThreadPool pool(2);
  for (PartitionId p = 0; p < 4; ++p) {
    const IoCounters before = store.io().counters();
    const PartitionData full = store.load(p);
    const IoCounters mid = store.io().counters();
    const PartitionData flat = store.load_flat(p, /*quantize=*/false, &pool);
    const IoCounters after = store.io().counters();
    // Same four files, same bytes charged.
    EXPECT_EQ(mid.bytes_read - before.bytes_read,
              after.bytes_read - mid.bytes_read);
    EXPECT_EQ(mid.read_ops - before.read_ops, after.read_ops - mid.read_ops);
    EXPECT_EQ(flat.vertices, full.vertices);
    EXPECT_TRUE(flat.profiles.empty());
    ASSERT_EQ(flat.flat.num_profiles(), full.vertices.size());
    for (std::size_t i = 0; i < full.vertices.size(); ++i) {
      const FlatProfileSet::View v = flat.flat.view(full.vertices[i]);
      const auto entries = full.profiles[i].entries();
      ASSERT_EQ(v.size, entries.size());
      for (std::uint32_t j = 0; j < v.size; ++j) {
        EXPECT_EQ(v.items[j], entries[j].item);
        EXPECT_EQ(v.weights[j], entries[j].weight);
      }
      EXPECT_EQ(v.norm, full.profiles[i].norm());
    }
  }
}

// -------------------------------------------------------- partition cache --

TEST(PartitionCacheTest, LoaderDecidesWhatALoadReads) {
  StoreFixture fx;
  PartitionStore store(fx.dir.path());
  store.write_all(fx.graph, fx.assignment, fx.profiles);
  PartitionCache cache(2, [&](PartitionId p) { return store.load_edges(p); });
  const PartitionData& first = cache.get(1);
  EXPECT_TRUE(first.profiles.empty());
  EXPECT_FALSE(first.out_edges.empty());
  EXPECT_EQ(&first, &cache.get(1));  // a hit returns the resident copy
  cache.get(2);
  cache.get(3);  // evicts 1
  EXPECT_EQ(cache.loads(), 3u);
  EXPECT_EQ(cache.unloads(), 1u);
}

TEST(PartitionCacheTest, CountsLoadsAndUnloads) {
  StoreFixture fx;
  PartitionStore store(fx.dir.path());
  store.write_all(fx.graph, fx.assignment, fx.profiles);
  PartitionCache cache(2, [&](PartitionId p) { return store.load(p); });
  cache.get(0);
  cache.get(1);
  EXPECT_EQ(cache.loads(), 2u);
  EXPECT_EQ(cache.unloads(), 0u);
  cache.get(0);  // hit
  EXPECT_EQ(cache.loads(), 2u);
  cache.get(2);  // evicts LRU (=1)
  EXPECT_EQ(cache.loads(), 3u);
  EXPECT_EQ(cache.unloads(), 1u);
  EXPECT_TRUE(cache.resident(0));
  EXPECT_FALSE(cache.resident(1));
  cache.flush();
  EXPECT_EQ(cache.unloads(), 3u);
  EXPECT_EQ(cache.operations(), 6u);
}

TEST(PartitionCacheTest, LruEvictionOrder) {
  StoreFixture fx;
  PartitionStore store(fx.dir.path());
  store.write_all(fx.graph, fx.assignment, fx.profiles);
  PartitionCache cache(2, [&](PartitionId p) { return store.load(p); });
  cache.get(0);
  cache.get(1);
  cache.get(0);  // 0 is now most recent
  cache.get(3);  // should evict 1, not 0
  EXPECT_TRUE(cache.resident(0));
  EXPECT_TRUE(cache.resident(3));
  EXPECT_FALSE(cache.resident(1));
}

}  // namespace
}  // namespace knnpc
