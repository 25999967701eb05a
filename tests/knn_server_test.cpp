// Tests for serve/knn_server: snapshot publication lifecycle, the two
// query paths, and the concurrency contract (no torn snapshots, no
// use-after-retire — run under TSan/ASan to make those teeth bite).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/brute_force.h"
#include "core/engine.h"
#include "core/shard_driver.h"
#include "graph/knn_graph_io.h"
#include "profiles/generators.h"
#include "profiles/similarity_kernels.h"
#include "serve/knn_server.h"
#include "util/rng.h"

namespace knnpc {
namespace {

std::vector<SparseProfile> make_profiles(VertexId n, std::uint64_t seed,
                                         ItemId items = 400) {
  Rng rng(seed);
  ClusteredGenConfig gen;
  gen.base.num_users = n;
  gen.base.num_items = items;
  gen.num_clusters = 8;
  return clustered_profiles(gen, rng);
}

/// Publishes (graph, profiles) with no partition assignment.
void publish(KnnServer& server, const KnnGraph& graph,
             const InMemoryProfileStore& profiles, std::uint32_t iter) {
  server.publish(graph, profiles, {}, iter);
}

bool same_bits(float a, float b) {
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

TEST(KnnServerTest, UnpublishedServerThrowsOnReads) {
  KnnServer server;
  EXPECT_FALSE(server.has_snapshot());
  EXPECT_EQ(server.version(), 0u);
  KnnServer::Reader reader = server.reader();
  EXPECT_THROW((void)reader.top_k(0), std::logic_error);
  EXPECT_THROW((void)reader.query(SparseProfile{}, 5), std::logic_error);
  EXPECT_EQ(reader.version(), 0u);
}

TEST(KnnServerTest, TopKMatchesPublishedGraphExactly) {
  const VertexId n = 120;
  const InMemoryProfileStore profiles{make_profiles(n, 3)};
  const KnnGraph truth = brute_force_knn(profiles, 6, SimilarityMeasure::Cosine);

  KnnServer server;
  publish(server, truth, profiles, 0);
  ASSERT_TRUE(server.has_snapshot());
  EXPECT_EQ(server.version(), 1u);

  KnnServer::Reader reader = server.reader();
  for (VertexId u = 0; u < n; ++u) {
    const std::vector<Neighbor> row = reader.top_k(u);
    const std::span<const Neighbor> expect = truth.neighbors(u);
    ASSERT_EQ(row.size(), expect.size()) << "user " << u;
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(row[i], expect[i]) << "user " << u << " slot " << i;
    }
  }
  EXPECT_THROW((void)reader.top_k(n), std::out_of_range);
}

TEST(KnnServerTest, IncrementalPublishEqualsFullPublish) {
  const VertexId n = 80;
  std::vector<SparseProfile> base = make_profiles(n, 5);
  const InMemoryProfileStore profiles0{base};
  Rng rng(7);
  const KnnGraph g0 = random_knn_graph(n, 5, rng);

  // Evolve: a second generation differing in a handful of rows/profiles.
  KnnGraph g1 = g0;
  g1.set_neighbors(3, {{9, 0.75f}, {1, 0.5f}});
  g1.set_neighbors(40, {{2, 0.9f}});
  InMemoryProfileStore profiles1{base};
  profiles1.mutable_get(12).set(399, 4.0f);

  KnnServer incremental;
  publish(incremental, g0, profiles0, 0);
  EXPECT_TRUE(incremental.last_publish().full);
  publish(incremental, g1, profiles1, 1);
  const PublishStats second = incremental.last_publish();
  EXPECT_FALSE(second.full);
  EXPECT_EQ(second.graph_rows, 2u);   // only the rows that changed
  EXPECT_EQ(second.profile_rows, 1u);
  EXPECT_GT(second.graph_bytes, 0u);

  KnnServer full;
  publish(full, g1, profiles1, 1);

  // Both servers must expose the same state (the torn-snapshot canary
  // checksum makes the graphs comparable in one shot).
  KnnServer::Reader inc_reader = incremental.reader();
  KnnServer::Reader full_reader = full.reader();
  const KnnServer::Reader::Pin inc_pin = inc_reader.pin();
  const KnnServer::Reader::Pin full_pin = full_reader.pin();
  EXPECT_EQ(inc_pin->graph_checksum, full_pin->graph_checksum);
  EXPECT_EQ(inc_pin->graph_checksum, knn_graph_checksum(g1));
  ASSERT_EQ(inc_pin->profiles.num_users(), n);
  EXPECT_EQ(inc_pin->profiles.get(12), profiles1.get(12));
  EXPECT_EQ(inc_pin->iteration, 1u);
  EXPECT_EQ(inc_pin->version, 2u);
  EXPECT_EQ(full_pin->version, 1u);
}

TEST(KnnServerTest, BeamSearchIsExactWithFullBudget) {
  const VertexId n = 150;
  const std::uint32_t k = 8;
  const InMemoryProfileStore profiles{make_profiles(n, 11)};
  const KnnGraph truth =
      brute_force_knn(profiles, k, SimilarityMeasure::Cosine);

  KnnServer server;
  publish(server, truth, profiles, 0);
  KnnServer::Reader reader = server.reader();

  // search_l >= n scores every reachable vertex, so for any in-index
  // query profile the beam must return the exact brute-force row (plus
  // the query user itself in front, similarity with self being maximal).
  for (VertexId u = 0; u < n; u += 13) {
    const QueryResult got = reader.query(profiles.get(u), k + 1, n);
    ASSERT_GE(got.neighbors.size(), 1u);
    EXPECT_EQ(got.neighbors[0].id, u);
    const std::span<const Neighbor> expect = truth.neighbors(u);
    ASSERT_EQ(got.neighbors.size(), expect.size() + 1);
    for (std::size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(got.neighbors[i + 1].id, expect[i].id) << "user " << u;
    }
    EXPECT_GT(got.stats.scored, 0u);
    EXPECT_EQ(got.stats.version, 1u);
  }
}

TEST(KnnServerTest, BeamRecallOnConvergedWorkload) {
  // The golden-workload-shaped recall gate, scaled for Debug unit-test
  // speed. The benchmark harness's serve-churn workload reports recall
  // at full size as query_recall.
  const VertexId n = 2000;
  const std::uint32_t k = 10;
  EngineConfig config;
  config.k = k;
  config.num_partitions = 8;
  config.seed = 42;
  KnnEngine engine(config, make_profiles(n, 42, 800));
  KnnServer server;
  engine.set_snapshot_sink(&server);
  for (std::uint32_t i = 0; i < 8; ++i) {
    if (engine.run_iteration().change_rate < 0.01) break;
  }
  ASSERT_TRUE(server.has_snapshot());

  KnnServer::Reader reader = server.reader();
  const KnnServer::Reader::Pin pin = reader.pin();
  const KnnGraph truth =
      brute_force_knn(pin->profiles, k, config.measure, 0);
  std::size_t hits = 0, wanted = 0;
  for (VertexId u = 0; u < n; u += 19) {
    const QueryResult got =
        beam_search(*pin.get(), pin->profiles.get(u), k + 1, 64);
    for (const Neighbor& want : truth.neighbors(u)) {
      ++wanted;
      for (const Neighbor& have : got.neighbors) {
        if (have.id == want.id) {
          ++hits;
          break;
        }
      }
    }
  }
  ASSERT_GT(wanted, 0u);
  const double recall =
      static_cast<double>(hits) / static_cast<double>(wanted);
  EXPECT_GE(recall, 0.95) << hits << "/" << wanted;
}

TEST(KnnServerTest, BeamScoresEqualSimilarityForEveryMeasure) {
  // Beam search scores through the query's item table with phase 4's
  // replay; every returned score must be similarity() bit for bit. One
  // Reader answers all queries, so a table left dirty by one query would
  // corrupt the next one's scores.
  const VertexId n = 150;
  const InMemoryProfileStore profiles{make_profiles(n, 29)};
  Rng rng(31);
  const KnnGraph graph = random_knn_graph(n, 6, rng);
  std::vector<SparseProfile> queries;
  for (VertexId u = 0; u < n; u += 9) queries.push_back(profiles.get(u));
  for (const SparseProfile& off_index : make_profiles(12, 37)) {
    queries.push_back(off_index);
  }
  queries.emplace_back();  // empty query
  // Past kItemTableBound: the query is scored through similarity().
  queries.push_back(SparseProfile({{3, 1.0f}, {kItemTableBound, 2.0f}}));
  queries.push_back(profiles.get(1));
  for (const SimilarityMeasure measure : kAllSimilarityMeasures) {
    ServeConfig config;
    config.measure = measure;
    KnnServer server(config);
    publish(server, graph, profiles, 0);
    KnnServer::Reader reader = server.reader();
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const QueryResult got = reader.query(queries[q], 10, 32);
      ASSERT_FALSE(got.neighbors.empty());
      for (const Neighbor& nb : got.neighbors) {
        EXPECT_TRUE(same_bits(
            nb.score, similarity(measure, queries[q], profiles.get(nb.id))))
            << similarity_name(measure) << " query " << q << " vertex "
            << nb.id;
      }
    }
  }
}

TEST(KnnServerTest, ReaderAnswersExactlyWhatAFreshBeamSearchDoes) {
  // A Reader reuses one search context across queries; beam_search()
  // builds a new one per call. The first query stamps every vertex of a
  // 60-vertex snapshot with the context's first epoch; a publish that
  // changes n must then reset those marks, or the next query would skip
  // them. The 600 queries that follow cross the marks' epoch wrap (every
  // 255 queries) twice.
  const std::vector<SparseProfile> small = make_profiles(60, 41);
  const std::vector<SparseProfile> large = make_profiles(90, 43);
  const std::vector<SparseProfile> off_index = make_profiles(30, 47);
  Rng rng(53);
  KnnServer server;
  publish(server, random_knn_graph(60, 5, rng), InMemoryProfileStore{small},
          0);
  KnnServer::Reader reader = server.reader();
  KnnServer::Reader pinner = server.reader();
  auto expect_fresh = [&](const SparseProfile& query, int i) {
    const QueryResult got = reader.query(query, 5, 12);
    const KnnServer::Reader::Pin pin = pinner.pin();
    const QueryResult fresh = beam_search(*pin.get(), query, 5, 12);
    ASSERT_EQ(got.stats.version, fresh.stats.version) << "query " << i;
    ASSERT_EQ(got.stats.scored, fresh.stats.scored) << "query " << i;
    ASSERT_EQ(got.stats.expanded, fresh.stats.expanded) << "query " << i;
    ASSERT_EQ(got.neighbors.size(), fresh.neighbors.size()) << "query " << i;
    for (std::size_t r = 0; r < got.neighbors.size(); ++r) {
      ASSERT_EQ(got.neighbors[r].id, fresh.neighbors[r].id) << "query " << i;
      ASSERT_TRUE(same_bits(got.neighbors[r].score, fresh.neighbors[r].score))
          << "query " << i;
    }
  };
  expect_fresh(small[0], 0);
  publish(server, random_knn_graph(90, 5, rng), InMemoryProfileStore{large},
          1);
  ASSERT_TRUE(server.last_publish().full);  // n changed: 60 -> 90
  for (int i = 1; i <= 600; ++i) {
    expect_fresh(i % 3 == 0 ? off_index[i % 30] : large[(i * 7) % 90], i);
  }
  // Back to 60 vertices: a shrinking n resets the marks too.
  publish(server, random_knn_graph(60, 5, rng), InMemoryProfileStore{small},
          2);
  for (int i = 601; i <= 700; ++i) expect_fresh(small[(i * 7) % 60], i);
}

TEST(KnnServerTest, ConcurrentReadersNeverObserveTornSnapshot) {
  const VertexId n = 200;
  const std::uint32_t k = 6;
  std::vector<SparseProfile> base = make_profiles(n, 17);
  const InMemoryProfileStore profiles{base};

  KnnServer server;
  const std::uint32_t kReaders = 4;
  const std::uint32_t kPublishes = 60;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::uint32_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      KnnServer::Reader reader = server.reader();
      std::uint64_t last_version = 0;
      std::size_t next_query = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (!server.has_snapshot()) continue;
        {
          const KnnServer::Reader::Pin pin = reader.pin();
          if (pin.get() == nullptr) continue;
          // Torn-snapshot canary: the checksum stamped at publish time
          // must always match a recomputation over the pinned graph.
          ASSERT_EQ(knn_graph_checksum(pin->graph), pin->graph_checksum);
          // Versions are monotone per reader.
          ASSERT_GE(pin->version, last_version);
          last_version = pin->version;
        }
        // Every reader queries through its own search context while the
        // others do and the main thread publishes; the readers' item
        // tables and visited marks must share nothing (TSan checks this).
        const QueryResult got =
            reader.query(base[next_query++ % base.size()], k);
        ASSERT_GE(got.stats.version, last_version);
        ASSERT_FALSE(got.neighbors.empty());
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  Rng rng(23);
  for (std::uint32_t i = 0; i < kPublishes; ++i) {
    KnnGraph g = random_knn_graph(n, k, rng);
    publish(server, g, profiles, i);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(server.version(), kPublishes);
  EXPECT_GT(reads.load(), 0u);
  // Nothing is pinned any more: the next publish reclaims every retiree.
  KnnGraph g = random_knn_graph(n, k, rng);
  publish(server, g, profiles, kPublishes);
  EXPECT_EQ(server.retired_count(), 0u);
}

TEST(KnnServerTest, ReaderSlotsExhaustAndRecycle) {
  ServeConfig config;
  config.max_readers = 2;
  KnnServer server(config);
  {
    KnnServer::Reader a = server.reader();
    KnnServer::Reader b = server.reader();
    EXPECT_THROW((void)server.reader(), std::runtime_error);
  }
  // Destroying readers frees their slots.
  KnnServer::Reader c = server.reader();
  KnnServer::Reader d = server.reader();
  EXPECT_THROW((void)server.reader(), std::runtime_error);
}

TEST(KnnServerTest, EngineSinkPublishesEveryIteration) {
  const VertexId n = 300;
  EngineConfig config;
  config.k = 5;
  config.num_partitions = 4;
  config.seed = 9;
  KnnEngine engine(config, make_profiles(n, 9));
  KnnServer server;
  engine.set_snapshot_sink(&server);

  for (std::uint32_t i = 0; i < 3; ++i) (void)engine.run_iteration();
  EXPECT_EQ(server.version(), 3u);
  EXPECT_FALSE(server.last_publish().full);  // publish 2+ are incremental

  KnnServer::Reader reader = server.reader();
  const KnnServer::Reader::Pin pin = reader.pin();
  EXPECT_EQ(pin->graph_checksum, knn_graph_checksum(engine.graph()));
  EXPECT_EQ(pin->iteration, 2u);
  // Partition seeds came through the sink's owner map.
  EXPECT_FALSE(pin->seeds.empty());
  for (const VertexId s : pin->seeds) EXPECT_LT(s, n);
}

TEST(KnnServerTest, ShardedDriverPublishesIdenticalState) {
  const VertexId n = 300;
  std::vector<SparseProfile> profiles = make_profiles(n, 9);
  EngineConfig config;
  config.k = 5;
  config.num_partitions = 4;
  config.seed = 9;

  KnnEngine serial(config, profiles);
  KnnServer serial_server;
  serial.set_snapshot_sink(&serial_server);

  ShardConfig shard_config;
  shard_config.shards = 2;
  ShardedKnnEngine sharded(config, shard_config, std::move(profiles));
  KnnServer sharded_server;
  sharded.set_snapshot_sink(&sharded_server);

  for (std::uint32_t i = 0; i < 2; ++i) {
    (void)serial.run_iteration();
    (void)sharded.run_iteration();
  }

  // The bit-identity contract extends through publication: both sinks saw
  // the same G(t) stream.
  KnnServer::Reader a = serial_server.reader();
  KnnServer::Reader b = sharded_server.reader();
  const KnnServer::Reader::Pin pa = a.pin();
  const KnnServer::Reader::Pin pb = b.pin();
  EXPECT_EQ(pa->graph_checksum, pb->graph_checksum);
  EXPECT_EQ(pa->version, pb->version);
}

}  // namespace
}  // namespace knnpc
