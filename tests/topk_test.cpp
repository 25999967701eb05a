// Tests for core/topk: bounded per-user top-K accumulation (phase 4).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/topk.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace knnpc {
namespace {

TEST(TopKTest, KeepsBestKCandidates) {
  TopKAccumulator acc(1, 3);
  acc.offer(0, 1, 0.1f);
  acc.offer(0, 2, 0.9f);
  acc.offer(0, 3, 0.5f);
  acc.offer(0, 4, 0.7f);  // evicts 0.1
  acc.offer(0, 5, 0.05f); // below worst: ignored
  const KnnGraph g = acc.build_graph();
  const auto list = g.neighbors(0);
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].id, 2u);
  EXPECT_EQ(list[1].id, 4u);
  EXPECT_EQ(list[2].id, 3u);
}

TEST(TopKTest, FewerThanKCandidatesKeptAll) {
  TopKAccumulator acc(2, 5);
  acc.offer(0, 1, 0.5f);
  acc.offer(1, 0, 0.25f);
  const KnnGraph g = acc.build_graph();
  EXPECT_EQ(g.neighbors(0).size(), 1u);
  EXPECT_EQ(g.neighbors(1).size(), 1u);
}

TEST(TopKTest, UsersAreIndependent) {
  TopKAccumulator acc(3, 1);
  acc.offer(0, 1, 0.9f);
  acc.offer(1, 2, 0.1f);
  const KnnGraph g = acc.build_graph();
  EXPECT_EQ(g.neighbors(0)[0].id, 1u);
  EXPECT_EQ(g.neighbors(1)[0].id, 2u);
  EXPECT_TRUE(g.neighbors(2).empty());
}

TEST(TopKTest, KZeroKeepsNothing) {
  TopKAccumulator acc(1, 0);
  acc.offer(0, 1, 1.0f);
  const KnnGraph g = acc.build_graph();
  EXPECT_TRUE(g.neighbors(0).empty());
}

TEST(TopKTest, TieBreaksAreDeterministic) {
  TopKAccumulator a(1, 2);
  a.offer(0, 1, 0.5f);
  a.offer(0, 2, 0.5f);
  a.offer(0, 3, 0.5f);
  const KnnGraph ga = a.build_graph();

  TopKAccumulator b(1, 2);
  b.offer(0, 3, 0.5f);  // different arrival order
  b.offer(0, 2, 0.5f);
  b.offer(0, 1, 0.5f);
  const KnnGraph gb = b.build_graph();

  ASSERT_EQ(ga.neighbors(0).size(), 2u);
  ASSERT_EQ(gb.neighbors(0).size(), 2u);
  // Equal scores: lowest ids win regardless of arrival order.
  EXPECT_EQ(ga.neighbors(0)[0].id, gb.neighbors(0)[0].id);
  EXPECT_EQ(ga.neighbors(0)[1].id, gb.neighbors(0)[1].id);
  EXPECT_EQ(ga.neighbors(0)[0].id, 1u);
  EXPECT_EQ(ga.neighbors(0)[1].id, 2u);
}

TEST(TopKTest, MatchesSortReferenceOnRandomStream) {
  const std::uint32_t k = 8;
  TopKAccumulator acc(1, k);
  Rng rng(23);
  std::vector<Neighbor> all;
  for (VertexId d = 1; d <= 500; ++d) {
    const float score = static_cast<float>(rng.next_double());
    acc.offer(0, d, score);
    all.push_back({d, score});
  }
  std::sort(all.begin(), all.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  });
  const KnnGraph g = acc.build_graph();
  const auto list = g.neighbors(0);
  ASSERT_EQ(list.size(), k);
  for (std::uint32_t i = 0; i < k; ++i) {
    EXPECT_EQ(list[i].id, all[i].id);
    EXPECT_FLOAT_EQ(list[i].score, all[i].score);
  }
}

TEST(TopKTest, BuildGraphResetsAccumulator) {
  TopKAccumulator acc(1, 2);
  acc.offer(0, 1, 0.5f);
  (void)acc.build_graph();
  const KnnGraph second = acc.build_graph();
  EXPECT_TRUE(second.neighbors(0).empty());
}

TEST(TopKTest, CountTracksHeapSize) {
  TopKAccumulator acc(1, 2);
  EXPECT_EQ(acc.count(0), 0u);
  acc.offer(0, 1, 0.5f);
  EXPECT_EQ(acc.count(0), 1u);
  acc.offer(0, 2, 0.6f);
  acc.offer(0, 3, 0.7f);
  EXPECT_EQ(acc.count(0), 2u);
}

// Phase 4's fused path offers on pool threads, each task to its own
// users, into neighbouring rows of one n x K array. The kept lists must
// equal serial offers', whatever the arrival order.
TEST(TopKTest, DisjointUsersOfferedOnAPoolEqualSerial) {
  constexpr VertexId kUsers = 257;
  constexpr std::uint32_t kK = 7;
  constexpr VertexId kCandidates = 90;
  // 16 score levels, so ties are common and the id tie-break matters.
  auto score = [](VertexId s, VertexId d) {
    return static_cast<float>(mix64((std::uint64_t{s} << 32) | d) % 16) /
           16.0f;
  };
  TopKAccumulator serial(kUsers, kK);
  for (VertexId s = 0; s < kUsers; ++s) {
    for (VertexId d = 0; d < kCandidates; ++d) {
      if (d != s) serial.offer(s, d, score(s, d));
    }
  }
  TopKAccumulator pooled(kUsers, kK);
  ThreadPool pool(3);
  pool.parallel_for(
      0, kUsers,
      [&](std::size_t lo, std::size_t hi) {
        for (auto s = static_cast<VertexId>(lo); s < hi; ++s) {
          for (VertexId d = kCandidates; d-- > 0;) {
            if (d != s) pooled.offer(s, d, score(s, d));
          }
        }
      },
      /*min_chunk=*/1);
  for (VertexId s = 0; s < kUsers; ++s) {
    ASSERT_EQ(pooled.count(s), serial.count(s)) << "s=" << s;
  }
  const KnnGraph want = serial.build_graph();
  const KnnGraph got = pooled.build_graph(&pool);
  for (VertexId s = 0; s < kUsers; ++s) {
    const auto a = want.neighbors(s);
    const auto b = got.neighbors(s);
    ASSERT_EQ(a.size(), kK) << "s=" << s;
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "s=" << s;
  }
}

TEST(TopKTest, OutOfRangeUserThrows) {
  TopKAccumulator acc(2, 2);
  EXPECT_THROW(acc.offer(5, 1, 0.5f), std::out_of_range);
}

}  // namespace
}  // namespace knnpc
