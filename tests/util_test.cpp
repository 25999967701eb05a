// Tests for util/: rng, hash, stats, options, thread pool, serde, timer.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>

#include "util/hash.h"
#include "util/logging.h"
#include "util/options.h"
#include "util/rng.h"
#include "util/serde.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/types.h"

namespace knnpc {
namespace {

// ---------------------------------------------------------------- types --

TEST(TypesTest, TupleKeyRoundTrips) {
  const Tuple t{123456, 654321};
  EXPECT_EQ(tuple_from_key(tuple_key(t)), t);
}

TEST(TypesTest, TupleKeyIsInjectiveOnDistinctTuples) {
  EXPECT_NE(tuple_key({1, 2}), tuple_key({2, 1}));
  EXPECT_NE(tuple_key({0, 1}), tuple_key({1, 0}));
}

TEST(TypesTest, EdgeOrderingIsLexicographic) {
  EXPECT_LT((Edge{1, 5}), (Edge{2, 0}));
  EXPECT_LT((Edge{1, 5}), (Edge{1, 6}));
}

// ------------------------------------------------------------------ rng --

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(RngTest, NextBelowCoversAllValues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanIsAboutHalf) {
  Rng rng(13);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

// ----------------------------------------------------------------- hash --

TEST(HashTest, Mix64ChangesInput) {
  // mix64(0) == 0 is a known fixed point of the Murmur3 finalizer; all
  // other small inputs must scramble.
  EXPECT_NE(mix64(1), 1u);
  EXPECT_NE(mix64(2), 2u);
  EXPECT_NE(mix64(1), mix64(2));
}

TEST(HashTest, Mix32SpreadsSequentialKeys) {
  std::set<std::uint32_t> low_bits;
  for (std::uint32_t i = 0; i < 256; ++i) low_bits.insert(mix32(i) & 0xff);
  // Sequential inputs should hit most low-byte buckets.
  EXPECT_GT(low_bits.size(), 150u);
}

TEST(HashTest, NextPow2) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

// ---------------------------------------------------------------- stats --

TEST(StatsTest, RunningStatsBasics) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(StatsTest, EmptyStatsAreZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(StatsTest, MergeMatchesSequential) {
  RunningStats all;
  RunningStats left;
  RunningStats right;
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double() * 10;
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(StatsTest, PercentileNearestRank) {
  std::vector<double> v{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(StatsTest, HistogramBucketsAndClamping) {
  Histogram h(0, 10, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-5);   // clamps to first bucket
  h.add(100);  // clamps to last bucket
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(StatsTest, HistogramRejectsBadArguments) {
  EXPECT_THROW(Histogram(0, 10, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(5, 5, 4), std::invalid_argument);
}

// -------------------------------------------------------------- options --

TEST(OptionsTest, ParsesEqualsAndSpaceForms) {
  Options opts;
  opts.add_uint("k", "neighbours", 10);
  opts.add_string("name", "label", "x");
  const char* argv[] = {"prog", "--k=16", "--name", "hello"};
  ASSERT_TRUE(opts.parse(4, argv));
  EXPECT_EQ(opts.get_uint("k"), 16u);
  EXPECT_EQ(opts.get_string("name"), "hello");
}

TEST(OptionsTest, DefaultsSurviveWhenUnset) {
  Options opts;
  opts.add_double("rho", "sample rate", 0.5);
  opts.add_flag("verbose", "chatty");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(opts.parse(1, argv));
  EXPECT_DOUBLE_EQ(opts.get_double("rho"), 0.5);
  EXPECT_FALSE(opts.get_flag("verbose"));
}

TEST(OptionsTest, FlagsAndPositionals) {
  Options opts;
  opts.add_flag("fast", "go fast");
  const char* argv[] = {"prog", "--fast", "input.txt"};
  ASSERT_TRUE(opts.parse(3, argv));
  EXPECT_TRUE(opts.get_flag("fast"));
  ASSERT_EQ(opts.positional().size(), 1u);
  EXPECT_EQ(opts.positional()[0], "input.txt");
  // A flag takes no value: "--fast=0" must not silently turn it on.
  Options valued;
  valued.add_flag("fast", "go fast");
  const char* valued_argv[] = {"prog", "--fast=0"};
  EXPECT_THROW(valued.parse(2, valued_argv), std::invalid_argument);
}

TEST(OptionsTest, UnknownOptionThrows) {
  Options opts;
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_THROW(opts.parse(2, argv), std::invalid_argument);
}

TEST(OptionsTest, TypeMismatchThrows) {
  Options opts;
  opts.add_uint("k", "neighbours", 1);
  const char* argv[] = {"prog"};
  ASSERT_TRUE(opts.parse(1, argv));
  EXPECT_THROW((void)opts.get_string("k"), std::invalid_argument);
}

TEST(OptionsTest, MalformedNumberThrows) {
  // A sign would wrap ("-1" is 2^64-1), a blank or trailing junk would be
  // skipped ("5x" reads as 5): every one must be rejected outright.
  for (const char* arg :
       {"--k=banana", "--k=-1", "--k=+5", "--k= 5", "--k=5x", "--k="}) {
    Options opts;
    opts.add_uint("k", "neighbours", 1);
    const char* argv[] = {"prog", arg};
    ASSERT_TRUE(opts.parse(2, argv));
    EXPECT_THROW((void)opts.get_uint("k"), std::invalid_argument) << arg;
  }
  Options opts;
  opts.add_double("rho", "sample rate", 0.5);
  const char* argv[] = {"prog", "--rho=0.5x"};
  ASSERT_TRUE(opts.parse(2, argv));
  EXPECT_THROW((void)opts.get_double("rho"), std::invalid_argument);
}

// ---------------------------------------------------------- thread pool --

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(10000);
  pool.parallel_for(0, hits.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  }, /*min_chunk=*/64);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelForPropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 1000,
                        [](std::size_t lo, std::size_t) {
                          if (lo == 0) throw std::runtime_error("boom");
                        },
                        /*min_chunk=*/1),
      std::runtime_error);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

// ---------------------------------------------------------------- serde --

TEST(SerdeTest, RecordRoundTrip) {
  std::vector<Edge> edges{{1, 2}, {3, 4}, {5, 6}};
  const auto bytes = to_bytes(edges);
  EXPECT_EQ(bytes.size(), edges.size() * sizeof(Edge));
  const auto back = from_bytes<Edge>(bytes);
  EXPECT_EQ(back, edges);
}

TEST(SerdeTest, ReadRecordStopsAtTruncation) {
  std::vector<std::byte> bytes(sizeof(Edge) + 3);  // one full + partial
  std::size_t offset = 0;
  Edge e;
  EXPECT_TRUE(read_record(std::span<const std::byte>(bytes), offset, e));
  EXPECT_FALSE(read_record(std::span<const std::byte>(bytes), offset, e));
}

TEST(SerdeTest, RecordSpanIgnoresTrailingPartial) {
  std::vector<std::byte> bytes(2 * sizeof(Edge) + 1);
  const auto span = record_span<Edge>(bytes);
  EXPECT_EQ(span.size(), 2u);
}

// -------------------------------------------------------------- logging --

TEST(LoggingTest, ParseLogLevelNames) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::Debug);
  EXPECT_EQ(parse_log_level("INFO"), LogLevel::Info);
  EXPECT_EQ(parse_log_level("Warning"), LogLevel::Warn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::Error);
  EXPECT_EQ(parse_log_level("off"), LogLevel::Off);
  EXPECT_EQ(parse_log_level("garbage"), LogLevel::Warn);  // fallback
}

TEST(LoggingTest, SetAndGetLevelRoundTrips) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::Error);
  EXPECT_EQ(log_level(), LogLevel::Error);
  // Suppressed line must not crash (and is cheap).
  KNNPC_LOG(Debug) << "invisible " << 42;
  set_log_level(before);
}

// ---------------------------------------------------------------- timer --

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(t.elapsed_ms(), 5.0);
}

TEST(TimerTest, ScopedAccumulatorAddsToSink) {
  double sink = 0.0;
  {
    ScopedAccumulator acc(&sink);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(sink, 0.0);
  const double first = sink;
  {
    ScopedAccumulator acc(&sink);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(sink, first);
}

}  // namespace
}  // namespace knnpc
