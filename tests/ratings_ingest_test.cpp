// Ratings ingestion tests: the hardened line parser (typed RatingsError
// on every malformed shape, never UB — this suite is pinned by name in
// the sanitize CI job), the chunked out-of-core ingester's equivalence
// with the in-memory loader, the KPRS store's corruption handling, and —
// in the OutOfCoreStress suite, split into its own `stress`-labelled
// ctest entry — the bounded-RSS contract on a ratings file several times
// the memory budget.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "profiles/ratings_io.h"
#include "storage/block_file.h"
#include "util/rng.h"

namespace knnpc {
namespace {

using Kind = RatingsError::Kind;

// Every file lives in one directory per process, removed at exit, so
// concurrent runs of the suite never share a path.
std::string tmp_path(const std::string& name) {
  static const ScratchDir dir("ratings");
  return (dir.path() / name).string();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out) << path;
  out << content;
}

Kind parse_kind(const std::string& line) {
  try {
    (void)parse_rating_line(line, 1);
  } catch (const RatingsError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected RatingsError for: " << line;
  return Kind::Io;
}

// ------------------------------------------------------------- parser --

TEST(RatingsParser, AcceptsTheInterchangeShapes) {
  for (const char* line : {"1,2,3.5", "1\t2\t3.5", "1 2 3.5",
                           "1, 2, 3.5", "  1  2  3.5  ",
                           "1,2,3.5,964982703",  // MovieLens timestamp
                           "1,2,3.5\r"}) {       // CRLF
    const auto parsed = parse_rating_line(line, 1);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_EQ(parsed->user, 1u) << line;
    EXPECT_EQ(parsed->item, 2u) << line;
    EXPECT_FLOAT_EQ(parsed->rating, 3.5f) << line;
  }
}

TEST(RatingsParser, SkipsBlanksAndComments) {
  for (const char* line : {"", "   ", "\r", "# comment", "% comment",
                           "  # indented comment"}) {
    EXPECT_FALSE(parse_rating_line(line, 1).has_value()) << "'" << line
                                                         << "'";
  }
}

TEST(RatingsParser, RejectsEveryMalformedShapeWithATypedError) {
  EXPECT_EQ(parse_kind("1,2"), Kind::MalformedLine);         // 2 fields
  EXPECT_EQ(parse_kind("1 2 3 4 5"), Kind::MalformedLine);   // 5 fields
  EXPECT_EQ(parse_kind("abc,2,3"), Kind::MalformedLine);     // non-numeric
  EXPECT_EQ(parse_kind("1,xyz,3"), Kind::MalformedLine);
  EXPECT_EQ(parse_kind("-1,2,3"), Kind::MalformedLine);      // signed id
  EXPECT_EQ(parse_kind("1,-2,3"), Kind::MalformedLine);
  EXPECT_EQ(parse_kind("+1,2,3"), Kind::MalformedLine);
  EXPECT_EQ(parse_kind("1.5,2,3"), Kind::MalformedLine);     // float id
  EXPECT_EQ(parse_kind("12abc,2,3"), Kind::MalformedLine);   // junk suffix
  EXPECT_EQ(parse_kind("1,2,3.5x"), Kind::MalformedLine);
  EXPECT_EQ(parse_kind("99999999999999999999999,1,1"),
            Kind::MalformedLine);                            // u64 overflow
  EXPECT_EQ(parse_kind("1,2,nan"), Kind::BadWeight);
  EXPECT_EQ(parse_kind("1,2,inf"), Kind::BadWeight);
  EXPECT_EQ(parse_kind("1,2,-inf"), Kind::BadWeight);
  EXPECT_EQ(parse_kind("1,2,1e999"), Kind::BadWeight);       // overflow
  EXPECT_EQ(parse_kind(std::string(kMaxRatingLineBytes + 1, '1')),
            Kind::LineTooLong);
}

TEST(RatingsParser, ReportsTheOffendingLineNumber) {
  try {
    (void)parse_rating_line("bogus", 42);
    FAIL();
  } catch (const RatingsError& e) {
    EXPECT_EQ(e.line(), 42u);
    EXPECT_NE(std::string(e.what()).find("42"), std::string::npos);
  }
}

TEST(RatingsParser, NegativeAndZeroRatingsAreData) {
  // Signs are illegal on ids but fine on the rating value.
  const auto parsed = parse_rating_line("7,9,-2.5", 1);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FLOAT_EQ(parsed->rating, -2.5f);
  EXPECT_FLOAT_EQ(parse_rating_line("7,9,0", 1)->rating, 0.0f);
}

TEST(RatingsParser, FuzzNeverCrashesOnHostileBytes) {
  // Random byte soup, random mutations of valid lines, random truncations:
  // every outcome must be "parsed" or "typed RatingsError" — anything else
  // (UB, unbounded allocation) is what the sanitize job exists to catch.
  Rng rng(0xfeedbeef);
  const std::string charset =
      "0123456789,. \t-+eEinfax#%\r\\\x01\x7f\xff";
  std::size_t parsed_count = 0;
  std::size_t rejected = 0;
  for (int round = 0; round < 5000; ++round) {
    std::string line;
    if (round % 3 == 0) {
      // Mutate a valid line.
      line = "12345,678,4.5,964982703";
      const std::size_t hits = 1 + rng.next_below(4);
      for (std::size_t h = 0; h < hits; ++h) {
        line[rng.next_below(line.size())] =
            charset[rng.next_below(charset.size())];
      }
    } else if (round % 3 == 1) {
      // Truncate a valid line mid-token.
      const std::string full = "12345,678,4.5";
      line = full.substr(0, rng.next_below(full.size() + 1));
    } else {
      const std::size_t len = rng.next_below(64);
      for (std::size_t i = 0; i < len; ++i) {
        line += charset[rng.next_below(charset.size())];
      }
    }
    try {
      if (parse_rating_line(line, round + 1).has_value()) ++parsed_count;
    } catch (const RatingsError&) {
      ++rejected;
    }
  }
  // Sanity: the fuzz actually exercised both outcomes.
  EXPECT_GT(parsed_count, 0u);
  EXPECT_GT(rejected, 100u);
}

TEST(RatingsParser, LoadRatingsStillThrowsRuntimeErrorForLegacyCallers) {
  std::istringstream in("1,2,3\nbroken line\n");
  EXPECT_THROW(load_ratings(in), std::runtime_error);
  try {
    std::istringstream again("1,2,3\nbroken line\n");
    load_ratings(again);
  } catch (const RatingsError& e) {
    EXPECT_EQ(e.kind(), Kind::MalformedLine);
    EXPECT_EQ(e.line(), 2u);
  }
}

// ------------------------------------------------------ out-of-core --

/// Raw-id profile map from the in-memory loader (items translated back
/// through its remap so both paths speak raw ids).
std::map<std::uint64_t, std::map<std::uint64_t, float>> canonical_in_memory(
    const std::string& path) {
  const RatingsData data = load_ratings_file(path);
  std::map<std::uint64_t, std::map<std::uint64_t, float>> by_user;
  for (std::size_t u = 0; u < data.profiles.size(); ++u) {
    auto& row = by_user[data.user_ids[u]];
    for (const ProfileEntry& e : data.profiles[u].entries()) {
      row[data.item_ids[e.item]] = e.weight;
    }
  }
  return by_user;
}

std::map<std::uint64_t, std::map<std::uint64_t, float>> canonical_store(
    const std::string& store_path) {
  std::map<std::uint64_t, std::map<std::uint64_t, float>> by_user;
  read_profile_store(store_path, [&](VertexId, std::uint64_t raw_user,
                                     SparseProfile profile) {
    auto& row = by_user[raw_user];
    for (const ProfileEntry& e : profile.entries()) {
      row[e.item] = e.weight;
    }
  });
  return by_user;
}

TEST(OutOfCoreIngest, MatchesTheInMemoryLoaderOnAMessyFile) {
  const std::string ratings = tmp_path("messy.csv");
  const std::string store = tmp_path("messy.kprs");
  // Comments, CRLF, duplicate (user,item) pairs (last wins), unsorted
  // users, a trailing timestamp column, blank lines.
  write_file(ratings,
             "# header comment\r\n"
             "42,7,1.0\r\n"
             "\r\n"
             "3,1,2.0,964982703\n"
             "42,7,4.5\n"     // duplicate: must win over 1.0
             "%matrix-market style comment\n"
             "100,2,3.0\n"
             "3,9,5.0\n"
             "42,9,2.0\n"
             "42,7,0.5\n");   // duplicate again: 0.5 is final
  const OutOfCoreIngestStats stats = ingest_ratings_file(ratings, store);
  EXPECT_EQ(stats.lines, 7u);
  EXPECT_EQ(stats.duplicates, 2u);
  EXPECT_EQ(stats.ratings, 5u);
  EXPECT_EQ(stats.users, 3u);
  EXPECT_EQ(stats.num_items, 10u);  // max raw item 9
  EXPECT_EQ(stats.runs, 1u);
  EXPECT_EQ(stats.bytes_spilled, 0u);

  const auto expected = canonical_in_memory(ratings);
  const auto got = canonical_store(store);
  EXPECT_EQ(got, expected);
  EXPECT_FLOAT_EQ(got.at(42).at(7), 0.5f);

  // The streaming reader hands out users in dense ascending-raw-id order.
  std::vector<std::uint64_t> raw_order;
  const ProfileStoreInfo info = read_profile_store(
      store, [&](VertexId dense, std::uint64_t raw, SparseProfile) {
        EXPECT_EQ(dense, raw_order.size());
        raw_order.push_back(raw);
      });
  EXPECT_EQ(raw_order, (std::vector<std::uint64_t>{3, 42, 100}));
  EXPECT_EQ(info.users, 3u);
  EXPECT_EQ(info.duplicates, 2u);
}

TEST(OutOfCoreIngest, SpillsAndMergesWhenTheFileOutgrowsTheBudget) {
  const std::string ratings = tmp_path("large.csv");
  const std::string store = tmp_path("large.kprs");
  // ~120k ratings at the minimum 1 MiB budget -> multiple sorted runs.
  Rng rng(99);
  {
    std::ofstream out(ratings, std::ios::trunc);
    ASSERT_TRUE(out);
    for (int i = 0; i < 120000; ++i) {
      out << rng.next_below(5000) << ',' << rng.next_below(2000) << ','
          << (1 + rng.next_below(5)) << '\n';
    }
  }
  OutOfCoreIngestConfig config;
  config.memory_budget_bytes = 1;  // clamped up to kMinIngestBudgetBytes
  const OutOfCoreIngestStats stats =
      ingest_ratings_file(ratings, store, config);
  EXPECT_EQ(stats.lines, 120000u);
  EXPECT_GE(stats.runs, 3u) << "the file must not have fit one run";
  EXPECT_GT(stats.bytes_spilled, 0u);
  EXPECT_LE(stats.peak_memory_bytes, kMinIngestBudgetBytes);
  EXPECT_EQ(stats.ratings + stats.duplicates, stats.lines);

  EXPECT_EQ(canonical_store(store), canonical_in_memory(ratings));

  // The spill-run scratch file is cleaned up after the merge.
  std::ifstream runs(store + ".runs");
  EXPECT_FALSE(runs.good()) << "run file must be removed after the merge";
}

TEST(OutOfCoreIngest, LoadProfileStoreRoundTripsIntoRatingsData) {
  const std::string ratings = tmp_path("roundtrip.csv");
  const std::string store = tmp_path("roundtrip.kprs");
  write_file(ratings, "5,1,1.5\n2,3,2.5\n5,0,3.5\n");
  (void)ingest_ratings_file(ratings, store);
  const RatingsData data = load_profile_store(store);
  ASSERT_EQ(data.profiles.size(), 2u);
  EXPECT_EQ(data.user_ids, (std::vector<std::uint64_t>{2, 5}));
  EXPECT_EQ(data.num_ratings, 3u);
  ASSERT_EQ(data.item_ids.size(), 4u);  // identity map over [0, max_item]
  EXPECT_EQ(data.item_ids[3], 3u);
  EXPECT_EQ(data.profiles[1].entries().size(), 2u);  // user 5: items 0, 1
}

TEST(OutOfCoreIngest, EmptyAndCommentOnlyFilesProduceAnEmptyStore) {
  const std::string ratings = tmp_path("empty.csv");
  const std::string store = tmp_path("empty.kprs");
  write_file(ratings, "# nothing here\n\n");
  const OutOfCoreIngestStats stats = ingest_ratings_file(ratings, store);
  EXPECT_EQ(stats.lines, 0u);
  EXPECT_EQ(stats.users, 0u);
  EXPECT_EQ(stats.runs, 0u);
  const ProfileStoreInfo info = read_profile_store(
      store, [](VertexId, std::uint64_t, SparseProfile) {
        FAIL() << "no users expected";
      });
  EXPECT_EQ(info.users, 0u);
}

TEST(OutOfCoreIngest, TypedErrorsOnHostileInput) {
  const std::string store = tmp_path("err.kprs");
  {
    const std::string ratings = tmp_path("malformed.csv");
    write_file(ratings, "1,2,3\nnot a rating\n");
    try {
      ingest_ratings_file(ratings, store);
      FAIL();
    } catch (const RatingsError& e) {
      EXPECT_EQ(e.kind(), Kind::MalformedLine);
      EXPECT_EQ(e.line(), 2u);
    }
  }
  {
    // An item id that cannot fit ItemId: the out-of-core path keeps raw
    // item ids, so it must reject instead of silently remapping.
    const std::string ratings = tmp_path("bigitem.csv");
    write_file(ratings, "1,4294967296,3\n");
    try {
      ingest_ratings_file(ratings, store);
      FAIL();
    } catch (const RatingsError& e) {
      EXPECT_EQ(e.kind(), Kind::OutOfRangeId);
    }
  }
  {
    // A line longer than the carry bound, with no newline in sight.
    const std::string ratings = tmp_path("longline.csv");
    write_file(ratings, std::string(2 * kMaxRatingLineBytes, '7'));
    try {
      ingest_ratings_file(ratings, store);
      FAIL();
    } catch (const RatingsError& e) {
      EXPECT_EQ(e.kind(), Kind::LineTooLong);
    }
  }
  {
    EXPECT_THROW(ingest_ratings_file(tmp_path("does-not-exist.csv"), store),
                 RatingsError);
  }
}

TEST(OutOfCoreIngest, StoreValidationCatchesTruncationAndCorruption) {
  const std::string ratings = tmp_path("valid.csv");
  const std::string store = tmp_path("valid.kprs");
  write_file(ratings, "1,2,3.5\n2,4,1.0\n3,6,2.0\n");
  (void)ingest_ratings_file(ratings, store);
  const auto discard = [](VertexId, std::uint64_t, SparseProfile) {};

  std::string bytes;
  {
    std::ifstream in(store, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  ASSERT_GT(bytes.size(), 50u);

  {  // Cut mid-file: footer magic lands in the wrong place.
    const std::string cut = tmp_path("cut.kprs");
    write_file(cut, bytes.substr(0, bytes.size() - 7));
    try {
      read_profile_store(cut, discard);
      FAIL();
    } catch (const RatingsError& e) {
      EXPECT_TRUE(e.kind() == Kind::Truncated || e.kind() == Kind::Corrupt)
          << static_cast<int>(e.kind());
    }
  }
  {  // Too short for header + footer.
    const std::string stub = tmp_path("stub.kprs");
    write_file(stub, bytes.substr(0, 10));
    EXPECT_THROW(read_profile_store(stub, discard), RatingsError);
  }
  {  // Flip one body byte: the FNV footer checksum must catch it.
    std::string flipped = bytes;
    flipped[12] = static_cast<char>(flipped[12] ^ 0x40);
    const std::string bad = tmp_path("flipped.kprs");
    write_file(bad, flipped);
    try {
      read_profile_store(bad, discard);
      FAIL();
    } catch (const RatingsError& e) {
      EXPECT_TRUE(e.kind() == Kind::Corrupt || e.kind() == Kind::Truncated)
          << static_cast<int>(e.kind());
    }
  }
  {  // Wrong magic.
    std::string wrong = bytes;
    wrong[0] = 'X';
    const std::string bad = tmp_path("magic.kprs");
    write_file(bad, wrong);
    try {
      read_profile_store(bad, discard);
      FAIL();
    } catch (const RatingsError& e) {
      EXPECT_EQ(e.kind(), Kind::Corrupt);
    }
  }
  {  // Missing file.
    EXPECT_THROW(read_profile_store(tmp_path("nope.kprs"), discard),
                 RatingsError);
  }
}

// ---------------------------------------------------------- RSS stress --

std::size_t vm_hwm_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      std::size_t kib = 0;
      fields >> kib;
      return kib;
    }
  }
  return 0;
}

// Split into its own ctest entry (`ratings_ingest_stress`, labelled
// `stress`) so the sanitize job can exclude it: sanitizer shadow memory
// inflates RSS far past any budget by design.
TEST(OutOfCoreStress, BuildsAColdStartStoreWithBoundedRss) {
  const std::string ratings = tmp_path("stress.csv");
  const std::string store = tmp_path("stress.kprs");
  constexpr std::size_t kBudget = 4u << 20;  // 4 MiB

  // Stream out a ratings file >= 4x the ingest budget without ever
  // holding it in memory.
  Rng rng(1234);
  std::uint64_t file_bytes = 0;
  {
    std::ofstream out(ratings, std::ios::trunc);
    ASSERT_TRUE(out);
    char line[64];
    for (int i = 0; i < 1100000; ++i) {
      const int len = std::snprintf(
          line, sizeof(line), "%llu,%llu,%u.%u\n",
          static_cast<unsigned long long>(rng.next_below(200000)),
          static_cast<unsigned long long>(rng.next_below(50000)),
          1 + static_cast<unsigned>(rng.next_below(5)),
          static_cast<unsigned>(rng.next_below(10)));
      out.write(line, len);
      file_bytes += static_cast<std::uint64_t>(len);
    }
  }
  ASSERT_GE(file_bytes, 4 * kBudget)
      << "stress file must be >= 4x the memory budget";

  const std::size_t hwm_before_kib = vm_hwm_kib();

  OutOfCoreIngestConfig config;
  config.memory_budget_bytes = kBudget;
  const OutOfCoreIngestStats stats =
      ingest_ratings_file(ratings, store, config);

  // The bounded-RSS contract, primary form: the ingester's instrumented
  // working-set high-water mark stays within the configured budget even
  // though the input is >= 4x larger.
  EXPECT_EQ(stats.lines, 1100000u);
  EXPECT_GE(stats.runs, 4u);
  EXPECT_LE(stats.peak_memory_bytes, kBudget)
      << "ingest working set exceeded the configured budget";
  EXPECT_GT(stats.bytes_spilled, 2 * kBudget);

  // Secondary, whole-process form: the OS-visible high-water-mark delta
  // across the ingest stays within budget + allocator/stdlib slack. (VmHWM
  // is monotonic over the process lifetime, so this is a one-sided bound;
  // the instrumented check above is the precise one.)
  const std::size_t hwm_after_kib = vm_hwm_kib();
  if (hwm_before_kib > 0 && hwm_after_kib > 0) {
    const std::size_t delta_bytes = (hwm_after_kib - hwm_before_kib) * 1024;
    EXPECT_LE(delta_bytes, kBudget + (24u << 20))
        << "process RSS grew far past the ingest budget";
  }

  // And the store is complete: every surviving rating accounted for.
  std::uint64_t entries = 0;
  const ProfileStoreInfo info = read_profile_store(
      store, [&](VertexId, std::uint64_t, SparseProfile profile) {
        entries += profile.entries().size();
      });
  EXPECT_EQ(info.users, stats.users);
  EXPECT_EQ(info.ratings, stats.ratings);
  EXPECT_EQ(entries, stats.ratings);
  EXPECT_EQ(stats.ratings + stats.duplicates, stats.lines);

  std::remove(ratings.c_str());
  std::remove(store.c_str());
}

}  // namespace
}  // namespace knnpc
