// Differential suite for the batched phase-4 similarity kernels
// (profiles/similarity_kernels.h): every measure through the item table
// and through the merge it falls back to, on random and adversarial
// profiles. Kernel scores must be *bit-identical* to the reference
// similarity() functions, which is the contract that keeps the golden
// checksums (tests/golden, pinned through the engines by golden_test)
// independent of the scoring path. Also covers the flat profile layout
// and u16 weight quantization.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "profiles/compact.h"
#include "profiles/flat_profile.h"
#include "profiles/generators.h"
#include "profiles/similarity.h"
#include "profiles/similarity_kernels.h"
#include "profiles/profile_store.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace knnpc {
namespace {

SparseProfile prof(std::vector<ProfileEntry> entries) {
  return SparseProfile(std::move(entries));
}

/// Random profile of exactly `len` entries with mixed-sign weights and a
/// controllable item stride (stride > 1 thins the overlap with other
/// profiles; stride 1 makes it dense).
SparseProfile random_profile(std::size_t len, std::uint32_t stride,
                             Rng& rng) {
  std::vector<ProfileEntry> entries;
  entries.reserve(len);
  ItemId item = static_cast<ItemId>(rng.next_below(stride + 1));
  for (std::size_t i = 0; i < len; ++i) {
    const float w =
        static_cast<float>(rng.next_double() * 10.0 - 5.0);
    entries.push_back({item, w == 0.0f ? 1.0f : w});
    item += 1 + static_cast<ItemId>(rng.next_below(stride));
  }
  return prof(std::move(entries));
}

/// Packs profiles [0, n) into a FlatProfileSet under ids 0..n-1.
FlatProfileSet flatten(const std::vector<SparseProfile>& profiles,
                       bool quantize = false) {
  FlatProfileSet set(quantize);
  for (VertexId v = 0; v < profiles.size(); ++v) set.add(v, profiles[v]);
  return set;
}

::testing::AssertionResult bit_equal(float a, float b) {
  if (std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  // Each << on an AssertionResult formats into a fresh Message, so a
  // std::hex there would not reach the next operand: format the bits first.
  std::ostringstream bits;
  bits << std::hex << "0x" << std::bit_cast<std::uint32_t>(a) << " vs 0x"
       << std::bit_cast<std::uint32_t>(b);
  return ::testing::AssertionFailure()
         << a << " != " << b << " (bits " << bits.str() << ")";
}

/// The adversarial length set: empty, singletons, powers of two and their
/// off-by-ones, and a list long enough to cross the galloping cutoff.
const std::size_t kAdversarialLengths[] = {0, 1, 2, 3,  4,  5,  7,  8, 9,
                                           15, 16, 17, 31, 32, 33, 1000};

// ----------------------------------------------------- flat profiles --

TEST(FlatProfileSetTest, NormAndMeanMatchScalarAccumulation) {
  Rng rng(11);
  for (const std::size_t len : kAdversarialLengths) {
    const SparseProfile p = random_profile(len, 3, rng);
    FlatProfileSet set;
    set.add(7, p);
    const FlatProfileSet::View v = set.view(7);
    ASSERT_EQ(v.size, p.size());
    // Bit-identical to the cached SparseProfile accumulation.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v.norm),
              std::bit_cast<std::uint64_t>(p.norm()));
    double sum = 0.0;
    for (const ProfileEntry& e : p.entries()) sum += e.weight;
    const double mean =
        p.empty() ? 0.0 : sum / static_cast<double>(p.size());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v.mean),
              std::bit_cast<std::uint64_t>(mean));
    for (std::uint32_t i = 0; i < v.size; ++i) {
      EXPECT_EQ(v.items[i], p.entries()[i].item);
      EXPECT_TRUE(bit_equal(v.weights[i], p.entries()[i].weight));
    }
  }
}

TEST(FlatProfileSetTest, LookupConventions) {
  FlatProfileSet set;
  set.add(3, prof({{1, 1.0f}}));
  EXPECT_EQ(set.num_profiles(), 1u);
  EXPECT_EQ(set.total_entries(), 1u);
  FlatProfileSet::View v;
  EXPECT_TRUE(set.find(3, v));
  EXPECT_FALSE(set.find(4, v));
  EXPECT_THROW((void)set.view(4), std::out_of_range);
  EXPECT_THROW(set.add(3, prof({})), std::invalid_argument);
}

TEST(FlatProfileSetTest, FromProfilesMatchesAddBitForBit) {
  Rng rng(19);
  std::vector<SparseProfile> profiles;
  std::vector<VertexId> ids;
  for (VertexId v = 0; v < 300; ++v) {
    profiles.push_back(random_profile(rng.next_below(40), 2, rng));
    ids.push_back(3 * v + 1);  // sparse ids: lookups binary-search
  }
  const std::vector<std::byte> packed = pack_profiles(profiles);
  const auto rows = packed_profile_views(packed);
  ThreadPool pool(3);
  for (const bool quantize : {false, true}) {
    FlatProfileSet added(quantize);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      added.add(ids[i], profiles[i]);
    }
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      const FlatProfileSet decoded =
          FlatProfileSet::from_profiles(ids, rows, quantize, p);
      ASSERT_EQ(decoded.num_profiles(), added.num_profiles());
      ASSERT_EQ(decoded.total_entries(), added.total_entries());
      for (const VertexId id : ids) {
        const FlatProfileSet::View a = added.view(id);
        const FlatProfileSet::View b = decoded.view(id);
        ASSERT_EQ(a.size, b.size);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.norm),
                  std::bit_cast<std::uint64_t>(b.norm));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.mean),
                  std::bit_cast<std::uint64_t>(b.mean));
        EXPECT_EQ(decoded.scale_of(id), added.scale_of(id));
        for (std::uint32_t i = 0; i < a.size; ++i) {
          EXPECT_EQ(a.items[i], b.items[i]);
          EXPECT_TRUE(bit_equal(a.weights[i], b.weights[i]));
        }
      }
      FlatProfileSet::View miss;
      EXPECT_FALSE(decoded.find(0, miss));
      EXPECT_FALSE(decoded.find(5, miss));  // inside the id range
      EXPECT_FALSE(decoded.find(3 * 300 + 1, miss));
    }
  }
  const std::vector<VertexId> unsorted = {9, 4};
  EXPECT_THROW(FlatProfileSet::from_profiles(
                   unsorted, std::span(rows).subspan(0, 2), false),
               std::invalid_argument);
  EXPECT_THROW(FlatProfileSet::from_profiles(unsorted, rows, false),
               std::invalid_argument);  // one id per profile
}

// ----------------------------------------------------- quantization --

TEST(QuantizeWeightsTest, RoundTripProperties) {
  Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    const SparseProfile p =
        random_profile(1 + rng.next_below(64), 2, rng);
    std::vector<float> weights;
    for (const ProfileEntry& e : p.entries()) weights.push_back(e.weight);
    std::vector<std::uint16_t> codes(weights.size());
    const float scale = quantize_weights_u16(weights, codes);
    for (std::size_t i = 0; i < weights.size(); ++i) {
      const float back = dequantize_weight_u16(codes[i], scale);
      // Worst-case absolute error is half a quantization step.
      EXPECT_LE(std::abs(back - weights[i]), scale * 0.5f + 1e-6f)
          << "weight " << weights[i] << " scale " << scale;
    }
  }
  // Empty profile: scale defaults to 1.
  EXPECT_EQ(quantize_weights_u16({}, {}), 1.0f);
  // Exact zero always round-trips to exact zero.
  const std::vector<float> five = {5.0f};
  std::vector<std::uint16_t> code(1);
  EXPECT_EQ(dequantize_weight_u16(32768, quantize_weights_u16(five, code)),
            0.0f);
  EXPECT_THROW(quantize_weights_u16(five, {}), std::invalid_argument);
}

TEST(QuantizedFlatSetTest, HalvesWeightPayloadAndStaysDeterministic) {
  Rng rng(17);
  std::vector<SparseProfile> profiles;
  for (int i = 0; i < 8; ++i) profiles.push_back(random_profile(40, 2, rng));
  const FlatProfileSet plain = flatten(profiles, false);
  const FlatProfileSet quant = flatten(profiles, true);
  EXPECT_TRUE(quant.quantized());
  // u16 codes + one f32 scale per profile vs f32 per entry.
  EXPECT_EQ(plain.weight_payload_bytes(), 8u * 40u * sizeof(float));
  EXPECT_EQ(quant.weight_payload_bytes(),
            8u * 40u * sizeof(std::uint16_t) + 8u * sizeof(float));
  EXPECT_GT(quant.scale_of(0), 0.0f);
  EXPECT_EQ(plain.scale_of(0), 1.0f);

  // Quantized scoring is NOT bit-identical to f32, but the item table
  // (score_batch) and the merge (score_pair) must agree bit for bit on it
  // for every measure.
  KernelScratch scratch;
  for (const SimilarityMeasure m : kAllSimilarityMeasures) {
    for (VertexId v = 1; v < 8; ++v) {
      const float merge =
          score_pair(quant.view(0), quant.view(v), m, scratch);
      float table = -1.0f;
      const VertexId candidate[] = {v};
      score_batch(quant, nullptr, 0, candidate, m, &table, scratch);
      EXPECT_TRUE(bit_equal(merge, table)) << similarity_name(m);
    }
  }
}

// ------------------------------------------------------ intersection --

/// Reference intersection via the scalar merge in its simplest form.
std::vector<std::pair<std::uint32_t, std::uint32_t>> reference_intersect(
    const SparseProfile& a, const SparseProfile& b) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  std::uint32_t i = 0;
  std::uint32_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a.entries()[i].item < b.entries()[j].item) {
      ++i;
    } else if (b.entries()[j].item < a.entries()[i].item) {
      ++j;
    } else {
      out.emplace_back(i, j);
      ++i;
      ++j;
    }
  }
  return out;
}

TEST(IntersectTest, MatchesReferenceOnAdversarialLengths) {
  Rng rng(19);
  KernelScratch scratch;
  for (const std::size_t la : kAdversarialLengths) {
    for (const std::size_t lb : kAdversarialLengths) {
      const SparseProfile a = random_profile(la, 2, rng);
      const SparseProfile b = random_profile(lb, 2, rng);
      const auto expected = reference_intersect(a, b);
      const FlatProfileSet set = flatten({a, b});
      const auto va = set.view(0);
      const auto vb = set.view(1);
      const std::uint32_t count =
          intersect_items(va.items, va.size, vb.items, vb.size, scratch);
      ASSERT_EQ(count, expected.size()) << "la=" << la << " lb=" << lb;
      for (std::uint32_t k = 0; k < count; ++k) {
        EXPECT_EQ(scratch.match_a[k], expected[k].first);
        EXPECT_EQ(scratch.match_b[k], expected[k].second);
      }
    }
  }
}

TEST(IntersectTest, SkewedLengthsTakeTheGallopingPathCorrectly) {
  // 3 vs 1000 entries crosses the galloping cutoff (32x).
  Rng rng(23);
  const SparseProfile big = random_profile(1000, 2, rng);
  // Build the small profile from items *of* the big one so matches exist.
  std::vector<ProfileEntry> small_entries = {
      {big.entries()[1].item, 1.0f},
      {big.entries()[500].item, -2.0f},
      {big.entries()[998].item, 3.0f}};
  const SparseProfile small = prof(std::move(small_entries));
  const FlatProfileSet set = flatten({small, big});
  KernelScratch scratch;
  // Both orientations (gallop in a vs gallop in b).
  EXPECT_EQ(intersect_items(set.view(0).items, 3, set.view(1).items, 1000,
                            scratch),
            3u);
  EXPECT_EQ(intersect_items(set.view(1).items, 1000, set.view(0).items, 3,
                            scratch),
            3u);
}

// ------------------------------------------- measure differentials --

class KernelDifferentialTest
    : public ::testing::TestWithParam<SimilarityMeasure> {};

TEST_P(KernelDifferentialTest, BitIdenticalToScalarOnRandomProfiles) {
  Rng rng(31);
  ProfileGenConfig config;
  config.num_users = 60;
  config.num_items = 120;  // dense enough for real overlaps
  const auto profiles = uniform_profiles(config, rng);
  const FlatProfileSet set = flatten(profiles);
  KernelScratch scratch;
  for (std::size_t i = 0; i + 1 < profiles.size(); i += 2) {
    const float reference =
        similarity(GetParam(), profiles[i], profiles[i + 1]);
    const float kernel =
        score_pair(set.view(static_cast<VertexId>(i)),
                   set.view(static_cast<VertexId>(i + 1)), GetParam(),
                   scratch);
    EXPECT_TRUE(bit_equal(kernel, reference)) << "pair " << i;
  }
}

TEST_P(KernelDifferentialTest, BitIdenticalOnAdversarialLengths) {
  Rng rng(37);
  KernelScratch scratch;
  for (const std::size_t la : kAdversarialLengths) {
    for (const std::size_t lb : kAdversarialLengths) {
      // stride 1-2 forces heavy overlap; mixed-sign weights stress the
      // centred measures.
      const SparseProfile a = random_profile(la, 2, rng);
      const SparseProfile b = random_profile(lb, 2, rng);
      const float reference = similarity(GetParam(), a, b);
      const FlatProfileSet set = flatten({a, b});
      const float kernel =
          score_pair(set.view(0), set.view(1), GetParam(), scratch);
      EXPECT_TRUE(bit_equal(kernel, reference))
          << "la=" << la << " lb=" << lb;
    }
  }
}

TEST_P(KernelDifferentialTest, DegenerateConventionsSurviveTheKernels) {
  // The convention table from similarity.h, through the kernel path.
  const SparseProfile empty = prof({});
  const SparseProfile single = prof({{5, 2.0f}});
  const SparseProfile constant = prof({{1, 2.0f}, {2, 2.0f}, {3, 2.0f}});
  const SparseProfile varied = prof({{1, 1.0f}, {2, 5.0f}, {3, 3.0f}});
  const std::vector<SparseProfile> zoo = {empty, single, constant, varied};
  const FlatProfileSet set = flatten(zoo);
  KernelScratch scratch;
  for (VertexId i = 0; i < zoo.size(); ++i) {
    for (VertexId j = 0; j < zoo.size(); ++j) {
      const float reference = similarity(GetParam(), zoo[i], zoo[j]);
      EXPECT_TRUE(bit_equal(
          score_pair(set.view(i), set.view(j), GetParam(), scratch),
          reference))
          << "zoo pair (" << i << ", " << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMeasures, KernelDifferentialTest,
    ::testing::ValuesIn(kAllSimilarityMeasures),
    [](const ::testing::TestParamInfo<SimilarityMeasure>& info) {
      std::string name = similarity_name(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// --------------------------------------------------------- score_batch --

TEST(ScoreBatchTest, ScoresCandidatesAgainstBothSetsOfAPair) {
  Rng rng(41);
  std::vector<SparseProfile> left;
  std::vector<SparseProfile> right;
  for (int i = 0; i < 4; ++i) left.push_back(random_profile(20, 2, rng));
  for (int i = 0; i < 4; ++i) right.push_back(random_profile(20, 2, rng));
  FlatProfileSet primary;
  FlatProfileSet secondary;
  for (VertexId v = 0; v < 4; ++v) primary.add(v, left[v]);
  for (VertexId v = 0; v < 4; ++v) secondary.add(4 + v, right[v]);

  const std::vector<VertexId> candidates = {1, 5, 2, 7};  // both sides
  std::vector<float> out(candidates.size());
  KernelScratch scratch;
  score_batch(primary, &secondary, /*src=*/0, candidates,
              SimilarityMeasure::Cosine, out.data(), scratch);
  auto profile_of = [&](VertexId v) -> const SparseProfile& {
    return v < 4 ? left[v] : right[v - 4];
  };
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    EXPECT_TRUE(bit_equal(
        out[c], cosine_similarity(left[0], profile_of(candidates[c]))));
  }
  // Endpoints outside the pair raise the engines' logic_error condition.
  const std::vector<VertexId> stranger = {99};
  EXPECT_THROW(score_batch(primary, &secondary, 0, stranger,
                           SimilarityMeasure::Cosine, out.data(), scratch),
               std::logic_error);
  EXPECT_THROW(score_batch(primary, nullptr, 99, candidates,
                           SimilarityMeasure::Cosine, out.data(), scratch),
               std::logic_error);
}

// ---------------------------------------------------------- table path --
//
// score_batch scores through the calling thread's ItemTable. Each case
// runs a sequence of batches on one thread, so a table left dirty by one
// source (a skipped reset) corrupts a later source's matches; every score
// must equal similarity() bit for bit.

/// (source, candidates) batches, scored in order.
using Batches = std::vector<std::pair<VertexId, std::vector<VertexId>>>;

/// Profile holding exactly `items` (ascending), weights of magnitude in
/// [0.5, 5) and random sign: never zero, so quantized rows keep every
/// entry when rebuilt as SparseProfiles.
SparseProfile profile_of_items(const std::vector<ItemId>& items, Rng& rng) {
  std::vector<ProfileEntry> entries;
  for (const ItemId item : items) {
    const float w = static_cast<float>(0.5 + rng.next_double() * 4.5);
    entries.push_back({item, rng.next_below(2) == 0 ? w : -w});
  }
  return prof(std::move(entries));
}

/// Every profile of `set` rebuilt from its stored (for a quantized set,
/// dequantized) weights — what similarity() must agree with.
std::vector<SparseProfile> stored_profiles(const FlatProfileSet& set,
                                           VertexId n) {
  std::vector<SparseProfile> out;
  for (VertexId v = 0; v < n; ++v) {
    const FlatProfileSet::View view = set.view(v);
    std::vector<ProfileEntry> entries;
    for (std::uint32_t i = 0; i < view.size; ++i) {
      entries.push_back({view.items[i], view.weights[i]});
    }
    out.push_back(prof(std::move(entries)));
    EXPECT_EQ(out.back().size(), view.size) << "a stored weight is zero";
  }
  return out;
}

/// Runs `batches` through score_batch over profiles packed under ids
/// 0..n-1, for every measure, and checks each score against similarity()
/// on the stored weights.
void expect_batches_match_similarity(
    const std::vector<SparseProfile>& profiles, const Batches& batches,
    bool quantize = false) {
  const FlatProfileSet set = flatten(profiles, quantize);
  const std::vector<SparseProfile> stored =
      stored_profiles(set, static_cast<VertexId>(profiles.size()));
  KernelScratch scratch;
  std::vector<float> out;
  for (const SimilarityMeasure m : kAllSimilarityMeasures) {
    for (const auto& [src, candidates] : batches) {
      out.assign(candidates.size(), -1.0f);
      score_batch(set, nullptr, src, candidates, m, out.data(), scratch);
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        EXPECT_TRUE(bit_equal(
            out[c], similarity(m, stored[src], stored[candidates[c]])))
            << similarity_name(m) << " source " << src << " candidate "
            << candidates[c] << (quantize ? " (quantized)" : "");
      }
    }
  }
}

/// Every profile as a source, in id order, against every profile.
Batches all_pairs(VertexId n) {
  std::vector<VertexId> everyone(n);
  for (VertexId v = 0; v < n; ++v) everyone[v] = v;
  Batches batches;
  for (VertexId s = 0; s < n; ++s) batches.emplace_back(s, everyone);
  return batches;
}

TEST(TablePathTest, EveryMeasureMatchesSimilarityUnquantizedAndQuantized) {
  Rng rng(43);
  std::vector<SparseProfile> profiles;
  for (int i = 0; i < 40; ++i) {
    std::vector<ItemId> items;
    for (ItemId item = 0; item < 160; ++item) {
      if (rng.next_below(6) == 0) items.push_back(item);
    }
    profiles.push_back(profile_of_items(items, rng));
  }
  const Batches batches = all_pairs(static_cast<VertexId>(profiles.size()));
  expect_batches_match_similarity(profiles, batches, /*quantize=*/false);
  expect_batches_match_similarity(profiles, batches, /*quantize=*/true);
}

TEST(TablePathTest, SparseProfileCandidatesMatchSimilarity) {
  // Beam search's overload: the candidate is a SparseProfile read in
  // place. One table serves every source in turn.
  Rng rng(47);
  std::vector<SparseProfile> profiles;
  for (const std::size_t len : kAdversarialLengths) {
    profiles.push_back(random_profile(len, 2, rng));
  }
  const FlatProfileSet set = flatten(profiles);
  ItemTable table;
  KernelScratch scratch;
  for (const SimilarityMeasure m : kAllSimilarityMeasures) {
    for (VertexId s = 0; s < profiles.size(); ++s) {
      const ItemTable::Source source(table, set.view(s));
      ASSERT_TRUE(source.indexed());
      for (const SparseProfile& candidate : profiles) {
        EXPECT_TRUE(bit_equal(source.score(candidate, m, scratch),
                              similarity(m, profiles[s], candidate)))
            << similarity_name(m) << " source length " << profiles[s].size()
            << " candidate length " << candidate.size();
      }
    }
  }
}

TEST(TablePathTest, EmptyProfilesOnEitherSide) {
  Rng rng(53);
  const std::vector<SparseProfile> profiles = {
      prof({}),
      profile_of_items({0, 2, 4, 6, 8}, rng),
      profile_of_items({1, 2, 3, 8, 9}, rng),
      profile_of_items({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, rng),
      prof({}),
  };
  // Empty sources between non-empty ones, empty candidates in every run.
  expect_batches_match_similarity(profiles, {{1, {0, 2, 3, 4}},
                                             {0, {1, 2, 3, 4, 0}},
                                             {2, {0, 1, 3}},
                                             {4, {3, 0}},
                                             {3, {4, 1, 2, 3}},
                                             {0, {3}}});
}

TEST(TablePathTest, ItemZeroAndTheFallbackBound) {
  Rng rng(59);
  const ItemId bound = kItemTableBound;
  const std::vector<SparseProfile> profiles = {
      profile_of_items({0}, rng),
      profile_of_items({0, 5, bound - 1}, rng),  // largest item indexed
      profile_of_items({0, 7, bound}, rng),      // at the bound: merge
      profile_of_items({bound - 1, bound, bound + 9}, rng),
      profile_of_items({1, 5, 7}, rng),
      profile_of_items({0, 1, 5, 7, bound - 1, bound + 9}, rng),
  };
  const FlatProfileSet set = flatten(profiles);
  ItemTable table;
  const std::vector<bool> indexed = {true, true, false, false, true, false};
  for (VertexId v = 0; v < profiles.size(); ++v) {
    const ItemTable::Source source(table, set.view(v));
    EXPECT_EQ(source.indexed(), indexed[v]) << "profile " << v;
  }
  expect_batches_match_similarity(
      profiles, all_pairs(static_cast<VertexId>(profiles.size())));
}

TEST(TablePathTest, CandidatesAboveTheSourcesLargestItem) {
  Rng rng(61);
  const std::vector<SparseProfile> profiles = {
      profile_of_items({0, 2, 4, 6}, rng),
      profile_of_items({1, 3, 5}, rng),
      profile_of_items({1, 3, 5, 6, 100, 5000}, rng),
      profile_of_items({0, 2, 4, 60000}, rng),
      profile_of_items({7, 8, 9000}, rng),
  };
  expect_batches_match_similarity(
      profiles, {{0, {1, 2, 3, 4}}, {1, {2, 3, 4, 0}}, {0, {2}}, {1, {3}}});
  // A table sized for a small source never reads past it: candidate
  // items beyond the largest source item end the lookup.
  const FlatProfileSet set = flatten(profiles);
  ItemTable table;
  KernelScratch scratch;
  for (const VertexId src : {VertexId{0}, VertexId{1}}) {
    const ItemTable::Source source(table, set.view(src));
    for (VertexId d = 0; d < profiles.size(); ++d) {
      EXPECT_TRUE(bit_equal(
          source.score(set.view(d), SimilarityMeasure::Cosine, scratch),
          similarity(SimilarityMeasure::Cosine, profiles[src], profiles[d])))
          << "source " << src << " candidate " << d;
    }
  }
}

TEST(TablePathTest, OneCandidateRunsAndLongRuns) {
  Rng rng(67);
  ProfileGenConfig config;
  config.num_users = 300;
  config.num_items = 400;
  const std::vector<SparseProfile> profiles = uniform_profiles(config, rng);
  const auto n = static_cast<VertexId>(profiles.size());
  Batches batches;
  for (VertexId s = 0; s < n; ++s) {
    batches.push_back({s, {(s * 7 + 1) % n}});  // one candidate per run
  }
  for (const Batches::value_type& run : all_pairs(n)) {
    if (run.first % 50 == 0) batches.push_back(run);  // n candidates
  }
  expect_batches_match_similarity(profiles, batches);
}

TEST(TablePathTest, BackToBackSourcesSharingAndNotSharingItems) {
  Rng rng(71);
  std::vector<ItemId> evens;
  std::vector<ItemId> odds;
  for (ItemId i = 10; i < 30; ++i) (i % 2 == 0 ? evens : odds).push_back(i);
  std::vector<ItemId> evens_and_some_odds = evens;
  evens_and_some_odds.insert(evens_and_some_odds.end(), {11, 13});
  std::sort(evens_and_some_odds.begin(), evens_and_some_odds.end());
  const std::vector<SparseProfile> profiles = {
      profile_of_items(evens, rng),
      profile_of_items(evens_and_some_odds, rng),  // shares with 0
      profile_of_items(odds, rng),                 // disjoint from 0
      profile_of_items({10, 11, 12, 13, 28, 29}, rng),
  };
  expect_batches_match_similarity(
      profiles, {{0, {1, 2, 3}}, {1, {0, 2, 3}}, {2, {0, 1, 3}},
                 {0, {2, 3}}, {2, {3, 0}}, {3, {0, 1, 2}}});

  // A batch that throws part-way (a candidate outside the loaded pair)
  // still leaves the thread's table clean for the next source.
  const FlatProfileSet set = flatten(profiles);
  KernelScratch scratch;
  std::vector<float> out(2);
  const std::vector<VertexId> with_stranger = {3, 99};
  EXPECT_THROW(score_batch(set, nullptr, 1, with_stranger,
                           SimilarityMeasure::CommonItems, out.data(),
                           scratch),
               std::logic_error);
  const std::vector<VertexId> candidates = {0, 3};
  score_batch(set, nullptr, 2, candidates, SimilarityMeasure::CommonItems,
              out.data(), scratch);
  EXPECT_EQ(out[0], 0.0f);  // odds share nothing with evens
  EXPECT_EQ(out[1], 3.0f);  // 11, 13, 29
}

}  // namespace
}  // namespace knnpc
