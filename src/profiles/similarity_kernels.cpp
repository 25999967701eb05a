#include "profiles/similarity_kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace knnpc {
namespace {

// When one list is this many times longer than the other, per-element
// galloping search in the long list beats a linear merge. The match list
// is a property of the inputs, so how it is found cannot affect scores.
constexpr std::uint32_t kGallopSkew = 32;

void push_match(KernelScratch& scratch, std::uint32_t ia, std::uint32_t ib) {
  scratch.match_a.push_back(ia);
  scratch.match_b.push_back(ib);
}

/// Portable two-pointer merge intersection.
void intersect_merge(const ItemId* a, std::uint32_t na, const ItemId* b,
                     std::uint32_t nb, KernelScratch& scratch) {
  std::uint32_t i = 0;
  std::uint32_t j = 0;
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      push_match(scratch, i, j);
      ++i;
      ++j;
    }
  }
}

/// First index p in [lo, n) with hay[p] >= needle, found by doubling then
/// binary search — O(log distance) instead of O(distance).
std::uint32_t gallop_lower_bound(const ItemId* hay, std::uint32_t n,
                                 std::uint32_t lo, ItemId needle) {
  std::uint32_t step = 1;
  std::uint32_t hi = lo;
  while (hi < n && hay[hi] < needle) {
    lo = hi + 1;
    hi += step;
    step *= 2;
  }
  if (hi > n) hi = n;
  const ItemId* first = hay + lo;
  const ItemId* last = hay + hi;
  return static_cast<std::uint32_t>(
      std::lower_bound(first, last, needle) - hay);
}

/// Intersection for heavily skewed lengths: walk the short list, gallop
/// in the long one. `a_is_short` keeps the (a-index, b-index) orientation
/// of the output stable.
void intersect_gallop(const ItemId* shrt, std::uint32_t ns, const ItemId* lng,
                      std::uint32_t nl, bool a_is_short,
                      KernelScratch& scratch) {
  std::uint32_t lo = 0;
  for (std::uint32_t s = 0; s < ns && lo < nl; ++s) {
    const std::uint32_t p = gallop_lower_bound(lng, nl, lo, shrt[s]);
    if (p == nl) break;
    if (lng[p] == shrt[s]) {
      if (a_is_short) {
        push_match(scratch, s, p);
      } else {
        push_match(scratch, p, s);
      }
      lo = p + 1;
    } else {
      lo = p;
    }
  }
}

// ------------------------------------------------- measure accumulation
//
// Everything below replays the exact double-precision operation sequence of profiles/similarity.cpp, reading
// matched weights through a match list. Comments cite the scalar function
// each block mirrors. The source side `a` is always a packed View; the
// candidate side `b` is a Row, so phase 4 (packed rows) and beam search
// (SparseProfile rows) run the same replay.

using View = FlatProfileSet::View;

/// The common items as index pairs into a's and b's arrays, in ascending
/// item order.
struct Matches {
  const std::uint32_t* a = nullptr;
  const std::uint32_t* b = nullptr;
  std::size_t size = 0;
};

/// A packed candidate row (phase 4).
struct FlatRow {
  const View& v;
  [[nodiscard]] std::uint32_t size() const noexcept { return v.size; }
  [[nodiscard]] ItemId item(std::uint32_t j) const noexcept {
    return v.items[j];
  }
  [[nodiscard]] float weight(std::uint32_t j) const noexcept {
    return v.weights[j];
  }
  [[nodiscard]] double norm() const noexcept { return v.norm; }
  [[nodiscard]] double mean() const noexcept { return v.mean; }
};

/// A SparseProfile candidate read in place (beam search).
struct EntryRow {
  const SparseProfile& p;
  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(p.size());
  }
  [[nodiscard]] ItemId item(std::uint32_t j) const noexcept {
    return p.entries()[j].item;
  }
  [[nodiscard]] float weight(std::uint32_t j) const noexcept {
    return p.entries()[j].weight;
  }
  [[nodiscard]] double norm() const noexcept { return p.norm(); }
  /// mean_weight() in similarity.cpp (and FlatProfileSet's packed mean);
  /// only AdjustedCosine asks for it.
  [[nodiscard]] double mean() const noexcept {
    if (p.empty()) return 0.0;
    double sum = 0.0;
    for (const ProfileEntry& e : p.entries()) sum += e.weight;
    return sum / static_cast<double>(p.size());
  }
};

/// merge_counts().dot — Σ a_i b_i over common items, in ascending item
/// order (the order the match lists are produced in).
template <class Row>
double dot_over_matches(const View& a, const Row& b, const Matches& m) {
  double dot = 0.0;
  for (std::size_t k = 0; k < m.size; ++k) {
    dot += static_cast<double>(a.weights[m.a[k]]) * b.weight(m.b[k]);
  }
  return dot;
}

template <class Row>
float kernel_cosine(const View& a, const Row& b, const Matches& m) {
  if (a.size == 0 || b.size() == 0) return 0.0f;
  const double denom = a.norm * b.norm();
  if (denom == 0.0) return 0.0f;
  return static_cast<float>(dot_over_matches(a, b, m) / denom);
}

float kernel_jaccard(std::uint32_t na, std::uint32_t nb, std::size_t common) {
  if (na == 0 && nb == 0) return 0.0f;
  const std::size_t uni = static_cast<std::size_t>(na) + nb - common;
  return uni == 0 ? 0.0f
                  : static_cast<float>(static_cast<double>(common) /
                                       static_cast<double>(uni));
}

float kernel_dice(std::uint32_t na, std::uint32_t nb, std::size_t common) {
  if (na == 0 && nb == 0) return 0.0f;
  return static_cast<float>(
      2.0 * static_cast<double>(common) /
      static_cast<double>(static_cast<std::size_t>(na) + nb));
}

float kernel_overlap(std::uint32_t na, std::uint32_t nb, std::size_t common) {
  if (na == 0 || nb == 0) return 0.0f;
  return static_cast<float>(static_cast<double>(common) /
                            static_cast<double>(std::min(na, nb)));
}

/// centered_cosine(..., common_only=true) over the match lists: the
/// Pearson / adjusted-cosine core. `mean_a`/`mean_b` are whichever
/// offsets the caller derived (common-item means for Pearson, whole-
/// profile means for adjusted cosine).
template <class Row>
float kernel_centered_cosine(const View& a, const Row& b, double mean_a,
                             double mean_b, const Matches& m) {
  double dot = 0.0;
  double norm_a = 0.0;
  double norm_b = 0.0;
  for (std::size_t k = 0; k < m.size; ++k) {
    const double xa = a.weights[m.a[k]] - mean_a;
    const double xb = b.weight(m.b[k]) - mean_b;
    dot += xa * xb;
    norm_a += xa * xa;
    norm_b += xb * xb;
  }
  if (m.size < 2 || norm_a == 0.0 || norm_b == 0.0) {
    return 0.5f;  // no evidence either way
  }
  const double correlation = dot / std::sqrt(norm_a * norm_b);
  return static_cast<float>((correlation + 1.0) / 2.0);
}

template <class Row>
float kernel_pearson(const View& a, const Row& b, const Matches& m) {
  // pearson_similarity(): means over the *common* items.
  if (m.size < 2) return 0.5f;
  double sum_a = 0.0;
  double sum_b = 0.0;
  for (std::size_t k = 0; k < m.size; ++k) {
    sum_a += a.weights[m.a[k]];
    sum_b += b.weight(m.b[k]);
  }
  return kernel_centered_cosine(a, b, sum_a / static_cast<double>(m.size),
                                sum_b / static_cast<double>(m.size), m);
}

/// inverse_euclidean(): Σ (a_i - b_i)² over the *union* in merged item
/// order. The match list cannot replay union order, so this is a direct
/// flat merge on every path — identical by construction.
template <class Row>
float kernel_inverse_euclidean(const View& a, const Row& b) {
  const std::uint32_t nb = b.size();
  std::uint32_t i = 0;
  std::uint32_t j = 0;
  double sq_diff = 0.0;
  while (i < a.size && j < nb) {
    if (a.items[i] < b.item(j)) {
      sq_diff += static_cast<double>(a.weights[i]) * a.weights[i];
      ++i;
    } else if (b.item(j) < a.items[i]) {
      sq_diff += static_cast<double>(b.weight(j)) * b.weight(j);
      ++j;
    } else {
      const double d = static_cast<double>(a.weights[i]) - b.weight(j);
      sq_diff += d * d;
      ++i;
      ++j;
    }
  }
  for (; i < a.size; ++i) {
    sq_diff += static_cast<double>(a.weights[i]) * a.weights[i];
  }
  for (; j < nb; ++j) {
    sq_diff += static_cast<double>(b.weight(j)) * b.weight(j);
  }
  const double dist = std::sqrt(sq_diff);
  return static_cast<float>(1.0 / (1.0 + dist));
}

/// sim(a, b) for every measure, over the Matches `find_matches` returns;
/// InverseEuclid never calls it.
template <class Row, class FindMatches>
float score_row(const View& a, const Row& b, SimilarityMeasure measure,
                FindMatches&& find_matches) {
  if (measure == SimilarityMeasure::InverseEuclid) {
    return kernel_inverse_euclidean(a, b);
  }
  const Matches m = find_matches();
  switch (measure) {
    case SimilarityMeasure::Cosine:
      return kernel_cosine(a, b, m);
    case SimilarityMeasure::Jaccard:
      return kernel_jaccard(a.size, b.size(), m.size);
    case SimilarityMeasure::Dice:
      return kernel_dice(a.size, b.size(), m.size);
    case SimilarityMeasure::Overlap:
      return kernel_overlap(a.size, b.size(), m.size);
    case SimilarityMeasure::CommonItems:
      return static_cast<float>(m.size);
    case SimilarityMeasure::Pearson:
      return kernel_pearson(a, b, m);
    case SimilarityMeasure::AdjustedCosine:
      return kernel_centered_cosine(a, b, a.mean, b.mean(), m);
    case SimilarityMeasure::InverseEuclid:
      break;  // handled above
  }
  return 0.0f;
}

/// The table path's match list: one slot read per candidate item, in the
/// candidate's ascending item order — the merge's (a, b) pairs in the
/// merge's order. Items at or past `limit` (the largest source item + 1)
/// cannot match, and neither can any after them. Every item is written
/// at the cursor, which only a hit advances: a branch on the hit would be
/// as unpredictable as the data, and it doubled the cost per pair. The
/// buffers only grow, so they are never cleared or refilled with zeros.
template <class Row>
Matches table_matches(const std::uint32_t* slots, ItemId limit, const Row& b,
                      KernelScratch& scratch) {
  const std::uint32_t nb = b.size();
  if (scratch.match_a.size() < nb) {
    scratch.match_a.resize(nb);
    scratch.match_b.resize(nb);
  }
  std::uint32_t* match_a = scratch.match_a.data();
  std::uint32_t* match_b = scratch.match_b.data();
  std::uint32_t count = 0;
  for (std::uint32_t j = 0; j < nb; ++j) {
    const ItemId item = b.item(j);
    if (item >= limit) break;
    const std::uint32_t slot = slots[item];
    match_a[count] = slot - 1;
    match_b[count] = j;
    count += slot != 0 ? 1 : 0;
  }
  return {match_a, match_b, count};
}

}  // namespace

std::uint32_t intersect_items(const ItemId* a, std::uint32_t na,
                              const ItemId* b, std::uint32_t nb,
                              KernelScratch& scratch) {
  scratch.match_a.clear();
  scratch.match_b.clear();
  if (na == 0 || nb == 0) return 0;
  if (na > static_cast<std::uint64_t>(nb) * kGallopSkew) {
    intersect_gallop(b, nb, a, na, /*a_is_short=*/false, scratch);
  } else if (nb > static_cast<std::uint64_t>(na) * kGallopSkew) {
    intersect_gallop(a, na, b, nb, /*a_is_short=*/true, scratch);
  } else {
    intersect_merge(a, na, b, nb, scratch);
  }
  return static_cast<std::uint32_t>(scratch.match_a.size());
}

float score_pair(const FlatProfileSet::View& a, const FlatProfileSet::View& b,
                 SimilarityMeasure measure, KernelScratch& scratch) {
  return score_row(a, FlatRow{b}, measure, [&] {
    const std::uint32_t common =
        intersect_items(a.items, a.size, b.items, b.size, scratch);
    return Matches{scratch.match_a.data(), scratch.match_b.data(), common};
  });
}

ItemTable::Source::Source(ItemTable& table,
                          const FlatProfileSet::View& source)
    : table_(table), source_(source) {
  if (source.size > 0) {
    const ItemId largest = source.items[source.size - 1];
    if (largest >= kItemTableBound) return;
    limit_ = largest + 1;
    std::vector<std::uint32_t>& slots = table.slots_;
    // Power-of-two sizes keep the regrowths few and the table at most
    // kItemTableBound slots; new slots are zero.
    if (slots.size() < limit_) slots.resize(std::bit_ceil(limit_));
    for (std::uint32_t i = 0; i < source.size; ++i) {
      slots[source.items[i]] = i + 1;
    }
  }
  indexed_ = true;
}

ItemTable::Source::~Source() {
  if (limit_ == 0) return;
  std::uint32_t* slots = table_.slots_.data();
  for (std::uint32_t i = 0; i < source_.size; ++i) slots[source_.items[i]] = 0;
}

float ItemTable::Source::score(const FlatProfileSet::View& candidate,
                               SimilarityMeasure measure,
                               KernelScratch& scratch) const {
  const FlatRow row{candidate};
  return score_row(source_, row, measure, [&] {
    return table_matches(table_.slots_.data(), limit_, row, scratch);
  });
}

float ItemTable::Source::score(const SparseProfile& candidate,
                               SimilarityMeasure measure,
                               KernelScratch& scratch) const {
  const EntryRow row{candidate};
  return score_row(source_, row, measure, [&] {
    return table_matches(table_.slots_.data(), limit_, row, scratch);
  });
}

namespace {

FlatProfileSet::View view_in_pair(const FlatProfileSet& primary,
                                  const FlatProfileSet* secondary,
                                  VertexId v) {
  FlatProfileSet::View out;
  if (primary.find(v, out)) return out;
  if (secondary != nullptr && secondary->find(v, out)) return out;
  throw std::logic_error(
      "similarity_kernels: tuple endpoint outside loaded pair");
}

}  // namespace

void score_batch(const FlatProfileSet& primary,
                 const FlatProfileSet* secondary, VertexId src,
                 std::span<const VertexId> candidates,
                 SimilarityMeasure measure, float* out,
                 KernelScratch& scratch) {
  const FlatProfileSet::View sv = view_in_pair(primary, secondary, src);
  // Phase 4 calls this on pool threads, once per run of equal sources;
  // one table per thread is what keeps the index from being allocated
  // per call or per chunk. The Source leaves it all-zero on every exit.
  thread_local ItemTable table;
  const ItemTable::Source source(table, sv);
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    const FlatProfileSet::View dv =
        view_in_pair(primary, secondary, candidates[c]);
    out[c] = source.indexed() ? source.score(dv, measure, scratch)
                              : score_pair(sv, dv, measure, scratch);
  }
}

}  // namespace knnpc
