// Batched phase-4 similarity kernels over the flat profile layout.
//
// The intersection — matching a source's item ids against a candidate's —
// is a direct-addressed lookup: score_batch indexes the source's items
// once per call in an ItemTable (slot[item] = position + 1), then finds
// each candidate's matches with one table read per candidate item, in
// the candidate's ascending item order. Beam search in serve/knn_server
// indexes each query the same way. A source whose largest item reaches
// kItemTableBound is not indexed; it takes the portable sorted-merge
// intersection instead (galloping search when one list is much longer
// than the other), which is also the tests' reference.
//
// The bit-identity contract: only the *intersection* — integer item-id
// matching — differs between the table and the merge. All floating-point
// accumulation runs in one shared replay of the exact operation sequence
// of the scalar measures in profiles/similarity.cpp (same double-precision
// accumulators, same order over the common items). Both intersections
// find the same match list in the same ascending item order, so every
// measure scores bit-identically on both paths and the golden checksums
// in tests/golden/checksums.tsv hold. InverseEuclid accumulates over the
// *union* in merged item order, which a match list cannot replay, so its
// kernel is the flat scalar merge on every path — it still gains the
// contiguous layout.
//
// Degenerate-input conventions are inherited from profiles/similarity.h
// (the per-measure table there is the contract both paths implement).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "profiles/flat_profile.h"
#include "profiles/similarity.h"
#include "util/types.h"

namespace knnpc {

/// Reusable per-thread match buffers (kernels never allocate after the
/// first pairs at a given profile size). intersect_items leaves exactly
/// the match list in them; the table path only grows them and tracks the
/// count itself.
struct KernelScratch {
  std::vector<std::uint32_t> match_a;  // indices into a's arrays
  std::vector<std::uint32_t> match_b;  // indices into b's arrays
};

/// Item ids at or above this bound are never table-indexed: a source
/// whose largest item reaches it takes the merge path (intersect_items).
/// 2^20 u32 slots cap an ItemTable at 4 MB — the most one phase-4 thread
/// or one serving reader ever holds — and still index a catalogue of a
/// million items (the benchmark's workloads hold about 2,000).
inline constexpr ItemId kItemTableBound = ItemId{1} << 20;

/// Direct-addressed index of one source profile's items, reused from one
/// source to the next: slot[item] = the item's position in the source +
/// 1, 0 where the source lacks it. Zero-filled only when it grows (to a
/// power of two covering the largest source item seen) and all-zero
/// whenever no Source holds it, so indexing a source and releasing it
/// touch only that source's items.
class ItemTable {
 public:
  class Source;

 private:
  std::vector<std::uint32_t> slots_;
};

/// One source indexed in an ItemTable for this object's lifetime; the
/// destructor zeroes exactly the slots the constructor set, so an
/// exception cannot leave the table dirty. One Source per table at a
/// time.
class ItemTable::Source {
 public:
  /// Indexes `source` (whose arrays must outlive this object) unless its
  /// largest item reaches kItemTableBound; then indexed() is false and
  /// the table stays untouched.
  Source(ItemTable& table, const FlatProfileSet::View& source);
  ~Source();
  Source(const Source&) = delete;
  Source& operator=(const Source&) = delete;

  [[nodiscard]] bool indexed() const noexcept { return indexed_; }

  /// sim(source, candidate): one table read per candidate item builds
  /// the match list, which the shared per-measure replay scores.
  /// Bit-identical to score_pair() and to similarity() on the profiles
  /// the views were packed from. Requires indexed().
  [[nodiscard]] float score(const FlatProfileSet::View& candidate,
                            SimilarityMeasure measure,
                            KernelScratch& scratch) const;
  /// The same for a SparseProfile candidate, read in place (beam search
  /// scores the serving snapshot's rows).
  [[nodiscard]] float score(const SparseProfile& candidate,
                            SimilarityMeasure measure,
                            KernelScratch& scratch) const;

 private:
  ItemTable& table_;
  FlatProfileSet::View source_;
  ItemId limit_ = 0;  // largest source item + 1; 0 when nothing is indexed
  bool indexed_ = false;
};

/// Sorted-array intersection of two item-id lists: fills
/// scratch.match_a/match_b with the matching index pairs in ascending
/// item order and returns the match count. Exposed for the differential
/// tests.
std::uint32_t intersect_items(const ItemId* a, std::uint32_t na,
                              const ItemId* b, std::uint32_t nb,
                              KernelScratch& scratch);

/// One pair through the kernel for `measure`. Bit-identical to
/// similarity(measure, a, b) on the profiles the views were packed from.
float score_pair(const FlatProfileSet::View& a,
                 const FlatProfileSet::View& b, SimilarityMeasure measure,
                 KernelScratch& scratch);

/// Batched phase-4 entry point: scores `src` against each candidate,
/// writing out[i] = sim(src, candidates[i]) through the calling thread's
/// ItemTable (through the merge when src's largest item reaches
/// kItemTableBound). The table lives as long as the thread — it is never
/// allocated per call or per chunk — and is all-zero between calls.
/// Profiles are looked up in `primary` first, then `secondary` (the
/// second partition of a PI pair; may be null). Throws std::logic_error
/// when an endpoint is in neither — the same "tuple endpoint outside
/// loaded pair" condition the engines previously raised per pair.
void score_batch(const FlatProfileSet& primary,
                 const FlatProfileSet* secondary, VertexId src,
                 std::span<const VertexId> candidates,
                 SimilarityMeasure measure, float* out,
                 KernelScratch& scratch);

}  // namespace knnpc
