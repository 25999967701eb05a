// Flat profile layout for the phase-4 similarity kernels.
//
// SparseProfile stores {item, weight} pairs interleaved (AoS), one heap
// allocation per user. The batched kernels in
// profiles/similarity_kernels.h want the opposite: structure-of-arrays —
// every profile's item ids contiguous (one pass indexes a source in the
// item table, one pass looks a candidate's items up) and its weights
// contiguous, with the per-profile L2 norm and mean precomputed once
// instead of once per scored pair (the scalar adjusted-cosine recomputes
// the mean per pair — O(|p|) work the flat layout pays exactly once).
//
// A FlatProfileSet is a packed copy of a group of profiles — a loaded
// partition in KnnEngine (decoded straight from its .prof bytes, see
// from_profiles), the whole P(t) in every shard body, or one query in
// beam search — built in O(total entries), which is noise next to the
// O(tuples x profile length) scoring it feeds. Rows are indexed by the
// sorted member ids: a contiguous id range (range partitions, a whole
// P(t)) resolves a lookup by subtraction, any other set by binary search. The precomputed norm
// and mean use the exact accumulation order of SparseProfile::norm() and
// the scalar measures in profiles/similarity.cpp, so kernel scores are
// bit-identical to the per-pair scalar path (the golden-checksum
// contract; see ARCHITECTURE.md "Phase-4 similarity kernels").
//
// Optional u16 scaled-weight quantization (profiles/compact.h) halves the
// weight payload; scoring then runs on the dequantized values, which is
// NOT bit-identical to f32 scoring — it is opt-in
// (EngineConfig::quantize_profiles, off by default) and outside the
// golden contract. Quantized scoring is still deterministic, and the item
// table and the merge score it bit-identically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "profiles/profile.h"
#include "util/types.h"

namespace knnpc {

class ThreadPool;

class FlatProfileSet {
 public:
  /// Borrowed view of one packed profile. `items`/`weights` point into
  /// the set's arrays and stay valid for the set's lifetime (views are
  /// materialised on lookup, after all add() calls).
  struct View {
    const ItemId* items = nullptr;
    const float* weights = nullptr;
    std::uint32_t size = 0;
    double norm = 0.0;  ///< L2 norm of the stored weights.
    double mean = 0.0;  ///< Mean stored weight (0 when empty).
  };

  explicit FlatProfileSet(bool quantize = false) : quantize_(quantize) {}

  /// Builds the set from one entry list per profile — typically
  /// packed_profile_views() of a partition's profile file — where
  /// `rows[i]` belongs to `ids[i]` (strictly ascending). The calling
  /// thread sizes every array; the rows are then filled on `pool` when one
  /// is given. Pool threads only fill, so no per-load buffer lands in a
  /// pool thread's allocator arena. Throws std::invalid_argument when the
  /// ids are unsorted or do not match the rows one to one.
  static FlatProfileSet from_profiles(
      std::span<const VertexId> ids,
      std::span<const std::span<const ProfileEntry>> rows, bool quantize,
      ThreadPool* pool = nullptr);

  void reserve(std::size_t users, std::size_t entries);

  /// Empties the set but keeps its capacity, so a set reused for one
  /// profile at a time (a beam-search query) stops allocating once grown.
  void clear();

  /// Packs `p` under vertex id `v`; ids must arrive strictly ascending.
  void add(VertexId v, const SparseProfile& p);

  /// Returns true and fills `out` when v is in the set; false (out
  /// untouched) otherwise.
  [[nodiscard]] bool find(VertexId v, View& out) const;

  /// View of `v`'s profile; throws std::out_of_range when absent.
  [[nodiscard]] View view(VertexId v) const;

  [[nodiscard]] std::size_t num_profiles() const { return ids_.size(); }
  [[nodiscard]] std::size_t total_entries() const { return items_.size(); }
  [[nodiscard]] bool quantized() const { return quantize_; }

  /// Bytes the weight payload occupies in this layout's wire/disk form:
  /// u16 codes + per-profile f32 scale when quantized, f32 otherwise.
  [[nodiscard]] std::size_t weight_payload_bytes() const;

  /// Per-profile quantization scale (1.0 when not quantized or empty).
  [[nodiscard]] float scale_of(VertexId v) const;

 private:
  static constexpr std::size_t kNoRow = ~std::size_t{0};

  [[nodiscard]] View view_of_row(std::size_t row) const;
  /// Row of `v`, or kNoRow.
  [[nodiscard]] std::size_t row_of(VertexId v) const noexcept;
  /// Quantizes (when enabled) and computes the norm and mean of a row
  /// whose items and raw weights are in place.
  void seal_row(std::size_t row);

  bool quantize_ = false;
  std::vector<VertexId> ids_;              // ascending; row = index
  std::vector<std::uint32_t> offsets_{0};  // rows + 1
  std::vector<ItemId> items_;
  std::vector<float> weights_;  // dequantized copies when quantize_
  std::vector<std::uint16_t> qcodes_;
  std::vector<float> qscales_;
  std::vector<double> norms_;
  std::vector<double> means_;
};

}  // namespace knnpc
