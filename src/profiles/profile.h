// User profiles P(t): sparse (item, weight) vectors sorted by item id.
//
// A profile is the unit the storage layer ships between disk and memory;
// similarity (phase 4) runs on two profile views via sorted merge.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/types.h"

namespace knnpc {

/// One (item, weight) entry of a sparse profile.
struct ProfileEntry {
  ItemId item = 0;
  float weight = 0.0f;

  friend bool operator==(const ProfileEntry&, const ProfileEntry&) = default;
};

/// Sorted sparse vector. The class enforces the sorted-unique invariant on
/// mutation so similarity can always merge in O(|a| + |b|).
class SparseProfile {
 public:
  SparseProfile() = default;

  /// Builds from arbitrary entries: sorts, merges duplicate items by
  /// summing weights, drops zero-weight entries.
  explicit SparseProfile(std::vector<ProfileEntry> entries);

  [[nodiscard]] std::span<const ProfileEntry> entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  /// Weight of `item` (0 if absent). O(log n).
  [[nodiscard]] float weight(ItemId item) const;

  /// Sets the weight of `item` (inserts, updates, or erases when w == 0).
  void set(ItemId item, float w);

  /// Adds `delta` to the weight of `item` (erases if the result is 0).
  void add(ItemId item, float delta);

  /// L2 norm, recomputed eagerly by every mutation, so concurrent
  /// readers of a shared profile never write.
  [[nodiscard]] double norm() const noexcept { return norm_; }

  friend bool operator==(const SparseProfile& a, const SparseProfile& b) {
    return a.entries_ == b.entries_;
  }

 private:
  void update_norm() noexcept;

  std::vector<ProfileEntry> entries_;
  double norm_ = 0.0;
};

}  // namespace knnpc
