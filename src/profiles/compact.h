// Profile-set compaction: the preprocessing pass real rating logs need
// before KNN makes sense.
//
//  * drop items that fewer than `min_item_support` users have (they can
//    never contribute to a meaningful similarity),
//  * drop users left with fewer than `min_profile_size` items (cold
//    users whose neighbourhoods would be noise),
//  * renumber the surviving items densely.
//
// Item filtering and user filtering interact: dropping an under-sized
// user lowers the support of every item they rated, which can push more
// items under the threshold, which can shrink more users below
// `min_profile_size`, and so on. `CompactionConfig::cascade` picks which
// semantics you get — see its docs below. Either way the drop counters
// are exact: `dropped_items + kept_items.size()` equals the number of
// distinct items in the input, and `dropped_users + kept_users.size()`
// equals the number of input users.
//
// This header also hosts the u16 scaled-weight quantization used by the
// phase-4 flat profile layout (profiles/flat_profile.h): quantization is
// a compaction of the weight payload the same way item/user filtering is
// a compaction of the entry set, and the two are applied together when
// shrinking partition files.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "profiles/profile.h"
#include "util/types.h"

namespace knnpc {

struct CompactionConfig {
  /// An item survives when at least this many users have it.
  std::uint32_t min_item_support = 2;
  /// A user survives when, after item filtering, they still have at least
  /// this many items.
  std::uint32_t min_profile_size = 1;
  /// Filtering semantics for the item/user cascade:
  ///
  ///  * false (default) — single pass: item support is counted once over
  ///    the *original* user set, items are filtered, then users are
  ///    filtered once against the surviving items. Kept items may end up
  ///    with fewer than `min_item_support` supporters among the kept
  ///    users (the supporters that pushed them over the bar may have been
  ///    dropped). Cheap, order-independent, and what most rating-log
  ///    pipelines mean by "min support".
  ///  * true — iterate the two filters to a fixpoint: on output, every
  ///    kept item has >= `min_item_support` supporters *among the kept
  ///    users* and every kept user has >= `min_profile_size` *kept*
  ///    items, simultaneously. This is the standard core decomposition;
  ///    note that aggressive thresholds can legitimately cascade to an
  ///    empty result.
  bool cascade = false;
};

struct CompactionResult {
  std::vector<SparseProfile> profiles;  // surviving users, renumbered items
  /// new user index -> original user index.
  std::vector<VertexId> kept_users;
  /// new item id -> original item id.
  std::vector<ItemId> kept_items;
  /// Distinct input items minus kept items (exact under both semantics).
  std::size_t dropped_items = 0;
  /// Input users minus kept users (exact under both semantics).
  std::size_t dropped_users = 0;
};

/// Applies the config; deterministic (order-preserving) renumbering.
CompactionResult compact_profiles(const std::vector<SparseProfile>& profiles,
                                  const CompactionConfig& config);

// ----------------------------------------------------- weight quantization

/// u16 scaled-weight code for one profile. Symmetric affine quantization
/// around zero: scale = max|w| / 32767 (1.0 when the profile is empty),
/// code = round(w / scale) + 32768, so exact zero always round-trips to
/// exact zero and the worst-case absolute error is scale / 2.
/// Quantizes one profile's weights into caller-sized `codes` (one per
/// weight, entry order preserved) and returns the scale.
float quantize_weights_u16(std::span<const float> weights,
                           std::span<std::uint16_t> codes);

/// Inverse of quantize_weights_u16 for one code.
inline float dequantize_weight_u16(std::uint16_t code, float scale) {
  return static_cast<float>(static_cast<int>(code) - 32768) * scale;
}

}  // namespace knnpc
