#include "profiles/compact.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace knnpc {
namespace {

/// Support counts over `profiles`, restricted to active users (empty
/// `active_users` = all users) and counting every item seen.
std::unordered_map<ItemId, std::uint32_t> item_support(
    const std::vector<SparseProfile>& profiles,
    const std::vector<bool>& active_users) {
  std::unordered_map<ItemId, std::uint32_t> support;
  for (VertexId u = 0; u < profiles.size(); ++u) {
    if (!active_users.empty() && !active_users[u]) continue;
    for (const ProfileEntry& e : profiles[u].entries()) ++support[e.item];
  }
  return support;
}

}  // namespace

CompactionResult compact_profiles(const std::vector<SparseProfile>& profiles,
                                  const CompactionConfig& config) {
  CompactionResult result;

  // Distinct items of the whole input — the denominator for the exact
  // dropped_items count under either semantics.
  const std::unordered_map<ItemId, std::uint32_t> initial_support =
      item_support(profiles, {});
  const std::size_t distinct_items = initial_support.size();

  std::vector<bool> user_active(profiles.size(), true);
  std::unordered_set<ItemId> active_items;
  active_items.reserve(distinct_items);
  for (const auto& [item, count] : initial_support) {
    if (count >= config.min_item_support) active_items.insert(item);
  }

  // One user-filter pass against the current active item set. Returns
  // true when any user was deactivated.
  auto filter_users = [&]() {
    bool changed = false;
    for (VertexId u = 0; u < profiles.size(); ++u) {
      if (!user_active[u]) continue;
      std::size_t kept = 0;
      for (const ProfileEntry& e : profiles[u].entries()) {
        if (active_items.contains(e.item)) ++kept;
      }
      if (kept < static_cast<std::size_t>(config.min_profile_size)) {
        user_active[u] = false;
        changed = true;
      }
    }
    return changed;
  };

  filter_users();
  if (config.cascade) {
    // Alternate the two filters to a fixpoint. Each round either drops
    // at least one item or user or terminates, so this ends after at
    // most (items + users) rounds.
    for (;;) {
      const auto support = item_support(profiles, user_active);
      bool item_changed = false;
      for (auto it = active_items.begin(); it != active_items.end();) {
        const auto found = support.find(*it);
        const std::uint32_t count =
            found == support.end() ? 0 : found->second;
        if (count < config.min_item_support) {
          it = active_items.erase(it);
          item_changed = true;
        } else {
          ++it;
        }
      }
      if (!item_changed) break;
      if (!filter_users()) break;
    }
  }

  // Dense renumbering for surviving items, in ascending original-id order
  // (deterministic).
  std::vector<ItemId> surviving(active_items.begin(), active_items.end());
  std::sort(surviving.begin(), surviving.end());
  std::unordered_map<ItemId, ItemId> remap;
  remap.reserve(surviving.size());
  for (ItemId new_id = 0; new_id < surviving.size(); ++new_id) {
    remap[surviving[new_id]] = new_id;
  }
  result.kept_items = std::move(surviving);
  result.dropped_items = distinct_items - result.kept_items.size();

  // Rebuild the surviving users' profiles over the surviving items.
  for (VertexId u = 0; u < profiles.size(); ++u) {
    if (!user_active[u]) {
      ++result.dropped_users;
      continue;
    }
    std::vector<ProfileEntry> entries;
    entries.reserve(profiles[u].size());
    for (const ProfileEntry& e : profiles[u].entries()) {
      const auto it = remap.find(e.item);
      if (it != remap.end()) entries.push_back({it->second, e.weight});
    }
    result.profiles.emplace_back(std::move(entries));
    result.kept_users.push_back(u);
  }
  return result;
}

float quantize_weights_u16(std::span<const float> weights,
                           std::span<std::uint16_t> codes) {
  if (codes.size() != weights.size()) {
    throw std::invalid_argument("quantize_weights_u16: size mismatch");
  }
  float max_abs = 0.0f;
  for (const float w : weights) max_abs = std::max(max_abs, std::abs(w));
  const float scale = max_abs > 0.0f ? max_abs / 32767.0f : 1.0f;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const auto code = static_cast<int>(
        std::lround(static_cast<double>(weights[i]) / scale));
    codes[i] =
        static_cast<std::uint16_t>(std::clamp(code, -32767, 32767) + 32768);
  }
  return scale;
}

}  // namespace knnpc
