#include "profiles/flat_profile.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/thread_pool.h"

namespace knnpc {

FlatProfileSet FlatProfileSet::from_profiles(
    std::span<const VertexId> ids,
    std::span<const std::span<const ProfileEntry>> rows, ThreadPool* pool) {
  if (ids.size() != rows.size()) {
    throw std::invalid_argument(
        "FlatProfileSet::from_profiles: one id per profile required");
  }
  FlatProfileSet set;
  set.offsets_.resize(rows.size() + 1);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (r > 0 && ids[r] <= ids[r - 1]) {
      throw std::invalid_argument(
          "FlatProfileSet::from_profiles: ids must be strictly ascending");
    }
    set.offsets_[r + 1] =
        set.offsets_[r] + static_cast<std::uint32_t>(rows[r].size());
  }
  const std::size_t total = set.offsets_.back();
  set.ids_.assign(ids.begin(), ids.end());
  set.items_.resize(total);
  set.weights_.resize(total);
  set.norms_.resize(rows.size());
  set.means_.resize(rows.size());
  auto fill = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) {
      std::uint32_t i = set.offsets_[r];
      for (const ProfileEntry& e : rows[r]) {
        set.items_[i] = e.item;
        set.weights_[i] = e.weight;
        ++i;
      }
      set.seal_row(r);
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(0, rows.size(), fill, /*min_chunk=*/128);
  } else {
    fill(0, rows.size());
  }
  return set;
}

void FlatProfileSet::reserve(std::size_t users, std::size_t entries) {
  ids_.reserve(users);
  offsets_.reserve(users + 1);
  norms_.reserve(users);
  means_.reserve(users);
  items_.reserve(entries);
  weights_.reserve(entries);
}

void FlatProfileSet::clear() {
  ids_.clear();
  offsets_.assign(1, 0);
  items_.clear();
  weights_.clear();
  norms_.clear();
  means_.clear();
}

void FlatProfileSet::add(VertexId v, const SparseProfile& p) {
  if (!ids_.empty() && v <= ids_.back()) {
    throw std::invalid_argument(
        "FlatProfileSet::add: ids must be unique and ascending");
  }
  ids_.push_back(v);
  for (const ProfileEntry& e : p.entries()) {
    items_.push_back(e.item);
    weights_.push_back(e.weight);
  }
  offsets_.push_back(static_cast<std::uint32_t>(items_.size()));
  norms_.push_back(0.0);
  means_.push_back(0.0);
  seal_row(ids_.size() - 1);
}

void FlatProfileSet::seal_row(std::size_t row) {
  const std::uint32_t begin = offsets_[row];
  const std::span<const float> weights(weights_.data() + begin,
                                       offsets_[row + 1] - begin);
  // Norm and mean in entry order — the same accumulation sequence as
  // SparseProfile::norm() and the scalar mean_weight() in similarity.cpp,
  // so kernel scores match the scalar path bit-for-bit.
  double sq = 0.0;
  double sum = 0.0;
  for (const float w : weights) {
    sq += static_cast<double>(w) * w;
    sum += w;
  }
  norms_[row] = std::sqrt(sq);
  means_[row] =
      weights.empty() ? 0.0 : sum / static_cast<double>(weights.size());
}

std::size_t FlatProfileSet::row_of(VertexId v) const noexcept {
  if (ids_.empty() || v < ids_.front() || v > ids_.back()) return kNoRow;
  const std::size_t rel = v - ids_.front();
  if (rel < ids_.size() && ids_[rel] == v) return rel;
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), v);
  return it != ids_.end() && *it == v
             ? static_cast<std::size_t>(it - ids_.begin())
             : kNoRow;
}

FlatProfileSet::View FlatProfileSet::view_of_row(std::size_t row) const {
  View v;
  const std::uint32_t begin = offsets_[row];
  v.items = items_.data() + begin;
  v.weights = weights_.data() + begin;
  v.size = offsets_[row + 1] - begin;
  v.norm = norms_[row];
  v.mean = means_[row];
  return v;
}

bool FlatProfileSet::find(VertexId v, View& out) const {
  const std::size_t row = row_of(v);
  if (row == kNoRow) return false;
  out = view_of_row(row);
  return true;
}

FlatProfileSet::View FlatProfileSet::view(VertexId v) const {
  View out;
  if (!find(v, out)) {
    throw std::out_of_range("FlatProfileSet: vertex not in set");
  }
  return out;
}

}  // namespace knnpc
