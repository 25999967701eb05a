// Profile stores: where P(t) lives.
//
// InMemoryProfileStore backs tests, baselines and the NN-Descent
// comparator. The *partitioned on-disk* store used by the engine proper
// lives in storage/partition_store.h (profiles are packed per partition
// there so a partition load brings exactly its users' profiles).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "profiles/profile.h"
#include "util/types.h"

namespace knnpc {

/// Abstract read access to the profile set. Vertex ids are dense [0, n).
class ProfileStore {
 public:
  virtual ~ProfileStore() = default;

  [[nodiscard]] virtual VertexId num_users() const = 0;
  /// Profile of `user`; reference valid until the next mutation.
  [[nodiscard]] virtual const SparseProfile& get(VertexId user) const = 0;
};

/// Simple vector-backed store.
class InMemoryProfileStore final : public ProfileStore {
 public:
  InMemoryProfileStore() = default;
  explicit InMemoryProfileStore(std::vector<SparseProfile> profiles)
      : profiles_(std::move(profiles)) {}

  [[nodiscard]] VertexId num_users() const override {
    return static_cast<VertexId>(profiles_.size());
  }
  [[nodiscard]] const SparseProfile& get(VertexId user) const override {
    return profiles_.at(user);
  }

  /// Mutable access (phase 5 applies queued updates through this).
  SparseProfile& mutable_get(VertexId user) { return profiles_.at(user); }

  void set(VertexId user, SparseProfile profile) {
    profiles_.at(user) = std::move(profile);
  }

  void push_back(SparseProfile profile) {
    profiles_.push_back(std::move(profile));
  }

 private:
  std::vector<SparseProfile> profiles_;
};

/// Serialises profiles into a packed byte buffer and back. Layout:
///   u32 count, then per profile: u32 entry_count, entries (u32 item,
///   f32 weight)...
/// Used by the partition store to write per-partition profile files.
std::vector<std::byte> pack_profiles(const std::vector<SparseProfile>& ps);
std::vector<SparseProfile> unpack_profiles(
    const std::vector<std::byte>& bytes);

/// The profiles of a pack_profiles() buffer, in order, as views into
/// `bytes`, which must outlive them and be aligned for ProfileEntry (heap
/// buffers are). The one reader of the layout: unpack_profiles() copies
/// these views out, phase 4 decodes them straight into a FlatProfileSet.
/// Throws std::runtime_error on a truncated buffer.
std::vector<std::span<const ProfileEntry>> packed_profile_views(
    std::span<const std::byte> bytes);

/// Bytes one profile takes in that layout (its u32 header + entries).
inline std::size_t packed_profile_bytes(const SparseProfile& p) {
  return sizeof(std::uint32_t) + p.size() * sizeof(ProfileEntry);
}

/// pack_profiles() of `store`'s profiles for `users` (in that order) into
/// a caller-sized buffer; `out` must be exactly sizeof(u32) plus the sum
/// of packed_profile_bytes() long.
void pack_profiles_into(const ProfileStore& store,
                        std::span<const VertexId> users,
                        std::span<std::byte> out);

}  // namespace knnpc
