#include "profiles/profile_store.h"

#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "util/serde.h"

namespace knnpc {

std::vector<std::byte> pack_profiles(const std::vector<SparseProfile>& ps) {
  std::vector<std::byte> out;
  // Size estimate: header + per-profile header + entries.
  std::size_t bytes = sizeof(std::uint32_t);
  for (const auto& p : ps) {
    bytes += sizeof(std::uint32_t) + p.size() * sizeof(ProfileEntry);
  }
  out.reserve(bytes);
  append_record(out, static_cast<std::uint32_t>(ps.size()));
  for (const auto& p : ps) {
    append_record(out, static_cast<std::uint32_t>(p.size()));
    for (const ProfileEntry& e : p.entries()) {
      append_record(out, e);
    }
  }
  return out;
}

std::vector<std::span<const ProfileEntry>> packed_profile_views(
    std::span<const std::byte> bytes) {
  if (reinterpret_cast<std::uintptr_t>(bytes.data()) %
          alignof(ProfileEntry) !=
      0) {
    throw std::invalid_argument("packed_profile_views: misaligned buffer");
  }
  std::size_t offset = 0;
  std::uint32_t count = 0;
  if (!read_record(bytes, offset, count)) {
    throw std::runtime_error("packed profiles: truncated header");
  }
  std::vector<std::span<const ProfileEntry>> views;
  // Every profile takes at least its u32 header: a count the buffer
  // cannot hold is refused before it sizes anything.
  if (count > (bytes.size() - offset) / sizeof(std::uint32_t)) {
    throw std::runtime_error("packed profiles: truncated profile header");
  }
  views.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t entries = 0;
    if (!read_record(bytes, offset, entries)) {
      throw std::runtime_error("packed profiles: truncated profile header");
    }
    if ((bytes.size() - offset) / sizeof(ProfileEntry) < entries) {
      throw std::runtime_error("packed profiles: truncated entry");
    }
    views.push_back(record_span<ProfileEntry>(
        bytes.subspan(offset, entries * sizeof(ProfileEntry))));
    offset += entries * sizeof(ProfileEntry);
  }
  return views;
}

std::vector<SparseProfile> unpack_profiles(
    const std::vector<std::byte>& bytes) {
  const auto views = packed_profile_views(bytes);
  std::vector<SparseProfile> out;
  out.reserve(views.size());
  for (const auto view : views) {
    out.emplace_back(std::vector<ProfileEntry>(view.begin(), view.end()));
  }
  return out;
}

void pack_profiles_into(const ProfileStore& store,
                        std::span<const VertexId> users,
                        std::span<std::byte> out) {
  std::size_t offset = 0;
  auto put = [&](const void* data, std::size_t size) {
    if (out.size() - offset < size) {
      throw std::invalid_argument("pack_profiles_into: buffer too small");
    }
    if (size > 0) std::memcpy(out.data() + offset, data, size);
    offset += size;
  };
  const auto count = static_cast<std::uint32_t>(users.size());
  put(&count, sizeof(count));
  for (const VertexId v : users) {
    const SparseProfile& p = store.get(v);
    const auto entries = static_cast<std::uint32_t>(p.size());
    put(&entries, sizeof(entries));
    put(p.entries().data(), p.size() * sizeof(ProfileEntry));
  }
  if (offset != out.size()) {
    throw std::invalid_argument("pack_profiles_into: buffer size mismatch");
  }
}

}  // namespace knnpc
