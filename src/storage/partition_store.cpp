#include "storage/partition_store.h"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "storage/block_file.h"
#include "util/serde.h"
#include "util/thread_pool.h"

namespace knnpc {
namespace fs = std::filesystem;

const SparseProfile* PartitionData::profile_of(VertexId v) const {
  const auto it = std::lower_bound(vertices.begin(), vertices.end(), v);
  if (it == vertices.end() || *it != v) return nullptr;
  const auto idx = static_cast<std::size_t>(it - vertices.begin());
  return &profiles[idx];
}

PartitionStore::PartitionStore(fs::path dir, IoModel model)
    : dir_(std::move(dir)), io_(std::move(model)) {
  fs::create_directories(dir_);
}

fs::path PartitionStore::file(PartitionId id, const char* suffix) const {
  return dir_ / ("part_" + std::to_string(id) + suffix);
}

std::vector<std::byte> PartitionStore::fetch(const fs::path& path) const {
  IoCounters raw;
  auto bytes = read_file(path, raw);
  io_.charge_read(bytes.size());
  return bytes;
}

void PartitionStore::write_all(const EdgeList& graph,
                               const PartitionAssignment& assignment,
                               const ProfileStore& profiles,
                               ThreadPool* pool) {
  if (graph.num_vertices != assignment.num_vertices()) {
    throw std::invalid_argument(
        "PartitionStore::write_all: graph/assignment size mismatch");
  }
  if (!assignment.fully_assigned()) {
    throw std::invalid_argument(
        "PartitionStore::write_all: assignment incomplete");
  }
  m_ = assignment.num_partitions();
  const VertexId n = assignment.num_vertices();

  // Bucket edges by the partition of their bridge vertex. Edge (s, d) acts
  // as an in-edge of owner(d) (bridge d) and as an out-edge of owner(s)
  // (bridge s). A counting pass sizes every bucket, members list and
  // packed profile file, so this thread allocates them all and the
  // per-partition work below only fills them. The buffers stay per
  // partition: one graph-sized array per kind raised the shards-agents
  // driver's peak RSS by ~5 MB (glibc's per-thread arenas; the gap
  // vanished under MALLOC_ARENA_MAX=1).
  std::vector<std::vector<Edge>> in_edges(m_);
  std::vector<std::vector<Edge>> out_edges(m_);
  std::vector<std::vector<VertexId>> members(m_);
  std::vector<std::vector<std::byte>> packed(m_);
  {
    std::vector<std::size_t> in_count(m_, 0);
    std::vector<std::size_t> out_count(m_, 0);
    std::vector<std::size_t> member_count(m_, 0);
    std::vector<std::size_t> packed_bytes(m_, sizeof(std::uint32_t));
    for (const Edge& e : graph.edges) {
      ++in_count[assignment.owner(e.dst)];
      ++out_count[assignment.owner(e.src)];
    }
    for (VertexId v = 0; v < n; ++v) {
      const PartitionId p = assignment.owner(v);
      ++member_count[p];
      packed_bytes[p] += packed_profile_bytes(profiles.get(v));
    }
    for (PartitionId p = 0; p < m_; ++p) {
      in_edges[p].reserve(in_count[p]);
      out_edges[p].reserve(out_count[p]);
      members[p].reserve(member_count[p]);
      packed[p].resize(packed_bytes[p]);
    }
  }
  for (const Edge& e : graph.edges) {
    in_edges[assignment.owner(e.dst)].push_back(e);
    out_edges[assignment.owner(e.src)].push_back(e);
  }
  for (VertexId v = 0; v < n; ++v) {
    members[assignment.owner(v)].push_back(v);  // ascending per partition
  }

  auto write_partitions = [&](std::size_t lo, std::size_t hi) {
    IoCounters raw;  // write_file wants a counter; we fold into io_ below.
    auto put = [&](PartitionId p, const char* suffix,
                   std::span<const std::byte> bytes) {
      write_file(file(p, suffix), bytes, raw);
      io_.charge_write(bytes.size());
    };
    for (std::size_t i = lo; i < hi; ++i) {
      const auto p = static_cast<PartitionId>(i);
      // Sort by bridge: in-edges (s, v) by v = dst (then s); out-edges
      // (v, d) by v = src (then d).
      std::sort(in_edges[p].begin(), in_edges[p].end(),
                [](const Edge& a, const Edge& b) {
                  return a.dst != b.dst ? a.dst < b.dst : a.src < b.src;
                });
      std::sort(out_edges[p].begin(), out_edges[p].end());
      put(p, ".in", std::as_bytes(std::span(in_edges[p])));
      put(p, ".out", std::as_bytes(std::span(out_edges[p])));
      pack_profiles_into(profiles, members[p], packed[p]);
      put(p, ".prof", packed[p]);
      // Vertex membership file (ascending ids).
      put(p, ".vtx", std::as_bytes(std::span(members[p])));
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(0, m_, write_partitions, /*min_chunk=*/1);
  } else {
    write_partitions(0, m_);
  }
}

PartitionData derive_partition_edges(const KnnGraph& graph,
                                     const ReverseAdjacency& reverse,
                                     const PartitionAssignment& assignment,
                                     PartitionId id) {
  if (graph.num_vertices() != assignment.num_vertices()) {
    throw std::invalid_argument(
        "derive_partition_edges: graph/assignment size mismatch");
  }
  PartitionData data;
  data.id = id;
  data.vertices = assignment.members(id);
  std::size_t in_count = 0;
  std::size_t out_count = 0;
  for (const VertexId v : data.vertices) {
    in_count += reverse.in_neighbors(v).size();
    out_count += graph.neighbors(v).size();
  }
  data.in_edges.reserve(in_count);
  data.out_edges.reserve(out_count);
  // Both edge lists are grouped by the bridge v in ascending order; the
  // in-lists are already sorted by source, the neighbour lists are sorted
  // by score and need their run sorted by destination.
  for (const VertexId v : data.vertices) {
    for (const VertexId s : reverse.in_neighbors(v)) {
      data.in_edges.push_back({s, v});
    }
    const std::size_t first = data.out_edges.size();
    for (const Neighbor& nb : graph.neighbors(v)) {
      data.out_edges.push_back({v, nb.id});
    }
    std::sort(data.out_edges.begin() + static_cast<std::ptrdiff_t>(first),
              data.out_edges.end());
  }
  return data;
}

PartitionData PartitionStore::load(PartitionId id) const {
  PartitionData data;
  data.id = id;
  const auto vtx_bytes = fetch(file(id, ".vtx"));
  const auto in_bytes = fetch(file(id, ".in"));
  const auto out_bytes = fetch(file(id, ".out"));
  const auto prof_bytes = fetch(file(id, ".prof"));

  data.vertices = from_bytes<VertexId>(vtx_bytes);
  data.in_edges = from_bytes<Edge>(in_bytes);
  data.out_edges = from_bytes<Edge>(out_bytes);
  data.profiles = unpack_profiles(prof_bytes);
  if (data.profiles.size() != data.vertices.size()) {
    throw std::runtime_error("PartitionStore::load: profile count mismatch");
  }
  return data;
}

PartitionData PartitionStore::load_flat(PartitionId id,
                                        ThreadPool* pool) const {
  PartitionData data;
  data.id = id;
  data.vertices = from_bytes<VertexId>(fetch(file(id, ".vtx")));
  (void)fetch(file(id, ".in"));
  (void)fetch(file(id, ".out"));
  const std::vector<std::byte> packed = fetch(file(id, ".prof"));
  const auto profiles = packed_profile_views(packed);
  if (profiles.size() != data.vertices.size()) {
    throw std::runtime_error(
        "PartitionStore::load_flat: profile count mismatch");
  }
  data.flat = FlatProfileSet::from_profiles(data.vertices, profiles, pool);
  return data;
}

PartitionData PartitionStore::load_edges(PartitionId id) const {
  PartitionData data;
  data.id = id;
  const auto vtx_bytes = fetch(file(id, ".vtx"));
  const auto in_bytes = fetch(file(id, ".in"));
  const auto out_bytes = fetch(file(id, ".out"));
  data.vertices = from_bytes<VertexId>(vtx_bytes);
  data.in_edges = from_bytes<Edge>(in_bytes);
  data.out_edges = from_bytes<Edge>(out_bytes);
  return data;
}

PartitionCache::PartitionCache(std::size_t slots, Loader load)
    : slots_(std::max<std::size_t>(slots, 1)), load_(std::move(load)) {}

const PartitionData& PartitionCache::get(PartitionId id) {
  if (auto it = resident_.find(id); it != resident_.end()) {
    lru_.remove(id);
    lru_.push_front(id);
    return it->second;
  }
  if (resident_.size() >= slots_) {
    const PartitionId victim = lru_.back();
    lru_.pop_back();
    resident_.erase(victim);
    ++unloads_;
  }
  auto [it, inserted] = resident_.emplace(id, load_(id));
  lru_.push_front(id);
  ++loads_;
  return it->second;
}

bool PartitionCache::resident(PartitionId id) const {
  return resident_.contains(id);
}

void PartitionCache::flush() {
  unloads_ += resident_.size();
  resident_.clear();
  lru_.clear();
}

}  // namespace knnpc
