// On-disk partition layout (phase 1 output, phase 4 input).
//
// Partition R_i owns a vertex subset V_i and is stored as three files:
//   part_<i>.in    in-edges  (s, v), v ∈ V_i, sorted by the bridge v
//   part_<i>.out   out-edges (v, d), v ∈ V_i, sorted by the bridge v
//   part_<i>.prof  profiles of V_i, packed in ascending vertex order
//
// Sorting both edge files by the *bridge* vertex v is the paper's phase-1
// trick: a sequential merge-join of the two files emits all
// neighbours-of-neighbours tuples (s, d) without random access.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "graph/edge_list.h"
#include "graph/knn_graph.h"
#include "partition/assignment.h"
#include "profiles/flat_profile.h"
#include "profiles/profile.h"
#include "profiles/profile_store.h"
#include "storage/io_model.h"
#include "util/types.h"

namespace knnpc {

class ThreadPool;

/// One partition fully materialised in memory.
struct PartitionData {
  PartitionId id = kInvalidPartition;
  std::vector<VertexId> vertices;   // ascending
  std::vector<Edge> in_edges;       // (s, v), sorted by v then s
  std::vector<Edge> out_edges;      // (v, d), sorted by v then d
  std::vector<SparseProfile> profiles;  // profiles[i] belongs to vertices[i]
  /// The same profiles in the similarity kernels' flat layout. Only
  /// load_flat() fills it, and it leaves `profiles` and the edges empty.
  FlatProfileSet flat;

  /// Profile of `v`; nullptr when v is not in this partition. O(log n).
  [[nodiscard]] const SparseProfile* profile_of(VertexId v) const;
};

/// Writes and reads partitions under a work directory. KnnEngine, the
/// paper's out-of-core engine, is its one client in the library: the
/// shard driver's workers hold G(t) and P(t) and read no partition file.
///
/// Thread-safety: single-owner — write_all must not overlap any other
/// call, though it may fan its per-partition work out to a pool of its
/// own. Reads do not mutate the store apart from its IoAccountant, which
/// is atomic, but no engine reads one store from two threads: KnnEngine
/// calls load_edges() and load_flat() from its calling thread, one batch
/// or one cache miss at a time.
///
/// Ownership: the store owns nothing in memory between calls — load()
/// returns PartitionData by value and the caller owns it (PartitionCache
/// is the standard bounded owner). The store does own the directory
/// layout; two stores over one directory must not write concurrently.
class PartitionStore {
 public:
  PartitionStore(std::filesystem::path dir, IoModel model = IoModel::none());

  /// Splits graph + profiles by `assignment` and writes all partition
  /// files. Profiles indexed by vertex id; edges of G(t) are routed to the
  /// partition owning their *bridge* role: (s,v) to owner(v) as in-edge,
  /// (v,d) to owner(v) as out-edge — i.e. every partition holds both edge
  /// directions of its own vertices, as the paper specifies.
  ///
  /// A non-null `pool` sorts, packs and writes the m partitions in
  /// parallel. Every buffer is sized from the edge and profile counts and
  /// allocated by the calling thread; pool threads only fill and write
  /// it. The files and byte counts are the same either way.
  void write_all(const EdgeList& graph, const PartitionAssignment& assignment,
                 const ProfileStore& profiles, ThreadPool* pool = nullptr);

  /// Loads one partition from disk, edges and profiles decoded (four file
  /// reads, charged to the accountant). Throws when the partition was
  /// never written. No engine calls it: it is the reference reader the
  /// storage tests check write_all, load_edges and load_flat against.
  [[nodiscard]] PartitionData load(PartitionId id) const;

  /// Loads only the vertex list and sorted edge files (phase 2 streams
  /// these to merge-join tuples; profiles are not needed there).
  [[nodiscard]] PartitionData load_edges(PartitionId id) const;

  /// Phase 4's load: the vertex list plus the profiles decoded straight
  /// into `flat` (FlatProfileSet::from_profiles, rows filled on `pool`
  /// when given), with no SparseProfile in between. It reads the same four
  /// files as load(), so a phase-4 load is charged the whole partition;
  /// the edge files are not decoded — phase 4 never merge-joins.
  [[nodiscard]] PartitionData load_flat(PartitionId id,
                                        ThreadPool* pool = nullptr) const;

  [[nodiscard]] PartitionId num_partitions() const noexcept { return m_; }
  [[nodiscard]] const std::filesystem::path& dir() const noexcept {
    return dir_;
  }
  [[nodiscard]] const IoAccountant& io() const noexcept { return io_; }

 private:
  [[nodiscard]] std::filesystem::path file(PartitionId id,
                                           const char* suffix) const;
  /// Reads a whole partition file, charging the accountant.
  [[nodiscard]] std::vector<std::byte> fetch(
      const std::filesystem::path& path) const;

  std::filesystem::path dir_;
  mutable IoAccountant io_;
  PartitionId m_ = 0;
};

/// Partition `id` of `graph` under `assignment`, edges only, built in
/// memory: the vertices, in-edges and out-edges that load_edges(id)
/// returns after write_all(graph.to_edge_list(), assignment, ...), in the
/// same order — vertices ascending, in-edges (s, v) by (v, s), out-edges
/// (v, d) by (v, d). `reverse` is build_reverse_adjacency(graph); callers
/// deriving several partitions build it once. A process that holds G(t)
/// and the partition map (a shard worker on a sampled or reversed run)
/// runs phase 2 from these without any partition file.
PartitionData derive_partition_edges(const KnnGraph& graph,
                                     const ReverseAdjacency& reverse,
                                     const PartitionAssignment& assignment,
                                     PartitionId id);

/// Bounded partition cache for phase 4: at most `slots` partitions resident
/// (the paper uses 2). Counts loads and unloads — Table 1's metric.
///
/// Thread-safety: single-owner (one cache per engine / shard body).
class PartitionCache {
 public:
  /// Brings one partition in on a miss: KnnEngine's phase 4 reads it with
  /// PartitionStore::load_flat(); a shard body, which scores from the
  /// P(t) its process holds, returns only the id, so a load only counts.
  using Loader = std::function<PartitionData(PartitionId)>;

  PartitionCache(std::size_t slots, Loader load);

  /// Returns the resident partition, loading (and possibly evicting LRU)
  /// as needed. References are invalidated by subsequent get() calls that
  /// evict; phase 4 pins at most `slots` partitions at a time by
  /// construction.
  const PartitionData& get(PartitionId id);

  [[nodiscard]] bool resident(PartitionId id) const;
  [[nodiscard]] std::uint64_t loads() const noexcept { return loads_; }
  [[nodiscard]] std::uint64_t unloads() const noexcept { return unloads_; }
  /// loads + unloads: the Table-1 "operations" metric.
  [[nodiscard]] std::uint64_t operations() const noexcept {
    return loads_ + unloads_;
  }

  /// Drops everything, counting the unloads.
  void flush();

 private:
  std::size_t slots_;
  Loader load_;
  std::list<PartitionId> lru_;  // front = most recent
  std::unordered_map<PartitionId, PartitionData> resident_;
  std::uint64_t loads_ = 0;
  std::uint64_t unloads_ = 0;
};

}  // namespace knnpc
