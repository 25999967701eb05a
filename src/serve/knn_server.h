// The online k-NN serving layer: answer queries while the engine runs.
//
// A KnnServer holds an immutable snapshot of (G(t), P(t)) behind an
// atomically swapped pointer. The engine publishes G(t+1)/P(t+1) through
// the SnapshotSink hook at the end of every iteration; publication reuses
// the persistent-worker sync machinery — the new state arrives as `KDLT`
// graph rows (graph/knn_graph_delta.h) and `KPRD` profile rows
// (profiles/profile_delta.h) applied to a copy of the current snapshot,
// so a publish costs one copy plus the changed rows, never a full
// re-serialisation, and the byte stream it applies is exactly what a
// remote subscriber would receive.
//
// Two query paths:
//   - top_k(user): the indexed read. Copies the user's row out of the
//     pinned snapshot — the answer is *exactly* the published G(t),
//     bit-for-bit (knn_server_test pins this).
//   - query(profile, k): the ad-hoc read, for profiles not in the index.
//     Graph-guided beam search in the diskAnnSearchInternal shape: a
//     sorted candidate queue bounded by `search_l`, epoch-stamped visited
//     marks, seeds drawn from every partition's representatives so the
//     walk starts in the partitions whose users look most like the query,
//     expansion over both edge directions (out-neighbours + the
//     snapshot's precomputed reverse adjacency). The query's items are
//     indexed once in a direct-addressed ItemTable
//     (profiles/similarity_kernels.h) and every offered vertex is scored
//     through it with phase 4's replay, bit-identical to similarity().
//     Each Reader keeps that table, the marks and the queue in a search
//     context it reuses from query to query. Approximate by construction:
//     recall is a function of `search_l` (knn_server_test gates >= 95% @
//     k=10, and the benchmark harness's serve-churn workload reports it
//     as query_recall), and results are deterministic per snapshot but
//     NOT covered by the engine's bit-identity contract.
//
// Thread-safety contract:
//   - publish() is single-publisher: at most one thread may publish at a
//     time (the engine's run_iteration already guarantees this; a mutex
//     enforces it for ad-hoc publishers).
//   - Readers are registered via reader(); each Reader owns one hazard
//     slot and may be used by ONE thread at a time. Any number of Readers
//     operate concurrently with each other and with publish() — reads are
//     lock-free (a bounded pointer-validation loop, no mutex, no blocking
//     on the publisher).
//   - Retired snapshots are reclaimed by the next publish() once no
//     reader still pins them (hazard-pointer scan); nothing is freed
//     under a live reader.
//   - All Readers must be destroyed before the server.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/knn_graph.h"
#include "profiles/profile.h"
#include "profiles/profile_store.h"
#include "profiles/similarity.h"
#include "serve/snapshot_sink.h"
#include "util/types.h"

namespace knnpc {

struct ServeConfig {
  /// Measure ad-hoc queries score with — use the engine's measure, or the
  /// published graph's scores and the query scores won't be comparable.
  SimilarityMeasure measure = SimilarityMeasure::Cosine;
  /// Default beam width (sorted-candidate-queue budget) for query();
  /// raised per call via the search_l argument. Recall rises with it,
  /// latency roughly linearly so.
  std::uint32_t search_l = 64;
  /// Beam entry points kept per phase-1 partition at publish time (evenly
  /// spaced over each partition's members, hash-offset so picks don't
  /// alias with periodic id structure). More seeds = better coverage of
  /// the profile space — the decisive recall knob on clustered data,
  /// where a converged k-NN graph decomposes into near-cliques the beam
  /// cannot cross without an entry point inside the query's cluster.
  std::uint32_t seeds_per_partition = 16;
  /// Hazard-slot pool size: the maximum number of concurrently live
  /// Readers. reader() throws when exhausted.
  std::uint32_t max_readers = 64;
};

/// One immutable published generation. Readers access it only while
/// pinned (Reader::pin() / the query methods); every field is frozen at
/// publish time.
struct ServeSnapshot {
  /// Publication sequence number (1 = first publish) — strictly
  /// increasing, the freshness signal readers observe.
  std::uint64_t version = 0;
  /// Engine iteration that produced this state.
  std::uint32_t iteration = 0;
  SimilarityMeasure measure = SimilarityMeasure::Cosine;
  KnnGraph graph;
  InMemoryProfileStore profiles;
  /// CSR reverse adjacency of `graph` (in-edges), precomputed at publish
  /// so beam expansion can walk both directions.
  ReverseAdjacency reverse;
  /// Beam entry points: seeds_per_partition representatives of every
  /// phase-1 partition (or evenly spaced ids when the publisher had no
  /// assignment), ascending.
  std::vector<VertexId> seeds;
  /// knn_graph_checksum(graph), stamped at publish — the torn-snapshot
  /// canary: any reader can recompute it on its pinned snapshot and must
  /// always get this value back.
  std::uint64_t graph_checksum = 0;
};

/// Per-publication accounting (KnnServer::last_publish()).
struct PublishStats {
  std::uint64_t version = 0;
  /// True when this publish shipped a full snapshot (first publish or
  /// shape change), false for the incremental row-delta path.
  bool full = false;
  /// Rows applied and wire bytes of the two delta streams.
  std::uint32_t graph_rows = 0;
  std::uint32_t profile_rows = 0;
  std::uint64_t graph_bytes = 0;
  std::uint64_t profile_bytes = 0;
};

struct QueryStats {
  /// Snapshot version the query ran against.
  std::uint64_t version = 0;
  /// Candidates expanded (neighbour lists walked).
  std::uint32_t expanded = 0;
  /// Similarities evaluated (distinct vertices scored, seeds included).
  std::uint32_t scored = 0;
};

struct QueryResult {
  /// Up to k results, sorted by (score desc, id asc).
  std::vector<Neighbor> neighbors;
  QueryStats stats;
};

/// Pure beam search over one snapshot — deterministic for a given
/// (snapshot, query, k, search_l). Reader::query is the pinned wrapper,
/// with the reader's reused search context; this entry point builds a
/// context of its own per call, and returns exactly what Reader::query
/// returns on the same snapshot. It exists for tests and offline
/// evaluation.
QueryResult beam_search(const ServeSnapshot& snapshot,
                        const SparseProfile& query, std::uint32_t k,
                        std::uint32_t search_l);

/// Beam-search state a Reader reuses across queries (the query's item
/// table, the visited marks and the candidate queue); defined in
/// knn_server.cpp.
struct BeamSearchContext;

class KnnServer final : public SnapshotSink {
 public:
  explicit KnnServer(ServeConfig config = {});
  ~KnnServer() override;
  KnnServer(const KnnServer&) = delete;
  KnnServer& operator=(const KnnServer&) = delete;

  /// Publishes (graph, profiles) as the next snapshot generation — the
  /// SnapshotSink hook both engine drivers call per iteration, also
  /// callable directly. Computes the row deltas against the current
  /// snapshot, serialises them to KDLT/KPRD bytes, applies the *parsed
  /// bytes* to a copy, and atomically swaps it in; the first publish (or
  /// a shape change) ships the full-snapshot delta instead. Never blocks
  /// readers.
  void publish(const KnnGraph& graph, const ProfileStore& profiles,
               std::span<const PartitionId> partition_of,
               std::uint32_t iteration) override;

  /// True once the first publish landed (readers would not throw).
  [[nodiscard]] bool has_snapshot() const noexcept {
    return published_version_.load(std::memory_order_acquire) != 0;
  }
  /// Latest published version (0 = nothing published yet).
  [[nodiscard]] std::uint64_t version() const noexcept {
    return published_version_.load(std::memory_order_acquire);
  }
  /// Accounting for the most recent publish().
  [[nodiscard]] PublishStats last_publish() const;
  /// Retired-but-not-yet-reclaimed snapshot count (bounded by the number
  /// of readers; exposed for the lifecycle tests).
  [[nodiscard]] std::size_t retired_count() const;
  [[nodiscard]] const ServeConfig& config() const noexcept {
    return config_;
  }

  class Reader;
  /// Registers a hazard slot and returns the per-thread query handle.
  /// Throws std::runtime_error once max_readers slots are live.
  [[nodiscard]] Reader reader() const;

 private:
  friend class Reader;

  /// Swaps `next` live, retires the predecessor, and reclaims every
  /// retired snapshot no hazard slot pins. Caller holds publish_mu_.
  void swap_and_retire(std::unique_ptr<const ServeSnapshot> next);

  ServeConfig config_;
  std::atomic<const ServeSnapshot*> live_{nullptr};
  std::atomic<std::uint64_t> published_version_{0};
  /// Hazard slots: slot i non-null = reader i is inside a read on that
  /// snapshot. Fixed-size so the reader fast path is index + atomics.
  mutable std::vector<std::atomic<const ServeSnapshot*>> hazard_;
  mutable std::vector<std::atomic<bool>> slot_taken_;
  mutable std::mutex publish_mu_;
  /// Superseded snapshots still pinned by some reader at last scan.
  std::vector<const ServeSnapshot*> retired_;
  std::uint64_t next_version_ = 1;
  PublishStats last_publish_{};
};

/// One registered reader: a hazard slot, the two query paths and the
/// search context query() reuses. Use from ONE thread at a time; create
/// one per query thread. Reads pin the current snapshot for their
/// duration only — a Reader never blocks the publisher and never observes
/// a half-applied publication (it sees the old generation or the new one,
/// atomically).
class KnnServer::Reader {
 public:
  Reader(Reader&& other) noexcept;
  Reader& operator=(Reader&& other) noexcept;
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;
  ~Reader();

  /// The indexed read: `user`'s current top-K row, exactly as published
  /// (score desc, id asc — KnnGraph row order). Throws std::logic_error
  /// before the first publish, std::out_of_range for an unknown user.
  [[nodiscard]] std::vector<Neighbor> top_k(VertexId user) const;

  /// The ad-hoc read: beam search for `query`'s k nearest indexed users.
  /// `search_l` 0 = the server's configured default; it is clamped up to
  /// at least k. Throws std::logic_error before the first publish.
  [[nodiscard]] QueryResult query(const SparseProfile& query,
                                  std::uint32_t k,
                                  std::uint32_t search_l = 0) const;

  /// Version of the snapshot a read issued now would see (0 = none yet).
  [[nodiscard]] std::uint64_t version() const;

  /// RAII pin for direct multi-call snapshot access (tests, evaluation).
  /// While a Pin is alive its Reader must not be used for anything else —
  /// the pin occupies the reader's hazard slot.
  class Pin {
   public:
    Pin(Pin&&) = delete;
    Pin& operator=(Pin&&) = delete;
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    ~Pin();
    /// nullptr before the first publish.
    [[nodiscard]] const ServeSnapshot* get() const noexcept {
      return snapshot_;
    }
    const ServeSnapshot* operator->() const noexcept { return snapshot_; }

   private:
    friend class Reader;
    Pin(const Reader* reader, const ServeSnapshot* snapshot)
        : reader_(reader), snapshot_(snapshot) {}
    const Reader* reader_;
    const ServeSnapshot* snapshot_;
  };
  [[nodiscard]] Pin pin() const;

 private:
  friend class KnnServer;
  Reader(const KnnServer* server, std::uint32_t slot);

  /// Hazard-pointer acquire: announce then re-validate until stable.
  [[nodiscard]] const ServeSnapshot* acquire() const;
  void release() const;
  /// Clears the hazard slot and frees it for the next reader().
  void give_back_slot() noexcept;

  const KnnServer* server_ = nullptr;
  std::uint32_t slot_ = 0;
  /// Mutated by the const query(): the Reader is a one-thread handle.
  std::unique_ptr<BeamSearchContext> context_;
};

}  // namespace knnpc
