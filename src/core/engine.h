// The paper's system: out-of-core iterative KNN over partitioned graph +
// profiles, five phases per iteration (Figure 1):
//   1. partition G(t) (+ profiles) into m partitions on disk
//   2. populate the hash table H with unique candidate tuples
//   3. build the PI graph and schedule its traversal
//   4. stream partition pairs through `memory_slots` slots, compute
//      similarities, keep per-user top-K  =>  G(t+1)
//   5. apply the queued profile updates  =>  P(t+1)
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/knn_graph.h"
#include "profiles/profile_store.h"
#include "profiles/similarity.h"
#include "profiles/update_queue.h"
#include "serve/snapshot_sink.h"
#include "storage/block_file.h"
#include "storage/io_model.h"
#include "util/types.h"

namespace knnpc {

/// Auto thread mode (EngineConfig::threads == 0): one worker per this many
/// candidate edges (n * k). At k=10 a run crosses into multi-threading
/// around 5k users and saturates hardware concurrency near 200k edges.
/// Shared with the shard driver so both resolve the same total budget.
inline constexpr std::uint64_t kPhase4WorkPerThread = 25000;

struct EngineConfig {
  std::uint32_t k = 10;
  PartitionId num_partitions = 8;
  /// Phase-3 traversal heuristic (see pigraph/heuristics.h).
  std::string heuristic = "low-high";
  /// Phase-1 strategy: "range" | "hash" | "greedy".
  std::string partitioner = "range";
  SimilarityMeasure measure = SimilarityMeasure::Cosine;
  /// Resident partition slots in phase 4 (the paper uses 2).
  std::size_t memory_slots = 2;
  /// Threads for the iteration's parallel stretches: phase 1 (sorting,
  /// packing and writing the partitions), phase 2 (candidate generation
  /// and dedup in source-user shards) and phase 4 (partition decoding,
  /// similarity scoring and the top-K offers); the sampled_recall estimator
  /// reuses them. 0 = auto: hardware concurrency clamped by workload size,
  /// so large runs multi-thread by default while small runs stay serial.
  /// 1 = always serial, the oracle path. The KNN output is bit-identical
  /// across thread counts.
  std::uint32_t threads = 0;
  /// Where partition and tuple-shard files live; empty = fresh scratch dir.
  std::string work_dir;
  /// Device model for I/O time accounting (storage/io_model.h).
  IoModel io_model = IoModel::none();
  /// Evaluate the phase-1 objective each iteration (costs one extra graph
  /// pass; enable for the partitioner benches).
  bool record_partition_cost = false;
  /// Extra uniformly-random candidates injected per user per iteration
  /// (NN-Descent-style restarts). Pure neighbour-of-neighbour expansion
  /// cannot re-discover a user whose profile changed away from its whole
  /// current neighbourhood (phase 5 dynamics); a trickle of random tuples
  /// restores reachability. 0 disables.
  std::uint32_t random_candidates = 2;
  /// Also admit the reverse (d, s) of every candidate tuple — NN-Descent's
  /// reverse-neighbourhood trick [Dong'11]. Roughly doubles phase-4 work
  /// and speeds convergence; off by default (the paper's pipeline as
  /// described is forward-only).
  bool include_reverse = false;
  /// Keep each bridge candidate with this probability (NN-Descent's rho).
  /// Trades recall per iteration for tuple volume. 1.0 = keep all.
  double sample_rate = 1.0;
  /// Run the phase-1 partitioner only every N iterations, reusing the
  /// previous assignment in between (partition files are still rewritten —
  /// G(t) changed — but placement is reused). 1 = repartition always.
  std::uint32_t repartition_every = 1;
  /// Write the KNN graph to <work_dir>/checkpoint_latest.knng after every
  /// iteration (crash-resumable via graph/knn_graph_io.h).
  bool checkpoint = false;
  /// Memory budget for phase 2's pair-bundle buffers: the serial engine
  /// and each shard worker flush a buffer to its bundle file beyond this
  /// (a worker's share is shard_buffer_bytes / S), and the threaded
  /// engine stages this many bytes of bundles per write.
  std::size_t shard_buffer_bytes = 16u << 20;
  /// When > 0, estimate recall@K after every iteration by exact search
  /// over this many sampled users (core/convergence.h). Costs
  /// O(samples * n) similarities per iteration — observability, not part
  /// of the pipeline itself.
  std::size_t recall_samples = 0;
  std::uint64_t seed = 42;
};

struct PhaseTimings {
  double partition_s = 0.0;   // phase 1
  double hash_s = 0.0;        // phase 2
  double pi_graph_s = 0.0;    // phase 3
  double knn_s = 0.0;         // phase 4
  double update_s = 0.0;      // phase 5

  [[nodiscard]] double total() const noexcept {
    return partition_s + hash_s + pi_graph_s + knn_s + update_s;
  }
};

struct IterationStats {
  std::uint32_t iteration = 0;
  PhaseTimings timings;
  /// Tuples emitted by the phase-2 generators (before dedup).
  std::uint64_t candidate_tuples = 0;
  /// Unique tuples in H (== similarity evaluations in phase 4).
  std::uint64_t unique_tuples = 0;
  std::uint64_t pi_pairs = 0;
  std::uint64_t partition_loads = 0;
  std::uint64_t partition_unloads = 0;
  /// Raw file-level byte/op counters for the iteration.
  IoCounters io;
  /// Modelled device time for the iteration's I/O, microseconds.
  double modeled_io_us = 0.0;
  /// Phase-4 sub-timings (both contained in timings.knn_s): scoring the
  /// tuple bundles, which offers each score to the top-K as it is
  /// computed (score_and_offer, core/topk.h), so knn_score_s includes the
  /// offers in every mode; and the build of G(t+1) from the top-K rows
  /// (knn_merge_s; the sharded driver adds its merge of the shards).
  double knn_score_s = 0.0;
  double knn_merge_s = 0.0;
  /// Threads the iteration actually ran with (config.threads resolved;
  /// != config.threads only in auto mode).
  std::uint32_t threads_used = 1;
  /// KnnGraph::change_rate(G(t), G(t+1)); converged when small.
  double change_rate = 1.0;
  std::size_t profile_updates_applied = 0;
  /// Phase-1 objective value (only when record_partition_cost).
  std::optional<std::size_t> partition_cost_total;
  /// Sampled recall@K after this iteration (only when recall_samples > 0).
  std::optional<double> sampled_recall;
};

struct RunStats {
  std::vector<IterationStats> iterations;
  bool converged = false;
  double total_seconds = 0.0;
};

/// Element-wise sum of per-worker iteration stats (counters, timings, I/O
/// and phase-4 sub-timings add; `threads_used` adds — it becomes "total
/// workers applied"). `iteration` is taken from the first element;
/// `change_rate`, `partition_cost_total` and `sampled_recall` are NOT
/// summable and are left at their defaults for the caller to fill (the
/// shard driver recomputes change_rate from summed change counts).
/// Returns a default IterationStats for an empty input.
IterationStats sum_iteration_stats(const std::vector<IterationStats>& parts);

/// Suggests a partition count m such that two resident partitions (the
/// paper's slot budget) plus working state fit in `memory_budget_bytes`:
/// m = ceil(slots * total_data_bytes / budget), clamped to [1, n].
/// `total_data_bytes` should approximate profiles + edge lists; use
/// estimate_data_bytes() for the standard estimate.
PartitionId suggest_partition_count(std::uint64_t total_data_bytes,
                                    std::uint64_t memory_budget_bytes,
                                    std::size_t slots, VertexId num_users);

/// Approximate on-disk bytes of one iteration's partition data: packed
/// profiles plus both edge files at out-degree k.
std::uint64_t estimate_data_bytes(const std::vector<SparseProfile>& profiles,
                                  std::uint32_t k);

/// The single-process five-phase pipeline (one iteration = phases 1-5 of
/// Figure 1). This is the *serial reference implementation* whose output
/// every parallel execution mode must reproduce bit-for-bit: phases 1, 2
/// and 4 may run on an internal thread pool (EngineConfig::threads), and
/// the sharded driver (core/shard_driver.h) runs S of these pipelines
/// side by side — as threads in this process or as supervised worker
/// processes (ShardWorkerMode). All three contracts are tested against this class
/// (engine_test, shard_driver_test, shard_process_test) and pinned by the
/// golden-checksum corpus (golden_test, tests/golden/).
///
/// Thread-safety: a KnnEngine is single-owner. No member function may be
/// called concurrently with another on the same instance; run_iteration()
/// internally fans out to its own pool and joins before returning.
/// Distinct instances are fully independent (separate scratch dirs, pools
/// and RNG streams) and may run on different threads — that is exactly
/// what the shard driver does.
///
/// Ownership: the constructor takes the profile set by value and owns it
/// for the engine's lifetime; P(t) evolves in place via phase 5.
/// update_queue() returns a reference into the engine — push updates at
/// any time between iterations, never during run_iteration().
class KnnEngine {
 public:
  /// Takes ownership of the profiles; the KNN graph starts random
  /// (NN-Descent bootstrap) unless set_initial_graph() is called.
  KnnEngine(EngineConfig config, std::vector<SparseProfile> profiles);
  ~KnnEngine();
  KnnEngine(const KnnEngine&) = delete;
  KnnEngine& operator=(const KnnEngine&) = delete;

  /// Replaces the current graph G(t) (vertex count must match).
  void set_initial_graph(KnnGraph graph);

  /// Runs one full five-phase iteration: G(t) -> G(t+1), P(t) -> P(t+1).
  IterationStats run_iteration();

  /// Iterates until change_rate < `convergence_delta` or `max_iterations`.
  RunStats run(std::uint32_t max_iterations, double convergence_delta = 0.01);

  [[nodiscard]] const KnnGraph& graph() const noexcept { return graph_; }
  [[nodiscard]] const InMemoryProfileStore& profiles() const noexcept {
    return profiles_;
  }
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }

  /// Queue profile changes here at any time; they take effect in phase 5
  /// of the *next* run_iteration() call (lazy, as per the paper).
  UpdateQueue& update_queue() noexcept { return queue_; }

  /// Optional serving-layer hook: when set, every run_iteration() ends by
  /// publishing (G(t+1), P(t+1), phase-1 owner map) to the sink. The sink
  /// is borrowed — it must outlive the engine or be reset to nullptr.
  void set_snapshot_sink(SnapshotSink* sink) noexcept { sink_ = sink; }

 private:
  struct Impl;

  EngineConfig config_;
  InMemoryProfileStore profiles_;
  KnnGraph graph_;
  UpdateQueue queue_;
  SnapshotSink* sink_ = nullptr;
  std::uint32_t iteration_ = 0;
  std::unique_ptr<Impl> impl_;  // scratch dir, thread pool
};

}  // namespace knnpc
