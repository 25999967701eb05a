// Sharded execution driver: one engine worker per user shard, each
// computing its own users' top-K from the G(t) it holds.
//
// The paper's phases hand partitions (phase 1 -> 2/4) and tuple bundles
// (phase 2 -> 4) to each other through files because one PC cannot hold
// them. A shard worker holds G(t) and both ownership maps anyway, so the
// driver does not route candidates between workers; every worker runs
// the same shard body:
//
//   driver   phase 1: partition G(t) once and split the user universe
//            into S shards with a src/partition partitioner. It writes
//            no partition file: every shard body holds P(t) too.
//   worker w phase 2: walk its own source users in ascending order and
//            emit each one's candidates together from G(t)
//            (core/tuple_generation.h's source_candidates), keeping the
//            first copy of each (s, d) by an n-entry stamp array — no
//            hash table, no partition derived. Sampled runs and runs
//            with include_reverse instead derive every edges-only
//            partition from G(t), run the partition rules over all m and
//            keep the candidates whose source it owns in a TupleTable;
//            phases 3-4: build its own PI graph + schedule, pack the
//            P(t) its process holds once, score its pair bundles in
//            schedule order from that pack (a private 2-slot cache still
//            counts the partition loads and unloads) and keep top-K for
//            its users only.
//   driver   merge the per-shard graphs (core/sharded_knn_graph.h's
//            ShardedKnnGraph) and run phase 5 on the shared profiles.
//
// Determinism contract (mirrors the engine's thread-count contract): the
// merged G(t+1) is bit-identical to the serial KnnEngine's for the same
// EngineConfig, for ANY shard count. It holds because (a) each user's
// top-K kept set is a pure function of its unique candidate SET — the
// accumulator keeps "top K by (score desc, id asc)" regardless of offer
// order (core/topk.cpp) — and (b) phase 2 generates a
// decomposition-independent candidate set: sampling and restart RNG
// streams are derived per partition / per user (core/tuple_generation.h),
// and worker w generates exactly the serial engine's candidates whose
// source w owns, so all tuples of a given source user meet in one worker.
// shard_driver_test asserts the contract for S in {1,2,3,5}, including
// the spill-scores, sampled and reverse-candidate paths.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "graph/knn_graph.h"
#include "profiles/profile_store.h"
#include "profiles/update_queue.h"
#include "util/types.h"

namespace knnpc {

/// Auto shard mode: one worker per this many candidate edges (n * k),
/// i.e. 4x the phase-4 per-thread granularity — a shard only pays off
/// once it can keep a few threads busy. At k=10 the second worker
/// arrives at 20k users (n*k = 2 * kWorkPerShard), growing to the
/// kMaxAutoShards cap near 80k.
inline constexpr std::uint64_t kWorkPerShard = 4 * kPhase4WorkPerThread;
inline constexpr std::uint32_t kMaxAutoShards = 8;

/// Resolves the shard-count knob: `requested > 0` is taken verbatim
/// (clamped to the user count); `requested == 0` is auto — hardware
/// concurrency clamped so every shard gets at least kWorkPerShard of the
/// n*k workload, capped at kMaxAutoShards. Always returns >= 1.
std::uint32_t resolve_shard_count(std::uint32_t requested,
                                  VertexId num_users, std::uint32_t k);

/// How the S workers execute one iteration.
enum class ShardWorkerMode {
  /// One thread per worker inside the driver's process, each running the
  /// shard body over the driver's own G(t) and P(t), read-only. It
  /// differs from Persistent only in transport. It is the default, the
  /// only sharded mode that needs no worker binary, and how the tsan CI
  /// job checks S shard bodies that share one G(t) and one P(t).
  Thread,
  /// S worker processes spawned ONCE per run and kept alive across
  /// iterations: the driver re-executes `ShardConfig::worker_exe` in the
  /// hidden --shard-worker role, sends it the plan (the EngineConfig
  /// fields the shard body reads) as the first frame, and then drives it
  /// through a length-prefixed command protocol (util/ipc_channel.h).
  /// One RUN_ITERATION command per iteration carries every per-iteration
  /// delta at once — ownership maps only when they changed, G(t) as a
  /// changed-rows knn_graph_delta, P(t) as a changed-users profile_delta
  /// — and the worker runs the shard body and replies ITERATION_DONE with
  /// stats + ShardResult inline. Workers exchange nothing with each other
  /// and, like thread-mode workers, read no partition file: they
  /// generate candidates from their G(t) copy and score from their P(t)
  /// copy. Supervision: a worker that dies, replies garbage, or exceeds
  /// `worker_timeout_s` on its command is SIGKILLed and respawned exactly
  /// once with a full graph + profile resync, and its command replays
  /// deterministically while the other workers carry on; a second
  /// failure in the same iteration throws with per-worker diagnostics
  /// and leaves G(t) untouched. Output stays bit-identical to thread
  /// mode.
  Persistent,
};

/// Parses "thread" | "persistent"; throws std::invalid_argument.
ShardWorkerMode parse_worker_mode(std::string_view name);
/// Inverse of parse_worker_mode.
const char* worker_mode_name(ShardWorkerMode mode) noexcept;

struct ShardConfig {
  /// Engine workers S. 0 = auto (resolve_shard_count); 1 degenerates to
  /// the serial pipeline run through the driver's machinery.
  std::uint32_t shards = 0;
  /// How the user universe is split into shards: "range" | "hash" |
  /// "degree-range" | "greedy" (any src/partition strategy), or
  /// "pair-affinity" — shard(u) = group of u's partition, with the m
  /// partitions grouped into S contiguous balanced groups
  /// (partition/pair_affinity.h), so each shard's phase-4 schedule
  /// touches ~m/S partitions instead of all m. The output graph does not
  /// depend on this choice — only load balance and partition reads do.
  std::string shard_partitioner = "range";
  /// Thread workers (default) or long-lived processes driven over pipes.
  ShardWorkerMode worker_mode = ShardWorkerMode::Thread;
  /// Persistent mode: wall-clock budget for ONE worker's reply to one
  /// iteration command. A worker exceeding it is SIGKILLed, counted as
  /// wedged, and retried once like any other failure. Follows the uniform
  /// timeout contract (util/ipc_channel.h): < 0 disables the deadline (a
  /// truly wedged worker then hangs the run — keep a bound in
  /// production), 0 polls once and treats any still-pending reply as a
  /// timeout.
  double worker_timeout_s = 600.0;
  /// Persistent mode: binary to re-execute as --shard-worker; empty =
  /// the running executable (/proc/self/exe). The binary must dispatch
  /// maybe_run_shard_worker() before its own argv parsing — knnpc_run,
  /// the harness's knnpc_bench and the worker-spawning test suites all
  /// do.
  std::string worker_exe;
  /// Distributed persistent mode: worker-agent endpoints ("host:port",
  /// one `knnpc_run --worker-agent` process each). Non-empty turns the
  /// driver into a cluster coordinator — EVERY worker runs behind an
  /// agent (shard s connects to endpoint s*E/S: contiguous balanced
  /// shard groups), with the agent's run directory as its work dir. Only
  /// the worker channels carry data; no file crosses an agent link.
  /// Supervision (retry-once, full resync, deadline kills) and the merged
  /// output are identical to local persistent mode — a remote worker
  /// kill mid-run still yields the serial engine's bit-exact graph.
  /// Requires worker_mode == Persistent; worker_exe is ignored remotely
  /// (each agent decides its own binary).
  std::vector<std::string> worker_endpoints;
  /// Deadline for connecting to an agent and for each agent control
  /// round-trip (remote kill). Same < 0 / 0 / > 0 contract as
  /// worker_timeout_s.
  double agent_timeout_s = 30.0;
};

/// Per-worker observability for one iteration.
struct ShardWorkerStats {
  std::uint32_t shard = 0;
  /// Users this shard owns (its top-K responsibility).
  VertexId users = 0;
  /// Candidates this worker kept for its own users, before dedup: every
  /// generated candidate whose source it owns, reversed ones included
  /// (include_reverse).
  std::uint64_t spooled_tuples = 0;
  /// Wall time of this worker's phase 2 (produce_s) and phases 3-4
  /// (consume_s).
  double produce_s = 0.0;
  double consume_s = 0.0;
  /// Persistent mode: processes launched for this worker slot so far in
  /// the run (1 = the original spawn, each respawn adds one) and
  /// full-snapshot resyncs shipped after a respawn. Zero in the other
  /// modes. Cumulative across iterations — the spawn-amortisation story
  /// in numbers.
  std::uint32_t spawn_count = 0;
  std::uint32_t resync_count = 0;
  /// Command-channel traffic to / from this worker this iteration,
  /// including frame headers (persistent mode); zero in thread mode.
  std::uint64_t bytes_tx = 0;
  std::uint64_t bytes_rx = 0;
  /// Command round-trips this iteration: RUN_ITERATION commands in
  /// persistent mode (1 on the steady path, 2 after a respawn).
  std::uint32_t round_trips = 0;
  /// Partitions this worker's phase-4 schedule actually streamed (pair
  /// incidence of its PI graph) — ~m/S under the pair-affinity split.
  std::uint32_t partitions_touched = 0;
  /// Always 0: every shard body scores from the P(t) its process holds
  /// and reads no partition file. Kept only because the benchmark
  /// harness (bench/harness/knnpc_bench.cpp) still reads it; it goes
  /// with the next change to the benchmark, like the sync_* fields.
  std::uint64_t profile_reads = 0;
  /// KPRD profile-delta rows shipped to this worker this iteration
  /// (persistent mode): the churned users on the steady path, all n on a
  /// respawn resync — how tests pin "a resync carries a full snapshot".
  std::uint64_t profile_rows_rx = 0;
  /// Always 0: no file crosses an agent link. Kept only because the
  /// benchmark harness (bench/harness/knnpc_bench.cpp) still reads them;
  /// they go with the next change to the benchmark.
  std::uint64_t sync_files_tx = 0;
  std::uint64_t sync_bytes_tx = 0;
  std::uint64_t sync_files_skipped = 0;
  std::uint64_t sync_bytes_skipped = 0;
  /// This worker's share of the merged counters (sum_iteration_stats
  /// folds these into ShardedIterationStats::merged). Its
  /// candidate_tuples counts the candidates generated for its own
  /// sources; on the partition walk (sample_rate < 1 or include_reverse)
  /// it counts those of the partitions p ≡ w (mod S) plus its own users'
  /// restarts instead. The merged count is the serial engine's either
  /// way.
  IterationStats stats;

  [[nodiscard]] double wall_s() const noexcept {
    return produce_s + consume_s;
  }
};

struct ShardedIterationStats {
  /// Aggregate view, same shape as the serial engine's IterationStats:
  /// counters and I/O are summed over workers (plus the driver's phase-1
  /// work); change_rate is recomputed from summed per-user change counts
  /// and therefore matches the serial engine's exactly.
  IterationStats merged;
  std::vector<ShardWorkerStats> workers;
};

/// S-worker sharded pipeline with the KnnEngine interface.
///
/// Thread-safety: single-owner, like KnnEngine — no member function may
/// overlap another call on the same instance. run_iteration() spawns one
/// thread per shard internally (each worker with its own ThreadPool, the
/// phase-4 thread budget divided across shards) and joins them before
/// returning. In ShardWorkerMode::Persistent the shard bodies run in
/// supervised long-lived child processes instead — same merged output,
/// crash containment per worker.
///
/// Ownership: owns the profiles, the merged graph, the per-shard pools
/// and the work directory (scratch unless EngineConfig::work_dir is set).
class ShardedKnnEngine {
 public:
  ShardedKnnEngine(EngineConfig config, ShardConfig shard_config,
                   std::vector<SparseProfile> profiles);
  ~ShardedKnnEngine();
  ShardedKnnEngine(const ShardedKnnEngine&) = delete;
  ShardedKnnEngine& operator=(const ShardedKnnEngine&) = delete;

  /// Replaces the current graph G(t) (vertex count must match).
  void set_initial_graph(KnnGraph graph);

  /// One full five-phase iteration across all shards.
  ShardedIterationStats run_iteration();

  /// Iterates until change_rate < `convergence_delta` or `max_iterations`
  /// (RunStats holds the merged per-iteration stats).
  RunStats run(std::uint32_t max_iterations, double convergence_delta = 0.01);

  [[nodiscard]] const KnnGraph& graph() const noexcept { return graph_; }
  [[nodiscard]] const InMemoryProfileStore& profiles() const noexcept {
    return profiles_;
  }
  [[nodiscard]] const EngineConfig& config() const noexcept {
    return config_;
  }
  /// Resolved worker count S.
  [[nodiscard]] std::uint32_t num_shards() const noexcept;
  /// Phase-4 threads each worker runs with (total budget / S).
  [[nodiscard]] std::uint32_t threads_per_shard() const noexcept;

  /// Same lazy phase-5 semantics as KnnEngine::update_queue().
  UpdateQueue& update_queue() noexcept { return queue_; }

  /// Same serving-layer hook as KnnEngine::set_snapshot_sink(): publishes
  /// the merged (G(t+1), P(t+1)) at the end of every sharded iteration.
  void set_snapshot_sink(SnapshotSink* sink) noexcept { sink_ = sink; }

 private:
  struct Impl;

  EngineConfig config_;
  ShardConfig shard_config_;
  InMemoryProfileStore profiles_;
  KnnGraph graph_;
  UpdateQueue queue_;
  SnapshotSink* sink_ = nullptr;
  std::uint32_t iteration_ = 0;
  std::unique_ptr<Impl> impl_;  // scratch dir, per-shard pools
};

// ---------------------------------------------------------------------------
// The persistent-worker protocol: frame types and the two command
// encoders the driver sends with (payload layouts in shard_driver.cpp).
// Driver and worker are the same binary; tests drive a worker with these
// same bytes.

namespace shard_frame {
/// Driver -> worker, the first frame after every spawn: plan_to_bytes().
constexpr std::uint32_t kPlan = 2;
/// Driver -> worker, empty payload: the worker exits 0.
constexpr std::uint32_t kShutdown = 3;
/// Driver -> worker: run_iteration_to_bytes().
constexpr std::uint32_t kRunIteration = 4;
/// Worker -> driver, once the plan was accepted: u32 shard.
constexpr std::uint32_t kReady = 100;
/// Worker -> driver: raw ShardWorkerStats, then "KSHR" ShardResult bytes.
constexpr std::uint32_t kIterationDone = 104;
}  // namespace shard_frame

/// Everything a persistent worker needs that RUN_ITERATION does not
/// carry: the EngineConfig fields the shard body reads and the resolved
/// shard and thread budget.
struct WorkerPlan {
  EngineConfig config;
  std::uint32_t shards = 1;
  std::uint32_t threads_per_shard = 1;
};

/// The PLAN payload ("KPLN" bytes).
std::vector<std::byte> plan_to_bytes(const WorkerPlan& plan);

/// One RUN_ITERATION command: the ownership maps when they changed, and
/// G(t) and P(t) as deltas against the versions the worker holds.
struct RunIterationCommand {
  std::uint32_t iteration = 0;
  std::uint32_t attempt = 0;
  /// user -> partition and user -> shard, one entry per user; both null
  /// when the worker already holds the current maps.
  const std::vector<PartitionId>* partition_owner = nullptr;
  const std::vector<PartitionId>* shard_owner = nullptr;
  /// "KDLT" knn_graph_delta bytes against graph_base_version; every row
  /// when graph_full (the respawn resync).
  bool graph_full = false;
  std::int64_t graph_base_version = -1;
  std::int64_t graph_new_version = -1;
  std::span<const std::byte> graph_delta;
  /// "KPRD" profile_delta bytes, likewise.
  bool profile_full = false;
  std::int64_t profile_base_version = -1;
  std::int64_t profile_new_version = -1;
  std::span<const std::byte> profile_delta;
};

/// The RUN_ITERATION payload.
std::vector<std::byte> run_iteration_to_bytes(
    const RunIterationCommand& command);

// ---------------------------------------------------------------------------
// The hidden --shard-worker role (persistent mode).

/// Entry point of one persistent worker: reads the plan frame from stdin,
/// creates its thread pool once, sends a READY frame on stdout and then
/// serves RUN_ITERATION / SHUTDOWN commands from stdin until shutdown or
/// EOF (both exit 0). Each RUN_ITERATION applies the shipped ownership /
/// graph / profile deltas, runs the shard body against the worker's own
/// G(t) and P(t) with its scratch files under `work_dir`, and replies
/// ITERATION_DONE. The body is shared with thread mode; only the
/// transport differs. Every size a command carries (the map count, a full
/// G(t)'s vertex count and k, a full P(t)'s user count) is checked
/// against the payload, the maps or the plan before anything is sized
/// from it. Protocol errors are reported on stderr and become exit code
/// 13 — the driver's respawn path takes over from there.
int persistent_worker_main(const std::filesystem::path& work_dir,
                           std::uint32_t shard);

/// Dispatch helper for binaries that can be re-executed as workers: when
/// argv contains --shard-worker (with --shard=N --work-dir=DIR), runs the
/// worker role and returns its exit code for main() to return; otherwise
/// returns nullopt and the binary proceeds with its normal argv parsing.
/// Call this FIRST in main() — worker argv is not meant for the normal
/// option parsers.
std::optional<int> maybe_run_shard_worker(int argc, char** argv);

/// Fault-injection hook for the persistent-mode test harness.
/// When this environment variable is set in a *worker* process
/// (inherited from the spawning test), the worker injects the named
/// fault at one of the shard body's two fault points:
///   "<point>:<shard>:<kind>[:<attempt>[:<iteration>]]"
/// point ∈ { produce (after phase 2's candidate generation), consume (at
/// the start of phase 4) }; kind ∈ { kill (raise SIGKILL), exit (exit
/// code 3), wedge (sleep until the driver's deadline kills the worker) }.
/// Without the optional attempt filter the fault fires on every attempt
/// (driving the retry-then-fail path); with it, only on that attempt
/// (driving the retry-succeeds path); "*" matches any attempt. The
/// optional fifth field restricts the fault to one iteration — that is
/// how the persistent-mode tests kill a long-lived worker mid-run at
/// iteration i > 0 without also killing its respawned successor in later
/// iterations. Thread-mode workers never consult this.
inline constexpr const char* kShardFaultEnv = "KNNPC_SHARD_FAULT";

}  // namespace knnpc
