#include "core/engine.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "core/convergence.h"
#include "core/topk.h"
#include "core/tuple_generation.h"
#include "core/tuple_table.h"
#include "graph/digraph.h"
#include "graph/knn_graph_io.h"
#include "partition/cost.h"
#include "partition/partitioner.h"
#include "pigraph/heuristics.h"
#include "pigraph/pi_graph.h"
#include "profiles/flat_profile.h"
#include "storage/partition_store.h"
#include "storage/shard_writer.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/serde.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace knnpc {
namespace fs = std::filesystem;

namespace {

/// Shared slot layout (core/tuple_generation.h) under the old local name.
inline std::size_t pair_slot(PartitionId a, PartitionId b, PartitionId m) {
  return pi_pair_slot(a, b, m);
}

/// Phase 2's pair bundles: <work_dir>/tuples_<slot>.bin.
constexpr const char* kBundleStem = "tuples";

/// Everything phase 2 reads besides G(t) and the bundle sink.
struct CandidateSource {
  const EngineConfig& config;
  std::uint32_t iteration;
  const PartitionStore& store;
  const PartitionAssignment& assignment;
  std::filesystem::path bundle_dir;
  IoAccountant* io;
};

/// Phase 2 on one thread, the oracle: one table H over all candidates,
/// survivors streamed into the pair bundles through a bounded buffer.
/// Returns the record count of every pair slot.
std::vector<std::uint64_t> bundle_candidates_serial(const CandidateSource& src,
                                                    IterationStats& stats) {
  const EngineConfig& config = src.config;
  const VertexId n = src.assignment.num_vertices();
  const PartitionId m = src.assignment.num_partitions();
  const std::size_t num_slots = pair_slot(m - 1, m - 1, m) + 1;
  TupleShardWriter shard_writer(src.bundle_dir, kBundleStem, num_slots,
                                config.shard_buffer_bytes, src.io);
  TupleTable table(static_cast<std::size_t>(n) * config.k * 2);
  auto insert = [&](Tuple t) {
    if (table.insert(t)) {
      shard_writer.add(pair_slot(src.assignment.owner(t.s),
                                 src.assignment.owner(t.d), m),
                       t);
    }
  };
  auto admit = [&](Tuple t) {
    insert(t);
    if (config.include_reverse) insert(Tuple{t.d, t.s});
  };
  for (PartitionId p = 0; p < m; ++p) {
    stats.candidate_tuples += partition_candidates(
        config, src.iteration, src.store.load_edges(p), admit);
  }
  for (VertexId s = 0; s < n; ++s) {
    stats.candidate_tuples +=
        restart_candidates(config, src.iteration, n, s, admit);
  }
  stats.unique_tuples = table.size();
  shard_writer.finish();
  std::vector<std::uint64_t> records(num_slots);
  for (std::size_t slot = 0; slot < num_slots; ++slot) {
    records[slot] = shard_writer.shard_records(slot);
  }
  return records;
}

/// Source-user shard of `s` among `shards`. Fibonacci hashing spreads the
/// contiguous id runs of a cluster (and of a range partition) over every
/// shard, so each shard gets a like share of each partition's candidates.
inline std::uint32_t source_shard(VertexId s, std::uint32_t shards) {
  const std::uint32_t mixed = s * 0x9e3779b9u;
  return static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(mixed) * shards) >> 32);
}

/// Phase 2 on `pool`. Each source user gets its own candidate bucket,
/// and each of T source-user shards fills and dedups the buckets of its
/// own users, so no bucket has two writers and no lock is taken. The
/// shards' union is the serial engine's H: every pair slot gets the same
/// set of unique tuples, grouped by source — each source forms one
/// contiguous run in every bundle, which phase 4's fused offers rely on.
/// Partitions are loaded T at a time; every shard runs the candidate rules
/// over the loaded batch and appends its share to its buckets.
///
/// Every buffer is sized here, on the calling thread, from G(t)'s degrees;
/// pool threads only fill them. Each bucket holds an upper bound of its
/// source's candidates, so it never overflows. (Pool threads allocating
/// these transient buffers left them cached in glibc's per-thread arenas
/// and raised peak RSS by a quarter.)
std::vector<std::uint64_t> bundle_candidates_threaded(
    const CandidateSource& src, const KnnGraph& graph, ThreadPool& pool,
    IterationStats& stats) {
  const EngineConfig& config = src.config;
  const PartitionAssignment& owners = src.assignment;
  const VertexId n = owners.num_vertices();
  const PartitionId m = owners.num_partitions();
  const std::size_t num_slots = pair_slot(m - 1, m - 1, m) + 1;
  const auto shards = static_cast<std::uint32_t>(pool.size() + 1);
  const bool reverse = config.include_reverse;

  // Every source's bucket, sized by its candidate bound
  // (core/tuple_generation.h).
  CandidateBuckets buckets(candidate_bounds(config, src.iteration, graph),
                           [](VertexId) { return true; });
  // Shard w's stamp array: seen[w][d] == s + 1 once (s, d) is kept.
  std::vector<std::vector<VertexId>> seen(shards, std::vector<VertexId>(n, 0));
  // survivors[w * num_slots + slot]: shard w's unique tuples in that slot.
  std::vector<std::uint64_t> survivors(shards * num_slots, 0);

  // Dedups shard w's buckets, ascending by s, and counts the survivors
  // per pair slot.
  auto dedup = [&](std::uint32_t w) {
    std::uint64_t* const counts = survivors.data() + w * num_slots;
    for (VertexId s = 0; s < n; ++s) {
      if (source_shard(s, shards) != w) continue;
      const PartitionId home = owners.owner(s);
      for (const VertexId d : buckets.dedup(s, seen[w])) {
        ++counts[pair_slot(home, owners.owner(d), m)];
      }
    }
  };

  std::uint64_t candidates = 0;
  std::vector<PartitionData> batch;
  for (PartitionId first = 0; first < m; first += shards) {
    batch.clear();
    for (PartitionId p = first; p < std::min<PartitionId>(first + shards, m);
         ++p) {
      batch.push_back(src.store.load_edges(p));
    }
    const bool last_batch = first + shards >= m;
    pool.parallel_for(
        0, shards,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t w = lo; w < hi; ++w) {
            auto admit = [&](Tuple t) {
              if (source_shard(t.s, shards) == w) buckets.add(t);
              if (reverse && source_shard(t.d, shards) == w) {
                buckets.add(Tuple{t.d, t.s});
              }
            };
            // Every shard generates the same candidates; shard 0 counts.
            std::uint64_t generated = 0;
            for (const PartitionData& part : batch) {
              generated +=
                  partition_candidates(config, src.iteration, part, admit);
            }
            if (last_batch) {
              for (VertexId s = 0; s < n; ++s) {
                generated +=
                    restart_candidates(config, src.iteration, n, s, admit);
              }
              dedup(static_cast<std::uint32_t>(w));
            }
            if (w == 0) candidates += generated;
          }
        },
        /*min_chunk=*/1);
  }
  batch.clear();
  stats.candidate_tuples = candidates;

  std::vector<std::uint64_t> records(num_slots, 0);
  for (std::uint32_t w = 0; w < shards; ++w) {
    for (std::size_t slot = 0; slot < num_slots; ++slot) {
      records[slot] += survivors[w * num_slots + slot];
      stats.unique_tuples += survivors[w * num_slots + slot];
    }
  }

  // Emit the survivors into the pair bundles, a run of slots at a time
  // that fits the shard buffer budget: each shard scatters its buckets'
  // tuples of those slots, ascending by source, to precomputed offsets,
  // then each slot's bundle is written whole, one slot per pool task.
  const std::uint64_t budget = std::max<std::size_t>(
      config.shard_buffer_bytes / sizeof(Tuple), 1);
  std::vector<Tuple> staged;
  std::vector<std::uint64_t> slot_at;  // staged offset of slot first + i
  std::vector<std::uint64_t> cursor;   // [w * run + i]: next write of w
  for (std::size_t first = 0; first < num_slots;) {
    std::size_t end = first + 1;
    std::uint64_t total = records[first];
    while (end < num_slots && total + records[end] <= budget) {
      total += records[end++];
    }
    const std::size_t run = end - first;
    slot_at.assign(run + 1, 0);
    cursor.assign(shards * run, 0);
    for (std::size_t i = 0; i < run; ++i) {
      slot_at[i + 1] = slot_at[i] + records[first + i];
      std::uint64_t at = slot_at[i];
      for (std::uint32_t w = 0; w < shards; ++w) {
        cursor[w * run + i] = at;
        at += survivors[w * num_slots + first + i];
      }
    }
    staged.resize(total);
    pool.parallel_for(
        0, shards,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t w = lo; w < hi; ++w) {
            std::uint64_t* next = cursor.data() + w * run;
            for (VertexId s = 0; s < n; ++s) {
              if (source_shard(s, shards) != w) continue;
              const PartitionId home = owners.owner(s);
              for (const VertexId d : buckets.bucket_of(s)) {
                const std::size_t slot = pair_slot(home, owners.owner(d), m);
                if (slot >= first && slot < end) {
                  staged[next[slot - first]++] = Tuple{s, d};
                }
              }
            }
          }
        },
        /*min_chunk=*/1);
    pool.parallel_for(
        0, run,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            write_record_shard<Tuple>(
                record_shard_path(src.bundle_dir, kBundleStem, first + i),
                std::span<const Tuple>(staged.data() + slot_at[i],
                                       records[first + i]),
                src.io);
          }
        },
        /*min_chunk=*/1);
    first = end;
  }
  return records;
}

}  // namespace

struct KnnEngine::Impl {
  std::unique_ptr<ScratchDir> scratch;
  fs::path work_dir;
  /// config.threads resolved against the workload (0 = auto).
  std::uint32_t threads = 1;
  std::unique_ptr<ThreadPool> pool;
  IoAccountant shard_io;
  /// Previous phase-1 assignment (reused when repartition_every > 1).
  std::optional<PartitionAssignment> last_assignment;

  Impl(const EngineConfig& config, VertexId num_users)
      : shard_io(config.io_model) {
    if (config.work_dir.empty()) {
      scratch = std::make_unique<ScratchDir>("engine");
      work_dir = scratch->path();
    } else {
      work_dir = config.work_dir;
      fs::create_directories(work_dir);
    }
    threads = resolve_thread_count(
        config.threads,
        static_cast<std::uint64_t>(num_users) * std::max(config.k, 1u),
        kPhase4WorkPerThread);
    if (threads > 1) {
      // The thread issuing a parallel loop participates in it, so spawn
      // one fewer worker than the target total to avoid oversubscribing.
      pool = std::make_unique<ThreadPool>(threads - 1);
    }
  }
};

KnnEngine::KnnEngine(EngineConfig config, std::vector<SparseProfile> profiles)
    : config_(std::move(config)),
      profiles_(std::move(profiles)),
      impl_(std::make_unique<Impl>(config_, profiles_.num_users())) {
  if (config_.num_partitions == 0) {
    throw std::invalid_argument("KnnEngine: num_partitions must be > 0");
  }
  if (config_.memory_slots < 2) {
    throw std::invalid_argument(
        "KnnEngine: memory_slots must be >= 2 (a PI pair needs both "
        "partitions resident)");
  }
  Rng rng(config_.seed);
  graph_ = random_knn_graph(profiles_.num_users(), config_.k, rng);
}

KnnEngine::~KnnEngine() = default;

void KnnEngine::set_initial_graph(KnnGraph graph) {
  if (graph.num_vertices() != profiles_.num_users()) {
    throw std::invalid_argument(
        "KnnEngine::set_initial_graph: vertex count mismatch");
  }
  graph_ = std::move(graph);
}

IterationStats KnnEngine::run_iteration() {
  IterationStats stats;
  stats.iteration = iteration_;
  const VertexId n = profiles_.num_users();
  const PartitionId m = config_.num_partitions;
  PartitionStore store(impl_->work_dir / "partitions", config_.io_model);
  impl_->shard_io.reset();

  // ---- Phase 1: partition G(t) and write partition files. -------------
  PartitionAssignment assignment;
  {
    ScopedAccumulator timing(&stats.timings.partition_s);
    const EdgeList edge_list = graph_.to_edge_list();
    const Digraph digraph(edge_list);
    const bool reuse =
        config_.repartition_every > 1 &&
        iteration_ % config_.repartition_every != 0 &&
        impl_->last_assignment.has_value() &&
        impl_->last_assignment->num_vertices() == n &&
        impl_->last_assignment->num_partitions() == m;
    if (reuse) {
      assignment = *impl_->last_assignment;
    } else {
      assignment = make_partitioner(config_.partitioner)->assign(digraph, m);
      impl_->last_assignment = assignment;
    }
    store.write_all(edge_list, assignment, profiles_, impl_->pool.get());
    if (config_.record_partition_cost) {
      stats.partition_cost_total = partition_cost(digraph, assignment).total;
    }
  }

  // ---- Phase 2: populate H with unique tuples, shard them by pair. ----
  // Survivors go to one bundle file per PI pair, buffered within
  // shard_buffer_bytes; phase 4 reads each pair's bundle back sequentially
  // when its turn in the schedule comes.
  std::vector<std::uint64_t> bundle_records;  // per pair slot
  {
    ScopedAccumulator timing(&stats.timings.hash_s);
    const CandidateSource source{config_,    iteration_,      store,
                                 assignment, impl_->work_dir, &impl_->shard_io};
    bundle_records =
        impl_->pool
            ? bundle_candidates_threaded(source, graph_, *impl_->pool, stats)
            : bundle_candidates_serial(source, stats);
  }

  // ---- Phase 3: PI graph + traversal schedule. -------------------------
  PiGraph pi(m);
  Schedule schedule;
  {
    ScopedAccumulator timing(&stats.timings.pi_graph_s);
    for (PartitionId a = 0; a < m; ++a) {
      for (PartitionId b = a; b < m; ++b) {
        const auto count = bundle_records[pair_slot(a, b, m)];
        if (count > 0) pi.add_edge(a, b, count);
      }
    }
    pi.finalize();
    stats.pi_pairs = pi.num_pairs();
    schedule = make_heuristic(config_.heuristic)->schedule(pi);
  }

  // ---- Phase 4: stream partition pairs, compute sims, keep top-K. -----
  stats.threads_used = impl_->threads;
  {
    ScopedAccumulator timing(&stats.timings.knn_s);
    TopKAccumulator acc(n, config_.k);
    // Each resident partition holds its profiles in the flat (SoA) layout
    // of the batched kernels, decoded once per load (on the pool when
    // threaded), not once per PI pair.
    PartitionCache cache(config_.memory_slots, [&](PartitionId p) {
      return store.load_flat(p, impl_->pool.get());
    });
    for (PairIndex idx : schedule) {
      const PiPair& pair = pi.pair(idx);
      const std::vector<Tuple> tuples = read_record_shard<Tuple>(
          record_shard_path(impl_->work_dir, kBundleStem,
                            pair_slot(pair.a, pair.b, m)),
          &impl_->shard_io);
      const FlatProfileSet& fa = cache.get(pair.a).flat;
      const FlatProfileSet* fb =
          pair.b == pair.a ? nullptr : &cache.get(pair.b).flat;
      // Threaded bundles are grouped by source (bundle_candidates_threaded),
      // as score_and_offer's pool split needs; the serial oracle's are in
      // merge-join order.
      ScopedAccumulator score_timing(&stats.knn_score_s);
      score_and_offer(tuples, fa, fb, config_.measure, /*row=*/{}, acc,
                      impl_->pool.get());
    }
    cache.flush();  // count the final unloads, as in the simulator
    stats.partition_loads = cache.loads();
    stats.partition_unloads = cache.unloads();

    KnnGraph next;
    {
      ScopedAccumulator merge_timing(&stats.knn_merge_s);
      next = acc.build_graph(impl_->pool.get());
    }
    // change_count is an exact integer per vertex range, so reducing it
    // over the pool reproduces the serial change rate bit-for-bit.
    const std::size_t differing =
        impl_->pool
            ? impl_->pool->parallel_reduce(
                  0, n, std::size_t{0},
                  [&](std::size_t lo, std::size_t hi) {
                    return KnnGraph::change_count(
                        graph_, next, static_cast<VertexId>(lo),
                        static_cast<VertexId>(hi));
                  },
                  [](std::size_t a, std::size_t b) { return a + b; },
                  /*min_chunk=*/4096)
            : KnnGraph::change_count(graph_, next, 0, n);
    stats.change_rate =
        n == 0 ? 0.0
               : static_cast<double>(differing) /
                     (static_cast<double>(n) *
                      std::max<std::uint32_t>(config_.k, 1));
    graph_ = std::move(next);
  }

  // ---- Phase 5: apply queued profile updates (P(t) -> P(t+1)). --------
  {
    ScopedAccumulator timing(&stats.timings.update_s);
    stats.profile_updates_applied = queue_.apply_to(profiles_);
  }

  if (config_.checkpoint) {
    save_knn_graph_file(impl_->work_dir / "checkpoint_latest.knng", graph_);
  }

  if (config_.recall_samples > 0) {
    stats.sampled_recall =
        sampled_recall(graph_, profiles_, config_.measure,
                       config_.recall_samples, config_.seed,
                       impl_->pool.get())
            .recall;
  }

  stats.io = store.io().counters();
  stats.io += impl_->shard_io.counters();
  stats.modeled_io_us =
      store.io().modeled_us() + impl_->shard_io.modeled_us();

  KNNPC_LOG(Info) << "iteration " << iteration_ << ": "
                  << stats.unique_tuples << " tuples, " << stats.pi_pairs
                  << " PI pairs, " << stats.partition_loads << " loads, "
                  << "change rate " << stats.change_rate;
  if (sink_ != nullptr) {
    sink_->publish(graph_, profiles_, assignment.owners(), iteration_);
  }
  ++iteration_;
  return stats;
}

IterationStats sum_iteration_stats(const std::vector<IterationStats>& parts) {
  IterationStats total;
  if (parts.empty()) return total;
  total.iteration = parts.front().iteration;
  total.threads_used = 0;  // default is 1; the sum must count parts only
  for (const IterationStats& p : parts) {
    total.timings.partition_s += p.timings.partition_s;
    total.timings.hash_s += p.timings.hash_s;
    total.timings.pi_graph_s += p.timings.pi_graph_s;
    total.timings.knn_s += p.timings.knn_s;
    total.timings.update_s += p.timings.update_s;
    total.candidate_tuples += p.candidate_tuples;
    total.unique_tuples += p.unique_tuples;
    total.pi_pairs += p.pi_pairs;
    total.partition_loads += p.partition_loads;
    total.partition_unloads += p.partition_unloads;
    total.io += p.io;
    total.modeled_io_us += p.modeled_io_us;
    total.knn_score_s += p.knn_score_s;
    total.knn_merge_s += p.knn_merge_s;
    total.threads_used += p.threads_used;
    total.profile_updates_applied += p.profile_updates_applied;
  }
  return total;
}

PartitionId suggest_partition_count(std::uint64_t total_data_bytes,
                                    std::uint64_t memory_budget_bytes,
                                    std::size_t slots, VertexId num_users) {
  if (memory_budget_bytes == 0) {
    throw std::invalid_argument("suggest_partition_count: zero budget");
  }
  slots = std::max<std::size_t>(slots, 2);
  // Each resident partition holds ~ total/m bytes; we need `slots` of them
  // under the budget: m >= slots * total / budget.
  const double needed = static_cast<double>(slots) *
                        static_cast<double>(total_data_bytes) /
                        static_cast<double>(memory_budget_bytes);
  auto m = static_cast<PartitionId>(needed) + 1;
  m = std::max<PartitionId>(m, 1);
  if (num_users > 0) m = std::min<PartitionId>(m, num_users);
  return m;
}

std::uint64_t estimate_data_bytes(const std::vector<SparseProfile>& profiles,
                                  std::uint32_t k) {
  std::uint64_t bytes = 0;
  for (const auto& p : profiles) {
    bytes += sizeof(std::uint32_t) + p.size() * sizeof(ProfileEntry);
  }
  // Each of the n*k edges is stored once in an .in file and once in .out.
  bytes += 2ULL * profiles.size() * k * sizeof(Edge);
  return bytes;
}

RunStats KnnEngine::run(std::uint32_t max_iterations,
                        double convergence_delta) {
  RunStats run_stats;
  Timer total;
  for (std::uint32_t i = 0; i < max_iterations; ++i) {
    IterationStats stats = run_iteration();
    const double change = stats.change_rate;
    run_stats.iterations.push_back(std::move(stats));
    if (change < convergence_delta) {
      run_stats.converged = true;
      break;
    }
  }
  run_stats.total_seconds = total.elapsed_seconds();
  return run_stats;
}

}  // namespace knnpc
