#include "core/shard_driver.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/convergence.h"
#include "core/sharded_knn_graph.h"
#include "core/worker_agent.h"
#include "core/topk.h"
#include "core/tuple_generation.h"
#include "core/tuple_table.h"
#include "graph/digraph.h"
#include "graph/knn_graph.h"
#include "graph/knn_graph_delta.h"
#include "graph/knn_graph_io.h"
#include "partition/cost.h"
#include "partition/partitioner.h"
#include "partition/pair_affinity.h"
#include "pigraph/heuristics.h"
#include "pigraph/pi_graph.h"
#include "profiles/flat_profile.h"
#include "profiles/profile_delta.h"
#include "profiles/similarity_kernels.h"
#include "storage/block_file.h"
#include "storage/partition_store.h"
#include "storage/shard_writer.h"
#include "util/ipc_channel.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/serde.h"
#include "util/subprocess.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace knnpc {
namespace fs = std::filesystem;
using namespace shard_frame;

std::uint32_t resolve_shard_count(std::uint32_t requested,
                                  VertexId num_users, std::uint32_t k) {
  const std::uint64_t users = std::max<std::uint64_t>(num_users, 1);
  if (requested == 0) {
    requested = resolve_thread_count(
        0, users * std::max<std::uint32_t>(k, 1), kWorkPerShard);
    requested = std::min(requested, kMaxAutoShards);
  }
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(std::max(requested, 1u), users));
}

ShardWorkerMode parse_worker_mode(std::string_view name) {
  if (name == "thread") return ShardWorkerMode::Thread;
  if (name == "persistent") return ShardWorkerMode::Persistent;
  throw std::invalid_argument("parse_worker_mode: unknown mode '" +
                              std::string(name) + "' (thread | persistent)");
}

const char* worker_mode_name(ShardWorkerMode mode) noexcept {
  return mode == ShardWorkerMode::Persistent ? "persistent" : "thread";
}

namespace {

// ------------------------------------------------ work-directory layout --
// Shard w's scratch files (its PI-pair bundles and score spill) live in
// one directory under the work dir: the driver's for thread mode and local
// workers, the agent's run directory for remote ones.

fs::path worker_scratch_dir(const fs::path& work_dir, std::uint32_t w) {
  return work_dir / ("worker_" + std::to_string(w));
}

// --------------------------------------------------------- fault points --
// Worker processes consult kShardFaultEnv at two points of an iteration
// (see shard_driver.h). Parsing is deliberately forgiving: a malformed
// spec injects nothing rather than crashing a production run that
// happens to have the variable set.

void maybe_inject_fault(const char* point, std::uint32_t shard,
                        std::uint32_t attempt, std::uint32_t iteration) {
  const char* env = std::getenv(kShardFaultEnv);
  if (env == nullptr) return;
  std::vector<std::string> parts;
  {
    std::string spec(env);
    std::size_t start = 0;
    while (start <= spec.size()) {
      const std::size_t colon = spec.find(':', start);
      if (colon == std::string::npos) {
        parts.push_back(spec.substr(start));
        break;
      }
      parts.push_back(spec.substr(start, colon - start));
      start = colon + 1;
    }
  }
  if (parts.size() < 3 || parts[0] != point) return;
  // Optional fields 3/4 filter by attempt and iteration; "*" (or an
  // omitted field) matches anything.
  auto matches = [&](std::size_t index, std::uint32_t value) {
    if (parts.size() <= index || parts[index].empty() ||
        parts[index] == "*") {
      return true;
    }
    return std::stoul(parts[index]) == value;
  };
  try {
    if (std::stoul(parts[1]) != shard) return;
    if (!matches(3, attempt) || !matches(4, iteration)) return;
  } catch (const std::exception&) {
    return;
  }
  const std::string& kind = parts[2];
  std::fprintf(stderr, "shard_worker: injecting fault '%s' (%s point, shard "
                       "%u, attempt %u, iteration %u)\n",
               kind.c_str(), point, shard, attempt, iteration);
  if (kind == "kill") {
    std::raise(SIGKILL);
  } else if (kind == "exit") {
    std::_Exit(3);
  } else if (kind == "wedge") {
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
  }
}

// ------------------------------------------------------- the shard body --
// One body per shard and iteration, run by both modes: thread mode calls
// it on one thread per shard inside the driver, persistent mode from
// persistent_worker_main in a long-lived child process. Every shard
// generates its own users' candidates from the G(t) it holds, so no tuple
// crosses between shards, and one body is what makes the modes
// bit-identical by construction.

struct ShardContext {
  const EngineConfig& config;
  std::uint32_t iteration;
  std::uint32_t shards;
  const PartitionAssignment& assignment;   // user -> partition (m)
  const PartitionAssignment& shard_owner;  // user -> shard (S)
  fs::path work_dir;
};

struct ShardOutput {
  /// Full-size graph populated only for the owned users.
  KnnGraph next;
  /// Exact change count over the owned users.
  std::uint64_t changed = 0;
};

/// Whether run_shard's phase 2 walks partitions rather than the shard's
/// own sources, and so needs G(t)'s in-lists and a TupleTable bound:
/// sampled runs (a source-major walk cannot reproduce
/// candidate_sample_rng, which draws one stream per partition in
/// merge-join order) and runs with include_reverse (whose reversed
/// candidates the source walk does not emit).
bool shard_walks_partitions(const EngineConfig& config) {
  return config.sample_rate < 1.0 || config.include_reverse;
}

/// Phase 2 of a shard when nothing is sampled and nothing reversed: walks
/// the owned sources in ascending order, each one's candidates together
/// (source_candidates), and keeps the first copy of each (s, d) by an
/// n-entry stamp array (seen[d] == s + 1) — no hash table. Every pair
/// bundle therefore comes out grouped by source. Counts candidate_tuples
/// as the candidates of the owned sources. Returns the unique count.
std::uint64_t shard_candidates_by_source(const ShardContext& ctx,
                                         std::span<const VertexId> members,
                                         const KnnGraph& graph,
                                         TupleShardWriter& pair_writer,
                                         ShardWorkerStats& worker) {
  const EngineConfig& config = ctx.config;
  const PartitionId m = ctx.assignment.num_partitions();
  std::vector<VertexId> seen(graph.num_vertices(), 0);
  std::uint64_t generated = 0;
  std::uint64_t unique = 0;
  for (const VertexId s : members) {
    const PartitionId part = ctx.assignment.owner(s);
    auto keep = [&](Tuple t) {
      if (seen[t.d] == s + 1) return;
      seen[t.d] = s + 1;
      ++unique;
      pair_writer.add(pi_pair_slot(part, ctx.assignment.owner(t.d), m), t);
    };
    generated += source_candidates(config, ctx.iteration, graph, s, keep);
  }
  worker.stats.candidate_tuples += generated;
  worker.spooled_tuples += generated;
  return unique;
}

/// Phase 2 of shard `w` when candidates are sampled or reversed: derives
/// the m edges-only partitions from G(t) one at a time
/// (derive_partition_edges over `reverse`), runs the candidate rules over
/// every one of them plus the restarts, and keeps the candidates whose
/// source it owns (with include_reverse also each reversed candidate
/// whose source it owns), deduplicated in a TupleTable sized
/// `table_bound` (candidate_bounds). Counts candidate_tuples for
/// partitions p ≡ w (mod S) and the owned users' restarts. Returns the
/// unique count.
std::uint64_t shard_candidates_by_partition(const ShardContext& ctx,
                                            std::uint32_t w,
                                            std::span<const VertexId> members,
                                            const KnnGraph& graph,
                                            const ReverseAdjacency& reverse,
                                            std::uint64_t table_bound,
                                            TupleShardWriter& pair_writer,
                                            ShardWorkerStats& worker) {
  const EngineConfig& config = ctx.config;
  const VertexId n = graph.num_vertices();
  const PartitionId m = ctx.assignment.num_partitions();
  IterationStats& stats = worker.stats;
  TupleTable table(static_cast<std::size_t>(table_bound));
  // The inserts are bound by the table's cache misses; a small window
  // prefetches each tuple's slot before it is inserted, in order.
  std::array<Tuple, 32> window;
  std::size_t pending = 0;
  auto drain = [&] {
    for (std::size_t i = 0; i < pending; ++i) table.prefetch(window[i]);
    for (std::size_t i = 0; i < pending; ++i) {
      const Tuple t = window[i];
      if (table.insert(t)) {
        pair_writer.add(pi_pair_slot(ctx.assignment.owner(t.s),
                                     ctx.assignment.owner(t.d), m),
                        t);
      }
    }
    pending = 0;
  };
  auto insert = [&](Tuple t) {
    ++worker.spooled_tuples;
    window[pending++] = t;
    if (pending == window.size()) drain();
  };
  auto keep = [&](Tuple t) {
    if (ctx.shard_owner.owner(t.s) == w) insert(t);
    if (config.include_reverse && ctx.shard_owner.owner(t.d) == w) {
      insert(Tuple{t.d, t.s});
    }
  };
  for (PartitionId p = 0; p < m; ++p) {
    const std::uint64_t generated = partition_candidates(
        config, ctx.iteration,
        derive_partition_edges(graph, reverse, ctx.assignment, p), keep);
    if (p % ctx.shards == w) stats.candidate_tuples += generated;
  }
  if (config.include_reverse) {
    // A restart (s, d) reverses into d's shard: every user's restarts.
    for (VertexId s = 0; s < n; ++s) {
      const std::uint64_t generated =
          restart_candidates(config, ctx.iteration, n, s, keep);
      if (ctx.shard_owner.owner(s) == w) stats.candidate_tuples += generated;
    }
  } else {
    for (const VertexId s : members) {
      stats.candidate_tuples +=
          restart_candidates(config, ctx.iteration, n, s, keep);
    }
  }
  drain();
  return table.size();
}

/// Phases 2-4 for shard `w` against `graph` = G(t) and `profiles` =
/// P(t): the driver's own in thread mode, the copy a persistent worker
/// keeps current by KPRD deltas. `reverse` holds G(t)'s in-lists
/// (build_reverse_adjacency; thread mode builds them once for all
/// shards) and `table_bound` sizes the TupleTable; both are read only
/// when shard_walks_partitions(config), and `reverse` is null otherwise.
///
/// Phase 2 generates exactly the serial engine's candidate multiset
/// restricted to the sources the shard owns, and dedup and top-K depend
/// only on the set. Runs that neither sample nor reverse walk the owned
/// sources (shard_candidates_by_source); the others walk every partition
/// (shard_candidates_by_partition). Either way the merged
/// candidate_tuples is the serial engine's. Phases 3-4 then build the
/// shard's own PI graph and schedule and keep top-K for the owned users
/// only. Phase 4 packs all of `profiles` once, at its start, and scores
/// every bundle from that pack; the pack is not built earlier, so it is
/// never alive beside the shard's own phase-2 buffers. The shard reads no
/// partition file: its private cache loads nothing and only counts the
/// loads and unloads of the schedule. `fault_point`, when set, is called
/// with "produce" after generation and with "consume" at the start of
/// phase 4.
ShardOutput run_shard(const ShardContext& ctx, std::uint32_t w,
                      std::span<const VertexId> members,
                      const KnnGraph& graph, const ReverseAdjacency* reverse,
                      std::uint64_t table_bound, const ProfileStore& profiles,
                      ThreadPool* pool, IoAccountant* io,
                      ShardWorkerStats& worker,
                      const std::function<void(const char*)>& fault_point) {
  const EngineConfig& config = ctx.config;
  const VertexId n = ctx.assignment.num_vertices();
  const PartitionId m = ctx.assignment.num_partitions();
  const std::uint32_t S = ctx.shards;
  IterationStats& stats = worker.stats;

  // Phase 2: the shard's own H_w, fed straight from the candidate rules.
  Timer produce_wall;
  const std::size_t num_slots = pi_pair_slot(m - 1, m - 1, m) + 1;
  TupleShardWriter pair_writer(worker_scratch_dir(ctx.work_dir, w), "tuples",
                               num_slots,
                               std::max<std::size_t>(
                                   config.shard_buffer_bytes / S,
                                   sizeof(Tuple)),
                               io);
  {
    ScopedAccumulator timing(&stats.timings.hash_s);
    // The one fork in the shard body: a source-major walk cannot
    // reproduce candidate_sample_rng, which draws one stream per
    // partition in merge-join order, so sampled runs keep the partition
    // walk and its TupleTable, and so do runs with include_reverse
    // (shard_walks_partitions).
    stats.unique_tuples =
        shard_walks_partitions(config)
            ? shard_candidates_by_partition(ctx, w, members, graph, *reverse,
                                            table_bound, pair_writer, worker)
            : shard_candidates_by_source(ctx, members, graph, pair_writer,
                                         worker);
    pair_writer.finish();
  }
  if (fault_point) fault_point("produce");
  worker.produce_s = produce_wall.elapsed_seconds();
  Timer consume_wall;

  // Phase 3: this shard's own PI graph + traversal schedule.
  PiGraph pi(m);
  Schedule schedule;
  {
    ScopedAccumulator timing(&stats.timings.pi_graph_s);
    for (PartitionId a = 0; a < m; ++a) {
      for (PartitionId b = a; b < m; ++b) {
        const auto count = pair_writer.shard_records(pi_pair_slot(a, b, m));
        if (count > 0) pi.add_edge(a, b, count);
      }
    }
    pi.finalize();
    stats.pi_pairs = pi.num_pairs();
    schedule = make_heuristic(config.heuristic)->schedule(pi);
  }

  // Phase 4: stream the partitions through a private cache; top-K for
  // this shard's users only. Offers are made serially — the kept set is
  // offer-order-independent, so only scoring needs the pool.
  if (fault_point) fault_point("consume");
  KnnGraph next(n, config.k);
  {
    ScopedAccumulator timing(&stats.timings.knn_s);
    TopKAccumulator acc(n, config.k);
    std::optional<RecordShardWriter<ScoredTuple>> score_writer;
    if (config.spill_scores) {
      score_writer.emplace(worker_scratch_dir(ctx.work_dir, w), "scores", m,
                           std::max<std::size_t>(
                               config.shard_buffer_bytes / S,
                               sizeof(ScoredTuple)),
                           io);
    }
    // Tuples may reference any user, so pack the whole P(t) once —
    // O(total entries), amortised over the full phase. The cache holds
    // no data; it counts what the paper's PC would load (Table 1).
    FlatProfileSet flat(config.quantize_profiles);
    {
      std::size_t total = 0;
      for (VertexId v = 0; v < n; ++v) total += profiles.get(v).size();
      flat.reserve(n, total);
      for (VertexId v = 0; v < n; ++v) flat.add(v, profiles.get(v));
    }
    PartitionCache cache(config.memory_slots, [](PartitionId p) {
      PartitionData data;
      data.id = p;
      return data;
    });
    std::vector<float> scores;
    for (PairIndex idx : schedule) {
      const PiPair& pair = pi.pair(idx);
      const std::vector<Tuple> tuples = read_record_shard<Tuple>(
          pair_writer.shard_path(pi_pair_slot(pair.a, pair.b, m)), io);
      cache.get(pair.a);
      if (pair.b != pair.a) cache.get(pair.b);
      scores.assign(tuples.size(), 0.0f);
      {
        ScopedAccumulator score_timing(&stats.knn_score_s);
        // Same run-batched kernel dispatch as the engine: each run of
        // equal s shares one source lookup. The source walk's bundles are
        // grouped by source, one run per source; the partition walk's have
        // short runs.
        auto score_range = [&](std::size_t lo, std::size_t hi) {
          KernelScratch scratch;
          std::vector<VertexId> cands;
          std::size_t i = lo;
          while (i < hi) {
            std::size_t run_end = i + 1;
            while (run_end < hi && tuples[run_end].s == tuples[i].s) {
              ++run_end;
            }
            cands.clear();
            for (std::size_t t = i; t < run_end; ++t) {
              cands.push_back(tuples[t].d);
            }
            score_batch(flat, nullptr, tuples[i].s, cands, config.measure,
                        scores.data() + i, scratch);
            i = run_end;
          }
        };
        if (pool != nullptr) {
          pool->parallel_for(0, tuples.size(), score_range,
                             /*min_chunk=*/256);
        } else {
          score_range(0, tuples.size());
        }
      }
      if (score_writer) {
        for (std::size_t i = 0; i < tuples.size(); ++i) {
          score_writer->add(ctx.assignment.owner(tuples[i].s),
                            {tuples[i].s, tuples[i].d, scores[i]});
        }
      } else {
        ScopedAccumulator merge_timing(&stats.knn_merge_s);
        for (std::size_t i = 0; i < tuples.size(); ++i) {
          acc.offer(tuples[i].s, tuples[i].d, scores[i]);
        }
      }
    }
    cache.flush();
    stats.partition_loads = cache.loads();
    stats.partition_unloads = cache.unloads();
    worker.partitions_touched = pi.touched_partitions();

    ScopedAccumulator merge_timing(&stats.knn_merge_s);
    if (score_writer) {
      // Finalise one partition at a time, restricted to owned users.
      score_writer->finish();
      for (PartitionId p = 0; p < m; ++p) {
        const auto spilled = read_record_shard<ScoredTuple>(
            score_writer->shard_path(p), io);
        for (const ScoredTuple& t : spilled) {
          acc.offer(t.s, t.d, t.score);
        }
        for (VertexId member : ctx.assignment.members(p)) {
          if (ctx.shard_owner.owner(member) != w) continue;
          next.set_neighbors(member, acc.take(member));
        }
      }
    } else {
      next = acc.build_graph(pool);
    }
  }

  // Exact per-user change counts over owned users; the driver's sum
  // reproduces the serial change rate bit-for-bit.
  std::uint64_t changed = 0;
  for (VertexId s : members) {
    changed += KnnGraph::change_count(graph, next, s, s + 1);
  }
  worker.consume_s = consume_wall.elapsed_seconds();
  return {std::move(next), changed};
}

/// Every shard's TupleTable size on the partition walk (candidate_bounds
/// under the shard split), computed on the calling thread from G(t)'s
/// degrees.
std::vector<std::uint64_t> shard_table_bounds(
    const EngineConfig& config, const KnnGraph& graph,
    const PartitionAssignment& shard_owner) {
  return candidate_bounds(
      config, graph, shard_owner.num_partitions(),
      [&shard_owner](VertexId u) { return shard_owner.owner(u); });
}

// ------------------------------------------------------------ the plan --
// The plan ("KPLN") carries everything a persistent worker needs that
// RUN_ITERATION does not: the EngineConfig fields the shard body reads
// and the resolved shard/thread budget. The driver sends it as the first
// frame after every spawn; ownership maps, G(t) and P(t) ride
// RUN_ITERATION commands. Same-build producer and consumer (the worker IS
// the driver's binary).

constexpr char kPlanMagic[4] = {'K', 'P', 'L', 'N'};
// v2: adds the phase-4 kernel backend string and the quantize_profiles
// flag (both read by the shard body, so workers must see the configured
// values, not the defaults).
// v3: drops the iteration number and the ownership maps, which no
// persistent worker read.
// v4: drops the storage mode and the kernel backend string: no shard body
// reads a partition file, and the SIMD merge is gone.
constexpr std::uint32_t kPlanVersion = 4;

// Tripwire: the plan frame hand-serialises the subset of EngineConfig the
// shard body reads. A field added to EngineConfig that the body reads
// but the plan omits would make worker processes silently run on the
// default while thread mode uses the configured value — a plausible but
// wrong graph. Growing EngineConfig therefore fails here on the CI
// platform until plan_to_bytes/plan_from_bytes (below) were reviewed and
// this constant is bumped.
#if defined(__GLIBCXX__) && defined(__x86_64__)
static_assert(sizeof(EngineConfig) == 256,
              "EngineConfig changed: review the worker plan "
              "serialisation (plan_to_bytes/plan_from_bytes) before "
              "bumping this size");
#endif

void append_string(std::vector<std::byte>& out, const std::string& s) {
  append_record(out, static_cast<std::uint32_t>(s.size()));
  for (const char c : s) append_record(out, c);
}

WorkerPlan plan_from_bytes(std::span<const std::byte> bytes) {
  std::size_t offset = 0;
  auto fail = [](const std::string& what) -> std::runtime_error {
    return std::runtime_error("PLAN frame: " + what);
  };
  auto read = [&]<typename T>(T& out) {
    if (!read_record(bytes, offset, out)) throw fail("truncated plan");
  };
  auto read_string = [&](std::string& out) {
    std::uint32_t len = 0;
    read(len);
    // Corrupt-header protection: the string must fit in what's left.
    if (len > bytes.size() - offset) throw fail("string exceeds payload");
    out.resize(len);
    for (char& c : out) read(c);
  };
  char magic[4];
  for (char& c : magic) read(c);
  if (std::memcmp(magic, kPlanMagic, sizeof(kPlanMagic)) != 0) {
    throw fail("bad magic");
  }
  std::uint32_t version = 0;
  read(version);
  if (version != kPlanVersion) {
    throw fail("unsupported version " + std::to_string(version));
  }
  WorkerPlan plan;
  EngineConfig& config = plan.config;
  read(plan.shards);
  read(plan.threads_per_shard);
  read(config.k);
  read(config.num_partitions);
  std::uint32_t measure = 0;
  read(measure);
  config.measure = static_cast<SimilarityMeasure>(measure);
  std::uint64_t slots = 0;
  std::uint64_t buffer = 0;
  read(slots);
  read(buffer);
  config.memory_slots = static_cast<std::size_t>(slots);
  config.shard_buffer_bytes = static_cast<std::size_t>(buffer);
  read(config.seed);
  read(config.sample_rate);
  read(config.random_candidates);
  std::uint8_t reverse = 0;
  std::uint8_t spill = 0;
  std::uint8_t quantize = 0;
  read(reverse);
  read(spill);
  read(quantize);
  config.include_reverse = reverse != 0;
  config.spill_scores = spill != 0;
  config.quantize_profiles = quantize != 0;
  read_string(config.heuristic);
  read_string(config.io_model.name);
  read(config.io_model.seek_us);
  read(config.io_model.bytes_per_us);
  if (offset != bytes.size()) throw fail("trailing bytes");
  if (plan.shards == 0 || config.num_partitions == 0) {
    throw fail("degenerate shard/partition count");
  }
  return plan;
}

/// Flattens an assignment into the owner vector RUN_ITERATION carries.
std::vector<PartitionId> owner_vector(const PartitionAssignment& a) {
  std::vector<PartitionId> owners(a.num_vertices());
  for (VertexId v = 0; v < a.num_vertices(); ++v) owners[v] = a.owner(v);
  return owners;
}

// ---------------------------------------------- persistent-worker protocol --
// Persistent mode spawns the S workers once and drives every iteration
// over a framed channel (util/ipc_channel.h) in ONE round-trip per worker.
// The frame types (shard_frame in shard_driver.h) and the payload layouts
// below are the whole protocol; both sides are by construction the same
// binary, so payloads use the same serde records as the on-disk formats.
//
// Driver -> worker commands:
//   PLAN           "KPLN" plan bytes; the first frame after every spawn.
//   RUN_ITERATION  u32 iteration, u32 attempt, u8 maps_included,
//                  [u32 n, n x u32 partition_owner, n x u32 shard_owner],
//                  u8 graph_full, i64 graph_base_version,
//                  i64 graph_new_version, u32 kdlt_len, then kdlt_len
//                  bytes of "KDLT" knn_graph_delta (the G(t) rows that
//                  changed since graph_base_version; graph_full = every
//                  row — the respawn resync path),
//                  u8 prof_full, i64 prof_base_version,
//                  i64 prof_new_version, u32 kprd_len, then kprd_len
//                  bytes of "KPRD" profile_delta (the users phase 5
//                  touched; prof_full = every user).
//   SHUTDOWN       empty payload; the worker exits 0
// Worker -> driver replies:
//   READY          u32 shard (sent once, after the plan was accepted)
//   ITERATION_DONE raw ShardWorkerStats, then "KSHR" ShardResult bytes
//
// Ownership maps ride along only when they changed since the last command
// the worker saw (or after a respawn); on the default range shard
// partitioner that is the first command only. Both delta payloads are
// length-prefixed because their parsers demand an exact span (trailing
// bytes are a typed error). The strict request/reply discipline (a worker
// never writes before fully reading its command) means the two directions
// can never deadlock on full buffers.

/// Bytes of one frame on the wire: the 12-byte header (magic, type,
/// length) plus the payload — what the bytes_tx / bytes_rx counters count.
std::uint64_t frame_wire_bytes(std::size_t payload_size) {
  return 12 + static_cast<std::uint64_t>(payload_size);
}

const char* frame_type_name(std::uint32_t type) {
  switch (type) {
    case kPlan: return "PLAN";
    case kShutdown: return "SHUTDOWN";
    case kRunIteration: return "RUN_ITERATION";
    case kReady: return "READY";
    case kIterationDone: return "ITERATION_DONE";
  }
  return "?";
}

}  // namespace

std::vector<std::byte> plan_to_bytes(const WorkerPlan& plan) {
  const EngineConfig& config = plan.config;
  std::vector<std::byte> bytes;
  bytes.reserve(128);
  for (const char c : kPlanMagic) append_record(bytes, c);
  append_record(bytes, kPlanVersion);
  append_record(bytes, plan.shards);
  append_record(bytes, plan.threads_per_shard);
  append_record(bytes, config.k);
  append_record(bytes, config.num_partitions);
  append_record(bytes, static_cast<std::uint32_t>(config.measure));
  append_record(bytes, static_cast<std::uint64_t>(config.memory_slots));
  append_record(bytes, static_cast<std::uint64_t>(config.shard_buffer_bytes));
  append_record(bytes, config.seed);
  append_record(bytes, config.sample_rate);
  append_record(bytes, config.random_candidates);
  append_record(bytes, static_cast<std::uint8_t>(config.include_reverse));
  append_record(bytes, static_cast<std::uint8_t>(config.spill_scores));
  append_record(bytes, static_cast<std::uint8_t>(config.quantize_profiles));
  append_string(bytes, config.heuristic);
  append_string(bytes, config.io_model.name);
  append_record(bytes, config.io_model.seek_us);
  append_record(bytes, config.io_model.bytes_per_us);
  return bytes;
}

std::vector<std::byte> run_iteration_to_bytes(
    const RunIterationCommand& command) {
  std::vector<std::byte> payload;
  append_record(payload, command.iteration);
  append_record(payload, command.attempt);
  const bool maps = command.partition_owner != nullptr;
  append_record(payload, static_cast<std::uint8_t>(maps));
  if (maps) {
    append_record(payload,
                  static_cast<std::uint32_t>(command.partition_owner->size()));
    for (const PartitionId p : *command.partition_owner) {
      append_record(payload, p);
    }
    for (const PartitionId p : *command.shard_owner) append_record(payload, p);
  }
  auto append_sync = [&](bool full, std::int64_t base_version,
                         std::int64_t new_version,
                         std::span<const std::byte> delta) {
    append_record(payload, static_cast<std::uint8_t>(full));
    append_record(payload, base_version);
    append_record(payload, new_version);
    append_record(payload, static_cast<std::uint32_t>(delta.size()));
    payload.insert(payload.end(), delta.begin(), delta.end());
  };
  append_sync(command.graph_full, command.graph_base_version,
              command.graph_new_version, command.graph_delta);
  append_sync(command.profile_full, command.profile_base_version,
              command.profile_new_version, command.profile_delta);
  return payload;
}

namespace {

/// One long-lived worker as the driver sees it: the process, its channel,
/// and what state the worker is known to hold (so commands can carry
/// deltas instead of snapshots).
struct PersistentWorker {
  Subprocess proc;
  IpcChannel channel;
  /// Distributed mode: this worker lives behind the agent at
  /// `worker_endpoints[endpoint]` — `proc` stays invalid (the agent holds
  /// the process handle; kills go over its control connection) and
  /// `channel` is the TCP socket the agent wired to the worker's stdio.
  bool remote = false;
  std::uint32_t endpoint = 0;
  /// READY seen (consumed lazily before the first command reply). Until
  /// then the worker is a fresh (re)spawn, and its next command is
  /// preceded by the PLAN frame.
  bool ready = false;
  /// Worker holds current ownership maps.
  bool has_maps = false;
  /// Version of G the worker holds (-1 = none / desynced).
  std::int64_t graph_version = -1;
  /// Version of P the worker's local profile store holds (-1 = none).
  std::int64_t profile_version = -1;
  /// Set at respawn; cleared (and counted) when the full resync ships.
  bool needs_resync = false;
  std::uint32_t spawn_count = 0;
  std::uint32_t resync_count = 0;
};

/// Shard -> endpoint: contiguous balanced groups (shard s belongs to
/// endpoint s * E / S).
std::uint32_t agent_of_shard(std::uint32_t shard, std::uint32_t shards,
                             std::uint32_t agents) {
  return static_cast<std::uint32_t>(
      static_cast<std::uint64_t>(shard) * agents / shards);
}

/// One worker-agent endpoint the driver coordinates, with its held
/// control connection (run-long; dropping it is how the agent learns the
/// run is over).
struct RemoteAgentLink {
  std::string host;
  std::uint16_t port = 0;
  IpcChannel control;
};

/// Driver-side state of the persistent fleet, owned by Impl.
struct PersistentRuntime {
  std::vector<PersistentWorker> workers;
  /// Distributed mode only: one link per configured endpoint (empty =
  /// all-local fleet) and the token naming this run's directory on every
  /// agent.
  std::vector<RemoteAgentLink> agents;
  std::string run_token;
  /// The PLAN frame's payload, built once per run.
  std::vector<std::byte> plan;
  /// The last G broadcast to the fleet and its version counter —
  /// the base the next iteration's incremental delta diffs against.
  KnnGraph synced_graph;
  std::int64_t broadcast_version = -1;
  /// Profile sync state: the version last broadcast, and the users phase
  /// 5 has touched since (the next iteration's KPRD rows). The driver
  /// never keeps a profile copy — the touched list IS the delta.
  std::int64_t profile_broadcast_version = -1;
  std::vector<VertexId> pending_profile_users;
  /// Ownership maps as last sent (maps ride commands only when changed).
  std::vector<PartitionId> sent_partition_owner;
  std::vector<PartitionId> sent_shard_owner;
};

void spawn_persistent_worker(PersistentRuntime& rt,
                             const ShardConfig& shard_config,
                             const fs::path& work_dir, std::uint32_t shard) {
  PersistentWorker& worker = rt.workers[shard];
  if (!rt.agents.empty()) {
    // Distributed: the agent spawns the process on its machine and wires
    // the accepted socket to the worker's stdio — from here on the same
    // protocol as a local pipe pair, PLAN and READY included.
    worker.remote = true;
    worker.endpoint = agent_of_shard(
        shard, static_cast<std::uint32_t>(rt.workers.size()),
        static_cast<std::uint32_t>(rt.agents.size()));
    const RemoteAgentLink& agent = rt.agents[worker.endpoint];
    worker.proc = Subprocess();
    worker.channel =
        agent_connect_worker(agent.host, agent.port, rt.run_token, shard,
                             shard_config.agent_timeout_s);
  } else {
    const std::string exe = shard_config.worker_exe.empty()
                                ? current_executable().string()
                                : shard_config.worker_exe;
    IpcChannelPair pair = make_ipc_channel_pair();
    worker.proc = Subprocess(
        std::vector<std::string>{exe, "--shard-worker",
                                 "--shard=" + std::to_string(shard),
                                 "--work-dir=" + work_dir.string()},
        pair.child_read_fd, pair.child_write_fd);
    worker.channel = std::move(pair.parent);
  }
  worker.ready = false;
  worker.has_maps = false;
  worker.graph_version = -1;
  worker.profile_version = -1;
  ++worker.spawn_count;
}

/// Opens the control connections on the first distributed iteration.
void ensure_agent_links(PersistentRuntime& rt,
                        const ShardConfig& shard_config) {
  if (shard_config.worker_endpoints.empty() || !rt.agents.empty()) return;
  // Distinct per engine instance so one agent can host several runs
  // (tests drive serial and distributed engines against one agent).
  static std::atomic<std::uint64_t> counter{0};
  rt.run_token = "run-" + std::to_string(::getpid()) + "-" +
                 std::to_string(counter.fetch_add(1));
  for (const std::string& endpoint : shard_config.worker_endpoints) {
    RemoteAgentLink link;
    const auto [host, port] = parse_host_port(endpoint);
    link.host = host;
    link.port = port;
    link.control = agent_connect_control(host, port, rt.run_token,
                                         shard_config.agent_timeout_s);
    rt.agents.push_back(std::move(link));
  }
}

/// Everything one iteration needs to build per-worker commands.
struct PersistentIterationInput {
  std::uint32_t iteration = 0;
  const std::vector<PartitionId>* partition_owner = nullptr;
  const std::vector<PartitionId>* shard_owner = nullptr;
  /// Maps differ from PersistentRuntime::sent_* (every worker needs them).
  bool maps_changed = false;
  /// G(t) and the fleet's last synced base.
  const KnnGraph* graph = nullptr;
  std::int64_t graph_base_version = -1;
  std::int64_t graph_new_version = -1;
  /// P(t) and the users whose profiles changed since the last broadcast
  /// (the incremental KPRD rows; a full resync ships every user).
  const InMemoryProfileStore* profiles = nullptr;
  const std::vector<VertexId>* changed_users = nullptr;
  std::int64_t profile_base_version = -1;
  std::int64_t profile_new_version = -1;
};

struct PersistentIterationReply {
  ShardWorkerStats stats;               // the worker's share of the stats
  std::vector<std::byte> result_bytes;  // "KSHR" payload
  /// Channel traffic and command count for this worker this iteration
  /// (1 RUN_ITERATION on the steady path; a respawn replay adds one),
  /// plus the KPRD rows shipped — the driver folds these into
  /// ShardWorkerStats.
  std::uint64_t bytes_tx = 0;
  std::uint64_t bytes_rx = 0;
  std::uint32_t round_trips = 0;
  std::uint64_t profile_rows_rx = 0;
};

/// Kills persistent worker `s` NOW and reports how it died: locally
/// SIGKILL + reap, remotely the agent's KillWorker round-trip (whose OK
/// payload is the describe string). "still running" when even the control
/// link failed — the agent kills its orphans itself once the link drops.
std::string kill_worker_now(PersistentRuntime& rt,
                            const ShardConfig& shard_config,
                            std::uint32_t s) {
  PersistentWorker& worker = rt.workers[s];
  if (worker.remote) {
    try {
      return agent_kill_worker(rt.agents[worker.endpoint].control, s,
                               shard_config.agent_timeout_s);
    } catch (const std::exception&) {
      return "still running";
    }
  }
  worker.proc.kill_now();
  return worker.proc.wait().describe();
}

/// The fleet's one retry-once policy, run once per iteration. `send(s,
/// attempt)` issues shard s's command and `collect(s)` reads and applies
/// its reply; both throw on failure. A worker whose send or reply fails —
/// it died, replied garbage, or missed the per-command deadline — is
/// killed and reaped (kill_worker_now, so the diagnostic says how it
/// died), respawned exactly once, and replayed; the respawn's command
/// carries a full graph + profile resync. No other worker waits on it. A
/// second failure throws the failed shards' two-attempt history. On
/// return every shard's reply was collected.
void supervise_phase(
    PersistentRuntime& rt, const ShardConfig& shard_config,
    const fs::path& work_dir,
    const std::function<void(std::uint32_t, std::uint32_t)>& send,
    const std::function<void(std::uint32_t)>& collect) {
  const auto S = static_cast<std::uint32_t>(rt.workers.size());
  std::vector<std::uint32_t> pending(S);
  for (std::uint32_t s = 0; s < S; ++s) pending[s] = s;
  std::vector<std::string> history(S);
  for (std::uint32_t attempt = 0; attempt < 2; ++attempt) {
    std::vector<std::uint32_t> failed;
    // The worker is dead by now; dropping its channel lets the respawn
    // (or the diagnostic) start clean.
    auto fail = [&](std::uint32_t s, const std::string& why) {
      failed.push_back(s);
      if (!history[s].empty()) history[s] += "; ";
      history[s] += "attempt " + std::to_string(attempt) + ": " + why;
      rt.workers[s].channel = IpcChannel();
    };

    // Send: a dead peer surfaces as an EPIPE SysError, a socket peer that
    // stops draining as the send deadline — never a hang.
    std::vector<std::uint32_t> sent;
    for (const std::uint32_t s : pending) {
      try {
        send(s, attempt);
        sent.push_back(s);
      } catch (const IpcError& e) {
        // An OversizedFrame is the DRIVER refusing its own payload —
        // deterministic, so a respawn would only replay the refusal
        // against a healthy worker. Abort with the real cause.
        if (e.kind() == IpcErrorKind::OversizedFrame) {
          throw std::runtime_error(
              "sharded iteration: command for shard " + std::to_string(s) +
              " exceeds the IPC frame bound (" + e.what() +
              "); use thread mode for workloads of this size");
        }
        fail(s, std::string("command send failed (") + e.what() +
                    "; worker " + kill_worker_now(rt, shard_config, s) +
                    ")");
      }
    }

    for (const std::uint32_t s : sent) {
      try {
        collect(s);
      } catch (const IpcError& e) {
        const std::string died = kill_worker_now(rt, shard_config, s);
        if (e.kind() == IpcErrorKind::Timeout) {
          fail(s, "command timed out after " +
                      std::to_string(shard_config.worker_timeout_s) +
                      "s (killed with SIGKILL)");
        } else {
          // EOF / truncation / garbage: the reaped status says how the
          // process actually died.
          fail(s, std::string(e.what()) + " (worker " + died + ")");
        }
      } catch (const std::exception& e) {
        (void)kill_worker_now(rt, shard_config, s);
        fail(s, e.what());
      }
    }

    if (failed.empty()) return;
    if (attempt == 0) {
      for (const std::uint32_t s : failed) {
        KNNPC_LOG(Warn) << "persistent shard " << s << " worker failed ("
                        << history[s]
                        << "); respawning once with a full resync";
        spawn_persistent_worker(rt, shard_config, work_dir, s);
        rt.workers[s].needs_resync = true;
      }
      pending = std::move(failed);
      continue;
    }
    std::string message = "sharded iteration failed after one retry:";
    for (const std::uint32_t s : failed) {
      message += "\n  shard " + std::to_string(s) + ": " + history[s];
    }
    throw std::runtime_error(message);
  }
}

/// Drives ONE full iteration across the persistent fleet: one
/// RUN_ITERATION command per worker carrying maps + G(t) + P(t) deltas
/// (preceded by the PLAN frame on a fresh spawn) and one ITERATION_DONE
/// reply per worker, under supervise_phase. Workers exchange nothing, so a
/// respawn replays its whole command while the others carry on. On return
/// every shard's reply is complete; partial output can never be observed
/// by the caller.
std::vector<PersistentIterationReply> run_persistent_iteration(
    PersistentRuntime& rt, const ShardConfig& shard_config,
    const fs::path& work_dir, const PersistentIterationInput& in,
    const KnnGraph& full_base_graph) {
  using Clock = std::chrono::steady_clock;
  const std::uint32_t S = static_cast<std::uint32_t>(rt.workers.size());
  const double timeout_s = shard_config.worker_timeout_s;

  // Delta payloads are memoised per iteration: the incremental deltas are
  // shared by every in-sync worker, the full snapshots by every respawned
  // one.
  std::optional<std::vector<std::byte>> graph_incr;
  std::optional<std::vector<std::byte>> graph_full_bytes;
  auto graph_payload = [&](bool full) -> const std::vector<std::byte>& {
    if (full) {
      if (!graph_full_bytes) {
        graph_full_bytes =
            knn_graph_delta_to_bytes(full_knn_graph_delta(*in.graph));
      }
      return *graph_full_bytes;
    }
    if (!graph_incr) {
      graph_incr = knn_graph_delta_to_bytes(
          knn_graph_delta(full_base_graph, *in.graph));
    }
    return *graph_incr;
  };
  std::optional<std::vector<std::byte>> prof_incr;
  std::optional<std::vector<std::byte>> prof_full_bytes;
  std::uint64_t prof_incr_rows = 0;
  std::uint64_t prof_full_rows = 0;
  auto profile_payload = [&](bool full) -> const std::vector<std::byte>& {
    if (full) {
      if (!prof_full_bytes) {
        const ProfileDelta delta = full_profile_delta(*in.profiles);
        prof_full_rows = delta.rows.size();
        prof_full_bytes = profile_delta_to_bytes(delta);
      }
      return *prof_full_bytes;
    }
    if (!prof_incr) {
      const ProfileDelta delta =
          profile_delta_for_users(*in.profiles, *in.changed_users);
      prof_incr_rows = delta.rows.size();
      prof_incr = profile_delta_to_bytes(delta);
    }
    return *prof_incr;
  };

  std::vector<PersistentIterationReply> replies(S);

  // The full command for one worker. Fullness is per worker and per
  // payload: a worker whose held version is not the broadcast base (a
  // respawn, or a survivor of an aborted iteration) gets the snapshot.
  auto build_command = [&](std::uint32_t s, std::uint32_t attempt) {
    PersistentWorker& worker = rt.workers[s];
    RunIterationCommand command;
    command.iteration = in.iteration;
    command.attempt = attempt;
    if (in.maps_changed || !worker.has_maps) {
      command.partition_owner = in.partition_owner;
      command.shard_owner = in.shard_owner;
    }
    command.graph_full = in.graph_base_version < 0 ||
                         worker.graph_version != in.graph_base_version;
    command.graph_base_version = in.graph_base_version;
    command.graph_new_version = in.graph_new_version;
    command.graph_delta = graph_payload(command.graph_full);
    command.profile_full = in.profile_base_version < 0 ||
                           worker.profile_version != in.profile_base_version;
    command.profile_base_version = in.profile_base_version;
    command.profile_new_version = in.profile_new_version;
    command.profile_delta = profile_payload(command.profile_full);
    replies[s].profile_rows_rx =
        command.profile_full ? prof_full_rows : prof_incr_rows;
    if (command.graph_full && command.profile_full && worker.needs_resync) {
      ++worker.resync_count;
      worker.needs_resync = false;
    }
    return run_iteration_to_bytes(command);
  };

  auto send_command = [&](std::uint32_t s, std::uint32_t attempt) {
    PersistentWorker& worker = rt.workers[s];
    if (!worker.ready) {
      worker.channel.send(kPlan, rt.plan, timeout_s);
      replies[s].bytes_tx += frame_wire_bytes(rt.plan.size());
    }
    const std::vector<std::byte> payload = build_command(s, attempt);
    ++replies[s].round_trips;
    worker.channel.send(kRunIteration, payload, timeout_s);
    replies[s].bytes_tx += frame_wire_bytes(payload.size());
  };

  // Collect: ITERATION_DONE from worker s under its own deadline (a wedged
  // worker early in the collection order must not eat the budget of a
  // healthy one whose reply is still streaming), consuming the leading
  // READY of a fresh (re)spawn first. Throws IpcError / runtime_error;
  // supervise_phase takes over. The reply proves the worker holds what
  // the command carried.
  auto collect_reply = [&](std::uint32_t s) {
    PersistentWorker& worker = rt.workers[s];
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               timeout_s >= 0.0 ? timeout_s : 0.0));
    auto remaining = [&]() -> double {
      if (timeout_s < 0.0) return -1.0;
      return std::max(
          std::chrono::duration<double>(deadline - Clock::now()).count(),
          0.0);
    };
    if (!worker.ready) {
      const IpcFrame hello = worker.channel.recv(remaining());
      replies[s].bytes_rx += frame_wire_bytes(hello.payload.size());
      std::uint32_t echoed = S;  // any invalid value
      std::size_t offset = 0;
      if (hello.type != kReady ||
          !read_record(std::span<const std::byte>(hello.payload), offset,
                       echoed) ||
          echoed != s) {
        throw std::runtime_error(std::string("expected READY, got frame ") +
                                 frame_type_name(hello.type));
      }
      worker.ready = true;
    }
    const IpcFrame frame = worker.channel.recv(remaining());
    replies[s].bytes_rx += frame_wire_bytes(frame.payload.size());
    if (frame.type != kIterationDone) {
      throw std::runtime_error(
          std::string("expected ITERATION_DONE, got frame ") +
          frame_type_name(frame.type));
    }
    const std::span<const std::byte> payload(frame.payload);
    std::size_t offset = 0;
    if (!read_record(payload, offset, replies[s].stats)) {
      throw std::runtime_error("malformed ITERATION_DONE payload");
    }
    replies[s].result_bytes.assign(payload.begin() + offset, payload.end());
    worker.has_maps = true;
    worker.graph_version = in.graph_new_version;
    worker.profile_version = in.profile_new_version;
  };

  supervise_phase(rt, shard_config, work_dir, send_command, collect_reply);
  return replies;
}

}  // namespace

// ------------------------------------------------------ the worker role --

int persistent_worker_main(const fs::path& work_dir,
                           std::uint32_t shard) try {
  // The command channel is this process's stdin/stdout (wired to the
  // driver's pipes, or to an agent's socket). Diagnostics go to the
  // inherited stderr only.
  IpcChannel channel(STDIN_FILENO, STDOUT_FILENO);
  auto recv_command = [&]() -> std::optional<IpcFrame> {
    try {
      return channel.recv();
    } catch (const IpcError& e) {
      // The driver dropping its end is an orderly shutdown (its process
      // may already be gone); anything else is a protocol failure.
      if (e.kind() == IpcErrorKind::Eof) return std::nullopt;
      throw;
    }
  };

  WorkerPlan plan;
  {
    const std::optional<IpcFrame> frame = recv_command();
    if (!frame || frame->type == kShutdown) return 0;
    if (frame->type != kPlan) {
      throw std::runtime_error(std::string("expected PLAN, got frame ") +
                               frame_type_name(frame->type));
    }
    plan = plan_from_bytes(frame->payload);
  }
  if (shard >= plan.shards) {
    throw std::invalid_argument("shard " + std::to_string(shard) +
                                " out of range (S=" +
                                std::to_string(plan.shards) + ")");
  }
  const EngineConfig& config = plan.config;
  // Created ONCE and held — the point of staying alive.
  std::unique_ptr<ThreadPool> pool;
  if (plan.threads_per_shard > 1) {
    pool = std::make_unique<ThreadPool>(plan.threads_per_shard - 1);
  }

  // State synced from the driver across commands.
  std::optional<PartitionAssignment> assignment;  // user -> partition
  std::optional<PartitionAssignment> shard_owner;  // user -> shard
  std::vector<VertexId> members;
  KnnGraph graph;  // this worker's copy of G(t)
  std::int64_t graph_version = -1;
  InMemoryProfileStore local_profiles;  // this worker's copy of P(t)
  std::int64_t profile_version = -1;

  {
    std::vector<std::byte> hello;
    append_record(hello, shard);
    channel.send(kReady, hello);
  }

  for (;;) {
    const std::optional<IpcFrame> frame = recv_command();
    if (!frame || frame->type == kShutdown) return 0;
    if (frame->type != kRunIteration) {
      throw std::runtime_error(std::string("unexpected command frame ") +
                               frame_type_name(frame->type));
    }
    const std::span<const std::byte> payload(frame->payload);
    std::size_t offset = 0;
    auto read = [&]<typename T>(T& out) {
      if (!read_record(payload, offset, out)) {
        throw std::runtime_error("truncated RUN_ITERATION payload");
      }
    };
    std::uint32_t iteration = 0;
    std::uint32_t attempt = 0;
    std::uint8_t maps_included = 0;
    read(iteration);
    read(attempt);
    read(maps_included);
    if (maps_included != 0) {
      std::uint32_t n = 0;
      read(n);
      // Two u32 maps of n entries must follow: check before sizing them.
      if (2 * sizeof(PartitionId) * std::uint64_t{n} >
          payload.size() - offset) {
        throw std::runtime_error(
            "RUN_ITERATION: ownership map count " + std::to_string(n) +
            " exceeds the " + std::to_string(payload.size() - offset) +
            " bytes left in the payload");
      }
      std::vector<PartitionId> partition_owner(n);
      for (PartitionId& p : partition_owner) read(p);
      std::vector<PartitionId> owner(n);
      for (PartitionId& p : owner) read(p);
      assignment.emplace(std::move(partition_owner), config.num_partitions);
      shard_owner.emplace(std::move(owner), plan.shards);
      members = shard_owner->members(shard);
    }
    if (!assignment || !shard_owner) {
      throw std::runtime_error("command arrived before any ownership maps");
    }

    // Sync this worker's G(t) from its (length-prefixed) delta. The delta
    // parsers demand an exact span, hence the explicit length.
    {
      std::uint8_t full_sync = 0;
      std::int64_t base_version = -1;
      std::int64_t new_version = -1;
      std::uint32_t delta_len = 0;
      read(full_sync);
      read(base_version);
      read(new_version);
      read(delta_len);
      if (delta_len > payload.size() - offset) {
        throw std::runtime_error("truncated RUN_ITERATION payload");
      }
      const KnnGraphDelta delta =
          knn_graph_delta_from_bytes(payload.subspan(offset, delta_len));
      offset += delta_len;
      // The shape must be the maps' and the plan's before a full sync
      // sizes G(t) from it.
      if (delta.num_vertices != assignment->num_vertices()) {
        throw std::runtime_error(
            "RUN_ITERATION: G(t) vertex count " +
            std::to_string(delta.num_vertices) +
            " does not match the ownership maps' " +
            std::to_string(assignment->num_vertices()));
      }
      if (delta.k != config.k) {
        throw std::runtime_error("RUN_ITERATION: G(t) k " +
                                 std::to_string(delta.k) +
                                 " does not match the plan's " +
                                 std::to_string(config.k));
      }
      if (full_sync != 0) {
        graph = KnnGraph(delta.num_vertices, delta.k);
      } else if (graph_version != base_version) {
        throw std::runtime_error(
            "incremental G(t) delta against version " +
            std::to_string(base_version) + " but this worker holds " +
            std::to_string(graph_version));
      }
      apply_knn_graph_delta(graph, delta);
      graph_version = new_version;
    }

    // Sync this worker's P(t) the same way. After iteration 0 only the
    // changed rows travel.
    {
      std::uint8_t full_sync = 0;
      std::int64_t base_version = -1;
      std::int64_t new_version = -1;
      std::uint32_t delta_len = 0;
      read(full_sync);
      read(base_version);
      read(new_version);
      read(delta_len);
      if (delta_len > payload.size() - offset) {
        throw std::runtime_error("truncated RUN_ITERATION payload");
      }
      const ProfileDelta delta =
          profile_delta_from_bytes(payload.subspan(offset, delta_len));
      offset += delta_len;
      if (delta.num_users != assignment->num_vertices()) {
        throw std::runtime_error(
            "RUN_ITERATION: P(t) user count " +
            std::to_string(delta.num_users) +
            " does not match the ownership maps' " +
            std::to_string(assignment->num_vertices()));
      }
      if (full_sync != 0) {
        local_profiles =
            InMemoryProfileStore(std::vector<SparseProfile>(delta.num_users));
      } else if (profile_version != base_version) {
        throw std::runtime_error(
            "incremental P(t) delta against version " +
            std::to_string(base_version) + " but this worker holds " +
            std::to_string(profile_version));
      }
      apply_profile_delta(local_profiles, delta);
      profile_version = new_version;
    }
    if (offset != payload.size()) {
      throw std::runtime_error("trailing bytes in RUN_ITERATION payload");
    }

    const ShardContext ctx{config,      iteration,    plan.shards,
                           *assignment, *shard_owner, work_dir};
    ShardWorkerStats worker;
    worker.shard = shard;
    worker.users = static_cast<VertexId>(members.size());
    worker.stats.iteration = iteration;
    worker.stats.threads_used = plan.threads_per_shard;
    IoAccountant io(config.io_model);
    std::uint64_t table_bound = 0;
    std::optional<ReverseAdjacency> reverse;
    if (shard_walks_partitions(config)) {
      table_bound = shard_table_bounds(config, graph, *shard_owner)[shard];
      reverse = build_reverse_adjacency(graph);
    }
    const ShardOutput out = run_shard(
        ctx, shard, members, graph, reverse ? &*reverse : nullptr,
        table_bound, local_profiles, pool.get(), &io, worker,
        [&](const char* point) {
          maybe_inject_fault(point, shard, attempt, iteration);
        });
    ShardResult result;
    result.shard = shard;
    result.num_vertices = assignment->num_vertices();
    result.k = config.k;
    result.changed = out.changed;
    result.entries.reserve(members.size());
    for (const VertexId user : members) {
      const auto list = out.next.neighbors(user);
      result.entries.emplace_back(
          user, std::vector<Neighbor>(list.begin(), list.end()));
    }
    worker.stats.io = io.counters();
    worker.stats.modeled_io_us = io.modeled_us();
    std::vector<std::byte> reply;
    append_record(reply, worker);
    const std::vector<std::byte> result_bytes = shard_result_to_bytes(result);
    reply.insert(reply.end(), result_bytes.begin(), result_bytes.end());
    channel.send(kIterationDone, reply);
  }
} catch (const std::exception& e) {
  std::fprintf(stderr, "persistent shard_worker (shard %u): %s\n", shard,
               e.what());
  return 13;
}

std::optional<int> maybe_run_shard_worker(int argc, char** argv) {
  bool is_worker = false;
  std::string work_dir;
  std::uint32_t shard = 0;
  bool have_shard = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    auto value_of = [&](std::string_view prefix)
        -> std::optional<std::string> {
      if (arg.size() >= prefix.size() &&
          arg.substr(0, prefix.size()) == prefix) {
        return std::string(arg.substr(prefix.size()));
      }
      return std::nullopt;
    };
    std::string parse_error;
    if (arg == "--shard-worker") {
      is_worker = true;
    } else if (auto v = value_of("--work-dir=")) {
      work_dir = *v;
    } else if (auto v = value_of("--shard=")) {
      try {
        shard = static_cast<std::uint32_t>(std::stoul(*v));
        have_shard = true;
      } catch (const std::exception&) {
        parse_error = "bad --shard value '" + *v + "'";
      }
    }
    // A parse failure only matters in the worker role; a normal binary
    // invocation must fall through to its own argv handling untouched.
    if (!parse_error.empty() && is_worker) {
      std::fprintf(stderr, "--shard-worker: %s\n", parse_error.c_str());
      return 2;
    }
  }
  if (!is_worker) return std::nullopt;
  if (work_dir.empty() || !have_shard) {
    std::fprintf(stderr, "--shard-worker requires --shard= --work-dir=\n");
    return 2;
  }
  return persistent_worker_main(work_dir, shard);
}

// ----------------------------------------------------------- the driver --

struct ShardedKnnEngine::Impl {
  std::unique_ptr<ScratchDir> scratch;
  fs::path work_dir;
  /// Resolved worker count S.
  std::uint32_t shards = 1;
  /// Phase-4 threads per worker: the total auto/explicit budget
  /// (resolve_thread_count, as in the serial engine) divided by S.
  std::uint32_t threads_per_shard = 1;
  /// One pool per worker (nullptr when threads_per_shard == 1: the worker
  /// thread itself is the one thread). Persistent mode leaves all slots
  /// empty — each worker process builds its own pool.
  std::vector<std::unique_ptr<ThreadPool>> pools;
  /// Previous phase-1 assignment (reused when repartition_every > 1).
  std::optional<PartitionAssignment> last_assignment;
  /// Persistent mode only: the long-lived worker fleet and its sync
  /// state. Workers spawn lazily on the first iteration and are shut
  /// down (gracefully, then by force) when the engine dies.
  PersistentRuntime persistent;

  ~Impl() { shutdown_persistent_workers(); }

  /// Sends SHUTDOWN to every live worker, waits briefly for orderly
  /// exits, and SIGKILLs stragglers. Never blocks unboundedly.
  void shutdown_persistent_workers() noexcept {
    using Clock = std::chrono::steady_clock;
    bool any = false;
    for (PersistentWorker& w : persistent.workers) {
      if (w.remote) {
        // Remote worker: best-effort orderly SHUTDOWN with a short
        // deadline (the socket may be backpressured by a dead peer),
        // then half-close so its recv loop sees EOF either way.
        if (w.channel.valid()) {
          try {
            w.channel.send(kShutdown, {}, /*timeout_s=*/5.0);
          } catch (...) {
          }
          w.channel.close_write();
        }
        continue;
      }
      if (!w.proc.valid() || w.proc.status().finished()) continue;
      any = true;
      try {
        w.channel.send(kShutdown, {});
      } catch (...) {
        // Already dead: the reap below handles it.
      }
      w.channel.close_write();
    }
    // Dropping the control links tells every agent this run is over; an
    // agent kills whatever workers ignored their SHUTDOWN and deletes the
    // run's directory.
    persistent.agents.clear();
    if (!any) return;
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    for (PersistentWorker& w : persistent.workers) {
      if (!w.proc.valid()) continue;
      while (!w.proc.poll().finished() && Clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      if (!w.proc.status().finished()) {
        w.proc.kill_now();
        w.proc.wait();
      }
    }
  }

  Impl(const EngineConfig& config, const ShardConfig& shard_config,
       VertexId num_users) {
    if (config.work_dir.empty()) {
      scratch = std::make_unique<ScratchDir>("shard_driver");
      work_dir = scratch->path();
    } else {
      work_dir = config.work_dir;
      fs::create_directories(work_dir);
    }
    shards = resolve_shard_count(shard_config.shards, num_users, config.k);
    const std::uint32_t total = resolve_thread_count(
        config.threads,
        static_cast<std::uint64_t>(num_users) *
            std::max<std::uint32_t>(config.k, 1),
        kPhase4WorkPerThread);
    threads_per_shard = std::max(total / shards, 1u);
    pools.resize(shards);
    if (shard_config.worker_mode == ShardWorkerMode::Thread) {
      for (std::uint32_t s = 0; s < shards; ++s) {
        if (threads_per_shard > 1) {
          // The worker thread participates in its own parallel loops, so
          // spawn one fewer pool worker (same rule as the serial engine).
          pools[s] = std::make_unique<ThreadPool>(threads_per_shard - 1);
        }
      }
    }
  }
};

ShardedKnnEngine::ShardedKnnEngine(EngineConfig config,
                                   ShardConfig shard_config,
                                   std::vector<SparseProfile> profiles)
    : config_(std::move(config)), shard_config_(std::move(shard_config)),
      profiles_(std::move(profiles)),
      impl_(std::make_unique<Impl>(config_, shard_config_,
                                   profiles_.num_users())) {
  if (config_.num_partitions == 0) {
    throw std::invalid_argument(
        "ShardedKnnEngine: num_partitions must be > 0");
  }
  if (config_.memory_slots < 2) {
    throw std::invalid_argument(
        "ShardedKnnEngine: memory_slots must be >= 2 (a PI pair needs "
        "both partitions resident)");
  }
  if (!shard_config_.worker_endpoints.empty() &&
      shard_config_.worker_mode != ShardWorkerMode::Persistent) {
    throw std::invalid_argument(
        "ShardedKnnEngine: worker_endpoints requires the persistent "
        "worker mode (distributed execution rides the persistent-worker "
        "protocol)");
  }
  // Identical bootstrap to KnnEngine: same seed, same initial G(0).
  Rng rng(config_.seed);
  graph_ = random_knn_graph(profiles_.num_users(), config_.k, rng);
}

ShardedKnnEngine::~ShardedKnnEngine() = default;

std::uint32_t ShardedKnnEngine::num_shards() const noexcept {
  return impl_->shards;
}

std::uint32_t ShardedKnnEngine::threads_per_shard() const noexcept {
  return impl_->threads_per_shard;
}

void ShardedKnnEngine::set_initial_graph(KnnGraph graph) {
  if (graph.num_vertices() != profiles_.num_users()) {
    throw std::invalid_argument(
        "ShardedKnnEngine::set_initial_graph: vertex count mismatch");
  }
  graph_ = std::move(graph);
}

ShardedIterationStats ShardedKnnEngine::run_iteration() {
  ShardedIterationStats out;
  const VertexId n = profiles_.num_users();
  const PartitionId m = config_.num_partitions;
  const std::uint32_t S = impl_->shards;
  const bool persistent =
      shard_config_.worker_mode == ShardWorkerMode::Persistent;

  // ---- Phase 1 (driver): partition G(t) once; split users into shards.
  double partition_s = 0.0;
  PartitionAssignment assignment;
  PartitionAssignment shard_owner;
  std::optional<std::size_t> partition_cost_total;
  {
    ScopedAccumulator timing(&partition_s);
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
    if (shard_config_.shard_partitioner == "pair-affinity") {
      // Align shards with the partition map so each shard's schedule
      // touches only its own partition group (~S-fold fewer loads). Built
      // here, not via make_partitioner: the split is derived from the
      // phase-1 assignment, which a Partitioner never sees.
      shard_owner = pair_affinity_shard_split(assignment, S);
    } else {
      shard_owner =
          make_partitioner(shard_config_.shard_partitioner)->assign(digraph, S);
    }
    if (config_.record_partition_cost) {
      partition_cost_total = partition_cost(digraph, assignment).total;
    }
  }
  std::vector<std::vector<VertexId>> shard_members(S);
  for (std::uint32_t s = 0; s < S; ++s) {
    shard_members[s] = shard_owner.members(s);
  }

  out.workers.resize(S);
  for (std::uint32_t s = 0; s < S; ++s) {
    out.workers[s].shard = s;
    out.workers[s].users = static_cast<VertexId>(shard_members[s].size());
    out.workers[s].stats.iteration = iteration_;
    out.workers[s].stats.threads_used = impl_->threads_per_shard;
  }

  ShardedKnnGraph output(shard_owner, config_.k);
  std::vector<std::uint64_t> change_counts(S, 0);

  // Validates and folds one persistent worker's ShardResult into the
  // merged output; a worker can never smuggle a wrong-shaped or
  // foreign-user result past this.
  auto fold_result = [&](std::uint32_t s, ShardResult result) {
    if (result.shard != s || result.num_vertices != n ||
        result.k != config_.k) {
      throw std::runtime_error(
          "shard_driver: ShardResult header mismatch for shard " +
          std::to_string(s));
    }
    if (result.entries.size() != shard_members[s].size()) {
      throw std::runtime_error(
          "shard_driver: shard " + std::to_string(s) + " returned " +
          std::to_string(result.entries.size()) + " users, owns " +
          std::to_string(shard_members[s].size()) +
          " (worker/driver build mismatch?)");
    }
    KnnGraph next(n, config_.k);
    for (auto& [user, list] : result.entries) {
      if (shard_owner.owner(user) != s) {
        throw std::runtime_error(
            "shard_driver: shard " + std::to_string(s) +
            " returned a result for foreign user " + std::to_string(user));
      }
      next.set_neighbors(user, std::move(list));
    }
    output.set_shard(s, std::move(next));
    change_counts[s] = result.changed;
  };

  if (persistent) {
    // ---- Persistent mode: spawn the fleet once, then drive each
    // iteration through one framed command per worker carrying only
    // deltas.
    PersistentRuntime& rt = impl_->persistent;
    if (rt.plan.empty()) {
      WorkerPlan plan;
      plan.config = config_;
      plan.shards = S;
      plan.threads_per_shard = impl_->threads_per_shard;
      rt.plan = plan_to_bytes(plan);
    }
    ensure_agent_links(rt, shard_config_);
    if (rt.workers.size() != S) {
      rt.workers = std::vector<PersistentWorker>(S);
      for (std::uint32_t s = 0; s < S; ++s) {
        spawn_persistent_worker(rt, shard_config_, impl_->work_dir, s);
      }
    }
    std::vector<PartitionId> part_owner = owner_vector(assignment);
    std::vector<PartitionId> sh_owner = owner_vector(shard_owner);
    const bool maps_changed = part_owner != rt.sent_partition_owner ||
                              sh_owner != rt.sent_shard_owner;

    PersistentIterationInput in;
    in.iteration = iteration_;
    in.partition_owner = &part_owner;
    in.shard_owner = &sh_owner;
    in.maps_changed = maps_changed;
    in.graph = &graph_;
    // An incremental delta needs a same-shape base the fleet actually
    // holds; set_initial_graph() after iterations (or a k change) voids
    // that, in which case everyone gets the full snapshot.
    const bool base_usable =
        rt.broadcast_version >= 0 &&
        rt.synced_graph.num_vertices() == graph_.num_vertices() &&
        rt.synced_graph.k() == graph_.k();
    in.graph_base_version = base_usable ? rt.broadcast_version : -1;
    in.graph_new_version = rt.broadcast_version + 1;
    in.profiles = &profiles_;
    // P(t) changes only through phase 5's queue, whose touched users
    // accumulate in pending_profile_users — that list IS the delta.
    in.changed_users = &rt.pending_profile_users;
    in.profile_base_version = rt.profile_broadcast_version;
    in.profile_new_version = rt.profile_broadcast_version + 1;

    const std::vector<PersistentIterationReply> replies =
        run_persistent_iteration(rt, shard_config_, impl_->work_dir, in,
                                 rt.synced_graph);

    rt.synced_graph = graph_;
    rt.broadcast_version = in.graph_new_version;
    rt.profile_broadcast_version = in.profile_new_version;
    rt.pending_profile_users.clear();
    rt.sent_partition_owner = std::move(part_owner);
    rt.sent_shard_owner = std::move(sh_owner);

    for (std::uint32_t s = 0; s < S; ++s) {
      const PersistentIterationReply& r = replies[s];
      ShardWorkerStats& worker = out.workers[s];
      worker.stats = r.stats.stats;
      worker.stats.iteration = iteration_;
      worker.stats.threads_used = impl_->threads_per_shard;
      worker.produce_s = r.stats.produce_s;
      worker.consume_s = r.stats.consume_s;
      worker.spooled_tuples = r.stats.spooled_tuples;
      worker.spawn_count = rt.workers[s].spawn_count;
      worker.resync_count = rt.workers[s].resync_count;
      worker.bytes_tx = r.bytes_tx;
      worker.bytes_rx = r.bytes_rx;
      worker.round_trips = r.round_trips;
      worker.partitions_touched = r.stats.partitions_touched;
      worker.profile_reads = r.stats.profile_reads;
      worker.profile_rows_rx = r.profile_rows_rx;
      fold_result(s, shard_result_from_bytes(
                         r.result_bytes,
                         "persistent worker " + std::to_string(s) +
                             "'s ITERATION_DONE reply"));
    }
  } else {
    // ---- Thread mode: one thread per shard, each with its own pool and
    // I/O accountant, reading the driver's G(t) and P(t); on the
    // partition walk the tables are sized and G(t)'s in-lists built
    // here, on the calling thread.
    const ShardContext ctx{config_,    iteration_,  S,
                           assignment, shard_owner, impl_->work_dir};
    std::vector<std::uint64_t> table_bounds(S, 0);
    std::optional<ReverseAdjacency> reverse;
    if (shard_walks_partitions(config_)) {
      table_bounds = shard_table_bounds(config_, graph_, shard_owner);
      reverse = build_reverse_adjacency(graph_);
    }
    std::vector<std::unique_ptr<IoAccountant>> worker_io;
    worker_io.reserve(S);
    for (std::uint32_t s = 0; s < S; ++s) {
      worker_io.push_back(std::make_unique<IoAccountant>(config_.io_model));
    }
    // Rethrows the lowest-shard exception after all joined
    // (deterministic, like the pool contract).
    std::vector<std::exception_ptr> errors(S);
    std::vector<std::thread> threads;
    threads.reserve(S);
    for (std::uint32_t w = 0; w < S; ++w) {
      threads.emplace_back([&, w] {
        try {
          ShardOutput shard_out =
              run_shard(ctx, w, shard_members[w], graph_,
                        reverse ? &*reverse : nullptr, table_bounds[w],
                        profiles_, impl_->pools[w].get(),
                        worker_io[w].get(), out.workers[w],
                        /*fault_point=*/{});
          change_counts[w] = shard_out.changed;
          output.set_shard(w, std::move(shard_out.next));
        } catch (...) {
          errors[w] = std::current_exception();
        }
      });
    }
    for (auto& t : threads) t.join();
    for (auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    for (std::uint32_t s = 0; s < S; ++s) {
      out.workers[s].stats.io = worker_io[s]->counters();
      out.workers[s].stats.modeled_io_us = worker_io[s]->modeled_us();
    }
  }

  // ---- Merge (driver): deterministic re-assembly from shard owners.
  IterationStats merged;
  {
    std::vector<IterationStats> parts;
    parts.reserve(S);
    for (const ShardWorkerStats& w : out.workers) parts.push_back(w.stats);
    merged = sum_iteration_stats(parts);
  }
  merged.iteration = iteration_;
  merged.timings.partition_s += partition_s;
  merged.partition_cost_total = partition_cost_total;
  {
    double merge_s = 0.0;
    {
      ScopedAccumulator timing(&merge_s);
      graph_ = output.merge();
    }
    merged.timings.knn_s += merge_s;
    merged.knn_merge_s += merge_s;
  }
  std::uint64_t differing = 0;
  for (const std::uint64_t c : change_counts) differing += c;
  merged.change_rate =
      n == 0 ? 0.0
             : static_cast<double>(differing) /
                   (static_cast<double>(n) *
                    std::max<std::uint32_t>(config_.k, 1));

  // ---- Phase 5 (driver): apply queued profile updates.
  {
    ScopedAccumulator timing(&merged.timings.update_s);
    // Persistent mode records which users phase 5 touches: that list is
    // next iteration's P(t) delta over the worker channels.
    merged.profile_updates_applied = queue_.apply_to(
        profiles_,
        persistent ? &impl_->persistent.pending_profile_users : nullptr);
  }

  if (config_.checkpoint) {
    save_knn_graph_file(impl_->work_dir / "checkpoint_latest.knng", graph_);
  }
  if (config_.recall_samples > 0) {
    // Thread mode reuses shard 0's pool; persistent mode has no
    // driver-side pools, so spin one up for the estimator (it is
    // O(samples * n) — the pool spawn is noise next to it).
    ThreadPool* pool = impl_->pools[0].get();
    std::unique_ptr<ThreadPool> recall_pool;
    if (pool == nullptr && impl_->threads_per_shard > 1) {
      recall_pool = std::make_unique<ThreadPool>(impl_->threads_per_shard - 1);
      pool = recall_pool.get();
    }
    merged.sampled_recall =
        sampled_recall(graph_, profiles_, config_.measure,
                       config_.recall_samples, config_.seed, pool)
            .recall;
  }

  KNNPC_LOG(Info) << "sharded iteration " << iteration_ << " (S=" << S
                  << ", " << worker_mode_name(shard_config_.worker_mode)
                  << " workers): " << merged.unique_tuples << " tuples, "
                  << merged.pi_pairs << " PI pairs, "
                  << merged.partition_loads << " loads, change rate "
                  << merged.change_rate;
  if (sink_ != nullptr) {
    sink_->publish(graph_, profiles_, assignment.owners(), iteration_);
  }
  ++iteration_;
  out.merged = merged;
  return out;
}

RunStats ShardedKnnEngine::run(std::uint32_t max_iterations,
                               double convergence_delta) {
  RunStats run_stats;
  Timer total;
  for (std::uint32_t i = 0; i < max_iterations; ++i) {
    ShardedIterationStats stats = run_iteration();
    const double change = stats.merged.change_rate;
    run_stats.iterations.push_back(std::move(stats.merged));
    if (change < convergence_delta) {
      run_stats.converged = true;
      break;
    }
  }
  run_stats.total_seconds = total.elapsed_seconds();
  return run_stats;
}

}  // namespace knnpc
