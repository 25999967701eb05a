// knnpc_run — the full command-line driver for the out-of-core KNN engine.
//
// Feeds any combination of inputs through the five-phase pipeline and
// reports per-iteration statistics, exposing every EngineConfig knob:
//
//   knnpc_run --ratings=ratings.csv --k=10 --partitions=32
//   knnpc_run --users=20000 --clusters=50 --heuristic=cost-aware
//             --partitioner=greedy --threads=8 --device=hdd --csv
//   knnpc_run --users=50000 --shards=4 --checkpoint --workdir=/tmp/run
//   knnpc_run --users=50000 --shards=4 --iters=10 --worker-mode=persistent
//   knnpc_run --worker-agent=127.0.0.1:7070 --agent-workdir=/tmp/agent
//   knnpc_run --users=50000 --shards=4 --worker-mode=persistent
//             --worker-endpoint=127.0.0.1:7070
//
// With --csv the per-iteration table is machine-readable. --shards=S runs
// the sharded driver (core/shard_driver.h); the KNN output is
// bit-identical to --shards=1 for any S (the final checksum on stderr
// makes that easy to verify). --worker-mode=persistent promotes the shard
// workers from threads to supervised child processes (this same binary,
// re-executed in the hidden --shard-worker role), spawned once per run and
// driven over pipes with per-iteration deltas — same checksum again.
// --worker-endpoint moves those persistent workers behind worker-agent
// processes (started with --worker-agent on each machine) and the
// commands ride TCP instead of pipes — same checksum over the network,
// kill-a-remote-worker-mid-run included.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "core/convergence.h"
#include "core/engine.h"
#include "core/shard_driver.h"
#include "core/stats_io.h"
#include "core/worker_agent.h"
#include "graph/knn_graph_io.h"
#include "serve/knn_server.h"
#include "util/ipc_channel.h"
#include "util/timer.h"
#include "profiles/generators.h"
#include "profiles/ratings_io.h"
#include "util/logging.h"
#include "util/options.h"
#include "util/rng.h"

using namespace knnpc;

namespace {

/// Splits a comma-separated flag value ("h1:p1,h2:p2"); empty segments
/// (trailing or doubled commas) are skipped, so "h1:p1," and
/// "h1:p1,,h2:p2" parse the same as their tidy forms.
std::vector<std::string> split_csv(const std::string& value) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start < value.size()) {
    std::size_t comma = value.find(',', start);
    if (comma == std::string::npos) comma = value.size();
    if (comma > start) out.push_back(value.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Persistent shard workers re-execute this binary; the worker role
  // must win before the option parser sees the hidden flags.
  if (const auto worker_exit = maybe_run_shard_worker(argc, argv)) {
    return *worker_exit;
  }
  Options opts;
  opts.add_string("ratings", "rating file; empty = synthetic profiles", "");
  opts.add_uint("ratings-budget-mb",
                "out-of-core ratings ingestion: stream --ratings through "
                "sorted spill runs under this memory budget instead of "
                "loading it whole (0 = in-memory load)",
                0);
  opts.add_uint("users", "synthetic user count", 10000);
  opts.add_uint("items", "synthetic item count", 2000);
  opts.add_uint("clusters", "planted clusters in synthetic profiles", 40);
  opts.add_uint("k", "neighbours per user", 10);
  opts.add_uint("partitions", "partition count m", 16);
  opts.add_string("partitioner", "range | hash | degree-range | greedy", "range");
  opts.add_string("heuristic",
                  "sequential | high-low | low-high | random | "
                  "greedy-resident | dynamic-degree | cost-aware",
                  "low-high");
  opts.add_string("measure",
                  "cosine | jaccard | dice | overlap | common | inv-euclid | pearson | adj-cosine",
                  "cosine");
  opts.add_uint("slots", "resident partition slots", 2);
  opts.add_uint("threads",
                "engine threads for phases 1, 2 and 4 (0 = auto for large "
                "runs)",
                0);
  opts.add_uint("shards",
                "engine workers, one per user shard (1 = serial engine, "
                "0 = auto for large runs)",
                1);
  opts.add_string("shard-partitioner",
                  "how users are split into shards (range | hash | "
                  "degree-range | greedy | pair-affinity)",
                  "range");
  opts.add_string("worker-mode",
                  "how shard workers execute (thread | persistent)",
                  "thread");
  opts.add_double("worker-timeout",
                  "persistent mode: seconds one worker may take to answer "
                  "its iteration command before it is killed and retried "
                  "(< 0 = no deadline)",
                  600.0);
  opts.add_string("worker-endpoint",
                  "distributed persistent mode: comma-separated worker-"
                  "agent endpoints (host:port); shards are split across "
                  "them in contiguous balanced groups",
                  "");
  opts.add_double("agent-timeout",
                  "distributed mode: seconds for agent connects and each "
                  "control round-trip (connect and remote kill)",
                  30.0);
  opts.add_string("shard-stats-json",
                  "with --shards > 1: write per-shard worker stats "
                  "(phase timings, supervision, channel traffic) to this "
                  "file",
                  "");
  opts.add_string("worker-agent",
                  "run as a worker agent on host:port (serves remote "
                  "drivers; all other engine flags are ignored)",
                  "");
  opts.add_string("agent-workdir",
                  "worker agent: root directory for per-run scratch "
                  "files, deleted when the run ends (required with "
                  "--worker-agent)",
                  "");
  opts.add_string("agent-port-file",
                  "worker agent: write the bound port here atomically "
                  "(how launchers learn an ephemeral --worker-agent=host:0 "
                  "port)",
                  "");
  opts.add_uint("iters", "max iterations", 15);
  opts.add_double("delta", "convergence threshold on change rate", 0.01);
  opts.add_string("device", "none | hdd | ssd | nvme (I/O cost model)",
                  "none");
  opts.add_string("workdir", "partition/shard directory; empty = scratch",
                  "");
  opts.add_flag("reverse", "admit reverse candidates");
  opts.add_double("rho", "candidate sample rate", 1.0);
  opts.add_uint("repartition-every", "phase-1 period", 1);
  opts.add_flag("checkpoint", "write checkpoint_latest.knng per iteration");
  opts.add_uint("recall-samples",
                "users sampled for the final recall estimate (0 = skip)",
                0);
  opts.add_flag("serve",
                "publish every iteration to an in-process KnnServer and "
                "run query threads against it while the engine iterates");
  opts.add_uint("serve-threads",
                "concurrent query threads during the run (with --serve)",
                2);
  opts.add_uint("serve-search-l",
                "beam width (candidate-queue budget) for ad-hoc serve "
                "queries (with --serve)",
                64);
  opts.add_uint("serve-queries",
                "ad-hoc queries for the final serve recall estimate "
                "(with --serve)",
                100);
  opts.add_uint("seed", "master seed", 42);
  opts.add_flag("csv", "emit per-iteration rows as CSV");
  opts.add_string("json", "also write the full run stats to this file", "");
  opts.add_string("log", "debug | info | warn | error", "warn");
  if (!opts.parse(argc, argv)) return 0;
  set_log_level(parse_log_level(opts.get_string("log")));

  // Agent role: serve remote drivers until killed; nothing below runs.
  if (!opts.get_string("worker-agent").empty()) {
    WorkerAgentConfig agent_config;
    try {
      const auto [host, port] =
          parse_host_port(opts.get_string("worker-agent"));
      agent_config.host = host;
      agent_config.port = port;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "--worker-agent: %s\n", e.what());
      return 2;
    }
    agent_config.work_root = opts.get_string("agent-workdir");
    if (agent_config.work_root.empty()) {
      std::fprintf(stderr, "--worker-agent requires --agent-workdir\n");
      return 2;
    }
    return worker_agent_main(agent_config,
                             opts.get_string("agent-port-file"));
  }

  // Input profiles.
  std::vector<SparseProfile> profiles;
  if (!opts.get_string("ratings").empty()) {
    RatingsData data;
    if (opts.get_uint("ratings-budget-mb") > 0) {
      OutOfCoreIngestConfig ingest;
      ingest.memory_budget_bytes =
          static_cast<std::size_t>(opts.get_uint("ratings-budget-mb")) << 20;
      ingest.work_dir = opts.get_string("workdir");
      const std::string store_path = opts.get_string("ratings") + ".kprs";
      const OutOfCoreIngestStats stats = ingest_ratings_file(
          opts.get_string("ratings"), store_path, ingest);
      std::fprintf(stderr,
                   "ingested %zu lines -> %zu ratings (%zu dup) across %zu "
                   "runs, peak %.1f MiB -> %s\n",
                   stats.lines, stats.ratings, stats.duplicates, stats.runs,
                   static_cast<double>(stats.peak_memory_bytes) / (1 << 20),
                   store_path.c_str());
      data = load_profile_store(store_path);
    } else {
      data = load_ratings_file(opts.get_string("ratings"));
    }
    std::fprintf(stderr, "loaded %zu users / %zu ratings from %s\n",
                 data.profiles.size(), data.num_ratings,
                 opts.get_string("ratings").c_str());
    profiles = std::move(data.profiles);
  } else {
    Rng rng(opts.get_uint("seed") + 1);
    ClusteredGenConfig gen;
    gen.base.num_users = static_cast<VertexId>(opts.get_uint("users"));
    gen.base.num_items = static_cast<ItemId>(opts.get_uint("items"));
    gen.num_clusters = static_cast<std::uint32_t>(opts.get_uint("clusters"));
    profiles = clustered_profiles(gen, rng);
  }

  EngineConfig config;
  config.k = static_cast<std::uint32_t>(opts.get_uint("k"));
  config.num_partitions =
      static_cast<PartitionId>(opts.get_uint("partitions"));
  config.partitioner = opts.get_string("partitioner");
  config.heuristic = opts.get_string("heuristic");
  config.measure = parse_similarity(opts.get_string("measure"));
  config.memory_slots = static_cast<std::size_t>(opts.get_uint("slots"));
  config.threads = static_cast<std::uint32_t>(opts.get_uint("threads"));
  config.io_model = IoModel::parse(opts.get_string("device"));
  config.work_dir = opts.get_string("workdir");
  config.include_reverse = opts.get_flag("reverse");
  config.sample_rate = opts.get_double("rho");
  config.repartition_every =
      static_cast<std::uint32_t>(opts.get_uint("repartition-every"));
  config.checkpoint = opts.get_flag("checkpoint");
  config.seed = opts.get_uint("seed");

  const InMemoryProfileStore snapshot{profiles};

  // --shards != 1 routes through the sharded driver; both paths expose
  // the same per-iteration IterationStats shape.
  const auto shards = static_cast<std::uint32_t>(opts.get_uint("shards"));
  std::unique_ptr<KnnEngine> engine;
  std::unique_ptr<ShardedKnnEngine> sharded;
  if (shards == 1) {
    engine = std::make_unique<KnnEngine>(config, std::move(profiles));
  } else {
    ShardConfig shard_config;
    shard_config.shards = shards;
    shard_config.shard_partitioner = opts.get_string("shard-partitioner");
    shard_config.worker_mode =
        parse_worker_mode(opts.get_string("worker-mode"));
    shard_config.worker_timeout_s = opts.get_double("worker-timeout");
    shard_config.worker_endpoints =
        split_csv(opts.get_string("worker-endpoint"));
    shard_config.agent_timeout_s = opts.get_double("agent-timeout");
    sharded = std::make_unique<ShardedKnnEngine>(config, shard_config,
                                                 std::move(profiles));
    std::fprintf(stderr, "sharded driver: %u workers x %u threads (%s "
                         "mode%s)\n",
                 sharded->num_shards(), sharded->threads_per_shard(),
                 worker_mode_name(shard_config.worker_mode),
                 shard_config.worker_endpoints.empty() ? ""
                                                       : ", distributed");
  }
  // Per-shard stats are retained only when something will read them
  // (--shard-stats-json) — a long run's per-worker vectors are not free.
  std::vector<ShardedIterationStats> shard_iterations;
  const bool keep_shard_stats =
      sharded != nullptr && !opts.get_string("shard-stats-json").empty();
  auto step = [&]() -> IterationStats {
    if (engine) return engine->run_iteration();
    ShardedIterationStats stats = sharded->run_iteration();
    IterationStats merged = stats.merged;
    if (keep_shard_stats) shard_iterations.push_back(std::move(stats));
    return merged;
  };
  const auto graph = [&]() -> const KnnGraph& {
    return engine ? engine->graph() : sharded->graph();
  };

  // --serve: hook a KnnServer into the iteration loop and hammer it with
  // query threads while the engine churns underneath. The server outlives
  // the query threads (joined below) but is only *published to* while the
  // loop runs, so declaring it here is safe.
  const bool serve = opts.get_flag("serve");
  ServeConfig serve_config;
  serve_config.measure = config.measure;
  serve_config.search_l =
      static_cast<std::uint32_t>(opts.get_uint("serve-search-l"));
  KnnServer server(serve_config);
  std::atomic<bool> serve_stop{false};
  std::atomic<std::uint64_t> serve_topk_queries{0};
  std::atomic<std::uint64_t> serve_adhoc_queries{0};
  std::vector<std::thread> serve_threads;
  if (serve) {
    if (engine) {
      engine->set_snapshot_sink(&server);
    } else {
      sharded->set_snapshot_sink(&server);
    }
    const auto num_threads = static_cast<std::uint32_t>(
        std::max<std::uint64_t>(opts.get_uint("serve-threads"), 1));
    const VertexId n = snapshot.num_users();
    for (std::uint32_t t = 0; t < num_threads; ++t) {
      serve_threads.emplace_back([&, t] {
        Rng rng(config.seed + 9000 + t);
        KnnServer::Reader reader = server.reader();
        while (!serve_stop.load(std::memory_order_relaxed)) {
          if (!server.has_snapshot() || n == 0) {
            std::this_thread::yield();
            continue;
          }
          const auto u = static_cast<VertexId>(rng.next_below(n));
          (void)reader.top_k(u);
          serve_topk_queries.fetch_add(1, std::memory_order_relaxed);
          (void)reader.query(snapshot.get(u), config.k);
          serve_adhoc_queries.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
  }

  const bool csv = opts.get_flag("csv");
  if (csv) {
    std::printf("iter,partition_s,hash_s,pi_s,knn_s,update_s,total_s,"
                "tuples,pi_pairs,loads,unloads,bytes_read,bytes_written,"
                "modeled_io_us,change_rate\n");
  } else {
    std::printf("%4s | %8s %8s %8s %8s | %9s %8s %10s | %9s\n", "iter",
                "P1 s", "P2 s", "P4 s", "total", "tuples", "PIpairs",
                "loads+unl", "chg rate");
  }

  const auto max_iters = static_cast<std::uint32_t>(opts.get_uint("iters"));
  const double delta = opts.get_double("delta");
  RunStats run;
  Timer run_timer;
  for (std::uint32_t i = 0; i < max_iters; ++i) {
    const IterationStats s = step();
    run.iterations.push_back(s);
    if (csv) {
      std::printf("%u,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%llu,%llu,%llu,%llu,"
                  "%llu,%llu,%.1f,%.6f\n",
                  s.iteration, s.timings.partition_s, s.timings.hash_s,
                  s.timings.pi_graph_s, s.timings.knn_s, s.timings.update_s,
                  s.timings.total(),
                  static_cast<unsigned long long>(s.unique_tuples),
                  static_cast<unsigned long long>(s.pi_pairs),
                  static_cast<unsigned long long>(s.partition_loads),
                  static_cast<unsigned long long>(s.partition_unloads),
                  static_cast<unsigned long long>(s.io.bytes_read),
                  static_cast<unsigned long long>(s.io.bytes_written),
                  s.modeled_io_us, s.change_rate);
    } else {
      std::printf("%4u | %8.3f %8.3f %8.3f %8.3f | %9llu %8llu %10llu | "
                  "%9.4f\n",
                  s.iteration, s.timings.partition_s, s.timings.hash_s,
                  s.timings.knn_s, s.timings.total(),
                  static_cast<unsigned long long>(s.unique_tuples),
                  static_cast<unsigned long long>(s.pi_pairs),
                  static_cast<unsigned long long>(s.partition_loads +
                                                  s.partition_unloads),
                  s.change_rate);
    }
    if (s.change_rate < delta) {
      run.converged = true;
      break;
    }
  }
  run.total_seconds = run_timer.elapsed_seconds();

  if (serve) {
    serve_stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : serve_threads) t.join();
    const VertexId n = snapshot.num_users();
    std::fprintf(stderr,
                 "serve: %llu top_k + %llu ad-hoc queries over %zu threads, "
                 "final snapshot v%llu (iteration %u)\n",
                 static_cast<unsigned long long>(serve_topk_queries.load()),
                 static_cast<unsigned long long>(serve_adhoc_queries.load()),
                 serve_threads.size(),
                 static_cast<unsigned long long>(server.version()),
                 run.iterations.empty() ? 0u
                                        : run.iterations.back().iteration);
    if (server.has_snapshot() && n > 0) {
      KnnServer::Reader reader = server.reader();
      // Indexed path: the published rows must equal the engine's final
      // G(t) bit-for-bit.
      bool exact = true;
      const VertexId probes = std::min<VertexId>(n, 256);
      for (VertexId i = 0; i < probes && exact; ++i) {
        const auto u = static_cast<VertexId>(
            (static_cast<std::uint64_t>(i) * n) / probes);
        const std::vector<Neighbor> row = reader.top_k(u);
        const std::span<const Neighbor> expect = graph().neighbors(u);
        exact = std::equal(row.begin(), row.end(), expect.begin(),
                           expect.end());
      }
      std::fprintf(stderr, "serve top_k exact: %s (%u users probed)\n",
                   exact ? "yes" : "NO", probes);
      // Ad-hoc path: beam recall vs a linear scan of the pinned snapshot.
      const auto queries = static_cast<VertexId>(std::min<std::uint64_t>(
          opts.get_uint("serve-queries"), n));
      if (queries > 0) {
        const KnnServer::Reader::Pin pin = reader.pin();
        std::size_t hits = 0, wanted = 0;
        for (VertexId i = 0; i < queries; ++i) {
          const auto u = static_cast<VertexId>(
              (static_cast<std::uint64_t>(i) * n) / queries);
          const SparseProfile& q = snapshot.get(u);
          const QueryResult got =
              beam_search(*pin.get(), q, config.k, serve_config.search_l);
          std::vector<Neighbor> truth;
          for (VertexId v = 0; v < n; ++v) {
            truth.push_back(
                {v, similarity(config.measure, q, pin->profiles.get(v))});
          }
          std::sort(truth.begin(), truth.end(),
                    [](const Neighbor& a, const Neighbor& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.id < b.id;
                    });
          truth.resize(std::min<std::size_t>(config.k, truth.size()));
          wanted += truth.size();
          for (const Neighbor& want : truth) {
            for (const Neighbor& have : got.neighbors) {
              if (have.id == want.id) {
                ++hits;
                break;
              }
            }
          }
        }
        std::fprintf(stderr,
                     "serve ad-hoc recall@%u: %.3f (%u queries, "
                     "search_l=%u)\n",
                     config.k,
                     wanted ? static_cast<double>(hits) /
                                  static_cast<double>(wanted)
                            : 0.0,
                     queries, serve_config.search_l);
      }
    }
  }

  if (!opts.get_string("json").empty()) {
    std::ofstream json_out(opts.get_string("json"));
    if (!json_out) {
      std::fprintf(stderr, "cannot open %s\n",
                   opts.get_string("json").c_str());
      return 1;
    }
    write_run_json(json_out, run);
    std::fprintf(stderr, "wrote %s\n", opts.get_string("json").c_str());
  }

  if (keep_shard_stats) {
    std::ofstream stats_out(opts.get_string("shard-stats-json"));
    if (!stats_out) {
      std::fprintf(stderr, "cannot open %s\n",
                   opts.get_string("shard-stats-json").c_str());
      return 1;
    }
    write_shard_workers_json(stats_out, shard_iterations);
    std::fprintf(stderr, "wrote %s\n",
                 opts.get_string("shard-stats-json").c_str());
  }

  const auto samples =
      static_cast<std::size_t>(opts.get_uint("recall-samples"));
  if (samples > 0) {
    const auto recall = sampled_recall(graph(), snapshot,
                                       config.measure, samples, config.seed,
                                       config.threads);
    std::fprintf(stderr, "sampled recall@%u: %.3f +/- %.3f (%zu users)\n",
                 config.k, recall.recall, recall.margin95,
                 recall.sampled_users);
  }

  // Shard/thread-count invariant (see core/shard_driver.h): identical
  // workloads print identical checksums regardless of --shards/--threads.
  std::fprintf(stderr, "graph checksum: %016llx\n",
               static_cast<unsigned long long>(knn_graph_checksum(graph())));
  return 0;
}
