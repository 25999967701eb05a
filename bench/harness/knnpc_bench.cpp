// knnpc_bench: the benchmark harness binary. One process runs one
// workload for a time budget and prints one JSON object of named metrics
// with units, plus the results of its correctness checks.
//
//   knnpc_bench --workload=NAME --seed=N --expect=HEX [--seconds=S]
//               [--trace=FILE] [--quick]
//   knnpc_bench --oracle --workload=NAME --seed=N [--quick]
//
// Workloads (sizes in bench/harness/README.md):
//   offline-build  ratings file -> ingest -> KnnEngine until converged
//   serve-churn    KnnEngine under churn publishing into a KnnServer while
//                  a reader thread runs an open-loop query schedule
//   shards-local   persistent ShardedKnnEngine, 4 local worker processes
//   shards-agents  the same behind 2 in-process loopback-TCP WorkerAgents
//
// Every workload repeats a deterministic *round* (set-up, then a fixed
// iteration schedule) until --seconds have elapsed, so each run yields
// several set-up samples and many iteration samples; timings are
// reported as medians over them. Inputs come only from --seed. The final
// graph of every round must match --expect, the checksum the serial
// KnnEngine produces on the same inputs and update sequence (--oracle
// prints it). The library is called only through its public entry
// points; every timing is taken here, at the call boundary.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "core/convergence.h"
#include "core/engine.h"
#include "core/shard_driver.h"
#include "core/worker_agent.h"
#include "graph/digraph.h"
#include "graph/knn_graph_io.h"
#include "partition/partitioner.h"
#include "profiles/ratings_io.h"
#include "serve/knn_server.h"
#include "storage/block_file.h"
#include "util/options.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workloads/workload.h"
#include "trace.h"

using namespace knnpc;
using knnpc_bench::Trace;

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double median(const std::vector<double>& v) { return percentile(v, 50); }

// ------------------------------------------------------------ parameters

constexpr std::uint32_t kK = 10;
constexpr PartitionId kPartitions = 16;
/// offline-build stops at the first iteration below this change rate.
constexpr double kConvergedRate = 0.01;
constexpr std::uint32_t kMaxOfflineIterations = 40;
/// Quality evaluation: sampled_recall users and beam-recall queries.
constexpr std::size_t kRecallSamples = 500;
constexpr std::uint64_t kRecallSeed = 23;
constexpr std::size_t kQueryRecallQueries = 500;
/// Closed-loop ad-hoc queries per round on the workloads without readers:
/// enough that each round's p99 has ten samples beyond it.
constexpr std::size_t kProbeQueries = 1000;
/// offline-build set-ups per round. Set-up takes ~2% of a round there, so
/// repeating it gives setup_s as many samples as a run has rounds times
/// this, for ~10% more time per round.
constexpr std::uint32_t kOfflineSetups = 5;
/// serve-churn: a ladder step passes when its ad-hoc p99 and its backlog
/// (QueryLog::tail_late_ms) stay within these limits.
constexpr double kLadderP99LimitMs = 5.0;
constexpr double kLadderLateLimitMs = 10.0;
/// serve-churn load threads. The engine runs 2 more, so on a 4-core host
/// one core stays free and the reader does not queue for one (README.md,
/// "serve-churn load").
constexpr std::uint32_t kReaders = 1;

struct Sizes {
  VertexId users = 0;
  ItemId items = 0;
  std::uint32_t clusters = 40;
  /// Iterations after set-up in one round (offline-build: until converged).
  std::uint32_t iterations = 0;
  /// serve-churn: open-loop rate of the measured rounds (requests/s) and
  /// ladder step length (README.md, "serve-churn load").
  double rate_qps = 0;
  double ladder_step_s = 0;
};

Sizes sizes_for(const std::string& workload, bool quick) {
  Sizes z;
  if (workload == "offline-build") {
    z.users = quick ? 1000 : 12000;
    z.clusters = quick ? 10 : 40;
  } else if (workload == "serve-churn") {
    z.users = quick ? 1000 : 10000;
    z.clusters = quick ? 10 : 40;
    z.iterations = quick ? 3 : 4;
    z.rate_qps = quick ? 1000 : 2000;
    // 2 s, so that one 5 ms stall (0.5% of a step) cannot fail the p99.
    z.ladder_step_s = quick ? 0.3 : 2.0;
  } else if (workload == "shards-local" || workload == "shards-agents") {
    z.users = quick ? 1000 : 20000;
    z.iterations = quick ? 2 : 4;
  } else {
    throw std::invalid_argument(
        "unknown workload '" + workload +
        "' (known: offline-build, serve-churn, shards-local, shards-agents)");
  }
  z.items = static_cast<ItemId>(z.users / 10);
  return z;
}

WorkloadParams params_for(const Sizes& z, std::uint64_t seed) {
  WorkloadParams p;
  p.users = z.users;
  p.items = z.items;
  p.clusters = z.clusters;
  p.seed = seed;
  return p;
}

/// The zoo scenario each workload replays.
const char* scenario_of(const std::string& workload) {
  return workload.rfind("shards-", 0) == 0 ? "movielens-synthetic"
                                           : "steady-trickle";
}

EngineConfig engine_config(const std::string& workload, std::uint64_t seed) {
  EngineConfig c;
  c.k = kK;
  c.num_partitions = kPartitions;
  c.threads = workload == "serve-churn" ? 2 : 4;
  c.seed = seed;
  return c;
}

// --------------------------------------------------------------- report

/// Named metrics with units, plus the operation/failure tally.
class Report {
 public:
  void set(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  /// One correctness check: counts as an attempted operation, and as a
  /// failed one when it does not hold.
  void check(const std::string& name, bool ok) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "knnpc_bench: check failed: %s\n", name.c_str());
      if (std::find(failed_checks_.begin(), failed_checks_.end(), name) ==
          failed_checks_.end()) {
        failed_checks_.push_back(name);
      }
    }
  }
  void operations(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

  [[nodiscard]] std::string json(const std::string& workload,
                                 std::uint64_t seed) const {
    std::string out = "{\"workload\":\"" + workload +
                      "\",\"seed\":" + std::to_string(seed) +
                      ",\"attempted\":" + std::to_string(attempted_) +
                      ",\"failed\":" + std::to_string(failed_) +
                      ",\"failed_checks\":[";
    for (std::size_t i = 0; i < failed_checks_.size(); ++i) {
      out += (i ? ",\"" : "\"") + failed_checks_[i] + "\"";
    }
    out += "],\"metrics\":{";
    char buf[256];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Entry& m = metrics_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                    i ? "," : "", m.name.c_str(), m.value, m.unit);
      out += buf;
    }
    return out + "}}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> failed_checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// --------------------------------------------------------------- memory

/// VmHWM of `pid` in MB (0 when the process is gone).
double vm_hwm_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Host CPU time taken from the virtual machine ("steal") as a share of
/// all CPU time since `since`, from /proc/stat's aggregate cpu line: the
/// one disturbance no benchmark design removes, so every run reports it.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

CpuTicks read_cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTicks t;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    in >> v;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double steal_pct(const CpuTicks& since) {
  const CpuTicks now = read_cpu_ticks();
  const std::uint64_t total = now.total - since.total;
  return total ? 100.0 * static_cast<double>(now.steal - since.steal) /
                     static_cast<double>(total)
               : 0.0;
}

/// Sum of VmHWM over this process's live children (the shard workers,
/// local or spawned by an in-process agent). Read before teardown.
double children_hwm_mb() {
  const std::string self = std::to_string(::getpid());
  double total = 0.0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator("/proc", ec)) {
    const std::string pid = entry.path().filename().string();
    if (pid.empty() || pid.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    std::ifstream in("/proc/" + pid + "/stat");
    std::string stat;
    std::getline(in, stat);
    // Field 4 (ppid) follows the parenthesised command name.
    const std::size_t paren = stat.rfind(')');
    if (paren == std::string::npos || paren + 4 >= stat.size()) continue;
    const std::string rest = stat.substr(paren + 4);
    if (rest.substr(0, rest.find(' ')) == self) total += vm_hwm_mb(pid);
  }
  return total;
}

// ------------------------------------------------------ layer accounting

/// Per-iteration library stats folded into per-layer totals. Timings are
/// reported per measured iteration (mean), counts per round.
struct Layers {
  std::size_t iterations = 0;
  std::size_t rounds = 0;
  double wall_s = 0, partition_s = 0, hash_s = 0, pi_graph_s = 0, knn_s = 0,
         score_s = 0, merge_s = 0, update_s = 0, publish_s = 0;
  std::uint64_t candidate_tuples = 0, unique_tuples = 0, pi_pairs = 0,
                updates_applied = 0, partition_loads = 0,
                partition_unloads = 0;
  IoCounters io;
  // Sharded driver, IPC and sync (zero on the single-engine workloads).
  double wall_max_s = 0, imbalance = 0, produce_s = 0, consume_s = 0;
  std::uint64_t spooled_tuples = 0, partitions_touched = 0,
                profile_reads = 0, bytes_tx = 0, bytes_rx = 0,
                profile_rows = 0, sync_files_tx = 0, sync_bytes_tx = 0,
                sync_files_skipped = 0, sync_bytes_skipped = 0;
  std::uint32_t round_trips_max = 0, spawns = 0, resyncs = 0;

  void add(const IterationStats& s, double wall, double publish) {
    ++iterations;
    wall_s += wall;
    publish_s += publish;
    partition_s += s.timings.partition_s;
    hash_s += s.timings.hash_s;
    pi_graph_s += s.timings.pi_graph_s;
    knn_s += s.timings.knn_s;
    score_s += s.knn_score_s;
    merge_s += s.knn_merge_s;
    update_s += s.timings.update_s;
    candidate_tuples += s.candidate_tuples;
    unique_tuples += s.unique_tuples;
    pi_pairs += s.pi_pairs;
    updates_applied += s.profile_updates_applied;
    partition_loads += s.partition_loads;
    partition_unloads += s.partition_unloads;
    io += s.io;
  }

  void add_workers(const std::vector<ShardWorkerStats>& workers) {
    double max_wall = 0, sum_wall = 0;
    for (const ShardWorkerStats& w : workers) {
      max_wall = std::max(max_wall, w.wall_s());
      sum_wall += w.wall_s();
      produce_s += w.produce_s / static_cast<double>(workers.size());
      consume_s += w.consume_s / static_cast<double>(workers.size());
      spooled_tuples += w.spooled_tuples;
      partitions_touched += w.partitions_touched;
      profile_reads += w.profile_reads;
      bytes_tx += w.bytes_tx;
      bytes_rx += w.bytes_rx;
      profile_rows += w.profile_rows_rx;
      sync_files_tx += w.sync_files_tx;
      sync_bytes_tx += w.sync_bytes_tx;
      sync_files_skipped += w.sync_files_skipped;
      sync_bytes_skipped += w.sync_bytes_skipped;
      round_trips_max = std::max(round_trips_max, w.round_trips);
      spawns = std::max(spawns, w.spawn_count);
      resyncs = std::max(resyncs, w.resync_count);
    }
    wall_max_s += max_wall;
    if (sum_wall > 0) {
      imbalance +=
          max_wall / (sum_wall / static_cast<double>(workers.size()));
    }
  }

  void report(Report& r) const {
    const double it = std::max<double>(static_cast<double>(iterations), 1);
    const double rd = std::max<double>(static_cast<double>(rounds), 1);
    r.set("engine.iter_s_mean", wall_s / it, "s");
    r.set("phase1.partition_s", partition_s / it, "s");
    r.set("phase2.hash_s", hash_s / it, "s");
    r.set("phase3.pi_graph_s", pi_graph_s / it, "s");
    r.set("phase4.knn_s", knn_s / it, "s");
    r.set("phase4.score_s", score_s / it, "s");
    r.set("phase4.merge_s", merge_s / it, "s");
    r.set("phase5.update_s", update_s / it, "s");
    r.set("serve.publish_s", publish_s / it, "s");
    r.set("engine.iterations", static_cast<double>(iterations) / rd,
          "count");
    r.set("phase2.candidate_tuples",
          static_cast<double>(candidate_tuples) / rd, "count");
    r.set("phase2.unique_tuples", static_cast<double>(unique_tuples) / rd,
          "count");
    r.set("phase2.dedup_ratio",
          candidate_tuples ? static_cast<double>(unique_tuples) /
                                 static_cast<double>(candidate_tuples)
                           : 0.0,
          "ratio");
    r.set("phase3.pi_pairs", static_cast<double>(pi_pairs) / rd, "count");
    r.set("phase5.updates_applied",
          static_cast<double>(updates_applied) / rd, "count");
    r.set("storage.partition_loads",
          static_cast<double>(partition_loads) / rd, "count");
    r.set("storage.partition_unloads",
          static_cast<double>(partition_unloads) / rd, "count");
    r.set("storage.bytes_read", static_cast<double>(io.bytes_read) / rd,
          "bytes");
    r.set("storage.bytes_written",
          static_cast<double>(io.bytes_written) / rd, "bytes");
    r.set("storage.read_ops", static_cast<double>(io.read_ops) / rd,
          "count");
    r.set("storage.write_ops", static_cast<double>(io.write_ops) / rd,
          "count");
    r.set("shard.wall_max_s", wall_max_s / it, "s");
    r.set("shard.imbalance", imbalance / it, "ratio");
    r.set("shard.produce_s", produce_s / it, "s");
    r.set("shard.consume_s", consume_s / it, "s");
    r.set("shard.spooled_tuples", static_cast<double>(spooled_tuples) / rd,
          "count");
    r.set("shard.partitions_touched",
          static_cast<double>(partitions_touched) / rd, "count");
    r.set("shard.profile_reads", static_cast<double>(profile_reads) / rd,
          "count");
    r.set("shard.spawns", spawns, "count");
    r.set("shard.resyncs", resyncs, "count");
    r.set("ipc.bytes_tx", static_cast<double>(bytes_tx) / rd, "bytes");
    r.set("ipc.bytes_rx", static_cast<double>(bytes_rx) / rd, "bytes");
    r.set("ipc.round_trips_max", round_trips_max, "count");
    r.set("delta.profile_rows", static_cast<double>(profile_rows) / rd,
          "count");
    r.set("sync.files_tx", static_cast<double>(sync_files_tx) / rd, "count");
    r.set("sync.bytes_tx", static_cast<double>(sync_bytes_tx) / rd, "bytes");
    r.set("sync.files_skipped", static_cast<double>(sync_files_skipped) / rd,
          "count");
    r.set("sync.bytes_skipped", static_cast<double>(sync_bytes_skipped) / rd,
          "bytes");
    const std::uint64_t synced = sync_bytes_tx + sync_bytes_skipped;
    r.set("sync.skip_ratio",
          synced ? static_cast<double>(sync_bytes_skipped) /
                       static_cast<double>(synced)
                 : 0.0,
          "ratio");
  }
};

// ---------------------------------------------------------- serve layer

/// SnapshotSink decorator: times the publish the engine makes at the end
/// of each iteration, then forwards to the server.
class TimedSink final : public SnapshotSink {
 public:
  TimedSink(KnnServer& server, Trace& trace)
      : server_(server), trace_(trace) {}

  void publish(const KnnGraph& graph, const ProfileStore& profiles,
               std::span<const PartitionId> partition_of,
               std::uint32_t iteration) override {
    Trace::Span span(trace_, "serve.publish");
    last_start_ns = span.start_ns();
    const auto t0 = Clock::now();
    server_.publish(graph, profiles, partition_of, iteration);
    last_s = seconds_since(t0);
    last = server_.last_publish();
    retired = server_.retired_count();
    ++count;
  }

  std::uint64_t count = 0;
  double last_s = 0;
  std::int64_t last_start_ns = 0;
  PublishStats last;
  std::size_t retired = 0;

 private:
  KnnServer& server_;
  Trace& trace_;
};

/// Publish accounting over the measured iterations.
struct PublishLog {
  std::vector<double> ms;
  std::uint64_t graph_rows = 0, profile_rows = 0, bytes = 0;
  std::size_t retired_max = 0;

  void add(const TimedSink& sink) {
    ms.push_back(sink.last_s * 1e3);
    graph_rows += sink.last.graph_rows;
    profile_rows += sink.last.profile_rows;
    bytes += sink.last.graph_bytes + sink.last.profile_bytes;
    retired_max = std::max(retired_max, sink.retired);
  }

  void report(Report& r) const {
    const double n =
        static_cast<double>(std::max<std::size_t>(ms.size(), 1));
    r.set("serve.publish_ms_p50", percentile(ms, 50), "ms");
    r.set("serve.publish_ms_max", percentile(ms, 100), "ms");
    r.set("serve.publish_graph_rows", static_cast<double>(graph_rows) / n,
          "count");
    r.set("serve.publish_profile_rows",
          static_cast<double>(profile_rows) / n, "count");
    r.set("serve.publish_bytes", static_cast<double>(bytes) / n, "bytes");
    r.set("serve.retired_max", static_cast<double>(retired_max), "count");
  }
};

/// Exact top-k of `query` over every indexed profile, (score desc, id asc).
std::vector<VertexId> exact_top_k(const ProfileStore& profiles,
                                  const SparseProfile& query,
                                  SimilarityMeasure measure) {
  std::vector<Neighbor> all(profiles.num_users());
  for (VertexId v = 0; v < profiles.num_users(); ++v) {
    all[v] = {v, similarity(measure, query, profiles.get(v))};
  }
  const auto keep = std::min<std::size_t>(kK, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<long>(keep),
                    all.end(), [](const Neighbor& a, const Neighbor& b) {
                      return a.score != b.score ? a.score > b.score
                                                : a.id < b.id;
                    });
  std::vector<VertexId> ids;
  for (std::size_t i = 0; i < keep; ++i) ids.push_back(all[i].id);
  return ids;
}

/// Beam-search recall@k against exact search, single-threaded, over
/// kQueryRecallQueries query profiles drawn from `queries`.
double beam_recall(const ServeSnapshot& snapshot,
                   const std::vector<SparseProfile>& queries,
                   std::uint32_t search_l) {
  Rng rng(kRecallSeed);
  std::size_t hits = 0, wanted = 0;
  for (std::size_t i = 0; i < kQueryRecallQueries; ++i) {
    const SparseProfile& q = queries[rng.next_below(queries.size())];
    const std::vector<VertexId> truth =
        exact_top_k(snapshot.profiles, q, snapshot.measure);
    const QueryResult got = beam_search(snapshot, q, kK, search_l);
    for (const VertexId want : truth) {
      ++wanted;
      for (const Neighbor& have : got.neighbors) {
        if (have.id == want) {
          ++hits;
          break;
        }
      }
    }
  }
  return wanted ? static_cast<double>(hits) / static_cast<double>(wanted)
                : 0.0;
}

/// Serve-layer tallies shared by the reader threads and the probe.
struct QueryLog {
  /// Ad-hoc query latency from the request's due time, and the same
  /// requests' execution time alone (from the start of the call).
  std::vector<double> query_ms, query_exec_ms, topk_ms, late_ms;
  std::uint64_t attempted = 0, failed = 0, expanded = 0, scored = 0;
  /// Median lateness of the last fifth of a step's requests: a backlog
  /// that keeps growing shows here, a single stall does not.
  double tail_late_ms = 0;

  void merge(const QueryLog& o) {
    query_ms.insert(query_ms.end(), o.query_ms.begin(), o.query_ms.end());
    query_exec_ms.insert(query_exec_ms.end(), o.query_exec_ms.begin(),
                         o.query_exec_ms.end());
    topk_ms.insert(topk_ms.end(), o.topk_ms.begin(), o.topk_ms.end());
    late_ms.insert(late_ms.end(), o.late_ms.begin(), o.late_ms.end());
    attempted += o.attempted;
    failed += o.failed;
    expanded += o.expanded;
    scored += o.scored;
    tail_late_ms = std::max(tail_late_ms, o.tail_late_ms);
  }
};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One request: even slots read the indexed row, odd slots run an ad-hoc
/// beam query. Latency counts from `due`.
void serve_request(const KnnServer::Reader& reader, Trace& trace,
                   const std::vector<SparseProfile>& queries,
                   std::uint64_t slot, VertexId user, Clock::time_point due,
                   QueryLog& log) {
  ++log.attempted;
  try {
    if (slot % 2 == 0) {
      Trace::Span span(trace, "serve.top_k");
      (void)reader.top_k(user);
      log.topk_ms.push_back(ms_between(due, Clock::now()));
    } else {
      Trace::Span span(trace, "serve.query");
      const auto start = Clock::now();
      const QueryResult r = reader.query(queries[user], kK);
      const auto end = Clock::now();
      log.query_ms.push_back(ms_between(due, end));
      log.query_exec_ms.push_back(ms_between(start, end));
      log.expanded += r.stats.expanded;
      log.scored += r.stats.scored;
    }
  } catch (const std::exception& e) {
    ++log.failed;
    std::fprintf(stderr, "knnpc_bench: request failed: %s\n", e.what());
  }
}

/// Threads that run until `stop` is set. join() — and the destructor, on
/// an exception path — sets it and joins, so no reader outlives the
/// server and engine it reads from. An exception leaving a thread body is
/// reported and counted in `errors`.
class ThreadGroup {
 public:
  ThreadGroup() = default;
  ThreadGroup(const ThreadGroup&) = delete;
  ThreadGroup& operator=(const ThreadGroup&) = delete;
  ~ThreadGroup() { join(); }

  template <typename F>
  void spawn(F fn) {
    threads_.emplace_back([this, fn = std::move(fn)] {
      try {
        fn();
      } catch (const std::exception& e) {
        errors.fetch_add(1);
        std::fprintf(stderr, "knnpc_bench: thread failed: %s\n", e.what());
      }
    });
  }
  void join() {
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> errors{0};

 private:
  std::vector<std::thread> threads_;
};

/// Open-loop generator for one reader thread: request i of a step is due
/// at step_start + i / rate, whether or not earlier requests finished.
/// Steps run back to back; a step with duration <= 0 runs until `stop`.
struct Step {
  double rate_per_reader = 0;
  double duration_s = 0;
};

void open_loop_reader(const KnnServer& server, Trace& trace,
                      const std::vector<SparseProfile>& queries,
                      const std::vector<Step>& steps, Clock::time_point start,
                      std::uint64_t rng_seed, const std::atomic<bool>& stop,
                      std::vector<QueryLog>& logs) {
  const KnnServer::Reader reader = server.reader();
  Rng rng(rng_seed);
  Clock::time_point step_start = start;
  std::uint64_t slot = 0;
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const std::chrono::duration<double> interval(1.0 /
                                                 steps[s].rate_per_reader);
    const auto step_end =
        step_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(steps[s].duration_s));
    for (std::uint64_t i = 0;; ++i, ++slot) {
      const Clock::time_point due =
          step_start + std::chrono::duration_cast<Clock::duration>(interval * i);
      if (stop.load(std::memory_order_relaxed) ||
          (steps[s].duration_s > 0 && due >= step_end)) {
        break;
      }
      std::this_thread::sleep_until(due);
      logs[s].late_ms.push_back(ms_between(due, Clock::now()));
      const auto user = static_cast<VertexId>(rng.next_below(queries.size()));
      serve_request(reader, trace, queries, slot, user, due, logs[s]);
    }
    const std::vector<double>& late = logs[s].late_ms;
    logs[s].tail_late_ms = percentile(
        std::vector<double>(late.end() - static_cast<long>(late.size() / 5),
                            late.end()),
        50);
    step_start = step_end;
  }
}

/// Torn-snapshot canary: pins every new version it sees and recomputes
/// the graph checksum, which must equal the one stamped at publish.
void canary(const KnnServer& server, const std::atomic<bool>& stop,
            std::uint64_t& pins, std::uint64_t& torn) {
  const KnnServer::Reader reader = server.reader();
  std::uint64_t seen = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    if (reader.version() != seen) {
      const KnnServer::Reader::Pin pin = reader.pin();
      seen = pin->version;
      ++pins;
      if (knn_graph_checksum(pin->graph) != pin->graph_checksum) ++torn;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// ------------------------------------------------------------- workloads

struct Run {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool quick = false;
  std::uint64_t expect = 0;
};

/// Measurements common to every workload.
struct Common {
  std::vector<double> setup_s, graph_s, iter_s;
  Layers layers;
  PublishLog publishes;
  /// Every measured round's requests, pooled. The p50 is taken over the
  /// pool: on a shared host the bulk of the latencies can sit at one of
  /// two levels up to 30% apart in rounds of identical work, and a median
  /// over rounds would pick one of the two.
  QueryLog queries;
  /// Per-round tail percentiles; the reported ones are their medians, so
  /// one round with a burst of stalls cannot move the result.
  std::vector<double> query_p99_rounds, query_exec_p95_rounds,
      query_exec_p99_rounds;
  double recall = 0, query_recall = 0, recall_eval_s = 0;
  double workers_hwm_mb = 0;
  double max_qps = 0;
  std::uint64_t iterations_attempted = 0;
  // offline-build set-up steps.
  std::vector<double> ingest_s, load_s;
  OutOfCoreIngestStats ingest;

  void add_round_queries(const QueryLog& round) {
    if (!round.query_ms.empty()) {
      query_p99_rounds.push_back(percentile(round.query_ms, 99));
      query_exec_p95_rounds.push_back(percentile(round.query_exec_ms, 95));
      query_exec_p99_rounds.push_back(percentile(round.query_exec_ms, 99));
    }
    queries.merge(round);
  }
};

/// Runs one KnnEngine iteration inside an `engine.iteration` span and
/// lays the reported phase durations out as derived child spans.
IterationStats timed_iteration(KnnEngine& engine, Trace& trace,
                               TimedSink* sink, Common* measured) {
  Trace::Span span(trace, "engine.iteration");
  const std::uint64_t before = sink ? sink->count : 0;
  const auto t0 = Clock::now();
  IterationStats s = engine.run_iteration();
  const double wall = seconds_since(t0);
  const bool published = sink && sink->count > before;
  if (measured != nullptr) {
    measured->iter_s.push_back(wall);
    measured->layers.add(s, wall, published ? sink->last_s : 0.0);
    if (published) measured->publishes.add(*sink);
  }
  if (trace.enabled()) {
    const PhaseTimings& t = s.timings;
    std::int64_t at = span.start_ns();
    const std::pair<const char*, double> phases[] = {
        {"phase1.partition", t.partition_s},
        {"phase2.hash", t.hash_s},
        {"phase3.pi_graph", t.pi_graph_s},
        {"phase4.knn", t.knn_s}};
    for (const auto& [name, secs] : phases) {
      trace.derived(name, at, secs);
      at += static_cast<std::int64_t>(secs * 1e9);
      span.arg(name, secs);
    }
    const std::int64_t end =
        published ? sink->last_start_ns
                  : span.start_ns() + static_cast<std::int64_t>(wall * 1e9);
    trace.derived("phase5.update",
                  end - static_cast<std::int64_t>(t.update_s * 1e9),
                  t.update_s);
    span.arg("phase5.update", t.update_s);
    span.arg("change_rate", s.change_rate);
    span.arg("measured", measured != nullptr ? 1 : 0);
  }
  return s;
}

/// Sharded counterpart: derived children are driver phase 1, the slowest
/// worker's wall time, and driver phase 5.
ShardedIterationStats timed_iteration(ShardedKnnEngine& engine, Trace& trace,
                                      Common* measured) {
  Trace::Span span(trace, "engine.iteration");
  const auto t0 = Clock::now();
  ShardedIterationStats s = engine.run_iteration();
  const double wall = seconds_since(t0);
  if (measured != nullptr) {
    measured->iter_s.push_back(wall);
    measured->layers.add(s.merged, wall, 0.0);
    measured->layers.add_workers(s.workers);
  }
  if (trace.enabled()) {
    const double phase1 = s.merged.timings.partition_s;
    const double phase5 = s.merged.timings.update_s;
    double slowest = 0;
    std::string args;
    for (const ShardWorkerStats& w : s.workers) {
      slowest = std::max(slowest, w.wall_s());
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s\"shard%u_s\":%.9g",
                    args.empty() ? "" : ",", w.shard, w.wall_s());
      args += buf;
    }
    trace.derived("phase1.partition", span.start_ns(), phase1);
    trace.derived("shard.wave",
                  span.start_ns() + static_cast<std::int64_t>(phase1 * 1e9),
                  slowest, args);
    trace.derived("phase5.update",
                  span.start_ns() +
                      static_cast<std::int64_t>((wall - phase5) * 1e9),
                  phase5);
    span.arg("phase1.partition", phase1);
    span.arg("shard.wave", slowest);
    span.arg("phase5.update", phase5);
    span.arg("measured", measured != nullptr ? 1 : 0);
  }
  return s;
}

/// End-of-round serving probe for the workloads without readers: publish
/// the final graph to a fresh server — with the phase-1 range partition
/// map the engine itself would publish, so beam seeds cover every
/// partition — and issue kProbeQueries closed-loop ad-hoc queries from
/// one thread. On the warm-up round it measures beam recall instead.
void probe(const KnnGraph& graph, const InMemoryProfileStore& profiles,
           const std::vector<SparseProfile>& queries, std::uint64_t seed,
           Trace& trace, bool warm, Common& c) {
  const PartitionAssignment partition =
      make_partitioner("range")->assign(Digraph(graph.to_edge_list()),
                                        kPartitions);
  KnnServer server;
  server.publish(graph, profiles, partition.owners(), 0);
  const KnnServer::Reader reader = server.reader();
  if (warm) {
    const KnnServer::Reader::Pin pin = reader.pin();
    c.query_recall =
        beam_recall(*pin.get(), queries, server.config().search_l);
    return;
  }
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  QueryLog log;
  for (std::size_t i = 0; i < kProbeQueries; ++i) {
    const auto user = static_cast<VertexId>(rng.next_below(queries.size()));
    serve_request(reader, trace, queries, 2 * i + 1, user, Clock::now(), log);
  }
  c.add_round_queries(log);
}

/// Graph quality, once per run (every round ends in the same graph).
void evaluate_recall(const KnnGraph& graph, const ProfileStore& profiles,
                     Trace& trace, Common& c) {
  Trace::Span span(trace, "recall.eval");
  const auto t0 = Clock::now();
  c.recall = sampled_recall(graph, profiles, SimilarityMeasure::Cosine,
                            std::min<std::size_t>(kRecallSamples,
                                                  profiles.num_users()),
                            kRecallSeed, /*threads=*/1)
                 .recall;
  c.recall_eval_s = seconds_since(t0);
}

/// The round schedule every workload follows: round 0 warms caches and
/// allocators and runs the one-off quality evaluation, and its timings
/// are discarded; measured rounds then repeat until `seconds` have passed
/// since the warm-up ended. Every round runs every correctness check.
class Rounds {
 public:
  explicit Rounds(double seconds) : seconds_(seconds) {}

  [[nodiscard]] bool warm() const noexcept { return index_ == 0; }
  [[nodiscard]] std::uint32_t index() const noexcept { return index_; }
  /// True on a measured round that the window no longer has room after.
  /// The answer is fixed for the rest of the round, so a round that was
  /// told it is the last one is the last one, whatever next() reads.
  bool last() {
    if (!decided_) {
      last_ = index_ > 0 && Clock::now() >= deadline_;
      decided_ = true;
    }
    return last_;
  }
  /// Closes the current round; false once the measuring window is spent.
  bool next() {
    const bool more = index_ == 0 || !last();
    if (index_++ == 0) {
      deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(seconds_));
    }
    decided_ = false;
    return more;
  }

 private:
  double seconds_;
  std::uint32_t index_ = 0;
  Clock::time_point deadline_{};
  bool decided_ = false;
  bool last_ = false;
};

void write_ratings_file(const std::string& path,
                        const std::vector<SparseProfile>& profiles) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  for (std::size_t u = 0; u < profiles.size(); ++u) {
    for (const ProfileEntry& e : profiles[u].entries()) {
      std::fprintf(f, "%zu %u %.9g\n", u, static_cast<unsigned>(e.item),
                   static_cast<double>(e.weight));
    }
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

void run_offline(const Run& run, Trace& trace, Report& r, Common& c) {
  const Sizes z = sizes_for(run.workload, run.quick);
  const std::vector<SparseProfile> profiles =
      make_workload(scenario_of(run.workload), params_for(z, run.seed))
          .profiles;
  const ScratchDir dir("bench_offline");
  const std::string ratings = (dir.path() / "ratings.txt").string();
  const std::string store = (dir.path() / "profiles.kprs").string();
  write_ratings_file(ratings, profiles);
  OutOfCoreIngestConfig ingest_config;
  // Small enough that the file spills several sorted runs.
  ingest_config.memory_budget_bytes =
      run.quick ? kMinIngestBudgetBytes : 2u << 20;
  ingest_config.work_dir = dir.path().string();
  const EngineConfig config = engine_config(run.workload, run.seed);

  Rounds rounds(run.seconds);
  do {
    Trace::Span round(trace, "round");
    Common* measured = rounds.warm() ? nullptr : &c;
    // Every set-up builds the same engine; the round iterates the last.
    std::unique_ptr<KnnEngine> engine;
    for (std::uint32_t s = 0; s < kOfflineSetups; ++s) {
      engine.reset();
      const auto t0 = Clock::now();
      {
        Trace::Span span(trace, "setup.ingest");
        c.ingest = ingest_ratings_file(ratings, store, ingest_config);
      }
      const double ingest_done = seconds_since(t0);
      RatingsData data;
      {
        Trace::Span span(trace, "setup.load");
        data = load_profile_store(store);
      }
      const double load_done = seconds_since(t0);
      {
        Trace::Span span(trace, "setup.engine");
        engine = std::make_unique<KnnEngine>(config, std::move(data.profiles));
      }
      if (measured != nullptr) {
        c.setup_s.push_back(seconds_since(t0));
        c.ingest_s.push_back(ingest_done);
        c.load_s.push_back(load_done - ingest_done);
      }
    }
    if (measured == nullptr) {
      bool same = engine->profiles().num_users() == profiles.size();
      for (VertexId u = 0; same && u < profiles.size(); ++u) {
        same = engine->profiles().get(u) == profiles[u];
      }
      r.check("ingest.profiles_match_input", same);
    }

    const auto body = Clock::now();
    bool converged = false;
    for (std::uint32_t i = 0; i < kMaxOfflineIterations && !converged; ++i) {
      ++c.iterations_attempted;
      converged = timed_iteration(*engine, trace, nullptr, measured)
                      .change_rate < kConvergedRate;
    }
    if (measured != nullptr) c.graph_s.push_back(seconds_since(body));
    r.check("engine.converged", converged);
    r.check("graph.checksum_matches_oracle",
            knn_graph_checksum(engine->graph()) == run.expect);
    if (measured == nullptr) {
      evaluate_recall(engine->graph(), engine->profiles(), trace, c);
    }
    probe(engine->graph(), engine->profiles(), profiles, run.seed, trace,
          measured == nullptr, c);
    if (measured != nullptr) ++c.layers.rounds;
  } while (rounds.next());
}

void run_serve(const Run& run, Trace& trace, Report& r, Common& c) {
  const Sizes z = sizes_for(run.workload, run.quick);
  const WorkloadParams params = params_for(z, run.seed);
  // Query profiles: P(0), frozen, so ad-hoc queries stay comparable while
  // the indexed profiles churn.
  const std::vector<SparseProfile> queries =
      make_workload(scenario_of(run.workload), params).profiles;
  // Every reader scores these profiles, and SparseProfile::norm() fills an
  // unsynchronised cache on first use: fill it before any reader starts.
  for (const SparseProfile& q : queries) (void)q.norm();
  const EngineConfig config = engine_config(run.workload, run.seed);
  ServeConfig serve_config;
  serve_config.max_readers = kReaders + 2;  // + the canary and the checks

  std::uint64_t pins = 0, torn = 0;
  // Ladder steps above the base rate, run once, after the last round of a
  // traced run: only the per-layer serve.max_qps reads them.
  const std::vector<double> ladder_rates = {
      1.5 * z.rate_qps, 2 * z.rate_qps, 2.5 * z.rate_qps, 3 * z.rate_qps};
  std::vector<QueryLog> ladder(ladder_rates.size());
  Rounds rounds(run.seconds);
  do {
    Trace::Span round(trace, "round");
    Common* measured = rounds.warm() ? nullptr : &c;
    Workload w = make_workload(scenario_of(run.workload), params);
    KnnServer server(serve_config);
    TimedSink sink(server, trace);
    const auto t0 = Clock::now();
    std::unique_ptr<KnnEngine> engine;
    {
      Trace::Span span(trace, "setup.engine");
      engine = std::make_unique<KnnEngine>(config, std::move(w.profiles));
      engine->set_snapshot_sink(&sink);
    }
    {
      Trace::Span span(trace, "setup.first_iteration");
      w.tick(engine->update_queue(), z.users);
      ++c.iterations_attempted;
      (void)timed_iteration(*engine, trace, &sink, nullptr);
    }
    if (measured != nullptr) c.setup_s.push_back(seconds_since(t0));

    // Measured body: open-loop readers at the base rate plus the
    // torn-snapshot canary, while the engine churns through the round.
    {
      std::vector<std::vector<QueryLog>> logs(kReaders,
                                              std::vector<QueryLog>(1));
      std::uint64_t round_pins = 0, round_torn = 0;
      ThreadGroup group;
      const std::vector<Step> base = {{z.rate_qps / kReaders, 0}};
      const auto start = Clock::now();
      for (std::uint32_t t = 0; t < kReaders; ++t) {
        const std::uint64_t seed = run.seed * 131 + rounds.index() * 7 + t;
        group.spawn([&, t, seed] {
          open_loop_reader(server, trace, queries, base, start, seed,
                           group.stop, logs[t]);
        });
      }
      group.spawn([&] { canary(server, group.stop, round_pins, round_torn); });
      const auto body = Clock::now();
      for (std::uint32_t i = 0; i < z.iterations; ++i) {
        w.tick(engine->update_queue(), z.users);
        ++c.iterations_attempted;
        (void)timed_iteration(*engine, trace, &sink, measured);
      }
      if (measured != nullptr) c.graph_s.push_back(seconds_since(body));
      group.join();
      r.operations(group.errors, group.errors);
      QueryLog round_log;
      for (const auto& l : logs) round_log.merge(l[0]);
      if (measured != nullptr) {
        c.add_round_queries(round_log);
      } else {
        r.operations(round_log.attempted, round_log.failed);
      }
      pins += round_pins;
      torn += round_torn;
    }

    const KnnServer::Reader reader = server.reader();
    bool exact = true;
    for (VertexId u = 0; exact && u < z.users; ++u) {
      const std::vector<Neighbor> row = reader.top_k(u);
      const auto expect = engine->graph().neighbors(u);
      exact = std::equal(row.begin(), row.end(), expect.begin(), expect.end());
    }
    r.check("serve.top_k_equals_engine_graph", exact);
    r.check("graph.checksum_matches_oracle",
            knn_graph_checksum(engine->graph()) == run.expect);
    if (measured == nullptr) {
      evaluate_recall(engine->graph(), engine->profiles(), trace, c);
      const KnnServer::Reader::Pin pin = reader.pin();
      c.query_recall = beam_recall(*pin.get(), queries, serve_config.search_l);
      continue;
    }
    ++c.layers.rounds;
    if (!trace.enabled() || !rounds.last()) continue;

    // Rate ladder on the still-churning engine, one step per rate.
    std::vector<Step> steps;
    for (const double rate : ladder_rates) {
      steps.push_back({rate / kReaders, z.ladder_step_s});
    }
    std::vector<std::vector<QueryLog>> logs(
        kReaders, std::vector<QueryLog>(steps.size()));
    ThreadGroup group;
    const auto start = Clock::now();
    for (std::uint32_t t = 0; t < kReaders; ++t) {
      group.spawn([&, t] {
        open_loop_reader(server, trace, queries, steps, start,
                         run.seed * 977 + t, group.stop, logs[t]);
      });
    }
    const double ladder_s = z.ladder_step_s * static_cast<double>(steps.size());
    while (seconds_since(start) < ladder_s) {
      w.tick(engine->update_queue(), z.users);
      ++c.iterations_attempted;
      (void)timed_iteration(*engine, trace, &sink, nullptr);
    }
    group.join();
    r.operations(group.errors, group.errors);
    for (const auto& per_reader : logs) {
      for (std::size_t s = 0; s < steps.size(); ++s) {
        ladder[s].merge(per_reader[s]);
      }
    }
  } while (rounds.next());
  r.check("serve.no_torn_snapshot", torn == 0 && pins > 0);

  // The measured rounds are the ladder's first step.
  const auto step_ok = [](const QueryLog& l) {
    return l.failed == 0 && !l.query_ms.empty() &&
           percentile(l.query_ms, 99) <= kLadderP99LimitMs &&
           l.tail_late_ms <= kLadderLateLimitMs;
  };
  if (step_ok(c.queries)) {
    c.max_qps = z.rate_qps;
    for (std::size_t s = 0; s < ladder.size() && step_ok(ladder[s]); ++s) {
      c.max_qps = ladder_rates[s];
    }
  }
  for (const QueryLog& l : ladder) r.operations(l.attempted, l.failed);
}

/// One in-process loopback worker agent on a background thread — the
/// stand-in for a remote host (as in bench_shards --agents).
struct LoopbackAgent {
  ScratchDir scratch;
  WorkerAgent agent;
  std::thread thread;

  explicit LoopbackAgent(const std::string& tag)
      : scratch("bench_agent_" + tag),
        agent([&] {
          WorkerAgentConfig config;
          config.work_root = scratch.path();
          return config;
        }()),
        thread([this] { agent.run(); }) {}
  LoopbackAgent(const LoopbackAgent&) = delete;
  LoopbackAgent& operator=(const LoopbackAgent&) = delete;
  ~LoopbackAgent() {
    agent.stop();
    thread.join();
  }

  [[nodiscard]] std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(agent.port());
  }
};

void run_shards(const Run& run, Trace& trace, Report& r, Common& c) {
  const Sizes z = sizes_for(run.workload, run.quick);
  const WorkloadParams params = params_for(z, run.seed);
  const std::vector<SparseProfile> queries =
      make_workload(scenario_of(run.workload), params).profiles;
  const EngineConfig config = engine_config(run.workload, run.seed);
  ShardConfig shard_config;
  shard_config.shards = 4;
  shard_config.shard_partitioner = "pair-affinity";
  shard_config.worker_mode = ShardWorkerMode::Persistent;
  shard_config.worker_timeout_s = 120;
  // Agents are the machines the job runs on: they exist before set-up.
  std::vector<std::unique_ptr<LoopbackAgent>> agents;
  if (run.workload == "shards-agents") {
    for (int a = 0; a < 2; ++a) {
      agents.push_back(std::make_unique<LoopbackAgent>(std::to_string(a)));
      shard_config.worker_endpoints.push_back(agents.back()->endpoint());
    }
  }

  Rounds rounds(run.seconds);
  do {
    Trace::Span round(trace, "round");
    Common* measured = rounds.warm() ? nullptr : &c;
    Workload w = make_workload(scenario_of(run.workload), params);
    const auto t0 = Clock::now();
    std::unique_ptr<ShardedKnnEngine> engine;
    {
      Trace::Span span(trace, "setup.engine");
      engine = std::make_unique<ShardedKnnEngine>(config, shard_config,
                                                  std::move(w.profiles));
    }
    {
      Trace::Span span(trace, "setup.first_iteration");
      w.tick(engine->update_queue(), z.users);
      ++c.iterations_attempted;
      (void)timed_iteration(*engine, trace, nullptr);
    }
    if (measured != nullptr) c.setup_s.push_back(seconds_since(t0));

    const auto body = Clock::now();
    std::uint32_t max_round_trips = 0;
    std::uint64_t profile_reads = 0;
    for (std::uint32_t i = 0; i < z.iterations; ++i) {
      w.tick(engine->update_queue(), z.users);
      ++c.iterations_attempted;
      const ShardedIterationStats s = timed_iteration(*engine, trace, measured);
      for (const ShardWorkerStats& wk : s.workers) {
        max_round_trips = std::max(max_round_trips, wk.round_trips);
        profile_reads += wk.profile_reads;
      }
    }
    if (measured != nullptr) c.graph_s.push_back(seconds_since(body));
    c.workers_hwm_mb = std::max(c.workers_hwm_mb, children_hwm_mb());
    r.check("graph.checksum_matches_oracle",
            knn_graph_checksum(engine->graph()) == run.expect);
    r.check("ipc.one_round_trip_per_iteration", max_round_trips == 1);
    r.check("shard.no_profile_reads", profile_reads == 0);
    if (measured == nullptr) {
      evaluate_recall(engine->graph(), engine->profiles(), trace, c);
    }
    probe(engine->graph(), engine->profiles(), queries, run.seed, trace,
          measured == nullptr, c);
    if (measured != nullptr) ++c.layers.rounds;
  } while (rounds.next());
}

// --------------------------------------------------------------- oracle

/// Replays the workload's inputs and update sequence through the serial
/// KnnEngine (threads = 1) and returns the final graph's checksum.
std::uint64_t oracle_checksum(const std::string& workload, std::uint64_t seed,
                              bool quick) {
  const Sizes z = sizes_for(workload, quick);
  Workload w = make_workload(scenario_of(workload), params_for(z, seed));
  EngineConfig config = engine_config(workload, seed);
  config.threads = 1;
  KnnEngine engine(config, std::move(w.profiles));
  if (workload == "offline-build") {
    for (std::uint32_t i = 0; i < kMaxOfflineIterations; ++i) {
      if (engine.run_iteration().change_rate < kConvergedRate) break;
    }
  } else {
    // Set-up iteration plus the measured ones, each after its script tick.
    for (std::uint32_t i = 0; i < 1 + z.iterations; ++i) {
      w.tick(engine.update_queue(), z.users);
      (void)engine.run_iteration();
    }
  }
  return knn_graph_checksum(engine.graph());
}

Report run_workload(const Run& run, Trace& trace) {
  Report r;
  Common c;
  const CpuTicks start = read_cpu_ticks();
  if (run.workload == "offline-build") {
    run_offline(run, trace, r, c);
  } else if (run.workload == "serve-churn") {
    run_serve(run, trace, r, c);
  } else {
    run_shards(run, trace, r, c);
  }
  r.operations(c.iterations_attempted + c.queries.attempted,
               c.queries.failed);

  const double harness_mb = vm_hwm_mb("self");
  r.set("setup_s", median(c.setup_s), "s");
  r.set("graph_s", median(c.graph_s), "s");
  r.set("iter_s_p50", median(c.iter_s), "s");
  r.set("peak_rss_mb", harness_mb + c.workers_hwm_mb, "MB");
  r.set("recall", c.recall, "ratio");
  r.set("query_recall", c.query_recall, "ratio");
  r.set("query_p50_ms", median(c.queries.query_ms), "ms");
  r.set("query_exec_p95_ms", median(c.query_exec_p95_rounds), "ms");

  r.set("samples.rounds", static_cast<double>(c.layers.rounds), "count");
  r.set("samples.iterations", static_cast<double>(c.iter_s.size()), "count");
  r.set("samples.queries", static_cast<double>(c.queries.query_ms.size()),
        "count");
  c.layers.report(r);
  c.publishes.report(r);
  r.set("serve.max_qps", c.max_qps, "1/s");
  r.set("serve.gen_late_ms_p99", percentile(c.queries.late_ms, 99), "ms");
  r.set("serve.topk_p99_ms", percentile(c.queries.topk_ms, 99), "ms");
  r.set("serve.query_p99_ms", median(c.query_p99_rounds), "ms");
  r.set("serve.query_exec_p99_ms", median(c.query_exec_p99_rounds), "ms");
  const double adhoc = static_cast<double>(
      std::max<std::size_t>(c.queries.query_ms.size(), 1));
  r.set("serve.query_expanded_mean",
        static_cast<double>(c.queries.expanded) / adhoc, "count");
  r.set("serve.query_scored_mean",
        static_cast<double>(c.queries.scored) / adhoc, "count");
  r.set("ingest.s", median(c.ingest_s), "s");
  r.set("store.load_s", median(c.load_s), "s");
  r.set("ingest.lines", static_cast<double>(c.ingest.lines), "count");
  r.set("ingest.runs", static_cast<double>(c.ingest.runs), "count");
  r.set("ingest.bytes_spilled", static_cast<double>(c.ingest.bytes_spilled),
        "bytes");
  r.set("ingest.peak_memory_bytes",
        static_cast<double>(c.ingest.peak_memory_bytes), "bytes");
  r.set("recall.eval_s", c.recall_eval_s, "s");
  r.set("mem.harness_hwm_mb", harness_mb, "MB");
  r.set("mem.workers_hwm_mb", c.workers_hwm_mb, "MB");
  r.set("host.steal_pct", steal_pct(start), "%");
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  // Persistent shard workers re-execute this binary.
  if (const auto worker_exit = maybe_run_shard_worker(argc, argv)) {
    return *worker_exit;
  }
  Options opts;
  opts.add_string("workload",
                  "offline-build | serve-churn | shards-local | shards-agents",
                  "");
  opts.add_uint("seed", "input seed", 1007);
  opts.add_double("seconds", "measuring budget; rounds repeat until spent",
                  10.0);
  opts.add_string("expect", "final-graph checksum (hex) every round must match",
                  "");
  opts.add_string("trace", "write Chrome trace-event JSON to this file", "");
  opts.add_flag("oracle", "print the serial engine's checksum and exit");
  opts.add_flag("quick", "smoke-test sizes");
  try {
    if (!opts.parse(argc, argv)) return 0;
    Run run;
    run.workload = opts.get_string("workload");
    run.seed = opts.get_uint("seed");
    run.seconds = opts.get_double("seconds");
    run.quick = opts.get_flag("quick");
    (void)sizes_for(run.workload, run.quick);  // validates the name
    if (opts.get_flag("oracle")) {
      std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"checksum\":\"%016llx\"}\n",
                  run.workload.c_str(),
                  static_cast<unsigned long long>(run.seed),
                  static_cast<unsigned long long>(
                      oracle_checksum(run.workload, run.seed, run.quick)));
      return 0;
    }
    if (opts.get_string("expect").empty()) {
      throw std::invalid_argument("--expect is required (see --oracle)");
    }
    run.expect = std::stoull(opts.get_string("expect"), nullptr, 16);
    Trace trace(!opts.get_string("trace").empty());
    const Report report = run_workload(run, trace);
    if (trace.enabled() && !trace.write(opts.get_string("trace"))) {
      throw std::runtime_error("cannot write trace " +
                               opts.get_string("trace"));
    }
    std::printf("%s\n", report.json(run.workload, run.seed).c_str());
    return report.failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "knnpc_bench: %s\n", e.what());
    return 2;
  }
}
