#include "core/stats_io.h"

#include <ostream>
#include <sstream>

namespace knnpc {

void write_iteration_json(std::ostream& out, const IterationStats& s) {
  out << "{\"iteration\":" << s.iteration
      << ",\"partition_s\":" << s.timings.partition_s
      << ",\"hash_s\":" << s.timings.hash_s
      << ",\"pi_graph_s\":" << s.timings.pi_graph_s
      << ",\"knn_s\":" << s.timings.knn_s
      << ",\"update_s\":" << s.timings.update_s
      << ",\"total_s\":" << s.timings.total()
      << ",\"candidate_tuples\":" << s.candidate_tuples
      << ",\"unique_tuples\":" << s.unique_tuples
      << ",\"pi_pairs\":" << s.pi_pairs
      << ",\"partition_loads\":" << s.partition_loads
      << ",\"partition_unloads\":" << s.partition_unloads
      << ",\"bytes_read\":" << s.io.bytes_read
      << ",\"bytes_written\":" << s.io.bytes_written
      << ",\"read_ops\":" << s.io.read_ops
      << ",\"write_ops\":" << s.io.write_ops
      << ",\"modeled_io_us\":" << s.modeled_io_us
      << ",\"change_rate\":" << s.change_rate
      << ",\"profile_updates_applied\":" << s.profile_updates_applied;
  if (s.partition_cost_total) {
    out << ",\"partition_cost_total\":" << *s.partition_cost_total;
  }
  if (s.sampled_recall) {
    out << ",\"sampled_recall\":" << *s.sampled_recall;
  }
  out << "}";
}

void write_run_json(std::ostream& out, const RunStats& run) {
  out << "{\"converged\":" << (run.converged ? "true" : "false")
      << ",\"total_seconds\":" << run.total_seconds
      << ",\"iterations\":[\n";
  for (std::size_t i = 0; i < run.iterations.size(); ++i) {
    if (i > 0) out << ",\n";
    write_iteration_json(out, run.iterations[i]);
  }
  out << "\n]}\n";
}

std::string run_to_json(const RunStats& run) {
  std::ostringstream out;
  write_run_json(out, run);
  return out.str();
}

void write_shard_workers_json(
    std::ostream& out, const std::vector<ShardedIterationStats>& iterations) {
  out << "{\"iterations\":[\n";
  for (std::size_t i = 0; i < iterations.size(); ++i) {
    if (i > 0) out << ",\n";
    const ShardedIterationStats& it = iterations[i];
    out << "{\"iteration\":" << it.merged.iteration << ",\"workers\":[";
    for (std::size_t w = 0; w < it.workers.size(); ++w) {
      if (w > 0) out << ",";
      const ShardWorkerStats& s = it.workers[w];
      out << "{\"shard\":" << s.shard << ",\"users\":" << s.users
          << ",\"produce_s\":" << s.produce_s
          << ",\"consume_s\":" << s.consume_s
          << ",\"spooled_tuples\":" << s.spooled_tuples
          << ",\"spawn_count\":" << s.spawn_count
          << ",\"resync_count\":" << s.resync_count
          << ",\"bytes_tx\":" << s.bytes_tx
          << ",\"bytes_rx\":" << s.bytes_rx
          << ",\"round_trips\":" << s.round_trips
          << ",\"partitions_touched\":" << s.partitions_touched
          << ",\"profile_reads\":" << s.profile_reads
          << ",\"profile_rows_rx\":" << s.profile_rows_rx << "}";
    }
    out << "]}";
  }
  out << "\n]}\n";
}

}  // namespace knnpc
