// JSON export of engine run statistics — the machine-readable face of
// EXPERIMENTS.md. No external JSON dependency: the schema is flat enough
// to emit directly.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/shard_driver.h"

namespace knnpc {

/// Writes one iteration's stats as a JSON object (single line).
void write_iteration_json(std::ostream& out, const IterationStats& stats);

/// Writes a whole run as {"converged":..., "total_seconds":...,
/// "iterations":[...]} (pretty-printed, one iteration per line).
void write_run_json(std::ostream& out, const RunStats& run);

/// Convenience: render a run to a string.
std::string run_to_json(const RunStats& run);

/// Writes per-shard worker observability for a sequence of sharded
/// iterations: {"iterations":[{"iteration":..,"workers":[{...}]}]} with
/// one object per ShardWorkerStats — phase timings, supervision
/// (spawn/resync), channel traffic and phase-4 partition reads.
void write_shard_workers_json(
    std::ostream& out, const std::vector<ShardedIterationStats>& iterations);

}  // namespace knnpc
