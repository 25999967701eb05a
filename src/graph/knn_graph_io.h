// Binary (de)serialisation of scored KNN graphs and per-shard results.
//
// Whole-graph format (little endian):
//   magic "KNNG" (4 bytes), u32 version, u32 n, u32 k,
//   then per vertex: u32 count, count x {u32 id, f32 score}.
//
// Used by KnnEngine's per-iteration checkpoints (EngineConfig::checkpoint)
// so a long run can resume after a crash — part of the "commodity PC"
// operational story.
//
// Shard-result format ("KSHR", the persistent worker -> driver handoff,
// carried inline by ITERATION_DONE replies):
//   magic "KSHR" (4 bytes), u32 version, u32 shard, u32 n, u32 k,
//   u64 changed, u64 entry count,
//   then per owned user: u32 id, u32 count, count x {u32 id, f32 score}.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/knn_graph.h"

namespace knnpc {

void save_knn_graph(std::ostream& out, const KnnGraph& graph);
void save_knn_graph_file(const std::filesystem::path& path,
                         const KnnGraph& graph);

/// Throws std::runtime_error on bad magic, version, or truncation.
KnnGraph load_knn_graph(std::istream& in);
KnnGraph load_knn_graph_file(const std::filesystem::path& path);

/// One shard worker's phase-4 output: the new top-K lists of exactly the
/// users that shard owns, plus the exact change count over those users
/// (summed by the driver to reproduce the serial change rate bit-for-bit).
struct ShardResult {
  std::uint32_t shard = 0;
  /// Vertex count of the full graph (validation against the driver's n).
  VertexId num_vertices = 0;
  std::uint32_t k = 0;
  /// KnnGraph::change_count summed over the owned users.
  std::uint64_t changed = 0;
  /// (user, neighbours) in ascending user order; owned users only.
  std::vector<std::pair<VertexId, std::vector<Neighbor>>> entries;
};

/// The "KSHR" serialisation as bytes.
std::vector<std::byte> shard_result_to_bytes(const ShardResult& result);

/// Parses "KSHR" bytes; throws std::runtime_error on bad magic, version,
/// truncation, trailing bytes, or out-of-range user / neighbour ids (a
/// worker must never smuggle a corrupt result past the driver).
/// `context` names the source in error messages (e.g. a worker id).
ShardResult shard_result_from_bytes(std::span<const std::byte> bytes,
                                    const std::string& context);

/// Order-sensitive 64-bit checksum over (n, k, every vertex's neighbour
/// list: id + score bits). Two graphs have equal checksums iff their
/// serialised forms match byte-for-byte — the cheap way for the
/// determinism tests and the benchmark harness to compare a sharded run
/// against the serial reference without holding both graphs.
std::uint64_t knn_graph_checksum(const KnnGraph& graph);

}  // namespace knnpc
