#include "graph/knn_graph_io.h"

#include <cstring>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "util/fnv.h"
#include "util/serde.h"

namespace knnpc {
namespace {

constexpr char kMagic[4] = {'K', 'N', 'N', 'G'};
constexpr std::uint32_t kVersion = 1;

constexpr char kShardMagic[4] = {'K', 'S', 'H', 'R'};
constexpr std::uint32_t kShardVersion = 1;

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw std::runtime_error("load_knn_graph: truncated input");
  return value;
}

}  // namespace

void save_knn_graph(std::ostream& out, const KnnGraph& graph) {
  out.write(kMagic, sizeof(kMagic));
  write_pod(out, kVersion);
  write_pod(out, graph.num_vertices());
  write_pod(out, graph.k());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    const auto list = graph.neighbors(v);
    write_pod(out, static_cast<std::uint32_t>(list.size()));
    for (const Neighbor& n : list) {
      write_pod(out, n.id);
      write_pod(out, n.score);
    }
  }
  if (!out) throw std::runtime_error("save_knn_graph: write failed");
}

void save_knn_graph_file(const std::filesystem::path& path,
                         const KnnGraph& graph) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("save_knn_graph_file: cannot open " +
                             path.string());
  }
  save_knn_graph(out, graph);
  out.close();  // flush now, so a full disk fails the save
  if (!out) {
    throw std::runtime_error("save_knn_graph_file: write failed on " +
                             path.string());
  }
}

KnnGraph load_knn_graph(std::istream& in) {
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("load_knn_graph: bad magic");
  }
  const auto version = read_pod<std::uint32_t>(in);
  if (version != kVersion) {
    throw std::runtime_error("load_knn_graph: unsupported version " +
                             std::to_string(version));
  }
  const auto n = read_pod<VertexId>(in);
  const auto k = read_pod<std::uint32_t>(in);
  KnnGraph graph(n, k);
  for (VertexId v = 0; v < n; ++v) {
    const auto count = read_pod<std::uint32_t>(in);
    if (count > k) {
      throw std::runtime_error("load_knn_graph: neighbour count exceeds k");
    }
    std::vector<Neighbor> list;
    list.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      Neighbor nb;
      nb.id = read_pod<VertexId>(in);
      nb.score = read_pod<float>(in);
      if (nb.id >= n) {
        throw std::runtime_error("load_knn_graph: neighbour id out of range");
      }
      list.push_back(nb);
    }
    graph.set_neighbors(v, std::move(list));
  }
  return graph;
}

KnnGraph load_knn_graph_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("load_knn_graph_file: cannot open " +
                             path.string());
  }
  return load_knn_graph(in);
}

std::vector<std::byte> shard_result_to_bytes(const ShardResult& result) {
  std::vector<std::byte> bytes;
  bytes.reserve(40 + result.entries.size() * (8 + result.k * 8));
  for (const char c : kShardMagic) append_record(bytes, c);
  append_record(bytes, kShardVersion);
  append_record(bytes, result.shard);
  append_record(bytes, result.num_vertices);
  append_record(bytes, result.k);
  append_record(bytes, result.changed);
  append_record(bytes, static_cast<std::uint64_t>(result.entries.size()));
  for (const auto& [user, neighbors] : result.entries) {
    append_record(bytes, user);
    append_record(bytes, static_cast<std::uint32_t>(neighbors.size()));
    for (const Neighbor& n : neighbors) {
      append_record(bytes, n.id);
      append_record(bytes, n.score);
    }
  }
  return bytes;
}

ShardResult shard_result_from_bytes(std::span<const std::byte> bytes,
                                    const std::string& context) {
  std::size_t offset = 0;
  auto fail = [&](const std::string& what) -> std::runtime_error {
    return std::runtime_error("shard_result_from_bytes: " + what + " in " +
                              context);
  };
  auto read = [&]<typename T>(T& out) {
    if (!read_record(bytes, offset, out)) throw fail("truncated result");
  };
  char magic[4];
  for (char& c : magic) read(c);
  if (std::memcmp(magic, kShardMagic, sizeof(kShardMagic)) != 0) {
    throw fail("bad magic");
  }
  std::uint32_t version = 0;
  read(version);
  if (version != kShardVersion) {
    throw fail("unsupported version " + std::to_string(version));
  }
  ShardResult result;
  read(result.shard);
  read(result.num_vertices);
  read(result.k);
  read(result.changed);
  std::uint64_t count = 0;
  read(count);
  if (count > result.num_vertices) throw fail("entry count exceeds n");
  // Each entry takes at least 8 bytes (id + count); a corrupt header
  // must be rejected before it can drive a huge allocation.
  if (count > (bytes.size() - offset) / 8) {
    throw fail("entry count exceeds file size");
  }
  result.entries.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    VertexId user = 0;
    std::uint32_t neighbors = 0;
    read(user);
    read(neighbors);
    if (user >= result.num_vertices) throw fail("user id out of range");
    if (neighbors > result.k) throw fail("neighbour count exceeds k");
    std::vector<Neighbor> list;
    list.reserve(neighbors);
    for (std::uint32_t j = 0; j < neighbors; ++j) {
      Neighbor n;
      read(n.id);
      read(n.score);
      if (n.id >= result.num_vertices) {
        throw fail("neighbour id out of range");
      }
      list.push_back(n);
    }
    result.entries.emplace_back(user, std::move(list));
  }
  if (offset != bytes.size()) throw fail("trailing bytes");
  return result;
}

std::uint64_t knn_graph_checksum(const KnnGraph& graph) {
  // FNV-1a over the checkpoint serialisation fields, in file order.
  std::uint64_t h = kFnv1aOffset;
  auto mix = [&](std::uint64_t value) { h = fnv1a_mix(h, value); };
  mix(graph.num_vertices());
  mix(graph.k());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    const auto list = graph.neighbors(v);
    mix(list.size());
    for (const Neighbor& n : list) {
      std::uint32_t score_bits = 0;
      std::memcpy(&score_bits, &n.score, sizeof(score_bits));
      mix((static_cast<std::uint64_t>(n.id) << 32) | score_bits);
    }
  }
  return h;
}

}  // namespace knnpc
