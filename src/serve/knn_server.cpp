#include "serve/knn_server.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "graph/knn_graph_delta.h"
#include "graph/knn_graph_io.h"
#include "profiles/flat_profile.h"
#include "profiles/profile_delta.h"
#include "profiles/similarity_kernels.h"

namespace knnpc {

/// Beam-search state reused across one Reader's queries: once grown, a
/// query allocates nothing but its result.
struct BeamSearchContext {
  /// Beam ordering: better = higher score, ties broken towards the lower
  /// id — the same (score desc, id asc) rule the engine's top-K uses, so
  /// query results are deterministic per snapshot.
  struct Candidate {
    float score = 0.0f;
    VertexId id = kInvalidVertex;
    bool expanded = false;
  };
  static bool better(const Candidate& a, const Candidate& b) noexcept {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  }

  /// Starts a query over a snapshot of n vertices. Marks stamped with an
  /// older epoch read as unvisited; every mark is reset when n changes or
  /// the epoch would wrap.
  void begin(VertexId n) {
    if (visited.size() != n ||
        epoch == std::numeric_limits<std::uint8_t>::max()) {
      visited.assign(n, 0);
      epoch = 0;
    }
    ++epoch;
  }

  /// The current query, packed as one row: its items go into `items`.
  FlatProfileSet query;
  ItemTable items;
  KernelScratch scratch;
  /// visited[v] == epoch: v was offered during the current query. A byte
  /// per vertex keeps a 20k-user snapshot's marks in 20 KB, at the price
  /// of one reset per 255 queries.
  std::vector<std::uint8_t> visited;
  std::uint8_t epoch = 0;
  std::vector<Candidate> cands;  // the beam, best first
};

namespace {

/// splitmix64 finaliser — decorrelates seed picks from any periodic
/// structure in the id space (synthetic workloads assign users to
/// clusters by id modulus; a plain fixed stride can alias with it and
/// systematically miss clusters).
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// seeds_per_partition representatives of each partition: evenly spaced
/// over its members (ascending-id order) with a hashed per-partition
/// offset, so the seed set covers every partition's id range without
/// lining up across partitions. An empty owner map falls back to hashed
/// strides over [0, n). Deterministic for a given (owner map, n, per).
std::vector<VertexId> compute_seeds(std::span<const PartitionId> partition_of,
                                    VertexId n,
                                    std::uint32_t seeds_per_partition) {
  const std::uint32_t per = std::max<std::uint32_t>(seeds_per_partition, 1);
  std::vector<VertexId> seeds;
  if (n == 0) return seeds;
  auto pick = [&](const auto& pool, std::uint64_t salt) {
    const std::size_t size = pool.size();
    if (size == 0) return;
    const std::size_t count = std::min<std::size_t>(size, per);
    const std::size_t offset = mix64(salt) % size;
    for (std::size_t i = 0; i < count; ++i) {
      seeds.push_back(pool[(offset + (i * size) / count) % size]);
    }
  };
  if (partition_of.size() != n) {
    // No (usable) assignment: treat the id space as 16 strided pools.
    std::vector<VertexId> all(n);
    for (VertexId v = 0; v < n; ++v) all[v] = v;
    for (std::uint64_t pool = 0; pool < 16; ++pool) pick(all, pool);
  } else {
    PartitionId m = 0;
    for (const PartitionId p : partition_of) {
      if (p != kInvalidPartition) m = std::max<PartitionId>(m, p + 1);
    }
    std::vector<std::vector<VertexId>> members(m);
    for (VertexId v = 0; v < n; ++v) {
      if (partition_of[v] != kInvalidPartition) {
        members[partition_of[v]].push_back(v);  // ascending by loop order
      }
    }
    for (PartitionId p = 0; p < m; ++p) pick(members[p], p);
  }
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  return seeds;
}

QueryResult beam_search(const ServeSnapshot& snapshot,
                        const SparseProfile& query, std::uint32_t k,
                        std::uint32_t search_l, BeamSearchContext& ctx) {
  using Candidate = BeamSearchContext::Candidate;
  QueryResult out;
  out.stats.version = snapshot.version;
  const VertexId n = snapshot.graph.num_vertices();
  if (n == 0 || k == 0) return out;
  const std::size_t beam = std::max<std::uint32_t>(search_l, k);

  ctx.begin(n);
  ctx.query.clear();
  ctx.query.add(0, query);
  const ItemTable::Source source(ctx.items, ctx.query.view(0));
  std::vector<Candidate>& cands = ctx.cands;
  cands.clear();
  cands.reserve(beam + 1);

  auto offer = [&](VertexId v) {
    if (ctx.visited[v] == ctx.epoch) return;
    ctx.visited[v] = ctx.epoch;
    ++out.stats.scored;
    const SparseProfile& profile = snapshot.profiles.get(v);
    const Candidate c{
        source.indexed()
            ? source.score(profile, snapshot.measure, ctx.scratch)
            : similarity(snapshot.measure, query, profile),
        v, false};
    if (cands.size() >= beam && !BeamSearchContext::better(c, cands.back())) {
      return;
    }
    cands.insert(std::lower_bound(cands.begin(), cands.end(), c,
                                  BeamSearchContext::better),
                 c);
    if (cands.size() > beam) cands.pop_back();
  };

  for (const VertexId s : snapshot.seeds) offer(s);

  // Sorted-candidate-queue walk: repeatedly expand the best candidate not
  // yet expanded, offering both its out-neighbours and its in-neighbours.
  // Terminates when every candidate inside the beam has been expanded —
  // the diskAnnSearchInternal convergence condition.
  for (;;) {
    auto it = std::find_if(cands.begin(), cands.end(),
                           [](const Candidate& c) { return !c.expanded; });
    if (it == cands.end()) break;
    it->expanded = true;
    const VertexId v = it->id;  // `it` is invalidated by offer() below
    ++out.stats.expanded;
    for (const Neighbor& nb : snapshot.graph.neighbors(v)) offer(nb.id);
    for (const VertexId in : snapshot.reverse.in_neighbors(v)) offer(in);
  }

  const std::size_t keep = std::min<std::size_t>(k, cands.size());
  out.neighbors.reserve(keep);
  for (std::size_t i = 0; i < keep; ++i) {
    out.neighbors.push_back({cands[i].id, cands[i].score});
  }
  return out;
}

}  // namespace

QueryResult beam_search(const ServeSnapshot& snapshot,
                        const SparseProfile& query, std::uint32_t k,
                        std::uint32_t search_l) {
  BeamSearchContext context;
  return beam_search(snapshot, query, k, search_l, context);
}

KnnServer::KnnServer(ServeConfig config)
    : config_(config),
      hazard_(std::max<std::uint32_t>(config.max_readers, 1)),
      slot_taken_(std::max<std::uint32_t>(config.max_readers, 1)) {}

KnnServer::~KnnServer() {
  // Contract: all Readers are gone, so no hazard slot is live and
  // everything retired (plus the live snapshot) can be freed.
  for (const ServeSnapshot* s : retired_) delete s;
  delete live_.load(std::memory_order_acquire);
}

void KnnServer::publish(const KnnGraph& graph, const ProfileStore& profiles,
                        std::span<const PartitionId> partition_of,
                        std::uint32_t iteration) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  const ServeSnapshot* cur = live_.load(std::memory_order_acquire);
  const VertexId n = graph.num_vertices();
  if (profiles.num_users() != n) {
    throw std::invalid_argument(
        "KnnServer::publish: graph and profile sizes differ");
  }

  auto next = std::make_unique<ServeSnapshot>();
  PublishStats stats;
  const bool incremental = cur != nullptr &&
                           cur->graph.num_vertices() == n &&
                           cur->graph.k() == graph.k();
  // Publication is the delta stream: both paths serialise KDLT/KPRD
  // bytes and apply the *parsed* bytes to the base state, so what the
  // server swaps in is exactly what a remote subscriber of the stream
  // would reconstruct. The incremental path bases on a copy of the
  // current snapshot and ships only changed rows; the full path bases on
  // empty state and ships every row (the same shape a persistent-worker
  // respawn resync uses).
  KnnGraphDelta graph_rows;
  ProfileDelta profile_rows;
  if (incremental) {
    next->graph = cur->graph;
    next->profiles = cur->profiles;
    graph_rows = knn_graph_delta(cur->graph, graph);
    profile_rows = profile_delta(cur->profiles, profiles);
  } else {
    next->graph = KnnGraph(n, graph.k());
    next->profiles =
        InMemoryProfileStore(std::vector<SparseProfile>(n));
    graph_rows = full_knn_graph_delta(graph);
    profile_rows = full_profile_delta(profiles);
    stats.full = true;
  }
  const std::vector<std::byte> graph_bytes =
      knn_graph_delta_to_bytes(graph_rows);
  const std::vector<std::byte> profile_bytes =
      profile_delta_to_bytes(profile_rows);
  apply_knn_graph_delta(next->graph,
                        knn_graph_delta_from_bytes(graph_bytes));
  apply_profile_delta(next->profiles,
                      profile_delta_from_bytes(profile_bytes));
  stats.graph_rows = static_cast<std::uint32_t>(graph_rows.rows.size());
  stats.profile_rows = static_cast<std::uint32_t>(profile_rows.rows.size());
  stats.graph_bytes = graph_bytes.size();
  stats.profile_bytes = profile_bytes.size();

  next->version = next_version_++;
  next->iteration = iteration;
  next->measure = config_.measure;
  next->reverse = build_reverse_adjacency(next->graph);
  next->seeds = compute_seeds(partition_of, n, config_.seeds_per_partition);
  next->graph_checksum = knn_graph_checksum(next->graph);

  stats.version = next->version;
  last_publish_ = stats;
  const std::uint64_t version = next->version;
  swap_and_retire(std::move(next));
  published_version_.store(version, std::memory_order_release);
}

void KnnServer::swap_and_retire(std::unique_ptr<const ServeSnapshot> next) {
  const ServeSnapshot* old =
      live_.exchange(next.release(), std::memory_order_seq_cst);
  if (old != nullptr) retired_.push_back(old);
  // Hazard scan: a snapshot still announced in some slot stays on the
  // retired list for a later publish (or the destructor) to reclaim.
  std::vector<const ServeSnapshot*> still_pinned;
  for (const ServeSnapshot* candidate : retired_) {
    bool pinned = false;
    for (const auto& slot : hazard_) {
      if (slot.load(std::memory_order_seq_cst) == candidate) {
        pinned = true;
        break;
      }
    }
    if (pinned) {
      still_pinned.push_back(candidate);
    } else {
      delete candidate;
    }
  }
  retired_ = std::move(still_pinned);
}

PublishStats KnnServer::last_publish() const {
  std::lock_guard<std::mutex> lock(publish_mu_);
  return last_publish_;
}

std::size_t KnnServer::retired_count() const {
  std::lock_guard<std::mutex> lock(publish_mu_);
  return retired_.size();
}

KnnServer::Reader KnnServer::reader() const {
  for (std::uint32_t i = 0; i < slot_taken_.size(); ++i) {
    bool expected = false;
    if (slot_taken_[i].compare_exchange_strong(expected, true,
                                               std::memory_order_acq_rel)) {
      return Reader(this, i);
    }
  }
  throw std::runtime_error(
      "KnnServer::reader: all " + std::to_string(slot_taken_.size()) +
      " reader slots are taken (ServeConfig::max_readers)");
}

KnnServer::Reader::Reader(const KnnServer* server, std::uint32_t slot)
    : server_(server),
      slot_(slot),
      context_(std::make_unique<BeamSearchContext>()) {}

KnnServer::Reader::Reader(Reader&& other) noexcept
    : server_(std::exchange(other.server_, nullptr)),
      slot_(other.slot_),
      context_(std::move(other.context_)) {}

KnnServer::Reader& KnnServer::Reader::operator=(Reader&& other) noexcept {
  if (this != &other) {
    give_back_slot();
    server_ = std::exchange(other.server_, nullptr);
    slot_ = other.slot_;
    context_ = std::move(other.context_);
  }
  return *this;
}

KnnServer::Reader::~Reader() { give_back_slot(); }

void KnnServer::Reader::give_back_slot() noexcept {
  if (server_ == nullptr) return;
  server_->hazard_[slot_].store(nullptr, std::memory_order_release);
  server_->slot_taken_[slot_].store(false, std::memory_order_release);
  server_ = nullptr;
}

const ServeSnapshot* KnnServer::Reader::acquire() const {
  std::atomic<const ServeSnapshot*>& slot = server_->hazard_[slot_];
  const ServeSnapshot* snap =
      server_->live_.load(std::memory_order_seq_cst);
  for (;;) {
    // Announce, then re-validate: once the announced pointer is still
    // live, the publisher's retire scan is guaranteed to see the
    // announcement before it could free the snapshot.
    slot.store(snap, std::memory_order_seq_cst);
    const ServeSnapshot* again =
        server_->live_.load(std::memory_order_seq_cst);
    if (again == snap) return snap;
    snap = again;
  }
}

void KnnServer::Reader::release() const {
  server_->hazard_[slot_].store(nullptr, std::memory_order_release);
}

std::vector<Neighbor> KnnServer::Reader::top_k(VertexId user) const {
  const Pin pinned = pin();  // releases the hazard slot on every path
  const ServeSnapshot* snap = pinned.get();
  if (snap == nullptr) {
    throw std::logic_error("KnnServer: nothing published yet");
  }
  if (user >= snap->graph.num_vertices()) {
    throw std::out_of_range("KnnServer::top_k: unknown user " +
                            std::to_string(user));
  }
  const std::span<const Neighbor> row = snap->graph.neighbors(user);
  return std::vector<Neighbor>(row.begin(), row.end());
}

QueryResult KnnServer::Reader::query(const SparseProfile& query_profile,
                                     std::uint32_t k,
                                     std::uint32_t search_l) const {
  const Pin pinned = pin();
  const ServeSnapshot* snap = pinned.get();
  if (snap == nullptr) {
    throw std::logic_error("KnnServer: nothing published yet");
  }
  if (search_l == 0) search_l = server_->config_.search_l;
  return beam_search(*snap, query_profile, k, search_l, *context_);
}

std::uint64_t KnnServer::Reader::version() const {
  const Pin pinned = pin();
  return pinned.get() == nullptr ? 0 : pinned->version;
}

KnnServer::Reader::Pin KnnServer::Reader::pin() const {
  return Pin(this, acquire());
}

KnnServer::Reader::Pin::~Pin() { reader_->release(); }

}  // namespace knnpc
