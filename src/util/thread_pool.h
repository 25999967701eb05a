// Scalable fixed-size thread pool with chunked `parallel_for` /
// `parallel_reduce` helpers.
//
// KnnEngine runs phases 1, 2 and 4 on one of these (the paper's
// future-work "multiple threads"): the m partitions are sorted, packed and
// written in parallel, candidates are generated and deduplicated in
// source-user shards, and each loaded partition is decoded, and each PI
// pair's tuple bundle scored and merged, across the pool. The same pool
// drives the brute-force baseline, NN-Descent scoring and the
// sampled-recall estimator.
//
// Design (vs the original mutex+condvar+std::queue<std::packaged_task>
// pool, which paid one std::function + future allocation and two lock
// round-trips per chunk):
//
//  - A `parallel_for`/`parallel_reduce` call publishes ONE heap-allocated
//    job; workers claim chunks from it with a single atomic fetch_add per
//    chunk (dynamic scheduling, no per-chunk allocation, no per-chunk
//    locking).
//  - The calling thread participates in chunk execution instead of
//    blocking, so a pool of T workers applies T+1 threads to each loop.
//  - Ranges are over-decomposed (~4 chunks per thread, each at least
//    `min_chunk` items) so skewed bodies load-balance.
//  - `submit` keeps the classic future-returning task queue for irregular
//    work; workers drain it between jobs, and tasks submitted from inside
//    a worker body are legal ("nested submit") — they run once a thread
//    is free, so wait on such futures only after the enclosing
//    parallel_for returned.
//  - Calling `parallel_for`/`parallel_reduce` from *inside* one of this
//    pool's workers does not deadlock: the nested call degrades to inline
//    serial execution on the calling worker.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace knnpc {

/// Resolves a user-facing thread-count knob: `requested > 0` is taken
/// verbatim; `requested == 0` means "auto" — hardware concurrency clamped
/// so that every thread gets at least `work_per_thread` of the
/// `work_items` workload (small runs stay serial, large runs multi-thread
/// by default). Always returns >= 1.
std::uint32_t resolve_thread_count(std::uint32_t requested,
                                   std::uint64_t work_items,
                                   std::uint64_t work_per_thread = 16384);

/// Thread-safety: submit() may be called from any thread, including from
/// inside worker bodies. parallel_for()/parallel_reduce() may be issued
/// from multiple threads concurrently — callers serialise on an internal
/// mutex (one published job at a time), and a call from *inside* a worker
/// degrades to inline serial execution instead of deadlocking. The shard
/// driver therefore gives each shard worker its OWN pool: per-shard loops
/// never queue behind another shard's work.
///
/// Ownership: the pool owns its worker threads; the destructor lets
/// workers drain the pending task queue, then joins them. Callers own the
/// data their bodies touch — a body must not outlive the objects it
/// captures by reference (parallel_for blocks until every chunk finished,
/// which is what makes stack captures safe).
class ThreadPool {
 public:
  /// Spawns `threads` workers (>=1; 0 is clamped to 1).
  explicit ThreadPool(std::size_t threads);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task; returns a future for its completion. May be called
  /// from inside a worker body (the task runs when a thread frees up).
  std::future<void> submit(std::function<void()> task);

  /// Splits [begin, end) into contiguous chunks of at least `min_chunk`
  /// items (except possibly the last) and runs `body(chunk_begin,
  /// chunk_end)` across the pool plus the calling thread. Blocks until all
  /// chunks are done.
  ///
  /// Exception contract: every chunk is attempted even when an earlier
  /// chunk throws; once all chunks finished, the exception thrown by the
  /// LOWEST chunk index (i.e. the smallest `chunk_begin`) is rethrown and
  /// the rest are discarded. This makes the observed exception
  /// deterministic regardless of thread scheduling.
  template <typename Body>
  void parallel_for(std::size_t begin, std::size_t end, Body&& body,
                    std::size_t min_chunk = 1024) {
    using B = std::remove_reference_t<Body>;
    run_chunks(begin, end, min_chunk,
               [](void* ctx, std::size_t /*chunk*/, std::size_t lo,
                  std::size_t hi) { (*static_cast<B*>(ctx))(lo, hi); },
               &body);
  }

  /// Parallel map-reduce over [begin, end): `map(chunk_begin, chunk_end)`
  /// produces one partial result per chunk; partials are folded with
  /// `combine(accumulator, partial)` strictly in ascending chunk order
  /// (starting from `identity`), on the calling thread. With a
  /// deterministic `map`, the result is therefore independent of thread
  /// scheduling — the phase-4 top-K merges rely on this. Exceptions follow
  /// the parallel_for contract (lowest chunk index wins).
  template <typename T, typename Map, typename Combine>
  T parallel_reduce(std::size_t begin, std::size_t end, T identity, Map&& map,
                    Combine&& combine, std::size_t min_chunk = 1024) {
    if (begin >= end) return identity;
    const ChunkPlan plan = plan_chunks(begin, end, min_chunk);
    if (plan.num_chunks <= 1) {
      return combine(std::move(identity), map(begin, end));
    }
    struct Ctx {
      std::remove_reference_t<Map>* map;
      std::optional<T>* partials;
    };
    std::vector<std::optional<T>> partials(plan.num_chunks);
    Ctx ctx{&map, partials.data()};
    run_chunks(begin, end, min_chunk,
               [](void* c, std::size_t chunk, std::size_t lo,
                  std::size_t hi) {
                 auto* x = static_cast<Ctx*>(c);
                 x->partials[chunk].emplace((*x->map)(lo, hi));
               },
               &ctx);
    T acc = std::move(identity);
    for (auto& partial : partials) {
      acc = combine(std::move(acc), std::move(*partial));
    }
    return acc;
  }

 private:
  struct Job;
  struct ChunkPlan {
    std::size_t num_chunks = 0;
    std::size_t chunk_size = 0;
  };
  /// `fn(ctx, chunk_index, chunk_begin, chunk_end)`; a plain function
  /// pointer + context so a loop costs zero std::function allocations.
  using ChunkFn = void (*)(void*, std::size_t, std::size_t, std::size_t);

  [[nodiscard]] ChunkPlan plan_chunks(std::size_t begin, std::size_t end,
                                      std::size_t min_chunk) const;
  void run_chunks(std::size_t begin, std::size_t end, std::size_t min_chunk,
                  ChunkFn fn, void* ctx);
  /// Claims and executes chunks of `job` until none remain.
  void work_on(Job& job);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_;       // wakes workers: job / task / stop
  std::condition_variable done_cv_;  // wakes run_chunks when a job drains
  std::queue<std::packaged_task<void()>> tasks_;
  std::shared_ptr<Job> job_;     // active parallel loop, if any
  std::uint64_t job_epoch_ = 0;  // bumped per published job
  bool stop_ = false;
  /// Serialises concurrent parallel_for/parallel_reduce callers (the
  /// single job slot holds one loop at a time).
  std::mutex run_mutex_;
};

}  // namespace knnpc
