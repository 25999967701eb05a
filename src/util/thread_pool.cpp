#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <utility>

namespace knnpc {
namespace {

/// Set while a thread is executing inside a pool's worker loop; used to
/// detect nested parallel loops (which degrade to inline execution).
thread_local const ThreadPool* t_worker_of = nullptr;

}  // namespace

std::uint32_t resolve_thread_count(std::uint32_t requested,
                                   std::uint64_t work_items,
                                   std::uint64_t work_per_thread) {
  if (requested > 0) return requested;
  std::uint64_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  work_per_thread = std::max<std::uint64_t>(work_per_thread, 1);
  const std::uint64_t by_work =
      std::max<std::uint64_t>(work_items / work_per_thread, 1);
  return static_cast<std::uint32_t>(std::min(by_work, hw));
}

/// One published parallel loop. Lives on the heap behind shared_ptr so a
/// straggling worker that grabbed the job pointer right before the loop
/// drained can still touch `next` safely after run_chunks returned.
struct ThreadPool::Job {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t chunk_size = 0;
  std::size_t num_chunks = 0;
  ChunkFn fn = nullptr;
  void* ctx = nullptr;
  std::atomic<std::size_t> next{0};  // next chunk index to claim
  std::atomic<std::size_t> done{0};  // chunks finished (incl. thrown)
  std::mutex exc_mutex;
  std::size_t exc_chunk = std::numeric_limits<std::size_t>::max();
  std::exception_ptr exc;
};

ThreadPool::ThreadPool(std::size_t threads) {
  threads = std::max<std::size_t>(threads, 1);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

ThreadPool::ChunkPlan ThreadPool::plan_chunks(std::size_t begin,
                                              std::size_t end,
                                              std::size_t min_chunk) const {
  ChunkPlan plan;
  if (begin >= end) return plan;
  const std::size_t total = end - begin;
  min_chunk = std::max<std::size_t>(min_chunk, 1);
  // Over-decompose (~4 chunks per thread, calling thread included) so the
  // atomic work counter load-balances skewed bodies, but never drop a
  // chunk below min_chunk items.
  const std::size_t max_chunks = std::max<std::size_t>(total / min_chunk, 1);
  const std::size_t target = (workers_.size() + 1) * 4;
  plan.num_chunks = std::min(max_chunks, target);
  plan.chunk_size = (total + plan.num_chunks - 1) / plan.num_chunks;
  plan.num_chunks = (total + plan.chunk_size - 1) / plan.chunk_size;
  return plan;
}

void ThreadPool::run_chunks(std::size_t begin, std::size_t end,
                            std::size_t min_chunk, ChunkFn fn, void* ctx) {
  if (begin >= end) return;
  const ChunkPlan plan = plan_chunks(begin, end, min_chunk);

  // Inline execution: single chunk, or nested call from one of this pool's
  // own workers (publishing a job from a worker would deadlock the loop
  // waiting on itself). Runs every chunk in order with the same
  // lowest-chunk-wins exception contract as the parallel path.
  if (plan.num_chunks <= 1 || t_worker_of == this || workers_.empty()) {
    std::exception_ptr first_exc;
    for (std::size_t c = 0; c < plan.num_chunks; ++c) {
      const std::size_t lo = begin + c * plan.chunk_size;
      const std::size_t hi = std::min(lo + plan.chunk_size, end);
      try {
        fn(ctx, c, lo, hi);
      } catch (...) {
        if (!first_exc) first_exc = std::current_exception();
      }
    }
    if (first_exc) std::rethrow_exception(first_exc);
    return;
  }

  auto job = std::make_shared<Job>();
  job->begin = begin;
  job->end = end;
  job->chunk_size = plan.chunk_size;
  job->num_chunks = plan.num_chunks;
  job->fn = fn;
  job->ctx = ctx;

  // One loop at a time: the job slot is single-entry.
  std::lock_guard<std::mutex> run_lock(run_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = job;
    ++job_epoch_;
  }
  cv_.notify_all();
  {
    // The calling thread helps instead of blocking. Mark it as inside the
    // pool for the duration so a nested parallel loop issued from a chunk
    // it executes degrades to inline (re-locking run_mutex_ would be UB).
    const ThreadPool* const prev = t_worker_of;
    t_worker_of = this;
    work_on(*job);
    t_worker_of = prev;
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] {
      return job->done.load(std::memory_order_acquire) >= job->num_chunks;
    });
    if (job_ == job) job_.reset();
  }
  // Take the exception out of the job before rethrowing it: a worker may
  // still hold the job, and its last reference must not be the one that
  // frees the exception the caller is reading. Once done reaches
  // num_chunks, no worker touches exc again.
  if (std::exception_ptr exc = std::exchange(job->exc, nullptr)) {
    std::rethrow_exception(exc);
  }
}

void ThreadPool::work_on(Job& job) {
  for (;;) {
    const std::size_t c = job.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.num_chunks) return;
    const std::size_t lo = job.begin + c * job.chunk_size;
    const std::size_t hi = std::min(lo + job.chunk_size, job.end);
    try {
      job.fn(job.ctx, c, lo, hi);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job.exc_mutex);
      if (c < job.exc_chunk) {
        job.exc_chunk = c;
        job.exc = std::current_exception();
      }
    }
    if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        job.num_chunks) {
      // Last chunk: wake the thread blocked in run_chunks. Taking the lock
      // orders the notify after its wait() predicate check.
      std::lock_guard<std::mutex> lock(mutex_);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::worker_loop() {
  t_worker_of = this;
  std::uint64_t seen_epoch = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] {
        return stop_ || !tasks_.empty() ||
               (job_ && job_epoch_ != seen_epoch);
      });
      if (job_ && job_epoch_ != seen_epoch) {
        job = job_;
        seen_epoch = job_epoch_;
      } else if (!tasks_.empty()) {
        task = std::move(tasks_.front());
        tasks_.pop();
      } else {  // stop_, queue drained, no fresh job
        return;
      }
    }
    if (job) {
      work_on(*job);
    } else {
      task();  // packaged_task captures exceptions into the future
    }
  }
}

}  // namespace knnpc
