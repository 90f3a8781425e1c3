#pragma once
// Shared-memory parallelism for the framework's embarrassingly parallel
// loops: Stage I is point-parallel, Stage II is parallel over victim cells
// (see interactive_stage.h), and the FEM element loops are element-parallel.
//
// Design rules (all enforced here so callers stay simple):
//   * Static chunking: [0, n) splits into at most `num_threads` contiguous
//     chunks, so every index is owned by exactly one chunk and results are
//     deterministic for a fixed thread count.
//   * Dynamic claiming (parallel_for_dynamic) for items of uneven cost:
//     workers take the next index from one atomic cursor. Which worker runs
//     an item varies from run to run, so an item may write only what it
//     owns; the caller's results then do not depend on the schedule.
//   * `num_threads` semantics everywhere: 0 = hardware concurrency,
//     1 = exact serial path (no pool involvement, bitwise-identical to a
//     plain loop), n = n.
//   * Nested calls from inside a worker run serially instead of
//     deadlocking; exceptions thrown by a chunk rethrow on the caller.

#include <atomic>
#include <cstddef>
#include <functional>
#include <utility>

#include "numeric/check.h"

namespace tsv::num {

/// Number of hardware threads (>= 1 even when the runtime reports 0).
std::size_t hardware_thread_count();

/// Resolves a user-facing `num_threads` knob: 0 = hardware concurrency,
/// anything else is taken literally.
std::size_t resolve_thread_count(std::size_t requested);

/// True while the calling thread executes inside a parallel region (worker
/// or participating caller). Nested parallel calls detect this and run
/// serially.
bool in_parallel_region();

/// Persistent worker pool. One region runs at a time; concurrent run()
/// callers serialize on an internal mutex. Most code should go through
/// parallel_for / parallel_for_chunks instead of using the pool directly.
class ThreadPool {
 public:
  /// Pool with `worker_threads` background threads (the run() caller also
  /// participates, so 0 workers means strictly serial execution).
  explicit ThreadPool(std::size_t worker_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_threads() const;

  /// Runs fn(chunk) for every chunk in [0, chunks), distributing chunks over
  /// the caller plus the workers; blocks until all chunks finish. The first
  /// exception thrown by a chunk aborts the remaining chunks and rethrows
  /// here. Called from inside a region (nested), runs inline serially.
  void run(std::size_t chunks, const std::function<void(std::size_t)>& fn);

  /// Process-wide pool with hardware_thread_count() - 1 workers.
  static ThreadPool& shared();

 private:
  struct Impl;
  Impl* impl_;
};

/// Bounds of chunk `c` when [0, n) splits into `chunks` contiguous chunks.
inline std::pair<std::size_t, std::size_t> chunk_bounds(std::size_t n,
                                                        std::size_t chunks,
                                                        std::size_t c) {
  TSV_ASSERT(chunks > 0 && c < chunks);
  return {n * c / chunks, n * (c + 1) / chunks};
}

/// Splits [0, n) into at most resolve_thread_count(num_threads) contiguous
/// chunks and runs body(begin, end, chunk_index) for each. With one chunk
/// (n <= 1, num_threads == 1, or a nested call) the body runs inline as
/// body(0, n, 0) — the exact serial path.
template <typename Body>
void parallel_for_chunks(std::size_t n, std::size_t num_threads, Body&& body) {
  if (n == 0) return;
  const std::size_t chunks =
      std::min(resolve_thread_count(num_threads), n);
  if (chunks <= 1 || in_parallel_region()) {
    body(std::size_t{0}, n, std::size_t{0});
    return;
  }
  ThreadPool::shared().run(chunks, [&](std::size_t c) {
    const auto [begin, end] = chunk_bounds(n, chunks, c);
    body(begin, end, c);
  });
}

/// Runs body(i, worker) for every i in [0, n) on at most
/// resolve_thread_count(num_threads) workers, each claiming the next index
/// from one atomic cursor: items start in index order, and a worker that
/// finishes early takes the next item instead of idling. `worker` (below that
/// count) names the claiming worker: one worker runs its items one at a
/// time, so per-worker scratch indexed by it is never shared. With one
/// worker (n <= 1, num_threads == 1, or a nested call) this is the plain
/// loop body(i, 0).
template <typename Body>
void parallel_for_dynamic(std::size_t n, std::size_t num_threads,
                          Body&& body) {
  const std::size_t workers = std::min(resolve_thread_count(num_threads), n);
  if (workers <= 1 || in_parallel_region()) {
    for (std::size_t i = 0; i < n; ++i) body(i, std::size_t{0});
    return;
  }
  std::atomic<std::size_t> next{0};
  ThreadPool::shared().run(workers, [&](std::size_t worker) {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed))
      body(i, worker);
  });
}

/// Element-wise parallel loop: body(i) for i in [0, n), statically chunked.
/// Safe whenever body(i) only writes state owned by index i.
template <typename Body>
void parallel_for(std::size_t n, std::size_t num_threads, Body&& body) {
  parallel_for_chunks(n, num_threads,
                      [&](std::size_t begin, std::size_t end, std::size_t) {
                        for (std::size_t i = begin; i < end; ++i) body(i);
                      });
}

}  // namespace tsv::num
