#include "numeric/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

namespace tsv::num {
namespace {

// Region nesting depth of the calling thread (workers and participating
// callers both count). A depth > 0 makes nested parallel calls run inline.
thread_local int tls_region_depth = 0;

struct RegionGuard {
  RegionGuard() { ++tls_region_depth; }
  ~RegionGuard() { --tls_region_depth; }
};

}  // namespace

std::size_t hardware_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t resolve_thread_count(std::size_t requested) {
  return requested == 0 ? hardware_thread_count() : requested;
}

bool in_parallel_region() { return tls_region_depth > 0; }

struct ThreadPool::Impl {
  // Serializes whole regions: one run() at a time touches the job state.
  std::mutex run_mutex;

  std::mutex mutex;
  std::condition_variable work_cv;
  std::condition_variable done_cv;
  const std::function<void(std::size_t)>* job = nullptr;
  std::size_t job_chunks = 0;
  std::uint64_t generation = 0;
  std::size_t acked = 0;  ///< workers finished with the current generation
  std::exception_ptr error;
  bool stop = false;

  std::atomic<std::size_t> next_chunk{0};
  std::atomic<bool> abort{false};

  std::vector<std::thread> workers;

  // Runs one chunk unless a chunk threw (first error wins).
  void run_chunk(const std::function<void(std::size_t)>& fn, std::size_t c) {
    if (abort.load(std::memory_order_relaxed)) return;
    try {
      fn(c);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex);
      if (!error) error = std::current_exception();
      abort.store(true, std::memory_order_relaxed);
    }
  }

  // Consumes chunks until exhausted or a chunk threw.
  void work(const std::function<void(std::size_t)>& fn, std::size_t chunks) {
    while (!abort.load(std::memory_order_relaxed)) {
      const std::size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      run_chunk(fn, c);
    }
  }

  void worker_main() {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(std::size_t)>* fn = nullptr;
      std::size_t chunks = 0;
      {
        std::unique_lock<std::mutex> lock(mutex);
        work_cv.wait(lock, [&] { return stop || generation != seen; });
        if (stop) return;
        seen = generation;
        fn = job;
        chunks = job_chunks;
      }
      {
        RegionGuard guard;
        work(*fn, chunks);
      }
      {
        std::lock_guard<std::mutex> lock(mutex);
        ++acked;
      }
      done_cv.notify_one();
    }
  }
};

ThreadPool::ThreadPool(std::size_t worker_threads) : impl_(new Impl) {
  impl_->workers.reserve(worker_threads);
  for (std::size_t i = 0; i < worker_threads; ++i)
    impl_->workers.emplace_back([this] { impl_->worker_main(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& w : impl_->workers) w.join();
  delete impl_;
}

std::size_t ThreadPool::worker_threads() const { return impl_->workers.size(); }

void ThreadPool::run(std::size_t chunks,
                     const std::function<void(std::size_t)>& fn) {
  if (chunks == 0) return;
  if (impl_->workers.empty() || in_parallel_region()) {
    RegionGuard guard;
    for (std::size_t c = 0; c < chunks; ++c) fn(c);
    return;
  }
  std::lock_guard<std::mutex> region(impl_->run_mutex);
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->job = &fn;
    impl_->job_chunks = chunks;
    impl_->next_chunk.store(1, std::memory_order_relaxed);  // 0: the caller's
    impl_->abort.store(false, std::memory_order_relaxed);
    impl_->error = nullptr;
    impl_->acked = 0;
    ++impl_->generation;
  }
  impl_->work_cv.notify_all();
  {
    RegionGuard guard;
    impl_->run_chunk(fn, 0);
    impl_->work(fn, chunks);
  }
  std::unique_lock<std::mutex> lock(impl_->mutex);
  impl_->done_cv.wait(lock,
                      [&] { return impl_->acked == impl_->workers.size(); });
  impl_->job = nullptr;
  if (impl_->error) {
    const std::exception_ptr error = impl_->error;
    impl_->error = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

ThreadPool& ThreadPool::shared() {
  // hw - 1 workers (the caller participates), but never fewer than 3: on
  // low-core hosts an explicit num_threads > 1 request still runs on real
  // threads (the OS timeslices), which is what the sanitizer suite needs to
  // exercise actual concurrency. Oversubscription only affects timing:
  // no caller's result depends on which thread runs a chunk.
  static ThreadPool pool(std::max<std::size_t>(
      hardware_thread_count() > 1 ? hardware_thread_count() - 1 : 0, 3));
  return pool;
}

}  // namespace tsv::num
