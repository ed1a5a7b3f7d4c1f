#include "parallel/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

#include "support/failpoint.h"

namespace pardpp {

/// One published round. The caller and every worker that joins it share
/// ownership, so a worker that finds the cursor exhausted after the
/// caller has returned still touches live memory; the caller waits only
/// for `finished` to reach `count`, never for workers that claimed
/// nothing.
struct ThreadPool::Round {
  std::size_t count;
  void* body;
  void (*invoke)(void*, std::size_t);
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> finished{0};
  std::mutex error_mutex;
  std::size_t error_index = 0;
  std::exception_ptr error;  // of the lowest throwing index

  /// Claims and runs bodies until the cursor passes `count`, with the
  /// thread state every body must see: inside a parallel region and
  /// outside any FailpointScope. Restores the thread's own state after.
  void work() {
    const bool was_parallel =
        std::exchange(detail::in_parallel_worker, true);
    FailpointScope* const scope = FailpointScope::exchange_current(nullptr);
    for (std::size_t i; (i = cursor.fetch_add(1, std::memory_order_relaxed)) <
                        count;) {
      try {
        if (failpoint("parallel.task"))
          throw Error("parallel_for: injected task failure "
                      "[failpoint parallel.task]");
        invoke(body, i);
      } catch (...) {
        const std::scoped_lock lock(error_mutex);
        if (!error || i < error_index) {
          error = std::current_exception();
          error_index = i;
        }
      }
      if (finished.fetch_add(1, std::memory_order_acq_rel) + 1 == count)
        finished.notify_all();
    }
    FailpointScope::exchange_current(scope);
    detail::in_parallel_worker = was_parallel;
  }
};

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads - 1);
  for (std::size_t i = 1; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::run_erased(std::size_t count, void* body,
                            void (*invoke)(void*, std::size_t)) {
  if (count == 0) return;
  const auto round = std::make_shared<Round>(count, body, invoke);
  const std::size_t helpers = std::min(workers_.size(), count - 1);
  if (helpers > 0) {
    {
      const std::scoped_lock lock(mutex_);
      round_ = round;
      ++generation_;
    }
    for (std::size_t h = 0; h < helpers; ++h) cv_.notify_one();
  }
  round->work();
  for (std::size_t done;
       (done = round->finished.load(std::memory_order_acquire)) != count;)
    round->finished.wait(done, std::memory_order_acquire);
  if (round->error) std::rethrow_exception(round->error);
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    std::shared_ptr<Round> round;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [&] { return stopping_ || generation_ != seen; });
      if (stopping_) return;
      seen = generation_;
      round = round_;
    }
    round->work();
  }
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

}  // namespace pardpp
