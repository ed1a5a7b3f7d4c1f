// Fixed-size thread pool used as the execution backend for parallel rounds.
//
// Design notes (per C++ Core Guidelines CP.20-CP.26): workers are joined by
// RAII in the destructor, never detached. The pool has one operation, a
// fork-join round (`run`): the calling thread publishes the round and then
// claims bodies from the round's atomic cursor alongside the workers, so a
// pool of n threads is the caller plus n - 1 workers.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace pardpp {

namespace detail {
/// Set while this thread runs a body of a ThreadPool::run round.
inline thread_local bool in_parallel_worker = false;
}  // namespace detail

/// A minimal fixed-size fork-join pool.
class ThreadPool {
 public:
  /// A pool of `num_threads` threads counting the caller of run(): it
  /// starts num_threads - 1 workers (num_threads defaults to hardware
  /// concurrency, at least one).
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Joins all workers. No round may be running.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Threads one round runs on, the caller included.
  [[nodiscard]] std::size_t size() const noexcept {
    return workers_.size() + 1;
  }

  /// Runs body(i) for every i in [0, count) and returns once all bodies
  /// have finished. The caller runs bodies too. Every body sees
  /// in_parallel_region() true and no inherited FailpointScope, and the
  /// caller's state is restored afterwards. Every body runs even if one
  /// throws; the exception of the lowest throwing index is rethrown.
  /// Rounds may be run concurrently from several threads.
  template <typename Body>
  void run(std::size_t count, Body& body) {
    run_erased(count, &body, [](void* fn, std::size_t i) {
      (*static_cast<Body*>(fn))(i);
    });
  }

  /// Shared process-wide pool (lazily constructed; function-local static per
  /// Core Guidelines R.6 / CP.110).
  [[nodiscard]] static ThreadPool& shared();

 private:
  struct Round;

  void run_erased(std::size_t count, void* body,
                  void (*invoke)(void*, std::size_t));
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::shared_ptr<Round> round_;  // the latest published round
  std::uint64_t generation_ = 0;  // bumped once per published round
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace pardpp
