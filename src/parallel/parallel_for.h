// parallel_for helpers on top of ThreadPool::run.
//
// These provide the fork-join structure of one logical PRAM round: a batch
// of independent bodies executed concurrently, the caller among the
// threads running them, with the lowest-index exception rethrown once
// every body has finished (no detached work, no shared mutable state
// beyond what the caller partitions explicitly).
#pragma once

#include <algorithm>
#include <cstddef>

#include "parallel/thread_pool.h"

namespace pardpp {

/// True when called from inside a parallel_for body; nested rounds run
/// serially on the thread that reached them.
[[nodiscard]] inline bool in_parallel_region() noexcept {
  return detail::in_parallel_worker;
}

/// Runs fn(lo, hi) over a partition of [begin, end) on the pool, one body
/// per part, blocking until all parts complete. The chunk callback is the
/// amortization hook: per-chunk setup (scratch buffers, shared
/// factorizations) is paid once per chunk instead of once per index.
/// Degenerates to a single fn(begin, end) call on the calling thread when
/// the pool has a single thread or the call is nested.
template <typename ChunkFn>
void parallel_for_chunks(ThreadPool& pool, std::size_t begin, std::size_t end,
                         ChunkFn&& fn, std::size_t grain = 1) {
  const std::size_t count = end > begin ? end - begin : 0;
  if (count == 0) return;
  grain = std::max<std::size_t>(grain, 1);
  const std::size_t workers = pool.size();
  const std::size_t chunks =
      std::min({count, workers * 4, (count + grain - 1) / grain});
  if (chunks <= 1 || workers <= 1 || detail::in_parallel_worker) {
    fn(begin, end);
    return;
  }
  const std::size_t chunk_size = (count + chunks - 1) / chunks;
  auto body = [&](std::size_t c) {
    const std::size_t lo = begin + c * chunk_size;
    fn(lo, std::min(end, lo + chunk_size));
  };
  pool.run((count + chunk_size - 1) / chunk_size, body);
}

/// Runs fn(i) for i in [begin, end) on the pool, blocking until all bodies
/// complete. Bodies must write to disjoint state. `grain` is the minimum
/// number of indices per chunk (cheap bodies should pass a large grain so
/// dispatch overhead amortizes). Degenerates to a serial loop when the
/// range is below the grain, the pool has a single thread, or the call is
/// already nested inside another parallel_for body.
template <typename Fn>
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  Fn&& fn, std::size_t grain = 1) {
  parallel_for_chunks(
      pool, begin, end,
      [&fn](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      },
      grain);
}

}  // namespace pardpp
