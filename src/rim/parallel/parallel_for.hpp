#pragma once

#include <algorithm>
#include <cstddef>

#include "rim/parallel/thread_pool.hpp"

/// \file parallel_for.hpp
/// Blocked parallel loop over an index range, in the OpenMP
/// `parallel for schedule(static)` spirit but with explicit pool ownership.
///
/// Thread-safety contract (DESIGN.md §8): these helpers hold no locks of
/// their own — all synchronisation lives behind ThreadPool::submit /
/// wait_idle, whose RIM_EXCLUDES(mutex_) annotations propagate the
/// no-reentrancy rule: never call parallel_for from inside a task running
/// on the same pool (wait_idle would deadlock on its own worker).

namespace rim::parallel {

/// Invoke body(i) for every i in [begin, end), split into contiguous blocks
/// of at least \p grain indices executed on \p pool. Blocks until all
/// iterations complete. body must be safe to call concurrently on disjoint
/// indices. Falls back to a serial loop for small ranges.
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, const Body& body,
                  ThreadPool& pool = ThreadPool::shared(),
                  std::size_t grain = 256) {
  if (begin >= end) return;
  const std::size_t count = end - begin;
  const std::size_t workers = pool.thread_count();
  if (count <= grain || workers <= 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  const std::size_t blocks = std::min(workers * 4, (count + grain - 1) / grain);
  const std::size_t block_size = (count + blocks - 1) / blocks;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t lo = begin + b * block_size;
    const std::size_t hi = std::min(end, lo + block_size);
    if (lo >= hi) break;
    pool.submit([lo, hi, &body] {
      for (std::size_t i = lo; i < hi; ++i) body(i);
    });
  }
  pool.wait_idle();
}

}  // namespace rim::parallel
