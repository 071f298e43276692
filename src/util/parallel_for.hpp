// A claim-driven parallel for.
//
// Work that splits into independent, unevenly sized pieces (the address
// partitions of a week's evidence tables, metadata chunks) is spread over
// threads by claiming: every thread takes the next unclaimed index from
// one atomic counter until none remain, so a thread that drew a small
// piece simply takes another. Each piece must write only its own output
// (a slot indexed by the piece, or a range at a precomputed offset); then
// the result does not depend on which thread ran which piece, and one
// thread walking the indices in order computes exactly the same thing.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace ixp::util {

/// Runs fn(i) for every i in [0, count) on up to `threads` threads, the
/// calling thread among them. With one thread (or one index) the calls
/// run in index order on the caller. The first exception a call throws
/// is rethrown once every thread has stopped claiming.
template <class Fn>
void parallel_for(std::size_t count, unsigned threads, Fn&& fn) {
  const std::size_t width = std::min<std::size_t>(threads, count);
  if (width <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto work = [&] {
    try {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < count; i = next.fetch_add(1, std::memory_order_relaxed))
        fn(i);
    } catch (...) {
      std::lock_guard lock{error_mutex};
      if (!error) error = std::current_exception();
    }
  };
  std::vector<std::thread> helpers;
  helpers.reserve(width - 1);
  for (std::size_t t = 1; t < width; ++t) helpers.emplace_back(work);
  work();
  for (std::thread& helper : helpers) helper.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace ixp::util
