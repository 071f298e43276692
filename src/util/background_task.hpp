// BackgroundTask — one callable run on a thread of its own.
//
// Set-up overlaps independent work this way: InternetModel fills its two
// LPM tables while the caller builds the rest of the model, and
// Workload::generate_week draws samples while the caller's sink consumes
// them. join() waits for the callable and rethrows what it threw. The
// destructor also waits, and drops any exception, so a scope left by an
// exception never leaves the thread running (nothing is running, for
// instance, when core::ProcessPool later forks).
#pragma once

#include <exception>
#include <thread>
#include <utility>

namespace ixp::util {

class BackgroundTask {
 public:
  template <class Fn>
  explicit BackgroundTask(Fn&& fn)
      : thread_{[this, fn = std::forward<Fn>(fn)]() mutable {
          try {
            fn();
          } catch (...) {
            error_ = std::current_exception();
          }
        }} {}

  ~BackgroundTask() {
    if (thread_.joinable()) thread_.join();
  }

  BackgroundTask(const BackgroundTask&) = delete;
  BackgroundTask& operator=(const BackgroundTask&) = delete;

  /// Waits for the callable; rethrows its exception, if it threw one.
  void join() {
    thread_.join();
    if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
  }

 private:
  std::exception_ptr error_;  // set by the thread, read after the join
  std::thread thread_;        // declared last: starts once error_ exists
};

}  // namespace ixp::util
