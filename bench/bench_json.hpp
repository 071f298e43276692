// Reproducible benchmark harness shared by every bench/ binary.
//
// Three pieces:
//
//   - BenchArgs: the uniform command line every bench binary honors —
//     `--json PATH --iters N --threads N`. One parser, one contract, so
//     a CI script can drive any binary the same way.
//   - alloc_count(): a process-wide heap-allocation counter fed by
//     interposed global operator new/delete (bench_json.cpp). The
//     zero-allocation claim on the hot path is measured, not asserted.
//   - Suite: runs named cases (warmup pass, then one timed pass wrapped
//     in wall-clock + allocation-delta measurement), prints a human
//     line per case, and — when --json was given — writes the whole run
//     as one JSON document (schema "ixpscope-bench-v1") carrying the
//     git revision, so successive runs form a comparable trajectory.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace ixp::bench {

/// Heap allocations made by this process so far (every global operator
/// new since startup). Sample before/after a region; the difference is
/// the region's allocation count. Thread-safe.
[[nodiscard]] std::uint64_t alloc_count() noexcept;

/// Optimization barrier: forces `value` to be materialized (the
/// hand-rolled equivalent of benchmark::DoNotOptimize).
template <class T>
inline void keep(T&& value) noexcept {
  asm volatile("" : : "g"(&value) : "memory");
}

/// The revision baked in at configure time ("unknown" outside git).
[[nodiscard]] std::string_view git_rev() noexcept;

/// Uniform bench command line: `--json PATH --iters N --threads N`.
struct BenchArgs {
  std::string json_path;   ///< empty = no JSON output
  std::uint64_t iters = 0; ///< 0 = use each case's default
  int threads = 1;
  std::vector<std::string> operands;  ///< positional arguments, in order

  /// Parses argv; exits with a usage message on malformed input. A binary
  /// that takes positional arguments names them in `operands` (e.g.
  /// "[ID...]"), which also ends its usage line; for any other binary a
  /// positional argument is malformed input.
  [[nodiscard]] static BenchArgs parse(int argc, char** argv,
                                       std::string_view operands = {});
};

/// Prints `detail` and the usage line to stderr and exits with status 2.
[[noreturn]] void usage_error(const char* argv0, std::string_view detail,
                              std::string_view operands = {});

/// One timed case.
struct BenchResult {
  std::string name;
  std::uint64_t iters = 0;
  int threads = 1;
  std::uint64_t items = 0;  ///< work units processed across all iters
  double seconds = 0.0;     ///< wall time of the timed pass
  std::uint64_t allocs = 0; ///< heap allocations during the timed pass

  [[nodiscard]] double items_per_sec() const noexcept {
    return seconds > 0.0 ? static_cast<double>(items) / seconds : 0.0;
  }
  [[nodiscard]] double ns_per_item() const noexcept {
    return items > 0 ? seconds * 1e9 / static_cast<double>(items) : 0.0;
  }
  [[nodiscard]] double allocs_per_item() const noexcept {
    return items > 0 ? static_cast<double>(allocs) / static_cast<double>(items)
                     : 0.0;
  }
};

class Suite {
 public:
  Suite(std::string name, BenchArgs args);
  ~Suite();  // flush()es

  Suite(const Suite&) = delete;
  Suite& operator=(const Suite&) = delete;

  /// Runs one case: `fn(iters, threads)` must perform `iters` repetitions
  /// and return the number of items processed. `--iters` overrides
  /// `default_iters`. A 1/8-length warmup pass runs first (untimed) so
  /// tables, caches, and buffers reach steady state; the timed pass is
  /// wrapped in wall-clock and allocation-delta measurement.
  void run_case(const std::string& name, std::uint64_t default_iters,
                const std::function<std::uint64_t(std::uint64_t iters,
                                                  int threads)>& fn);

  /// Records an externally measured case (A/B loops that time themselves).
  void add(BenchResult result);

  [[nodiscard]] const std::vector<BenchResult>& results() const noexcept {
    return results_;
  }
  [[nodiscard]] const BenchArgs& args() const noexcept { return args_; }

  /// Writes the JSON document when --json was given. Idempotent; the
  /// destructor calls it.
  void flush();

 private:
  std::string name_;
  BenchArgs args_;
  std::vector<BenchResult> results_;
  bool flushed_ = false;
};

}  // namespace ixp::bench
