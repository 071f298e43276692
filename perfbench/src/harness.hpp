// Shared pieces of the ixpscope benchmark: the command line, the result
// every workload fills in, clocks and span recording, process memory and
// allocation counts, and the world (model, workload generator, vantage
// point) a workload runs against.
//
// The benchmark drives the libraries only through their public calls.
// Every layer number comes from timing those calls from here; nothing in
// the libraries reads a clock on the benchmark's behalf.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "classify/https_prober.hpp"
#include "core/vantage_point.hpp"
#include "gen/internet.hpp"
#include "gen/scale.hpp"
#include "gen/workload.hpp"
#include "sflow/mapped_trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Run at gen::ScaleConfig::test() instead of the workload's bench
  /// scale (the benchmark's own test uses this).
  bool test_scale = false;
  /// Corrupt the workload's reference output before comparing against it,
  /// so the output check must fail (the benchmark's own test uses this).
  bool break_reference = false;
  /// Scratch directory for traces, stores and span files.
  std::string work_dir;
  /// `serve`: the open-loop send rate, datagrams per second.
  double serve_rate = 0.0;
};

/// Analysis threads for "threads = nproc": the hardware's, at most 4.
[[nodiscard]] unsigned nproc();

/// What one invocation reports: the output-check tally and the metrics
/// printed on the final JSON line.
class Result {
 public:
  /// Records one output check; a failed check counts as one failure.
  void check(bool ok, const std::string& what);
  void attempt(std::uint64_t n) { attempted_ += n; }
  void fail(std::uint64_t n, const std::string& what);

  void metric(const std::string& name, double value, const std::string& unit);

  [[nodiscard]] bool correct() const noexcept { return correct_; }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

  /// The final JSON line (correct, attempted, failed, metrics).
  [[nodiscard]] std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

/// In-memory span recorder. Spans nest on the thread that opens them (the
/// benchmark's main thread); each records its parent, so a layer's self
/// time is its duration minus what its children cover. Calls made too
/// often for one span each (per batch, per fetch) are folded into one
/// aggregate record carrying a total and a call count. When disabled,
/// spans still time themselves but nothing is kept.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Tags subsequent spans with a run (pass) id and a week.
  void set_context(int run, int week) {
    run_ = run;
    week_ = week;
  }

  class Scope {
   public:
    Scope(Tracer& tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Ends the span (idempotent) and returns its duration in seconds.
    double stop();

   private:
    Tracer* tracer_;
    int index_ = -1;
    Clock::time_point start_;
    double seconds_ = -1.0;
  };

  [[nodiscard]] Scope span(std::string name) { return Scope{*this, std::move(name)}; }

  /// Adds an aggregate child of the innermost open span.
  void aggregate(const std::string& name, double total_seconds,
                 std::uint64_t calls);

  /// Sum of the durations of every span named `name`.
  [[nodiscard]] double total(const std::string& name) const;

  /// Writes one JSON object per span (JSON Lines) plus a per-name self
  /// time summary; returns false when the file cannot be written.
  bool write(const std::string& path) const;

  /// Self seconds per span name, summed over all spans of that name.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_times() const;

 private:
  struct Record {
    std::string name;
    double start = 0.0;  ///< seconds since the tracer was made
    double end = 0.0;
    int parent = -1;
    int run = 0;
    int week = 0;
    std::uint64_t calls = 1;
    bool aggregate = false;
  };

  int open(std::string name, Clock::time_point start);
  void close(int index, Clock::time_point end);

  bool enabled_;
  Clock::time_point origin_;
  int run_ = 0;
  int week_ = 0;
  std::vector<Record> records_;
  std::vector<int> stack_;
};

/// Peak resident set of this process (getrusage ru_maxrss), in MB.
[[nodiscard]] double peak_rss_mb();
/// Current anonymous resident memory (RssAnon), in bytes; mapped trace
/// pages are file-backed and do not count.
[[nodiscard]] std::uint64_t rss_anon_bytes();
/// Heap allocations made by this process so far (global operator new).
[[nodiscard]] std::uint64_t alloc_count() noexcept;

[[nodiscard]] double median(std::vector<double> values);

/// Measured repetitions for a run of `seconds`, when one repetition takes
/// about `rep_seconds` on a 4-vCPU x86-64 VM: at least 1. A fixed count,
/// rather than "until the time is spent", keeps the median's position the
/// same in every run of one length.
[[nodiscard]] int reps_for(double seconds, double rep_seconds);
/// Linear-interpolated quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Times and counts calls into gen::InternetModel::fetch_chains through
/// the ChainFetcher the benchmark hands to the vantage point.
struct FetchCounter {
  std::atomic<std::uint64_t> nanoseconds{0};
  std::atomic<std::uint64_t> calls{0};
  [[nodiscard]] double seconds() const {
    return static_cast<double>(nanoseconds.load()) * 1e-9;
  }
};

/// The model, its workload generator and a vantage point wired to the
/// model's public databases, as `ixpscope analyze` wires them. Every part
/// is heap-held: the vantage point keeps pointers into the others, which
/// must survive moving the World.
struct World {
  std::unique_ptr<ixp::gen::InternetModel> model;
  std::unique_ptr<ixp::gen::Workload> workload;
  std::unique_ptr<std::unordered_map<ixp::net::Asn, ixp::net::Locality>> locality;
  std::unique_ptr<ixp::core::VantagePoint> vantage;

  /// Certificate fetcher for `week`; counts into `counter` when non-null.
  [[nodiscard]] ixp::classify::ChainFetcher fetcher(
      int week, FetchCounter* counter = nullptr) const;
};

/// The workload's scale: bench(volume), or test() when asked, seeded.
[[nodiscard]] ixp::gen::ScaleConfig scale_for(const Args& args, double volume);

/// Builds the model (span `gen.model_build`) and wires the vantage point.
[[nodiscard]] World build_world(const ixp::gen::ScaleConfig& config,
                                Tracer& tracer);

/// A week recorded as a trace image.
struct RecordedWeek {
  ixp::sflow::MappedTrace trace;
  std::uint64_t samples = 0;
};

/// Generates `week` (span `gen.generate`) into a trace image, as `ixpscope
/// generate` records it. The image stays in memory, so neither disk
/// writeback nor the page cache enters the timed analyses that read it.
[[nodiscard]] RecordedWeek record_week(const World& world, int week,
                                       Tracer& tracer);

/// Runs `set_up` `reps` times, recording each wall time, and keeps the last
/// result; earlier results are destroyed before the next repetition.
template <class F>
auto repeat_setup(int reps, std::vector<double>& times, F&& set_up) {
  for (int i = 1; i < reps; ++i) {
    const auto t0 = Clock::now();
    auto discarded = set_up();
    times.push_back(seconds_since(t0));
  }
  const auto t0 = Clock::now();
  auto kept = set_up();
  times.push_back(seconds_since(t0));
  return kept;
}

/// Removes a scratch file or directory when the scope ends.
struct ScratchPath {
  std::string path;
  explicit ScratchPath(std::string p) : path(std::move(p)) {}
  ~ScratchPath();
  ScratchPath(const ScratchPath&) = delete;
  ScratchPath& operator=(const ScratchPath&) = delete;
};

/// Creates `path` (and parents); throws std::runtime_error on failure.
void make_dirs(const std::string& path);
/// Removes `path` recursively when it exists.
void remove_all(const std::string& path);

/// The per-layer metrics every traced run reports. A layer a workload
/// does not exercise reports 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<LayerMetric>& layer_metrics();

/// Per-layer values by metric name, as a traced run collects them.
using Layers = std::unordered_map<std::string, double>;

/// Emits every per-layer metric: the value in `layers`, or 0 for a layer
/// the workload does not exercise.
void emit_layers(Result& result, const Layers& layers);

}  // namespace perfbench
