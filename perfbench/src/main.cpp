// ixpscope benchmark: command line, dispatch and the result line.
//
//   perfbench --workload week|weeks --seed N --seconds S --trace 0|1
//             [--serve-rate R] [--work-dir DIR] [--test-scale]
//             [--break-reference]
//
// Prints progress lines, then as its last line one JSON object with the
// keys correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 a separate traced run reports
// the per-layer ones and writes its spans to DIR/spans-<workload>-<seed>.jsonl.
// Exits 1 when an output check failed, 2 on a usage error.
#include <charconv>
#include <exception>
#include <iostream>
#include <string_view>

#include "workloads.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload week|weeks --seed N "
               "--seconds S --trace 0|1 [--serve-rate R] [--work-dir DIR] "
               "[--test-scale] [--break-reference]\n";
  return 2;
}

template <class T>
bool parse_number(std::string_view text, T& out) {
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc{} && end == text.data() + text.size();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  args.work_dir = ".bench_build/work";
  bool have_seed = false;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--test-scale") {
      args.test_scale = true;
      continue;
    }
    if (flag == "--break-reference") {
      args.break_reference = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!parse_number(value, args.seed)) return usage();
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_number(value, args.seconds) || args.seconds <= 0) return usage();
    } else if (flag == "--trace") {
      if (!parse_number(value, trace) || (trace != 0 && trace != 1)) return usage();
    } else if (flag == "--serve-rate") {
      if (!parse_number(value, args.serve_rate) || args.serve_rate <= 0) return usage();
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return usage();
    }
  }
  if (!have_seed || trace < 0) return usage();
  args.trace = trace == 1;

  try {
    perfbench::make_dirs(args.work_dir);
    perfbench::Tracer tracer{args.trace};
    perfbench::Result result;
    if (args.workload == "week") {
      result = perfbench::run_week(args, tracer);
    } else if (args.workload == "weeks") {
      result = perfbench::run_weeks(args, tracer);
    } else {
      return usage();
    }
    if (args.trace) {
      const std::string path = args.work_dir + "/spans-" + args.workload + "-" +
                               std::to_string(args.seed) + ".jsonl";
      result.check(tracer.write(path), "cannot write spans to " + path);
      std::cout << "spans: " << path << "\n";
      for (const auto& [name, seconds] : tracer.self_times())
        std::cout << "  self " << name << " " << seconds << " s\n";
    }
    std::cout << "seed " << args.seed << ", workload " << args.workload
              << (result.correct() ? ", all output checks passed"
                                   : ", OUTPUT CHECKS FAILED")
              << "\n";
    std::cout << result.json() << std::endl;
    return result.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
