#include "bench_json.hpp"

#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>

// ---------------------------------------------------------------------
// Allocation counting: interpose the global allocation functions. Every
// bench binary links this translation unit (via the bench harness), so
// its operator new replaces the default one program-wide and the counter
// sees every heap allocation, including those inside the standard
// library. Deallocation stays stock apart from the free() forwarding.
// ---------------------------------------------------------------------

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

void* counted_aligned_alloc(std::size_t size, std::size_t alignment) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t padded =
      size == 0 ? alignment : (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, padded)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(alignment));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ixp::bench {

std::uint64_t alloc_count() noexcept {
  return g_alloc_count.load(std::memory_order_relaxed);
}

std::string_view git_rev() noexcept {
#ifdef IXPSCOPE_GIT_REV
  return IXPSCOPE_GIT_REV;
#else
  return "unknown";
#endif
}

void usage_error(const char* argv0, std::string_view detail,
                 std::string_view operands) {
  std::cerr << argv0 << ": " << detail << "\n"
            << "usage: " << argv0 << " [--json PATH] [--iters N] [--threads N]"
            << (operands.empty() ? "" : " ") << operands << "\n";
  std::exit(2);
}

namespace {

std::uint64_t parse_u64(const char* argv0, std::string_view flag,
                        std::string_view text, std::string_view operands) {
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size())
    usage_error(argv0,
                std::string{flag} + " expects an unsigned integer, got '" +
                    std::string{text} + "'",
                operands);
  return value;
}

/// Minimal JSON string escaping (names and paths are ASCII here, but a
/// malformed name must not produce a malformed document).
std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// The run's CPU identity, e.g. "sse2,sse4.2,avx2" ("none" off x86).
/// bench_diff compares it to decide whether ns/item is comparable.
std::string cpu_flags() {
  std::string flags;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  const auto append = [&](const char* flag) {
    if (!flags.empty()) flags += ',';
    flags += flag;
  };
  if (__builtin_cpu_supports("sse2")) append("sse2");
  if (__builtin_cpu_supports("sse4.2")) append("sse4.2");
  if (__builtin_cpu_supports("avx2")) append("avx2");
#endif
  return flags.empty() ? "none" : flags;
}

}  // namespace

BenchArgs BenchArgs::parse(int argc, char** argv, std::string_view operands) {
  BenchArgs args;
  const auto fail = [&](const std::string& detail) {
    usage_error(argv[0], detail, operands);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string_view {
      if (i + 1 >= argc) fail(std::string{arg} + " expects a value");
      return argv[++i];
    };
    if (arg == "--json") {
      args.json_path = value();
    } else if (arg == "--iters") {
      args.iters = parse_u64(argv[0], arg, value(), operands);
    } else if (arg == "--threads") {
      const std::uint64_t t = parse_u64(argv[0], arg, value(), operands);
      if (t == 0 || t > 1024) fail("--threads must be in [1, 1024]");
      args.threads = static_cast<int>(t);
    } else if (!operands.empty() && !arg.starts_with("-")) {
      args.operands.emplace_back(arg);
    } else {
      fail("unknown argument '" + std::string{arg} + "'");
    }
  }
  return args;
}

Suite::Suite(std::string name, BenchArgs args)
    : name_(std::move(name)), args_(std::move(args)) {
  std::cout << "suite " << name_ << " (rev " << git_rev() << ", threads "
            << args_.threads << ", cpu " << cpu_flags() << ")\n";
}

Suite::~Suite() { flush(); }

void Suite::run_case(const std::string& name, std::uint64_t default_iters,
                     const std::function<std::uint64_t(std::uint64_t iters,
                                                       int threads)>& fn) {
  const std::uint64_t iters = args_.iters > 0 ? args_.iters : default_iters;
  const std::uint64_t warmup = iters / 8 > 0 ? iters / 8 : 1;
  (void)fn(warmup, args_.threads);

  // Best of three timed passes. On shared machines a single pass can be
  // slowed arbitrarily by neighbours; the minimum is the standard robust
  // estimator of the code's cost. Allocation counts come from the best
  // pass so allocs/item and ns/item describe the same execution. A single
  // pass is kept for --iters 1 (the bench-smoke tier) to stay cheap.
  const int passes = iters > 1 ? 3 : 1;
  BenchResult result;
  result.name = name;
  result.iters = iters;
  result.threads = args_.threads;
  for (int pass = 0; pass < passes; ++pass) {
    const std::uint64_t allocs_before = alloc_count();
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t items = fn(iters, args_.threads);
    const auto t1 = std::chrono::steady_clock::now();
    const double seconds = std::chrono::duration<double>(t1 - t0).count();
    if (pass == 0 || seconds < result.seconds) {
      result.items = items;
      result.seconds = seconds;
      result.allocs = alloc_count() - allocs_before;
    }
  }
  add(std::move(result));
}

void Suite::add(BenchResult result) {
  std::printf("  %-40s %12.0f items/s  %9.1f ns/item  %8.3f allocs/item\n",
              result.name.c_str(), result.items_per_sec(),
              result.ns_per_item(), result.allocs_per_item());
  std::fflush(stdout);
  results_.push_back(std::move(result));
}

void Suite::flush() {
  if (flushed_ || args_.json_path.empty()) return;
  flushed_ = true;
  std::ofstream out{args_.json_path};
  if (!out) {
    std::cerr << "bench: cannot write " << args_.json_path << "\n";
    return;
  }
  out << "{\n"
      << "  \"schema\": \"ixpscope-bench-v1\",\n"
      << "  \"suite\": \"" << json_escape(name_) << "\",\n"
      << "  \"git_rev\": \"" << json_escape(git_rev()) << "\",\n"
      // CPU identity of the run: bench_diff refuses to gate ns/item
      // across machines whose stamps differ.
      << "  \"cpu_flags\": \"" << json_escape(cpu_flags()) << "\",\n"
      << "  \"threads\": " << args_.threads << ",\n"
      << "  \"results\": [";
  for (std::size_t i = 0; i < results_.size(); ++i) {
    const BenchResult& r = results_[i];
    out << (i == 0 ? "\n" : ",\n")
        << "    {\"name\": \"" << json_escape(r.name) << "\", "
        << "\"iters\": " << r.iters << ", "
        << "\"threads\": " << r.threads << ", "
        << "\"items\": " << r.items << ", "
        << "\"seconds\": " << r.seconds << ", "
        << "\"samples_per_sec\": " << r.items_per_sec() << ", "
        << "\"ns_per_item\": " << r.ns_per_item() << ", "
        << "\"allocs\": " << r.allocs << ", "
        << "\"allocs_per_item\": " << r.allocs_per_item() << "}";
  }
  out << "\n  ]\n}\n";
  std::cout << "wrote " << args_.json_path << " (" << results_.size()
            << " results)\n";
}

}  // namespace ixp::bench
