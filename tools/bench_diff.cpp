// bench_diff — compares two ixpscope-bench-v1 JSON files and flags
// per-case regressions, for wiring into CI and PR checklists:
//
//   bench_diff BASELINE.json CURRENT.json [--tolerance PCT]
//
// A case regresses when its ns_per_item grows by more than the tolerance
// (default 10%), or when a case that was allocation-free starts
// allocating. (--threshold is accepted as a synonym for --tolerance.)
// Cases present in only one file are reported but do not
// fail the diff (benches come and go across PRs). Exit codes: 0 no
// regressions, 1 regression found, 2 usage or unreadable input.
//
// Like-for-like gating: when BOTH documents carry the cpu_flags stamp
// (bench_json writes it) and the stamps differ, the runs executed on
// different hardware and ns/item is not comparable — the table is still
// printed, but no regression is flagged and the exit code is 0. A stamp
// missing on either side (pre-stamp baselines) gates as before: within
// one repo checkout a baseline refresh and its PR run share a machine.
//
// The parser is deliberately minimal: it understands exactly the flat
// document bench_json.cpp writes (one "results" array of one-line
// objects with string/number fields), not general JSON.
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

struct CaseResult {
  std::string name;
  double ns_per_item = 0.0;
  double allocs_per_item = 0.0;
  double samples_per_sec = 0.0;
};

/// Value of `"key": "text"` inside `object`, or nullopt.
std::optional<std::string> find_string(std::string_view object,
                                       std::string_view key) {
  const std::string needle = "\"" + std::string{key} + "\"";
  const std::size_t at = object.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  std::size_t i = at + needle.size();
  while (i < object.size() && (object[i] == ':' || object[i] == ' ')) ++i;
  if (i >= object.size() || object[i] != '"') return std::nullopt;
  const std::size_t begin = ++i;
  while (i < object.size() && object[i] != '"') ++i;
  if (i >= object.size()) return std::nullopt;
  return std::string{object.substr(begin, i - begin)};
}

/// Value of `"key": number` inside `object`, or nullopt.
std::optional<double> find_number(std::string_view object,
                                  std::string_view key) {
  const std::string needle = "\"" + std::string{key} + "\"";
  const std::size_t at = object.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  std::size_t i = at + needle.size();
  while (i < object.size() && (object[i] == ':' || object[i] == ' ')) ++i;
  std::size_t end = i;
  while (end < object.size() &&
         (std::isdigit(static_cast<unsigned char>(object[end])) ||
          object[end] == '.' || object[end] == '-' || object[end] == '+' ||
          object[end] == 'e' || object[end] == 'E'))
    ++end;
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(object.data() + i, object.data() + end, value);
  if (ec != std::errc{} || ptr != object.data() + end || end == i)
    return std::nullopt;
  return value;
}

/// Parses the "results" array of one bench JSON; empty on any mismatch
/// with the expected schema.
std::vector<CaseResult> parse_results(const std::string& text) {
  std::vector<CaseResult> results;
  if (text.find("\"ixpscope-bench-v1\"") == std::string::npos) return results;
  std::size_t at = text.find("\"results\"");
  if (at == std::string::npos) return results;
  at = text.find('[', at);
  if (at == std::string::npos) return results;
  const std::size_t close = text.find(']', at);
  while (true) {
    const std::size_t open = text.find('{', at);
    if (open == std::string::npos || (close != std::string::npos && open > close))
      break;
    const std::size_t end = text.find('}', open);
    if (end == std::string::npos) break;
    const std::string_view object{text.data() + open, end - open + 1};
    CaseResult result;
    const auto name = find_string(object, "name");
    const auto ns = find_number(object, "ns_per_item");
    if (name && ns) {
      result.name = *name;
      result.ns_per_item = *ns;
      result.allocs_per_item = find_number(object, "allocs_per_item").value_or(0.0);
      result.samples_per_sec = find_number(object, "samples_per_sec").value_or(0.0);
      results.push_back(std::move(result));
    }
    at = end + 1;
  }
  return results;
}

struct BenchDoc {
  std::vector<CaseResult> results;
  std::optional<std::string> cpu_flags;
};

std::optional<BenchDoc> load(const std::string& path) {
  std::ifstream in{path};
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  BenchDoc doc;
  doc.results = parse_results(text);
  if (doc.results.empty()) return std::nullopt;
  // The top-level stamp precedes the results array; restrict the search
  // to the document head so a case could never alias it.
  const std::size_t head_end = text.find("\"results\"");
  const std::string_view head{text.data(),
                              head_end == std::string::npos ? text.size()
                                                            : head_end};
  doc.cpu_flags = find_string(head, "cpu_flags");
  return doc;
}

const CaseResult* find_case(const std::vector<CaseResult>& results,
                            const std::string& name) {
  for (const auto& result : results)
    if (result.name == name) return &result;
  return nullptr;
}

int usage() {
  std::cerr << "usage: bench_diff BASELINE.json CURRENT.json "
               "[--tolerance PCT]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string base_path;
  std::string current_path;
  double tolerance = 10.0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--tolerance" || arg == "--threshold") {
      if (i + 1 >= argc) return usage();
      const std::string_view text = argv[++i];
      const auto [ptr, ec] = std::from_chars(
          text.data(), text.data() + text.size(), tolerance);
      if (ec != std::errc{} || ptr != text.data() + text.size() ||
          tolerance <= 0.0)
        return usage();
    } else if (base_path.empty()) {
      base_path = arg;
    } else if (current_path.empty()) {
      current_path = arg;
    } else {
      return usage();
    }
  }
  if (base_path.empty() || current_path.empty()) return usage();

  const auto base = load(base_path);
  if (!base) {
    std::cerr << base_path << ": not a readable ixpscope-bench-v1 file\n";
    return 2;
  }
  const auto current = load(current_path);
  if (!current) {
    std::cerr << current_path << ": not a readable ixpscope-bench-v1 file\n";
    return 2;
  }

  // Unlike hardware: report, but do not gate.
  bool like_for_like = true;
  if (base->cpu_flags && current->cpu_flags &&
      *base->cpu_flags != *current->cpu_flags) {
    like_for_like = false;
    std::printf(
        "note: baseline (cpu %s) and current (cpu %s) are not like-for-like;"
        " differences are informational only\n",
        base->cpu_flags->c_str(), current->cpu_flags->c_str());
  }

  int regressions = 0;
  std::printf("%-28s %12s %12s %9s\n", "case", "base ns/it", "now ns/it",
              "delta");
  for (const auto& now : current->results) {
    const CaseResult* was = find_case(base->results, now.name);
    if (was == nullptr) {
      std::printf("%-28s %12s %12.1f %9s  (new case)\n", now.name.c_str(), "-",
                  now.ns_per_item, "-");
      continue;
    }
    const double delta =
        was->ns_per_item > 0.0
            ? (now.ns_per_item - was->ns_per_item) / was->ns_per_item * 100.0
            : 0.0;
    const bool slower = delta > tolerance;
    // An allocation-free case starting to allocate is a regression even
    // when it stays fast: the zero-alloc contract is load-bearing.
    const bool allocs = was->allocs_per_item < 0.005 &&
                        now.allocs_per_item >= 0.005;
    std::printf("%-28s %12.1f %12.1f %+8.1f%%%s%s\n", now.name.c_str(),
                was->ns_per_item, now.ns_per_item, delta,
                slower ? "  REGRESSION" : "",
                allocs ? "  ALLOCS-REGRESSION" : "");
    if (slower || allocs) ++regressions;
  }
  for (const auto& was : base->results) {
    if (find_case(current->results, was.name) == nullptr)
      std::printf("%-28s %12.1f %12s %9s  (removed)\n", was.name.c_str(),
                  was.ns_per_item, "-", "-");
  }

  if (regressions > 0 && !like_for_like) {
    std::printf(
        "%d difference%s beyond %.0f%% NOT gated (unlike hardware)\n",
        regressions, regressions == 1 ? "" : "s", tolerance);
    return 0;
  }
  if (regressions > 0) {
    std::printf("%d regression%s beyond %.0f%%\n", regressions,
                regressions == 1 ? "" : "s", tolerance);
    return 1;
  }
  std::printf("no regressions beyond %.0f%%\n", tolerance);
  return 0;
}
