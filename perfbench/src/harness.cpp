#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "dns/public_suffix.hpp"
#include "sflow/trace.hpp"

namespace perfbench {

namespace {

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

// ---- Result ----------------------------------------------------------------

void Result::check(bool ok, const std::string& what) {
  if (!ok) fail(1, what);
}

void Result::fail(std::uint64_t n, const std::string& what) {
  if (n == 0) return;
  failed_ += n;
  correct_ = false;
  std::cerr << "check failed: " << what << "\n";
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

std::string Result::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i != 0) out << ", ";
    out << json_string(metrics_[i].name) << ": {\"value\": "
        << json_number(metrics_[i].value)
        << ", \"unit\": " << json_string(metrics_[i].unit) << "}";
  }
  out << "}}";
  return out.str();
}

// ---- Tracer ----------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

Tracer::Scope::Scope(Tracer& tracer, std::string name)
    : tracer_(&tracer), start_(Clock::now()) {
  if (tracer.enabled_) index_ = tracer.open(std::move(name), start_);
}

Tracer::Scope::~Scope() { stop(); }

double Tracer::Scope::stop() {
  if (seconds_ >= 0.0) return seconds_;
  const auto end = Clock::now();
  seconds_ = seconds_between(start_, end);
  if (index_ >= 0) tracer_->close(index_, end);
  return seconds_;
}

int Tracer::open(std::string name, Clock::time_point start) {
  Record record;
  record.name = std::move(name);
  record.start = seconds_between(origin_, start);
  record.parent = stack_.empty() ? -1 : stack_.back();
  record.run = run_;
  record.week = week_;
  records_.push_back(std::move(record));
  const int index = static_cast<int>(records_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index, Clock::time_point end) {
  records_[static_cast<std::size_t>(index)].end = seconds_between(origin_, end);
  // Spans close innermost first; tolerate an out-of-order stop() by
  // removing the span wherever it sits on the stack.
  const auto it = std::find(stack_.rbegin(), stack_.rend(), index);
  if (it != stack_.rend()) stack_.erase(std::next(it).base());
}

void Tracer::aggregate(const std::string& name, double total_seconds,
                       std::uint64_t calls) {
  if (!enabled_) return;
  Record record;
  record.name = name;
  record.parent = stack_.empty() ? -1 : stack_.back();
  // Aggregates have no interval of their own: anchor them at the parent's
  // start so readers can still place them.
  record.start = record.parent >= 0
                     ? records_[static_cast<std::size_t>(record.parent)].start
                     : seconds_between(origin_, Clock::now());
  record.end = record.start + total_seconds;
  record.run = run_;
  record.week = week_;
  record.calls = calls;
  record.aggregate = true;
  records_.push_back(std::move(record));
}

double Tracer::total(const std::string& name) const {
  double sum = 0.0;
  for (const Record& r : records_)
    if (r.name == name) sum += r.end - r.start;
  return sum;
}

std::vector<std::pair<std::string, double>> Tracer::self_times() const {
  std::vector<double> self(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i)
    self[i] = records_[i].end - records_[i].start;
  for (const Record& r : records_)
    if (r.parent >= 0) self[static_cast<std::size_t>(r.parent)] -= r.end - r.start;
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < records_.size(); ++i)
    by_name[records_[i].name] += self[i];
  return {by_name.begin(), by_name.end()};
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out{path};
  if (!out) return false;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << "{\"id\": " << i << ", \"name\": " << json_string(r.name)
        << ", \"start_s\": " << json_number(r.start)
        << ", \"end_s\": " << json_number(r.end) << ", \"parent\": " << r.parent
        << ", \"run\": " << r.run << ", \"week\": " << r.week
        << ", \"calls\": " << r.calls
        << ", \"aggregate\": " << (r.aggregate ? "true" : "false") << "}\n";
  }
  for (const auto& [name, seconds] : self_times()) {
    out << "{\"self_time\": " << json_string(name)
        << ", \"seconds\": " << json_number(seconds) << "}\n";
  }
  return static_cast<bool>(out);
}

// ---- process measurements --------------------------------------------------

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t rss_anon_bytes() {
  std::ifstream status{"/proc/self/status"};
  std::string key;
  while (status >> key) {
    if (key == "RssAnon:") {
      std::uint64_t kib = 0;
      status >> kib;
      return kib * 1024;
    }
    status.ignore(4096, '\n');
  }
  return 0;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

int reps_for(double seconds, double rep_seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds / rep_seconds)));
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

unsigned nproc() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

// ---- world -----------------------------------------------------------------

ixp::classify::ChainFetcher World::fetcher(int week,
                                           FetchCounter* counter) const {
  const ixp::gen::InternetModel* m = model.get();
  if (counter == nullptr) {
    return [m, week](ixp::net::Ipv4Addr addr, int times) {
      return m->fetch_chains(addr, times, week);
    };
  }
  return [m, week, counter](ixp::net::Ipv4Addr addr, int times) {
    const auto t0 = Clock::now();
    auto chains = m->fetch_chains(addr, times, week);
    counter->nanoseconds.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
                .count()),
        std::memory_order_relaxed);
    counter->calls.fetch_add(1, std::memory_order_relaxed);
    return chains;
  };
}

ixp::gen::ScaleConfig scale_for(const Args& args, double volume) {
  auto config = args.test_scale ? ixp::gen::ScaleConfig::test()
                                : ixp::gen::ScaleConfig::bench(volume);
  config.seed = args.seed;
  return config;
}

World build_world(const ixp::gen::ScaleConfig& config, Tracer& tracer) {
  World world;
  {
    auto span = tracer.span("gen.model_build");
    world.model = std::make_unique<ixp::gen::InternetModel>(config);
  }
  world.workload = std::make_unique<ixp::gen::Workload>(*world.model);
  std::vector<ixp::net::Asn> members;
  for (const auto* m : world.model->ixp().members_at(config.last_week))
    members.push_back(m->asn);
  world.locality =
      std::make_unique<std::unordered_map<ixp::net::Asn, ixp::net::Locality>>(
          world.model->as_graph().classify(members));
  world.vantage = std::make_unique<ixp::core::VantagePoint>(
      world.model->ixp(), world.model->routing(), world.model->geo_db(),
      *world.locality, world.model->dns_db(),
      ixp::dns::PublicSuffixList::builtin(), world.model->root_store());
  return world;
}

namespace {

/// An output stream buffer that appends everything written to a byte vector.
class ByteSink : public std::streambuf {
 public:
  std::vector<std::byte> bytes;

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    const auto* first = reinterpret_cast<const std::byte*>(s);
    bytes.insert(bytes.end(), first, first + n);
    return n;
  }
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof()))
      bytes.push_back(static_cast<std::byte>(traits_type::to_char_type(c)));
    return traits_type::not_eof(c);
  }
};

}  // namespace

RecordedWeek record_week(const World& world, int week, Tracer& tracer) {
  auto span = tracer.span("gen.generate");
  ByteSink sink;
  std::ostream out{&sink};
  std::uint64_t samples = 0;
  {
    ixp::sflow::TraceWriter writer{out, ixp::net::Ipv4Addr{172, 16, 0, 1}, 128};
    world.workload->generate_week(
        week, [&](const ixp::sflow::FlowSample& s) { writer.write(s); });
    writer.flush();
    samples = writer.samples_written();
  }
  RecordedWeek recorded{ixp::sflow::MappedTrace::adopt(std::move(sink.bytes)), samples};
  if (!out || !recorded.trace.ok())
    throw std::runtime_error("cannot record week " + std::to_string(week));
  return recorded;
}

void make_dirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) throw std::runtime_error("cannot create " + path + ": " + ec.message());
}

void remove_all(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

ScratchPath::~ScratchPath() { remove_all(path); }

// ---- per-layer metrics -----------------------------------------------------

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics = {
      {"gen.model_build_s", "s"},
      {"gen.generate_ns_per_sample", "ns"},
      {"gen.fetch_chains_s", "s"},
      {"gen.fetch_chains_calls", "count"},
      {"ingest.split_s", "s"},
      {"ingest.decode_ns_per_sample", "ns"},
      {"ingest.bytes_skipped", "B"},
      {"core.observe_ns_per_sample", "ns"},
      {"classify.peering_sample_ratio", "ratio"},
      {"core.reduce_s", "s"},
      {"core.worker_busy_ratio", "ratio"},
      {"core.worker_batch_skew", "ratio"},
      {"core.absorb_s", "s"},
      {"core.finish_week_s", "s"},
      {"core.activity_ips", "count"},
      {"core.bytes_per_peering_ip", "B"},
      {"classify.https_candidates_s", "s"},
      {"classify.summarize_s", "s"},
      {"probe.https_sweep_s", "s"},
      {"probe.https_confirm_s", "s"},
      {"probe.https_confirmed_ratio", "ratio"},
      {"core.collect_sort_s", "s"},
      {"net.routes_of_ns_per_ip", "ns"},
      {"geo.countries_of_ns_per_ip", "ns"},
      {"probe.metadata_pass_s", "s"},
      {"core.aggregate_residual_s", "s"},
      {"store.encode_s", "s"},
      {"store.commit_s", "s"},
      {"store.snapshot_bytes", "B"},
      {"store.scan_s", "s"},
      {"store.open_validate_s", "s"},
      {"store.decode_s", "s"},
      {"store.weeks_run_s", "s"},
      {"analysis.longitudinal_fold_s", "s"},
      {"sflow.frame_parse_ns", "ns"},
      {"core.offer_ns", "ns"},
      {"core.serve_backlog_max", "count"},
      {"core.snapshot_s", "s"},
      {"core.drain_s", "s"},
      {"core.serve_allocs_per_datagram", "count"},
      {"core.serve_lag_p99_ms", "ms"},
      {"sflow.shed_ratio", "ratio"},
      {"harness.gen_late_p99_ms", "ms"},
      {"harness.failed_ratio", "ratio"},
      {"harness.trace_overhead_ratio", "ratio"},
  };
  return metrics;
}

void emit_layers(Result& result, const Layers& layers) {
  for (const LayerMetric& m : layer_metrics()) {
    const auto it = layers.find(m.name);
    result.metric(m.name, it == layers.end() ? 0.0 : it->second, m.unit);
  }
  for (const auto& [name, value] : layers) {
    const bool known = std::any_of(
        layer_metrics().begin(), layer_metrics().end(),
        [&](const LayerMetric& m) { return name == m.name; });
    if (!known) std::cerr << "warning: unlisted layer metric " << name << "\n";
  }
}

}  // namespace perfbench
